#include "driver/backend_runner.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "driver/incumbent.hpp"
#include "fp/heuristic.hpp"
#include "support/log.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::driver::detail {

namespace {

SolveResponse runSearch(const model::FloorplanProblem& problem, const SolveRequest& request,
                        std::atomic<bool>* external_stop, SharedIncumbent* channel) {
  search::SearchOptions opt = request.search;
  opt.mode = problem.lexicographic() ? search::ObjectiveMode::kLexicographic
                                     : search::ObjectiveMode::kWeighted;
  opt.num_threads = std::max({1, opt.num_threads, request.num_threads});
  opt.time_limit_seconds = cappedLimit(opt.time_limit_seconds, request.deadline_seconds);
  if (external_stop) opt.stop = external_stop;
  if (channel) opt.incumbent = channel;
  if (!opt.telemetry) opt.telemetry = request.telemetry;

  SolveResponse out;
  static_cast<model::SolveOutcome&>(out) = search::ColumnarSearchSolver(opt).solve(problem);
  std::ostringstream d;
  d << "search: " << toString(out.status) << " nodes=" << out.nodes;
  if (out.exchange.adopted > 0 || out.exchange.cutoff_prunes > 0)
    d << " adopted=" << out.exchange.adopted << " cutoff-prunes=" << out.exchange.cutoff_prunes;
  if (out.workers.size() > 1)
    d << " workers=" << out.workers.size() << " steals=" << totalSteals(out.workers);
  out.detail = d.str();
  return out;
}

SolveResponse runMilp(const model::FloorplanProblem& problem, const SolveRequest& request,
                      Backend backend, std::atomic<bool>* external_stop,
                      SharedIncumbent* channel) {
  fp::MilpFloorplannerOptions opt = request.milp;
  opt.algorithm = backend == Backend::kMilpO ? fp::Algorithm::kO : fp::Algorithm::kHO;
  opt.milp.threads = std::max({1, opt.milp.threads, request.num_threads});
  opt.time_limit_seconds = cappedLimit(opt.time_limit_seconds, request.deadline_seconds);
  if (external_stop) opt.milp.stop = external_stop;
  if (channel) opt.incumbent = channel;
  if (!opt.milp.telemetry) opt.milp.telemetry = request.telemetry;

  const fp::FpResult res = fp::MilpFloorplanner(opt).solve(problem);
  SolveResponse out;
  static_cast<model::SolveOutcome&>(out) = res;
  // HO's MILP runs with sequence-pair constraints extracted from one
  // heuristic solution; an infeasible verdict there only covers the
  // restricted space, so it is no proof for the full problem.
  if (backend == Backend::kMilpHO && out.status == model::SolveStatus::kInfeasible)
    out.status = model::SolveStatus::kNoSolution;
  if (res.lp.solves > 0) out.lp = LpStats{res.lp, "sparse"};
  out.detail = std::string(toString(backend)) + ": " + res.detail;
  return out;
}

SolveResponse runHeuristic(const model::FloorplanProblem& problem, const SolveRequest& request,
                           std::atomic<bool>* external_stop, SharedIncumbent* channel) {
  Stopwatch watch;
  fp::HeuristicOptions opt = request.heuristic;
  opt.time_limit_seconds = cappedLimit(opt.time_limit_seconds, request.deadline_seconds);
  if (external_stop) opt.stop = external_stop;
  if (channel) opt.incumbent = channel;
  if (!opt.telemetry) opt.telemetry = request.telemetry;
  const std::optional<model::Floorplan> plan = fp::constructiveFloorplan(problem, opt);
  SolveResponse out;
  if (plan) {
    out.status = model::SolveStatus::kFeasible;
    out.plan = *plan;
    out.costs = model::evaluate(problem, out.plan);
    out.exchange.published = channel ? 1 : 0;
    out.detail = "heuristic: feasible";
  } else {
    out.detail = "heuristic: no feasible construction";
  }
  out.seconds = watch.seconds();
  return out;
}

SolveResponse runAnnealer(const model::FloorplanProblem& problem, const SolveRequest& request,
                          std::atomic<bool>* external_stop, SharedIncumbent* channel) {
  Stopwatch watch;
  baseline::AnnealerOptions opt = request.annealer;
  opt.time_limit_seconds = cappedLimit(opt.time_limit_seconds, request.deadline_seconds);
  if (external_stop) opt.stop = external_stop;
  if (channel) opt.incumbent = channel;
  if (!opt.telemetry) opt.telemetry = request.telemetry;
  const std::optional<baseline::AnnealResult> res = baseline::annealFloorplan(problem, opt);
  SolveResponse out;
  if (res) {
    out.status = model::SolveStatus::kFeasible;
    out.plan = res->plan;
    out.costs = res->costs;
    out.nodes = res->iterations;
    out.exchange.published = res->published;
    std::ostringstream d;
    d << "annealer: feasible iterations=" << res->iterations
      << " accepted=" << res->accepted_moves;
    out.detail = d.str();
  } else {
    out.detail = "annealer: no feasible starting floorplan";
  }
  out.seconds = watch.seconds();
  return out;
}

}  // namespace

double cappedLimit(double configured, double deadline) noexcept {
  if (deadline <= 0) return configured;
  return configured > 0 ? std::min(configured, deadline) : deadline;
}

void capInSolveThreads(SolveRequest* request, int budget) noexcept {
  if (budget <= 0) return;
  request->num_threads = std::clamp(request->num_threads, 1, budget);
  request->search.num_threads = std::clamp(request->search.num_threads, 1, budget);
  request->milp.milp.threads = std::clamp(request->milp.milp.threads, 1, budget);
}

bool isProof(const SolveResponse& response) noexcept {
  return isExhaustive(response.backend) && (response.status == model::SolveStatus::kOptimal ||
                                            response.status == model::SolveStatus::kInfeasible);
}

ProgressTicker::ProgressTicker(const telemetry::Context* ctx, double interval_seconds) {
  if (ctx == nullptr || ctx->metrics == nullptr || interval_seconds <= 0) return;
  telemetry::MetricsRegistry* reg = ctx->metrics;
  thread_ = std::thread([this, reg, interval_seconds] {
    const auto interval = std::chrono::duration<double>(interval_seconds);
    sync::UniqueLock lock(mu_);
    // Timed wait instead of a sleep-poll: a full interval elapsing emits a
    // tick, while the destructor's notify ends the thread immediately
    // rather than after a nap (a 1 ms solve used to pay a 20 ms ticker).
    while (!cv_.wait_for(lock, interval, [this]() RFP_REQUIRES(mu_) { return stop_; })) {
      // Live reads race the workers' relaxed bumps on purpose: a progress
      // line may run a beat behind, never wrong by more than in-flight adds.
      const long nodes =
          reg->counter("search.nodes").total() + reg->counter("milp.nodes").total();
      const long steals =
          reg->counter("search.steals").total() + reg->counter("milp.steals").total();
      RFP_LOG_INFO("progress: nodes=" << nodes
                                      << " lp.solves=" << reg->counter("lp.solves").total()
                                      << " lp.iterations=" << reg->counter("lp.iterations").total()
                                      << " steals=" << steals << " incumbent_adoptions="
                                      << reg->counter("incumbent.adoptions").total());
    }
  });
}

ProgressTicker::~ProgressTicker() {
  if (thread_.joinable()) {
    {
      const sync::MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
}

void populateMetrics(SolveResponse* response) {
  std::map<std::string, double>& m = response->metrics;
  m["nodes"] = static_cast<double>(response->nodes);
  m["seconds"] = response->seconds;
  if (!response->workers.empty()) {
    m["steals"] = static_cast<double>(totalSteals(response->workers));
    m["workers"] = static_cast<double>(response->workers.size());
  }
  if (response->lp.solves > 0) {
    for (const lp::LpCounterField& f : lp::kLpCounterFields)
      m[std::string("lp.") + f.name] = static_cast<double>(response->lp.*f.field);
    for (const lp::LpRateField& r : lp::kLpRates)
      m[std::string("lp.") + r.name] = (response->lp.*r.rate)();
  }
  if (response->exchange.any()) {
    m["incumbent.published"] = static_cast<double>(response->exchange.published);
    m["incumbent.adopted"] = static_cast<double>(response->exchange.adopted);
    m["incumbent.cutoff_prunes"] = static_cast<double>(response->exchange.cutoff_prunes);
  }
  if (response->incumbent.publishes > 0 || response->incumbent.staged) {
    m["portfolio.publishes"] = static_cast<double>(response->incumbent.publishes);
    m["portfolio.adoptions"] = static_cast<double>(response->incumbent.adoptions);
    m["portfolio.stage1_seconds"] = response->incumbent.stage1_seconds;
  }
  if (!response->members.empty())
    m["portfolio.members"] = static_cast<double>(response->members.size());
}

SolveResponse runBackend(const model::FloorplanProblem& problem, const SolveRequest& request,
                         Backend backend, std::atomic<bool>* external_stop,
                         SharedIncumbent* channel) {
  telemetry::Span backend_span(request.telemetry, "driver", toString(backend));
  SolveResponse out;
  switch (backend) {
    case Backend::kSearch: out = runSearch(problem, request, external_stop, channel); break;
    case Backend::kMilpO:
    case Backend::kMilpHO:
      out = runMilp(problem, request, backend, external_stop, channel);
      break;
    case Backend::kHeuristic:
      out = runHeuristic(problem, request, external_stop, channel);
      break;
    case Backend::kAnnealer: out = runAnnealer(problem, request, external_stop, channel); break;
  }
  out.backend = backend;
  if (out.workers.size() < 2) out.workers.clear();  // listed for parallel solves only
  // Boundary guarantee: a run that ends with the shared stop flag set was
  // cancelled, and a cancelled run is not a proof — whatever slipped through
  // the engine's own truncation handling (e.g. a verdict computed before the
  // flag was raised, or an LP cut short mid-pivot behind an "exhausted"
  // tree) is downgraded here. The cancelling winner holds the real proof.
  if (external_stop && external_stop->load(std::memory_order_relaxed)) {
    if (out.status == model::SolveStatus::kOptimal) {
      out.status = model::SolveStatus::kFeasible;
      out.detail += " [cancelled: optimality claim downgraded]";
    } else if (out.status == model::SolveStatus::kInfeasible) {
      out.status = model::SolveStatus::kNoSolution;
      out.detail += " [cancelled: infeasibility claim downgraded]";
    }
  }
  if (backend_span.active()) {
    backend_span.arg("nodes", static_cast<double>(out.nodes));
    backend_span.note("status", toString(out.status));
  }
  populateMetrics(&out);
  return out;
}

}  // namespace rfp::driver::detail
