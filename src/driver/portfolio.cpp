// Portfolio mode: cooperating backends on one problem.
//
// Every backend gets a shared cancellation flag and (unless disabled) a
// SharedIncumbent exchange channel: the incomplete engines publish improving
// floorplans mid-run, the provers consume them as objective cutoffs and
// publish their own improvements back. A backend that *proves* its result
// (optimal or infeasible, exhaustive engines only) sets the flag, which the
// other engines observe at their next poll point and unwind from — so each
// stage's wall clock tracks its fastest prover, not its slowest member
// (a staged run additionally pays stage 1's slice, capped at
// kStage1MaxSeconds, before the provers start).
// Without a proof, everyone runs to its own limit and the best incumbent
// under the problem's objective wins.
//
// With a deadline and a positive SolveRequest::stage1_fraction, the race
// is staged instead of flat: the incomplete engines (annealer, heuristic,
// HO) run first on a short slice of the budget, their best incumbent seeds
// the provers' cutoff through the channel, and the provers inherit the
// entire remaining budget — the paper's fast-heuristic-feeds-exact-MILP
// combination as a scheduling policy. The slice itself is adaptive: a
// watchdog ends stage 1 as soon as the incumbent channel has gone quiet for
// a configurable fraction of the slice (HO in particular rarely finishes on
// its own, yet stops improving the channel early), handing the saved time
// to the provers.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "driver/backend_runner.hpp"
#include "driver/driver.hpp"
#include "driver/incumbent.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::driver {

namespace {

/// Absolute cap on stage 1's slice. Members like HO rarely finish before
/// their slice expires, so without a cap a generous deadline imposes
/// `stage1_fraction * deadline` of latency before any prover starts — even
/// on instances the provers settle in seconds.
constexpr double kStage1MaxSeconds = 10.0;

const std::vector<Backend>& defaultPortfolio() {
  // The heuristic is omitted: it is the annealer's and HO's first stage
  // already, so a dedicated racer adds no coverage.
  static const std::vector<Backend> kDefault = {Backend::kSearch, Backend::kMilpO,
                                                Backend::kMilpHO, Backend::kAnnealer};
  return kDefault;
}

/// Runs the members at `indices` concurrently, one thread per member. Each
/// member that produces a proof raises the shared stop flag.
void runStage(const model::FloorplanProblem& problem, const SolveRequest& request,
              const std::vector<Backend>& backends, const std::vector<std::size_t>& indices,
              std::atomic<bool>& stop, SharedIncumbent* channel,
              std::vector<SolveResponse>& responses) {
  // Each thread writes only its own element, and join() publishes the
  // writes before arbitration reads them — no lock needed.
  std::vector<std::thread> threads;
  threads.reserve(indices.size());
  for (const std::size_t i : indices) {
    threads.emplace_back([&, i] {
      // Member span on the member's own thread: the exported timeline gets
      // one row per racer, with the engine's own spans nested underneath.
      telemetry::Span member_span(request.telemetry, "portfolio", toString(backends[i]));
      responses[i] = detail::runBackend(problem, request, backends[i], &stop, channel);
      if (member_span.active())
        member_span.note("status", toString(responses[i].status));
      // Cancel the losers only on a proof: an incumbent without one could
      // still be beaten by a backend that is mid-run.
      if (detail::isProof(responses[i])) stop.store(true, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

SolveResponse Driver::solvePortfolio(const model::FloorplanProblem& problem,
                                     const SolveRequest& request) const {
  Stopwatch watch;
  const detail::ProgressTicker ticker(request.telemetry, request.progress_interval_seconds);
  telemetry::Span race_span(request.telemetry, "driver", "portfolio");
  const std::vector<Backend>& backends =
      request.portfolio.empty() ? defaultPortfolio() : request.portfolio;
  if (backends.empty()) return SolveResponse{};
  if (backends.size() == 1) {
    SolveResponse only = detail::runBackend(problem, request, backends[0], nullptr);
    only.seconds = watch.seconds();
    return only;
  }

  SharedIncumbent channel(problem);
  SharedIncumbent* chan = request.incumbent_exchange ? &channel : nullptr;

  // Staged deadline splitting needs a budget to split, a channel to hand the
  // stage-1 incumbent over, and both member classes present.
  std::vector<std::size_t> incomplete, provers;
  for (std::size_t i = 0; i < backends.size(); ++i)
    (isExhaustive(backends[i]) ? provers : incomplete).push_back(i);
  const bool staged = request.deadline_seconds > 0 && request.stage1_fraction > 0 &&
                      chan != nullptr && !incomplete.empty() && !provers.empty();

  std::atomic<bool> stop{false};
  std::vector<SolveResponse> responses(backends.size());
  double stage1_seconds = 0.0;
  bool stage1_ended_early = false;
  if (staged) {
    // Stage 1: incomplete engines on a slice of the budget (they stop
    // earlier on their own limits). Proofs cannot arise here, so stage 2's
    // shared stop flag stays untouched — stage 1 gets its *own* flag, which
    // the quiet watchdog below may raise without cancelling the provers.
    SolveRequest stage1 = request;
    stage1.deadline_seconds = std::min(
        kStage1MaxSeconds, request.deadline_seconds * std::min(1.0, request.stage1_fraction));

    // Adaptive slice: members like HO rarely finish before the slice
    // expires, but the channel usually stops improving long before — once
    // it has been quiet for `stage1_quiet_fraction` of the slice, the rest
    // of the slice buys nothing the provers could not use better. The
    // watchdog ends stage 1 early in that case; the provers then inherit
    // the saved time automatically (stage 2's budget is computed from the
    // live wall clock).
    std::atomic<bool> stage1_stop{false};
    std::atomic<bool> stage1_done{false};
    std::thread watchdog;
    if (request.stage1_quiet_fraction > 0) {
      watchdog = std::thread([&] {
        const double quiet_limit =
            std::max(0.01, request.stage1_quiet_fraction * stage1.deadline_seconds);
        std::uint64_t last_version = chan->version();
        Stopwatch quiet;
        while (!stage1_done.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          const std::uint64_t v = chan->version();
          if (v != last_version) {
            last_version = v;
            quiet.reset();
          } else if (v > 0 && quiet.seconds() >= quiet_limit) {
            // `v > 0`: a channel that has never spoken is not "quiet", it
            // is still warming up — cutting stage 1 before the first
            // publish would hand the provers an empty channel, worse than
            // the full slice ever was. If nothing publishes at all, stage 1
            // simply runs to its slice like before.
            stage1_ended_early = true;
            stage1_stop.store(true, std::memory_order_relaxed);
            return;
          }
        }
      });
    }
    {
      telemetry::Span stage1_span(request.telemetry, "portfolio", "stage1");
      runStage(problem, stage1, backends, incomplete, stage1_stop, chan, responses);
      stage1_done.store(true, std::memory_order_relaxed);
      if (watchdog.joinable()) watchdog.join();
      if (stage1_span.active() && stage1_ended_early) stage1_span.note("ended", "early");
    }
    stage1_seconds = watch.seconds();

    // Stage 2: the provers inherit everything that is left; the channel
    // already holds stage 1's best incumbent as their cutoff.
    SolveRequest stage2 = request;
    stage2.deadline_seconds = std::max(0.01, request.deadline_seconds - stage1_seconds);
    telemetry::Span stage2_span(request.telemetry, "portfolio", "stage2");
    runStage(problem, stage2, backends, provers, stop, chan, responses);
  } else {
    std::vector<std::size_t> all(backends.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    runStage(problem, request, backends, all, stop, chan, responses);
  }

  // Arbitration: proof of optimality > proof of infeasibility > best
  // incumbent (problem objective; ties to the earlier portfolio position) >
  // nothing.
  const SolveResponse* winner = nullptr;
  for (const SolveResponse& r : responses)
    if (detail::isProof(r) && r.status == model::SolveStatus::kOptimal) {
      winner = &r;
      break;
    }
  if (!winner)
    for (const SolveResponse& r : responses)
      if (detail::isProof(r) && r.status == model::SolveStatus::kInfeasible) {
        winner = &r;
        break;
      }
  if (!winner)
    for (const SolveResponse& r : responses) {
      if (!r.hasSolution()) continue;
      if (!winner || model::strictlyBetter(problem, r.costs, winner->costs)) winner = &r;
    }

  // The winner's own work count: summing across members would add B&B nodes
  // to annealer iterations, a meaningless mixed-unit figure. Per-member
  // counts stay in `members` (and each member's detail string).
  SolveResponse out = winner ? *winner : SolveResponse{};
  out.members.clear();
  for (std::size_t i = 0; i < backends.size(); ++i) {
    PortfolioMemberStats m;
    m.backend = backends[i];
    m.status = responses[i].status;
    m.stage = !staged ? 0 : (isExhaustive(backends[i]) ? 2 : 1);
    m.seconds = responses[i].seconds;
    m.nodes = responses[i].nodes;
    m.exchange = responses[i].exchange;
    out.members.push_back(m);
  }
  if (chan) {
    out.incumbent.source = chan->source();
    out.incumbent.publishes = chan->publishes();
    out.incumbent.adoptions = chan->adoptions();
    for (const SolveResponse& r : responses)
      out.incumbent.cutoff_prunes += r.exchange.cutoff_prunes;
  }
  out.incumbent.staged = staged;
  out.incumbent.stage1_seconds = stage1_seconds;
  out.incumbent.stage1_ended_early = stage1_ended_early;

  std::ostringstream detail;
  detail << "portfolio[" << backends.size() << "]";
  if (staged)
    detail << " staged(stage1=" << stage1_seconds << "s"
           << (stage1_ended_early ? ", ended early: channel quiet" : "") << ")";
  if (chan)
    detail << " incumbent(source=" << out.incumbent.source
           << " adoptions=" << out.incumbent.adoptions
           << " cutoff-prunes=" << out.incumbent.cutoff_prunes << ")";
  detail << " winner=" << (winner ? toString(out.backend) : "-");
  for (const SolveResponse& r : responses) detail << " | " << r.detail;
  out.detail = detail.str();
  out.seconds = watch.seconds();
  if (race_span.active()) race_span.note("winner", winner ? toString(out.backend) : "-");
  detail::populateMetrics(&out);
  return out;
}

}  // namespace rfp::driver
