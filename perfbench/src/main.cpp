// perfbench: the repository's layered, fixed-work benchmark.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --data DIR --out DIR
//       Runs workload W (see gen.hpp) as a closed loop through the public
//       driver::Driver API and prints, as the last line of stdout, one JSON
//       object {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1. A run
//       detail file (work counts per pass, every metric, provenance) and,
//       with --trace 1, the span trace are written to --out.
//   perfbench reference --workload W
//       Prints reference-table lines (exact search, no limits) for every
//       instance of W; perfbench/data/reference.tsv is their concatenation.
//
// Exit status: 0 on a correct run, 1 when any answer is wrong or the work
// counts of two passes disagree, 2 on usage or input errors.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "device/parser.hpp"
#include "driver/cache.hpp"
#include "driver/driver.hpp"
#include "fp/formulation.hpp"
#include "fp/heuristic.hpp"
#include "gen.hpp"
#include "io/json.hpp"
#include "io/problem_text.hpp"
#include "lp/lp_solver.hpp"
#include "lp/sparse/csc.hpp"
#include "lp/sparse/lu.hpp"
#include "milp/bb.hpp"
#include "milp/presolve.hpp"
#include "model/floorplan.hpp"
#include "oracle.hpp"
#include "partition/columnar.hpp"
#include "probe.hpp"
#include "search/candidates.hpp"
#include "search/solver.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;
using rfp::driver::Backend;
using rfp::driver::SolveResponse;
using Clock = std::chrono::steady_clock;

constexpr int kSetupsPerPass = 3;      ///< setup_s is the median of all of a run's set-ups
constexpr std::size_t kMinSamples = 100;  ///< p90 needs 10 samples beyond it
constexpr double kMaxRunSeconds = 150.0;  ///< keeps every run well inside 180 s

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string command, workload, data = "perfbench/data", out = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---- set-up ----------------------------------------------------------------

/// Everything one set-up builds from the workload texts.
struct Setup {
  std::deque<rfp::device::Device> devices;  ///< problems borrow these
  std::vector<rfp::partition::ColumnarPartition> partitions;
  std::vector<rfp::model::FloorplanProblem> problems;
  double device_parse_s = 0.0, problem_parse_s = 0.0, partition_s = 0.0, total_s = 0.0;
};

rfp::driver::DriverOptions driverOptions(const Workload& w) {
  rfp::driver::DriverOptions o;
  o.cache_entries = w.cache_entries;
  o.thread_budget = w.thread_budget;
  return o;
}

rfp::driver::SolveRequest solveRequest(const Workload& w, const Request& r) {
  rfp::driver::SolveRequest q;
  q.backend = r.backend;
  q.use_cache = w.cache_entries > 0;
  q.num_threads = 1;
  q.search.num_threads = 1;
  q.milp.milp.threads = 1;
  if (r.backend == Backend::kSearch) q.search.node_limit = r.node_limit;
  else q.milp.milp.node_limit = r.node_limit;
  return q;
}

/// Closed-loop client: one request at a time, each answered before the next.
std::vector<SolveResponse> call(const rfp::driver::Driver& driver, const Workload& w,
                                const Setup& s, const Request& r) {
  const rfp::driver::SolveRequest q = solveRequest(w, r);
  if (!w.batch) return {driver.solve(s.problems[static_cast<std::size_t>(r.problems[0])], q)};
  std::vector<const rfp::model::FloorplanProblem*> batch;
  for (const int p : r.problems) batch.push_back(&s.problems[static_cast<std::size_t>(p)]);
  return driver.solveBatch(batch, q, w.pool);
}

std::unique_ptr<Setup> setUp(const Workload& w) {
  const Clock::time_point t0 = Clock::now();
  auto setup = std::make_unique<Setup>();
  Setup& s = *setup;
  Clock::time_point t = Clock::now();
  for (const std::string& text : w.devices) s.devices.push_back(rfp::device::parseDevice(text));
  s.device_parse_s = since(t);
  t = Clock::now();
  for (const rfp::device::Device& d : s.devices) {
    auto part = rfp::partition::columnarPartition(d);
    if (!part) throw std::runtime_error("device '" + d.name() + "' is not columnar");
    s.partitions.push_back(std::move(*part));
  }
  s.partition_s = since(t);
  t = Clock::now();
  for (const Workload::Problem& p : w.problems)
    s.problems.push_back(rfp::io::parseProblem(p.text, s.devices[static_cast<std::size_t>(p.device)]));
  s.problem_parse_s = since(t);
  const rfp::driver::Driver driver(driverOptions(w));
  for (const Request& r : w.warmup) (void)call(driver, w, s, r);
  s.total_s = since(t0);
  return setup;
}

// ---- passes ----------------------------------------------------------------

/// Exact work of one pass: identical on every pass of one seed, or the
/// workload depends on the wall clock.
struct WorkCounts {
  long search_nodes = 0, milp_nodes = 0, lp_iterations = 0, engine_runs = 0, seeded = 0;
  bool operator==(const WorkCounts&) const = default;
  [[nodiscard]] std::string str() const {
    std::ostringstream o;
    o << "search.nodes=" << search_nodes << " milp.nodes=" << milp_nodes
      << " lp.iterations=" << lp_iterations << " driver.engine_runs=" << engine_runs
      << " driver.seeded=" << seeded;
    return o.str();
  }
};

struct Answer {
  int problem = 0;
  Request request;  ///< the request that produced it (for replays)
  long request_id = -1;  ///< its span request id in a traced pass
  SolveResponse response;
};

struct Pass {
  std::vector<double> latencies;      ///< per request, seconds on the reference host
  std::vector<double> raw_latencies;  ///< per request, seconds as timed
  std::vector<double> overheads;      ///< per request: Driver wall - engine seconds
  std::vector<Answer> answers;
  double busy_s = 0.0, raw_busy_s = 0.0;
  WorkCounts counts;
  rfp::driver::CacheStats cache;
};

Pass runPass(const Workload& w, const Setup& s, SpanRecorder* spans, long* request_id) {
  // A fresh Driver per pass: batch-sweep's cache starts cold every pass, so
  // every pass does the same work.
  const rfp::driver::Driver driver(driverOptions(w));
  Pass pass;
  HostSpeed host;
  for (const Request& r : w.pass) {
    const Clock::time_point t0 = Clock::now();
    std::vector<SolveResponse> out;
    const long rid = spans != nullptr ? (*request_id)++ : -1;
    if (spans != nullptr) {
      const ScopedSpan span(*spans, w.batch ? "driver.solveBatch" : "driver.solve", rid);
      out = call(driver, w, s, r);
    } else {
      out = call(driver, w, s, r);
    }
    const double wall = since(t0);
    const double scaled = host.scale(wall);
    pass.latencies.push_back(scaled);
    pass.busy_s += scaled;
    pass.raw_latencies.push_back(wall);
    pass.raw_busy_s += wall;
    double engine_s = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      SolveResponse& res = out[i];
      engine_s += res.seconds;
      if (res.served_by == "engine") {
        ++pass.counts.engine_runs;
        (r.backend == Backend::kSearch ? pass.counts.search_nodes : pass.counts.milp_nodes) += res.nodes;
        pass.counts.lp_iterations += res.lp.iterations;
      }
      pass.counts.seeded += res.cache_seeded ? 1 : 0;
      pass.answers.push_back(Answer{r.problems[i], r, rid, std::move(res)});
    }
    const double width = static_cast<double>(std::min<std::size_t>(out.size(), static_cast<std::size_t>(w.pool)));
    pass.overheads.push_back(wall - engine_s / width);
  }
  pass.cache = driver.cacheStats();
  return pass;
}

// ---- the oracle ------------------------------------------------------------

struct Verdicts {
  long attempted = 0, failed = 0, proved = 0;
  std::vector<double> cost_ratios;
  std::vector<std::string> errors;  ///< first few wrong answers

  void merge(const Verdicts& o) {
    attempted += o.attempted;
    failed += o.failed;
    proved += o.proved;
    cost_ratios.insert(cost_ratios.end(), o.cost_ratios.begin(), o.cost_ratios.end());
    for (const std::string& e : o.errors)
      if (errors.size() < 5) errors.push_back(e);
  }
};

/// batch-sweep's generator relies on every answer being storable and on
/// each pool keeping its class: a proof-pool answer is a proof, a
/// truncated-pool answer is a plan without one.
std::string poolViolation(const Workload::Problem& p, const SolveResponse& r) {
  const bool proof = r.status == rfp::driver::SolveStatus::kOptimal;
  if (p.instance[0] == 'p' && !proof) return "proof-pool problem answered without a proof";
  if (p.instance[0] == 't' && (proof || !r.hasSolution()))
    return "truncated-pool problem answered with a proof or without a plan";
  return "";
}

Verdicts judgePass(const Workload& w, const Setup& s, const ReferenceTable& refs,
                   const Pass& pass) {
  Verdicts v;
  for (const Answer& a : pass.answers) {
    const Workload::Problem& p = w.problems[static_cast<std::size_t>(a.problem)];
    const rfp::model::FloorplanProblem& problem = s.problems[static_cast<std::size_t>(a.problem)];
    const auto ref = refs.find(w.name + "/" + p.instance);
    std::string why = ref == refs.end() ? "no reference for instance " + p.instance
                                        : judge(problem, a.response, ref->second);
    if (why.empty() && w.batch) why = poolViolation(p, a.response);
    ++v.attempted;
    const auto st = a.response.status;
    v.proved += st == rfp::driver::SolveStatus::kOptimal || st == rfp::driver::SolveStatus::kInfeasible;
    if (!why.empty()) {
      ++v.failed;
      if (v.errors.size() < 5)
        v.errors.push_back(p.instance + " (" + rfp::driver::toString(a.request.backend) + "): " + why);
    } else if (a.response.hasSolution() && ref->second.feasible) {
      v.cost_ratios.push_back(costRatio(rfp::model::evaluate(problem, a.response.plan), ref->second,
                                        problem.lexicographic()));
    }
  }
  return v;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

long peakRssKib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

std::string resultLine(bool correct, const Verdicts& v, const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << v.attempted
    << ", \"failed\": " << v.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  o << "}}";
  return o.str();
}

void writeDetail(const Args& a, const std::vector<Pass>& passes, const std::vector<Metric>& metrics,
                 const std::vector<Metric>& raw, const Verdicts& v,
                 const std::vector<double>& setups) {
  rfp::io::JsonWriter w;
  w.beginObject();
  rfp::bench::writeBenchMeta(w);
  w.key("workload").value(a.workload);
  w.key("seed").value(static_cast<long>(a.seed));
  w.key("trace").value(a.trace);
  w.key("setup_s").beginArray();
  for (const double s : setups) w.value(s);
  w.endArray();
  w.key("passes").beginArray();
  for (const Pass& p : passes) {
    w.beginObject();
    w.key("requests").value(static_cast<long>(p.latencies.size()));
    w.key("busy_s").value(p.busy_s);
    w.key("raw_busy_s").value(p.raw_busy_s);
    w.key("search.nodes").value(p.counts.search_nodes);
    w.key("milp.nodes").value(p.counts.milp_nodes);
    w.key("lp.iterations").value(p.counts.lp_iterations);
    w.key("driver.engine_runs").value(p.counts.engine_runs);
    w.key("driver.seeded").value(p.counts.seeded);
    w.endObject();
  }
  w.endArray();
  w.key("errors").beginArray();
  for (const std::string& e : v.errors) w.value(e);
  w.endArray();
  w.key("metrics").beginObject();
  for (const Metric& m : metrics) w.key(m.name).value(m.value);
  w.endObject();
  w.key("as_timed").beginObject();
  for (const Metric& m : raw) w.key(m.name).value(m.value);
  w.endObject();
  w.endObject();
  std::ofstream(a.out + "/run-" + a.workload + "-" + std::to_string(a.seed) + "-" +
                (a.trace ? "1" : "0") + ".json")
      << w.str() << "\n";
}

// ---- layer replays (traced run) --------------------------------------------

/// Accumulates replay timings of the public functions below the driver.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
  [[nodiscard]] double mean(const std::string& name) const {
    const auto it = samples.find(name);
    if (it == samples.end() || it->second.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : it->second) sum += x;
    return sum / static_cast<double>(it->second.size());
  }
};

/// Runs `f` inside a span named after `metric` without its unit suffix
/// ("fp.formulation_ms" -> "fp.formulation"), records the span's duration
/// in the metric's unit (`scale` per second) and returns f's result.
template <typename F>
auto timed(SpanRecorder& spans, long req, Layers& layers, const std::string& metric, double scale,
           F&& f) {
  const int id = spans.open(metric.substr(0, metric.rfind('_')), req);
  auto result = f();
  layers.add(metric, spans.close(id) * scale);
  return result;
}

void replaySearch(const rfp::model::FloorplanProblem& p, const rfp::driver::SolveRequest& q,
                  SpanRecorder& spans, long req, Layers& layers) {
  const ScopedSpan root(spans, "replay.search", req);
  (void)timed(spans, req, layers, "search.candidates_ms", 1e3, [&] {
    for (int n = 0; n < p.numRegions(); ++n)
      (void)rfp::search::enumerateCandidates(p, n, q.search.waste_budget, p.lexicographic());
    return 0;
  });
  rfp::search::SearchOptions opt = q.search;
  opt.mode = p.lexicographic() ? rfp::search::ObjectiveMode::kLexicographic
                               : rfp::search::ObjectiveMode::kWeighted;
  (void)timed(spans, req, layers, "search.solve_ms", 1e3,
              [&] { return rfp::search::ColumnarSearchSolver(opt).solve(p); });
}

void replayMilp(const rfp::model::FloorplanProblem& p, const rfp::partition::ColumnarPartition& part,
                SpanRecorder& spans, long req, Layers& layers) {
  const ScopedSpan root(spans, "replay.milp", req);
  (void)timed(spans, req, layers, "fp.heuristic_ms", 1e3,
              [&] { return rfp::fp::constructiveFloorplan(p); });
  rfp::fp::FormulationOptions fo;
  fo.objective = p.lexicographic() ? rfp::fp::ObjectiveKind::kWastedFrames
                                   : rfp::fp::ObjectiveKind::kWeighted;
  const int fid = spans.open("fp.formulation", req);
  const rfp::fp::MilpFormulation f(p, part, fo);
  layers.add("fp.formulation_ms", spans.close(fid) * 1e3);
  const rfp::lp::Model& m = f.model();
  layers.add("fp.model_rows", m.numConstrs());
  layers.add("fp.model_nnz", static_cast<double>(rfp::lp::sparse::countNonzeros(m)));

  std::vector<double> lb, ub;
  for (int j = 0; j < m.numVars(); ++j) lb.push_back(m.var(j).lb), ub.push_back(m.var(j).ub);
  (void)timed(spans, req, layers, "milp.presolve_ms", 1e3,
              [&] { return rfp::milp::tightenBounds(m, lb, ub); });
  const rfp::lp::LpResult root_lp = timed(spans, req, layers, "lp.root_cold_ms", 1e3,
                                          [&] { return rfp::lp::LpSolver().solve(m); });
  if (root_lp.status == rfp::lp::LpStatus::kOptimal)
    (void)timed(spans, req, layers, "milp.cuts_ms", 1e3,
                [&] { return rfp::milp::separateCoverCuts(m, root_lp.x); });
  if (root_lp.basis) {
    const rfp::lp::sparse::CscMatrix a = rfp::lp::sparse::CscMatrix::fromModel(m);
    rfp::lp::sparse::BasisLu lu;
    const bool ok = timed(spans, req, layers, "lp.sparse.lu_factor_ms", 1e3,
                          [&] { return lu.factorize(a, root_lp.basis->basic); });
    if (ok) {
      // FTRAN the first structural columns, BTRAN the first unit rows.
      const int k = std::min({64, a.cols, a.rows});
      rfp::lp::sparse::IndexedVector v;
      const int ftran = spans.open("lp.sparse.ftran", req);
      for (int j = 0; j < k; ++j) {
        v.reset(a.rows);
        for (int e = a.ptr[static_cast<std::size_t>(j)]; e < a.ptr[static_cast<std::size_t>(j) + 1]; ++e)
          v.set(a.idx[static_cast<std::size_t>(e)], a.val[static_cast<std::size_t>(e)]);
        lu.ftranSparse(v);
      }
      layers.add("lp.sparse.ftran_us", spans.close(ftran) * 1e6 / k);
      const int btran = spans.open("lp.sparse.btran", req);
      for (int i = 0; i < k; ++i) {
        v.reset(a.rows);
        v.set(i, 1.0);
        lu.btranSparse(v);
      }
      layers.add("lp.sparse.btran_us", spans.close(btran) * 1e6 / k);
    }
  }
  rfp::milp::MilpSolver::Options mo;
  mo.node_limit = 1;
  (void)timed(spans, req, layers, "milp.root_ms", 1e3,
              [&] { return rfp::milp::MilpSolver(mo).solve(m); });
}

/// Replays one traced pass through the layers' public functions and
/// returns every per-layer metric.
std::vector<Metric> layerMetrics(const Workload& w, const Setup& s, const Pass& pass,
                                 SpanRecorder& spans, double untraced_rate, double traced_rate) {
  Layers layers;
  // driver/: fingerprint and lookup against a shadow cache fed the same
  // answers, so the measured Driver's own cache is never disturbed.
  rfp::driver::ResultCache shadow(std::max<std::size_t>(1, w.cache_entries));
  long hits = 0, coalesced = 0;
  std::set<std::pair<int, bool>> replayed;
  rfp::driver::LpStats lp;
  long lp_dense = 0;
  double search_s = 0.0, milp_s = 0.0;
  long search_nodes = 0, milp_nodes = 0;
  for (const Answer& a : pass.answers) {
    const long req = a.request_id;  // replays share the Driver call's id
    const rfp::model::FloorplanProblem& p = s.problems[static_cast<std::size_t>(a.problem)];
    const SolveResponse& r = a.response;
    hits += r.cache_hit ? 1 : 0;
    coalesced += r.coalesced ? 1 : 0;
    if (r.served_by == "engine") {
      (a.request.backend == Backend::kSearch ? search_s : milp_s) += r.seconds;
      (a.request.backend == Backend::kSearch ? search_nodes : milp_nodes) += r.nodes;
      lp.solves += r.lp.solves;
      lp.iterations += r.lp.iterations;
      lp.warm_start_hits += r.lp.warm_start_hits;
      lp.refactorizations += r.lp.refactorizations;
      lp.dual_reopts += r.lp.dual_reopts;
      lp.ftran_sparse += r.lp.ftran_sparse;
      lp.ftran_dense += r.lp.ftran_dense;
      lp.btran_sparse += r.lp.btran_sparse;
      lp.btran_dense += r.lp.btran_dense;
      lp.dse_updates += r.lp.dse_updates;
      if (r.lp.engine == "dense") lp_dense += r.lp.solves;
    }
    if (r.hasSolution()) {
      const ScopedSpan root(spans, "replay.check", req);
      (void)timed(spans, req, layers, "model.check_us", 1e6, [&] { return rfp::model::check(p, r.plan); });
    }
    const Backend backend = a.request.backend;
    const rfp::driver::SolveRequest q = solveRequest(w, a.request);
    if (w.batch) {
      const ScopedSpan root(spans, "replay.cache", req);
      const rfp::driver::Fingerprint fp = timed(spans, req, layers, "driver.fingerprint_us", 1e6,
          [&] { return rfp::driver::fingerprintProblem(p, q, backend); });
      const rfp::driver::CacheLookup lk = timed(spans, req, layers, "driver.lookup_us", 1e6,
                                                [&] { return shadow.lookup(fp, p); });
      if (lk.outcome != rfp::driver::CacheOutcome::kHit) (void)shadow.insert(fp, p, r);
    }
    // One replay per problem and engine family (MILP-O and -HO share the
    // formulation, presolve, root LP and root node).
    const bool search = backend == Backend::kSearch;
    if (r.served_by != "engine" || !replayed.insert({a.problem, search}).second) continue;
    if (search) {
      replaySearch(p, q, spans, req, layers);
    } else {
      const int dev = w.problems[static_cast<std::size_t>(a.problem)].device;
      replayMilp(p, s.partitions[static_cast<std::size_t>(dev)], spans, req, layers);
    }
  }
  const auto rate = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const double answers = static_cast<double>(pass.answers.size());
  double overhead = 0.0;
  for (const double o : pass.overheads) overhead += o;
  const long ftran = lp.ftran_sparse + lp.ftran_dense, btran = lp.btran_sparse + lp.btran_dense;
  return {
      {"driver.fingerprint_us", "us", layers.mean("driver.fingerprint_us")},
      {"driver.lookup_us", "us", layers.mean("driver.lookup_us")},
      {"driver.hit_ratio", "ratio", rate(static_cast<double>(hits), answers)},
      {"driver.evictions", "count", static_cast<double>(pass.cache.evictions)},
      {"driver.seeded", "count", static_cast<double>(pass.counts.seeded)},
      {"driver.coalesced", "count", static_cast<double>(coalesced)},
      {"driver.engine_runs", "count", static_cast<double>(pass.counts.engine_runs)},
      {"driver.overhead_ms", "ms", 1e3 * overhead / static_cast<double>(pass.overheads.size())},
      {"search.nodes", "count", static_cast<double>(search_nodes)},
      {"search.nodes_per_s", "1/s", rate(static_cast<double>(search_nodes), search_s)},
      {"search.candidates_ms", "ms", layers.mean("search.candidates_ms")},
      {"search.solve_ms", "ms", layers.mean("search.solve_ms")},
      {"fp.formulation_ms", "ms", layers.mean("fp.formulation_ms")},
      {"fp.model_rows", "count", layers.mean("fp.model_rows")},
      {"fp.model_nnz", "count", layers.mean("fp.model_nnz")},
      {"fp.heuristic_ms", "ms", layers.mean("fp.heuristic_ms")},
      {"milp.nodes", "count", static_cast<double>(milp_nodes)},
      {"milp.nodes_per_s", "1/s", rate(static_cast<double>(milp_nodes), milp_s)},
      {"milp.presolve_ms", "ms", layers.mean("milp.presolve_ms")},
      {"milp.cuts_ms", "ms", layers.mean("milp.cuts_ms")},
      {"milp.root_ms", "ms", layers.mean("milp.root_ms")},
      {"lp.solves", "count", static_cast<double>(lp.solves)},
      {"lp.iterations", "count", static_cast<double>(lp.iterations)},
      {"lp.iter_per_s", "1/s", rate(static_cast<double>(lp.iterations), milp_s)},
      {"lp.warm_start_hit_rate", "ratio", lp.warmStartHitRate()},
      {"lp.dual_reopt_rate", "ratio", lp.dualReoptRate()},
      {"lp.refactorizations", "count", static_cast<double>(lp.refactorizations)},
      {"lp.dense_solves", "count", static_cast<double>(lp_dense)},
      {"lp.root_cold_ms", "ms", layers.mean("lp.root_cold_ms")},
      {"lp.sparse.lu_factor_ms", "ms", layers.mean("lp.sparse.lu_factor_ms")},
      {"lp.sparse.ftran_us", "us", layers.mean("lp.sparse.ftran_us")},
      {"lp.sparse.btran_us", "us", layers.mean("lp.sparse.btran_us")},
      {"lp.sparse.ftran_sparse_share", "ratio", rate(static_cast<double>(lp.ftran_sparse), static_cast<double>(ftran))},
      {"lp.sparse.btran_sparse_share", "ratio", rate(static_cast<double>(lp.btran_sparse), static_cast<double>(btran))},
      {"lp.sparse.dse_updates", "count", static_cast<double>(lp.dse_updates)},
      {"model.check_us", "us", layers.mean("model.check_us")},
      {"io.parse_ms", "ms", 1e3 * s.problem_parse_s},
      {"device.parse_ms", "ms", 1e3 * s.device_parse_s},
      {"partition.columnar_ms", "ms", 1e3 * s.partition_s},
      {"trace.overhead_ratio", "ratio", rate(traced_rate, untraced_rate)},
  };
}

// ---- commands --------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int runCommand(const Args& a) {
  const Clock::time_point run_start = Clock::now();
  const Workload w = makeWorkload(a.workload, a.seed);
  const ReferenceTable refs = parseReferenceTable(slurp(a.data + "/reference.tsv"));

  // Set-ups run before every pass rather than all at the start: the host's
  // speed shifts within seconds, and set-ups spread over the run give a
  // median that a slow stretch at its start cannot move. Every set-up builds
  // the same objects; each pass uses the latest. Times are kept both scaled
  // to the reference host (probe.hpp), which the metrics report, and as
  // timed, which the run detail file and stderr report beside them.
  std::vector<double> setup_times, raw_setup_times;
  std::unique_ptr<Setup> setup;
  const auto setUpAgain = [&]() -> const Setup& {
    HostSpeed host;
    for (int i = 0; i < kSetupsPerPass; ++i) {
      setup = setUp(w);
      setup_times.push_back(host.scale(setup->total_s));
      raw_setup_times.push_back(setup->total_s);
    }
    return *setup;
  };

  // Passes keep their latencies and counts; answers are released once
  // judged (retaining them would grow peak_rss_mib with the pass count),
  // except the first traced pass's, which the layer replays need.
  std::vector<Pass> passes;
  std::optional<Pass> traced;
  Verdicts verdicts, first_pass;
  std::vector<std::string> guard;
  // peak_rss_mib is read after the first pass, a fixed amount of work: the
  // process still grows by ~2 MiB per batch-sweep pass, so a reading at the
  // end of the run would follow how many passes the host's speed allowed.
  double peak_rss_mib = 0.0;
  // Whole passes until the budget is spent (an untraced run also until the
  // tail percentile has its samples). Returns every request latency and the
  // median pass's problems per second of busy time, which a transiently
  // slowed pass cannot move.
  std::vector<double> raw_latencies, raw_rates;
  const auto measure = [&](double budget, SpanRecorder* spans, long* request_id) {
    const Clock::time_point t0 = Clock::now();
    std::vector<double> latencies, rates;
    do {
      const Setup& s = setUpAgain();
      Pass p = runPass(w, s, spans, request_id);
      const Verdicts v = judgePass(w, s, refs, p);
      if (passes.empty()) {
        first_pass = v;
        peak_rss_mib = static_cast<double>(peakRssKib()) / 1024.0;
      }
      verdicts.merge(v);
      if (!passes.empty() && !(p.counts == passes.front().counts))
        guard.push_back("pass " + std::to_string(passes.size()) + " did " + p.counts.str() +
                        " but pass 0 did " + passes.front().counts.str());
      latencies.insert(latencies.end(), p.latencies.begin(), p.latencies.end());
      rates.push_back(static_cast<double>(p.answers.size()) / p.busy_s);
      raw_latencies.insert(raw_latencies.end(), p.raw_latencies.begin(), p.raw_latencies.end());
      raw_rates.push_back(static_cast<double>(p.answers.size()) / p.raw_busy_s);
      if (spans != nullptr && !traced) traced = p;
      p.answers = {};
      passes.push_back(std::move(p));
    } while ((since(t0) < budget || (!a.trace && latencies.size() < kMinSamples)) &&
             since(run_start) < kMaxRunSeconds);
    return std::make_pair(std::move(latencies), median(rates));
  };

  std::vector<Metric> metrics, raw;
  if (!a.trace) {
    auto [lat, rate] = measure(a.seconds, nullptr, nullptr);
    std::sort(lat.begin(), lat.end());
    // cost_ratio and proved_ratio are per pass (every pass does the same
    // work); proved_ratio is Laplace-smoothed so node-limited workloads,
    // which rarely prove, read a small positive share instead of 0.
    metrics = {
        {"solve_p50_s", "s", percentile(lat, 0.5)},
        {"solves_per_s", "1/s", rate},
        {"cost_ratio", "ratio", geometricMean(first_pass.cost_ratios)},
        {"proved_ratio", "ratio",
         static_cast<double>(first_pass.proved + 1) / static_cast<double>(first_pass.attempted + 1)},
        {"correct_ratio", "ratio",
         1.0 - static_cast<double>(verdicts.failed) / static_cast<double>(verdicts.attempted)},
        {"setup_s", "s", median(setup_times)},
        {"peak_rss_mib", "MiB", peak_rss_mib},
    };
    if (tailReportable(lat.size(), 0.9))
      metrics.insert(metrics.begin() + 1, Metric{"solve_p90_s", "s", percentile(lat, 0.9)});
    std::sort(raw_latencies.begin(), raw_latencies.end());
    raw = {
        {"solve_p50_s", "s", percentile(raw_latencies, 0.5)},
        {"solve_p90_s", "s", percentile(raw_latencies, 0.9)},
        {"solves_per_s", "1/s", median(raw_rates)},
        {"setup_s", "s", median(raw_setup_times)},
    };
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu requests in %zu passes\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed), lat.size(),
                 passes.size());
  } else {
    SpanRecorder spans;
    long request_id = 0;
    const double untraced_rate = measure(a.seconds / 2, nullptr, nullptr).second;
    const double traced_rate = measure(a.seconds / 2, &spans, &request_id).second;
    metrics = layerMetrics(w, *setup, *traced, spans, untraced_rate, traced_rate);
    std::ofstream(a.out + "/trace-" + a.workload + "-" + std::to_string(a.seed) + ".json")
        << spans.chromeJson(a.workload, a.seed) << "\n";
    std::fprintf(stderr, "perfbench: self time by span (ms):");
    for (const auto& [name, t] : spans.totals())
      std::fprintf(stderr, " %s=%.3f", name.c_str(), t.self_us / 1e3);
    std::fprintf(stderr, "\n");
  }

  for (const std::string& e : verdicts.errors) std::fprintf(stderr, "perfbench: WRONG ANSWER %s\n", e.c_str());
  for (const std::string& g : guard) std::fprintf(stderr, "perfbench: NONDETERMINISTIC WORK %s\n", g.c_str());
  for (const Metric& m : metrics)
    std::fprintf(stderr, "perfbench: %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : raw)
    std::fprintf(stderr, "perfbench: %-32s %.6g %s (as timed)\n", m.name.c_str(), m.value, m.unit.c_str());
  writeDetail(a, passes, metrics, raw, verdicts, setup_times);
  const bool correct = verdicts.failed == 0 && guard.empty();
  std::printf("%s\n", resultLine(correct, verdicts, metrics).c_str());
  return correct ? 0 : 1;
}

int referenceCommand(const Args& a) {
  const Workload w = makeWorkload(a.workload, a.seed);
  std::deque<rfp::device::Device> devices;
  for (const std::string& text : w.devices) devices.push_back(rfp::device::parseDevice(text));
  std::set<std::string> done;
  for (const Workload::Problem& p : w.problems) {
    if (!done.insert(p.instance).second) continue;
    const rfp::model::FloorplanProblem problem =
        rfp::io::parseProblem(p.text, devices[static_cast<std::size_t>(p.device)]);
    rfp::search::SearchOptions opt;
    opt.mode = problem.lexicographic() ? rfp::search::ObjectiveMode::kLexicographic
                                       : rfp::search::ObjectiveMode::kWeighted;
    const rfp::search::SearchResult r = rfp::search::ColumnarSearchSolver(opt).solve(problem);
    if (r.status != rfp::search::SearchStatus::kOptimal &&
        r.status != rfp::search::SearchStatus::kInfeasible)
      throw std::runtime_error("exact search did not finish on " + p.instance);
    Reference ref;
    ref.feasible = r.status == rfp::search::SearchStatus::kOptimal;
    ref.waste = r.costs.wasted_frames;
    ref.wire_length = r.costs.wire_length;
    ref.objective = r.costs.objective;
    std::printf("%s\n", formatReference(w.name + "/" + p.instance, ref).c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 "
               "[--data DIR] [--out DIR]\n"
               "       perfbench reference --workload W\n"
               "workloads:");
  for (const std::string& n : workloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // At most nproc malloc arenas. glibc's default (8 per core) lets
  // batch-sweep's short-lived pool threads keep opening fresh arenas, so
  // peak_rss_mib would grow with the number of passes a run happens to fit.
  mallopt(M_ARENA_MAX, 4);
  Args a;
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") a.workload = val;
    else if (flag == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(val.c_str());
    else if (flag == "--trace") a.trace = val == "1";
    else if (flag == "--data") a.data = val;
    else if (flag == "--out") a.out = val;
    else return usage();
  }
  if (a.workload.empty()) return usage();
  try {
    if (a.command == "run") return runCommand(a);
    if (a.command == "reference") return referenceCommand(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
  return usage();
}
