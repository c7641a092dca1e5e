// In-solve parallel branch & bound bench: does one solve scale across
// work-stealing workers without changing the answer?
//
// Two workloads, each run at 1 thread and at 8 threads:
//
//  * search — the exact columnar search on the paper's SDR2 instance with
//    2 relocation requests per region (the Fig. 4 configuration). The
//    8-thread run fans the root candidates out over work-stealing workers;
//    status and final cost (wasted frames, wire length) must be identical
//    to the 1-worker run — thread count may change which optimal plan is
//    returned, never how good it is.
//  * milp — the from-scratch MILP branch & bound over a fixed set of
//    random binary programs (the work-stealing engine with per-worker dual
//    reoptimizers and stolen-basis adoption). Statuses and objectives must
//    match the 1-worker run on every instance.
//
// The headline figure is node throughput (B&B nodes per second) at 8
// workers vs 1. The >= 3x acceptance bar only means anything with >= 8
// hardware cores; on fewer cores (CI containers are often 1-2 cores) the
// ratio is recorded as informational and the gate falls back to the
// correctness properties, which hold at any core count:
//
//  * identical status and cost/objective across thread counts (gated),
//  * per-worker telemetry consistent (worker nodes sum to the total, steal
//    counts aggregate; gated),
//  * every plan passes model::check (gated).
//
// A manual program: the throughput bar has no ctest or perfbench home yet.
// The correctness properties are asserted by tests/test_search.cpp
// (Solver.ParallelMatchesSerial, Solver.WorkStealingTelemetryIsConsistent)
// and tests/test_milp.cpp (MilpParallel.*).
//
// Usage: bench_parallel_bb
//   writes BENCH_parallel_bb.json into the current directory.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "device/builders.hpp"
#include "io/json.hpp"
#include "milp/bb.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"
#include "search/solver.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

using namespace rfp;

namespace {

struct RunFigures {
  int threads = 1;
  std::string status;
  double seconds = 0.0;
  long nodes = 0;
  long steals = 0;
  double nodes_per_sec = 0.0;
  long cost_primary = 0;     // search: wasted frames; milp: 0
  double cost_secondary = 0; // search: wire length; milp: summed objective
  bool telemetry_ok = true;  // worker stats sum to the totals
  bool checker_ok = true;    // plans pass model::check (search only)
};

RunFigures runSearch(const model::FloorplanProblem& problem, int threads,
                     const telemetry::Context* ctx = nullptr) {
  search::SearchOptions opt;
  opt.num_threads = threads;
  opt.telemetry = ctx;
  Stopwatch watch;
  const search::SearchResult res = search::ColumnarSearchSolver(opt).solve(problem);
  RunFigures f;
  f.threads = threads;
  f.status = model::toString(res.status);
  f.seconds = watch.seconds();
  f.nodes = res.nodes;
  f.steals = totalSteals(res.workers);
  f.nodes_per_sec = f.seconds > 0 ? static_cast<double>(res.nodes) / f.seconds : 0.0;
  if (res.hasSolution()) {
    f.cost_primary = res.costs.wasted_frames;
    f.cost_secondary = res.costs.wire_length;
    f.checker_ok = model::check(problem, res.plan).empty();
  }
  long wnodes = 0;
  for (const WorkerStats& w : res.workers) wnodes += w.nodes;
  f.telemetry_ok = static_cast<int>(res.workers.size()) == threads && wnodes == res.nodes;
  return f;
}

/// A random knapsack-style binary program. Capacities sit at half the row
/// weight so the LP relaxation is fractional and branch & bound actually
/// builds a tree (a loose capacity would solve at the root).
lp::Model randomBinaryProgram(Rng& rng) {
  lp::Model m;
  const int n = 10 + static_cast<int>(rng.nextBelow(9));
  for (int j = 0; j < n; ++j) m.addBinary("b" + std::to_string(j));
  const int rows = 2 + static_cast<int>(rng.nextBelow(4));
  for (int r = 0; r < rows; ++r) {
    lp::LinExpr e;
    long weight = 0;
    for (int j = 0; j < n; ++j)
      if (rng.nextBool(0.7)) {
        const long c = rng.nextInt(3, 9);
        weight += c;
        e += static_cast<double>(c) * lp::Var{j};
      }
    m.addConstr(e, lp::Sense::kLessEqual, static_cast<double>(weight / 2));
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(1, 12)) * lp::Var{j};
  m.setObjective(obj, lp::ObjSense::kMaximize);
  return m;
}

RunFigures runMilp(const std::vector<lp::Model>& models, int threads,
                   std::vector<std::string>* statuses, std::vector<double>* objectives) {
  RunFigures f;
  f.threads = threads;
  f.status = "optimal";
  Stopwatch watch;
  for (const lp::Model& m : models) {
    milp::MilpSolver::Options opt;
    opt.threads = threads;
    const milp::MipResult res = milp::MilpSolver(opt).solve(m);
    f.nodes += res.nodes;
    f.steals += totalSteals(res.workers);
    if (statuses) statuses->push_back(milp::toString(res.status));
    if (objectives) objectives->push_back(res.status == milp::MipStatus::kOptimal ? res.objective : 0.0);
    if (res.status == milp::MipStatus::kOptimal) f.cost_secondary += res.objective;
    long wnodes = 0;
    for (const WorkerStats& w : res.workers) wnodes += w.nodes;
    if (static_cast<int>(res.workers.size()) != threads || wnodes != res.nodes)
      f.telemetry_ok = false;
  }
  f.seconds = watch.seconds();
  f.nodes_per_sec = f.seconds > 0 ? static_cast<double>(f.nodes) / f.seconds : 0.0;
  return f;
}

void writeFigures(io::JsonWriter& w, const char* key, const RunFigures& f) {
  w.key(key).beginObject();
  w.key("threads").value(f.threads);
  w.key("status").value(f.status);
  w.key("seconds").value(f.seconds);
  w.key("nodes").value(f.nodes);
  w.key("steals").value(f.steals);
  w.key("nodes_per_sec").value(f.nodes_per_sec);
  w.key("cost_primary").value(f.cost_primary);
  w.key("cost_secondary").value(f.cost_secondary);
  w.key("telemetry_ok").value(f.telemetry_ok);
  w.key("checker_ok").value(f.checker_ok);
  w.endObject();
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("PARALLEL B&B: one solve across work-stealing workers (%u cores)\n\n", cores);

  // SDR2 with the Fig. 4 relocation configuration; the device must outlive
  // the problem (it holds a pointer).
  static const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);

  const RunFigures s1 = runSearch(sdr2, 1);
  std::printf("search 1t: %-8s %8.2fs  nodes=%-9ld %.0f nodes/s\n", s1.status.c_str(),
              s1.seconds, s1.nodes, s1.nodes_per_sec);
  const RunFigures s8 = runSearch(sdr2, 8);
  std::printf("search 8t: %-8s %8.2fs  nodes=%-9ld %.0f nodes/s  steals=%ld\n",
              s8.status.c_str(), s8.seconds, s8.nodes, s8.nodes_per_sec, s8.steals);
  const double search_speedup =
      s1.nodes_per_sec > 0 ? s8.nodes_per_sec / s1.nodes_per_sec : 0.0;

  // Same solve with the tracing/metrics subsystem attached. The untraced
  // figures above ARE the disabled-path cost (every instrumentation site
  // compiles to one branch without a context); this run prices the enabled
  // path so the snapshot records what turning tracing on actually costs.
  telemetry::MetricsRegistry trace_reg;
  telemetry::TraceRecorder trace_rec;
  telemetry::Context trace_ctx;
  trace_ctx.metrics = &trace_reg;
  trace_ctx.trace = &trace_rec;
  const RunFigures s8t = runSearch(sdr2, 8, &trace_ctx);
  const double traced_slowdown =
      s8t.nodes_per_sec > 0 ? s8.nodes_per_sec / s8t.nodes_per_sec : 0.0;
  std::printf("search 8t+trace: %-8s %8.2fs  nodes=%-9ld %.0f nodes/s  "
              "events=%ld slowdown=%.2fx\n",
              s8t.status.c_str(), s8t.seconds, s8t.nodes, s8t.nodes_per_sec,
              trace_rec.retained(), traced_slowdown);

  // MILP engine over a fixed random instance set (same models both runs).
  Rng rng(20240841);
  std::vector<lp::Model> models;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) models.push_back(randomBinaryProgram(rng));
  std::vector<std::string> st1, st8;
  std::vector<double> obj1, obj8;
  const RunFigures m1 = runMilp(models, 1, &st1, &obj1);
  std::printf("milp   1t: %d instances %6.2fs  nodes=%-7ld %.0f nodes/s\n", trials, m1.seconds,
              m1.nodes, m1.nodes_per_sec);
  const RunFigures m8 = runMilp(models, 8, &st8, &obj8);
  std::printf("milp   8t: %d instances %6.2fs  nodes=%-7ld %.0f nodes/s  steals=%ld\n\n",
              trials, m8.seconds, m8.nodes, m8.nodes_per_sec, m8.steals);
  const double milp_speedup = m1.nodes_per_sec > 0 ? m8.nodes_per_sec / m1.nodes_per_sec : 0.0;

  io::JsonWriter w;
  w.beginObject();
  bench::writeBenchMeta(w);
  w.key("bench").value("parallel_bb");
  w.key("hardware_cores").value(static_cast<long>(cores));
  writeFigures(w, "search_1t", s1);
  writeFigures(w, "search_8t", s8);
  w.key("search_node_throughput_speedup").value(search_speedup);
  writeFigures(w, "search_8t_traced", s8t);
  w.key("trace_events_retained").value(trace_rec.retained());
  w.key("trace_events_dropped").value(trace_rec.dropped());
  w.key("traced_slowdown").value(traced_slowdown);
  writeFigures(w, "milp_1t", m1);
  writeFigures(w, "milp_8t", m8);
  w.key("milp_node_throughput_speedup").value(milp_speedup);
  // The >= 3x throughput bar needs real cores; record whether this run
  // could even express it so snapshot readers are not misled.
  w.key("throughput_gate_active").value(cores >= 8);
  w.endObject();
  const char* path = "BENCH_parallel_bb.json";
  {
    std::ofstream out(path);
    out << w.str() << "\n";
  }
  std::printf("wrote %s\n", path);

  // Correctness properties hold at any core count.
  bool ok = true;
  if (s1.status != s8.status || s1.cost_primary != s8.cost_primary ||
      std::abs(s1.cost_secondary - s8.cost_secondary) > 1e-6) {
    std::fprintf(stderr, "FAIL: search 8t answer differs from 1t (%s/%ld/%.1f vs %s/%ld/%.1f)\n",
                 s8.status.c_str(), s8.cost_primary, s8.cost_secondary, s1.status.c_str(),
                 s1.cost_primary, s1.cost_secondary);
    ok = false;
  }
  for (std::size_t i = 0; i < st1.size(); ++i) {
    if (st1[i] != st8[i] || std::abs(obj1[i] - obj8[i]) > 1e-6) {
      std::fprintf(stderr, "FAIL: milp instance %zu: 8t %s/%.6f vs 1t %s/%.6f\n", i,
                   st8[i].c_str(), obj8[i], st1[i].c_str(), obj1[i]);
      ok = false;
    }
  }
  if (!s1.checker_ok || !s8.checker_ok) {
    std::fprintf(stderr, "FAIL: a search plan failed model::check\n");
    ok = false;
  }
  // Observability must never change answers: the traced run solves the same
  // problem to the same cost (thread scheduling may pick a different tied
  // plan, so only status + costs are compared, like the 1t/8t gate above).
  if (s8t.status != s8.status || s8t.cost_primary != s8.cost_primary ||
      std::abs(s8t.cost_secondary - s8.cost_secondary) > 1e-6) {
    std::fprintf(stderr, "FAIL: traced search answer differs (%s/%ld/%.1f vs %s/%ld/%.1f)\n",
                 s8t.status.c_str(), s8t.cost_primary, s8t.cost_secondary, s8.status.c_str(),
                 s8.cost_primary, s8.cost_secondary);
    ok = false;
  }
  if (!s8.telemetry_ok || !m8.telemetry_ok) {
    std::fprintf(stderr, "FAIL: per-worker telemetry does not sum to the totals\n");
    ok = false;
  }
  // Throughput gate only where 8 workers can actually run in parallel.
  if (cores >= 8 && search_speedup < 3.0) {
    std::fprintf(stderr, "FAIL: search node throughput speedup %.2fx < 3x on %u cores\n",
                 search_speedup, cores);
    ok = false;
  }
  if (!ok) return 1;
  std::printf("OK: answers identical across thread counts; search speedup %.2fx, milp %.2fx%s\n",
              search_speedup, milp_speedup,
              cores >= 8 ? " (gate >= 3x)" : " (informational: < 8 cores)");
  return 0;
}
