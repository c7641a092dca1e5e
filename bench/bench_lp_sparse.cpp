// LP substrate bench: the production sparse revised simplex (`LpSolver`)
// against the dense reference tableau (`SimplexSolver`, the tests' oracle)
// on the paper-scale SDR2/SDR3 MILP formulations.
//
// The dense tableau cannot run at this scale (~25 GiB on SDR2, ~54 GiB on
// SDR3), so the bench reports the dense side as the memory estimate it
// would need, checks dense/sparse agreement and wall time head-to-head on a
// smaller generated formulation where both fit, and then solves the SDR
// root relaxations on the sparse engine with a peak-RSS proxy
// (getrusage ru_maxrss) to show they stay in the tens-of-MiB range.
//
// Output: human-readable table plus one JSON document on stdout (between
// BEGIN-JSON / END-JSON markers) for downstream tooling.
//
// Usage: bench_lp_sparse [--smoke] [--reopt]
//   --smoke  only the small generated formulation (for CI: seconds, not
//            minutes, and still fails loudly if the sparse engine stops
//            agreeing with the dense oracle).
//   --reopt  warm node-reoptimization throughput instead of cold solves:
//            the branch & bound pattern (solve the root, then reoptimize a
//            sequence of single-bound-change child nodes from the root
//            basis) timed over the dual fast path vs the primal warm path.
//            Writes BENCH_lp_reopt.json into the current directory for the
//            perf trajectory, and fails if the dual path needs more
//            iterations than the primal path on the same node sequence.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "device/builders.hpp"
#include "fp/formulation.hpp"
#include "io/json.hpp"
#include "lp/lp_solver.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse/csc.hpp"
#include "lp/sparse/revised_simplex.hpp"
#include "model/generator.hpp"
#include "model/problem.hpp"
#include "partition/columnar.hpp"
#include "support/timer.hpp"

using namespace rfp;

namespace {

long peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024;  // Linux reports KiB
}

struct RunRecord {
  std::string name;
  std::string engine;
  int vars = 0, constrs = 0;
  long nnz = 0;
  double est_gib = 0.0;
  std::string status;
  double objective = 0.0;
  long iterations = 0;
  long refactorizations = 0;
  double seconds = 0.0;
  long peak_rss_mib = 0;
  bool executed = false;  ///< false: engine skipped, est_gib is the story
};

void printRecord(const RunRecord& r) {
  if (r.executed) {
    std::printf("%-10s %-7s %6d x %-6d nnz=%-8ld %-10s obj=%-12.4f iters=%-7ld refac=%-4ld %7.2fs peak=%ld MiB\n",
                r.name.c_str(), r.engine.c_str(), r.constrs, r.vars, r.nnz, r.status.c_str(),
                r.objective, r.iterations, r.refactorizations, r.seconds, r.peak_rss_mib);
  } else {
    std::printf("%-10s %-7s %6d x %-6d nnz=%-8ld not run: would need ~%.1f GiB\n",
                r.name.c_str(), r.engine.c_str(), r.constrs, r.vars, r.nnz, r.est_gib);
  }
}

/// Working set of the dense reference tableau: (m+1) x (n+2m+2) doubles.
double tableauGib(const lp::Model& m) {
  const double rows = m.numConstrs();
  const double cols = m.numVars();
  return (rows + 1) * (cols + 2 * rows + 2) * 8.0 / (1024.0 * 1024.0 * 1024.0);
}

/// A record of `m`'s shape and the memory estimate of the dense oracle
/// (`dense`) or the production sparse engine; nothing is run.
RunRecord describe(const std::string& name, const lp::Model& m, bool dense) {
  RunRecord rec;
  rec.name = name;
  rec.engine = dense ? "dense" : "sparse";
  rec.vars = m.numVars();
  rec.constrs = m.numConstrs();
  rec.nnz = lp::sparse::countNonzeros(m);
  rec.est_gib = dense ? tableauGib(m) : lp::LpSolver::sparseFootprintGib(m);
  return rec;
}

RunRecord solveWith(const std::string& name, const lp::Model& m, bool dense,
                    double time_limit) {
  RunRecord rec = describe(name, m, dense);
  lp::LpSolver::Options opt;
  opt.core.max_iterations = 2000000;
  opt.core.time_limit_seconds = time_limit;
  Stopwatch watch;
  const lp::LpResult r =
      dense ? lp::SimplexSolver(opt.core).solve(m) : lp::LpSolver(opt).solve(m);
  rec.status = lp::toString(r.status);
  rec.objective = r.objective;
  rec.iterations = r.counters.iterations;
  rec.refactorizations = r.counters.refactorizations;
  rec.seconds = watch.seconds();
  rec.peak_rss_mib = peakRssMib();
  rec.executed = true;
  return rec;
}

void writeJson(const std::vector<RunRecord>& records) {
  io::JsonWriter w;
  w.beginObject();
  bench::writeBenchMeta(w);
  w.key("bench").value("lp_sparse");
  w.key("runs").beginArray();
  for (const RunRecord& r : records) {
    w.beginObject();
    w.key("name").value(r.name);
    w.key("engine").value(r.engine);
    w.key("vars").value(r.vars);
    w.key("constrs").value(r.constrs);
    w.key("nnz").value(r.nnz);
    w.key("estimated_gib").value(r.est_gib);
    w.key("executed").value(r.executed);
    if (r.executed) {
      w.key("status").value(r.status);
      w.key("objective").value(r.objective);
      w.key("iterations").value(r.iterations);
      w.key("refactorizations").value(r.refactorizations);
      w.key("seconds").value(r.seconds);
      w.key("peak_rss_mib").value(r.peak_rss_mib);
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  std::printf("BEGIN-JSON\n%s\nEND-JSON\n", w.str().c_str());
}

// ---- warm node-reoptimization bench (--reopt) ------------------------------

/// One reoptimization path's aggregate over a node sequence.
struct ReoptPathStats {
  double total_seconds = 0.0;
  lp::LpCounters lp;
  long optimal = 0, infeasible = 0, other = 0;

  [[nodiscard]] long sparseSolves() const { return lp.ftran_sparse + lp.btran_sparse; }

  [[nodiscard]] double meanSeconds(int nodes) const {
    return nodes > 0 ? total_seconds / nodes : 0.0;
  }
  [[nodiscard]] double pivotsPerSec() const {
    const long pivots = lp.primal_pivots + lp.dual_pivots + lp.bound_flips;
    return total_seconds > 0 ? static_cast<double>(pivots) / total_seconds : 0.0;
  }
  [[nodiscard]] double solvesPerSec(int nodes) const {
    return total_seconds > 0 ? nodes / total_seconds : 0.0;
  }
};

struct ReoptRecord {
  std::string name;
  int vars = 0, constrs = 0;
  long nnz = 0;
  int nodes = 0;
  double root_seconds = 0.0;
  long root_iterations = 0;
  ReoptPathStats primal, dual;
  bool agree = true;  ///< both paths reached the same per-node verdicts

  [[nodiscard]] double speedup() const {
    return dual.total_seconds > 0 ? primal.total_seconds / dual.total_seconds : 0.0;
  }
};

void accumulate(ReoptPathStats& stats, const lp::LpResult& r, double seconds,
                std::vector<double>& objectives) {
  stats.total_seconds += seconds;
  stats.lp += r.counters;
  if (r.status == lp::LpStatus::kOptimal) {
    ++stats.optimal;
    objectives.push_back(r.objective);
  } else if (r.status == lp::LpStatus::kInfeasible) {
    ++stats.infeasible;
    objectives.push_back(1e300);  // sentinel: both paths must agree on it
  } else {
    ++stats.other;
    objectives.push_back(-1e300);
  }
}

/// Root solve + a branch & bound style dive replayed over both reopt paths.
///
/// The dive mirrors what `milp/bb.cpp` plunging does: each node tightens
/// one fractional integer variable toward its nearest integer (cumulative
/// bounds) and reoptimizes from the *previous* node's optimal basis. The
/// dual path runs through the persistent `DualReoptimizer` (live factors,
/// the B&B default); the primal path replays the identical bound sequence
/// through warm primal solves (the PR 2 behavior).
ReoptRecord runReoptBench(const std::string& name, const lp::Model& m, int max_nodes) {
  ReoptRecord rec;
  rec.name = name;
  rec.vars = m.numVars();
  rec.constrs = m.numConstrs();
  rec.nnz = lp::sparse::countNonzeros(m);

  const auto csc =
      std::make_shared<const lp::sparse::CscMatrix>(lp::sparse::CscMatrix::fromModel(m));
  std::vector<double> lb0(static_cast<std::size_t>(m.numVars()));
  std::vector<double> ub0(static_cast<std::size_t>(m.numVars()));
  for (int j = 0; j < m.numVars(); ++j) {
    lb0[static_cast<std::size_t>(j)] = m.var(j).lb;
    ub0[static_cast<std::size_t>(j)] = m.var(j).ub;
  }
  lp::LpSolver::Options opt;
  opt.core.max_iterations = 2000000;
  opt.core.time_limit_seconds = 1200;
  Stopwatch root_watch;
  const lp::LpResult root = lp::LpSolver(opt).solve(m, lb0, ub0, nullptr, csc.get());
  rec.root_seconds = root_watch.seconds();
  rec.root_iterations = root.counters.iterations;
  if (root.status != lp::LpStatus::kOptimal || !root.basis) {
    std::printf("%-10s root relaxation did not solve (%s) — skipping reopt\n",
                name.c_str(), lp::toString(root.status));
    rec.agree = false;
    return rec;
  }

  const auto firstFractional = [&m](const std::vector<double>& x) {
    for (int j = 0; j < m.numVars(); ++j) {
      if (m.var(j).type == lp::VarType::kContinuous) continue;
      const double frac =
          x[static_cast<std::size_t>(j)] - std::floor(x[static_cast<std::size_t>(j)]);
      if (frac > 1e-6 && frac < 1.0 - 1e-6) return j;
    }
    return -1;
  };

  // ---- dual path: dive through the persistent reoptimizer ----
  lp::sparse::DualSimplexSolver::Options dopt;
  dopt.core = opt.core;
  dopt.core.time_limit_seconds = 600;
  lp::sparse::DualReoptimizer reopt(m, csc, dopt);
  lp::LpSolver::Options fallback_opt = opt;
  fallback_opt.core.time_limit_seconds = 600;
  fallback_opt.dual_reopt = false;

  std::vector<std::pair<std::vector<double>, std::vector<double>>> dive;  // bound vectors
  std::vector<double> dual_obj;
  std::vector<double> lb = lb0, ub = ub0;
  std::shared_ptr<const lp::sparse::Basis> basis = root.basis;
  std::vector<double> x = root.x;
  while (static_cast<int>(dive.size()) < max_nodes) {
    const int j = firstFractional(x);
    if (j < 0) break;
    const double v = x[static_cast<std::size_t>(j)];
    const double frac = v - std::floor(v);
    if (frac <= 0.5)
      ub[static_cast<std::size_t>(j)] = std::floor(v);  // plunge down
    else
      lb[static_cast<std::size_t>(j)] = std::floor(v) + 1.0;  // plunge up
    dive.emplace_back(lb, ub);
    Stopwatch watch;
    lp::LpResult declined;
    std::optional<lp::LpResult> r = reopt.reoptimize(lb, ub, basis, 600, &declined);
    if (!r) {
      r = lp::LpSolver(fallback_opt).solve(m, lb, ub, basis.get(), csc.get());
      // The abandoned dual attempt's work belongs to the dual path's bill —
      // the iteration-count regression guard must not compare undercounts.
      r->counters += declined.counters;
    }
    accumulate(rec.dual, *r, watch.seconds(), dual_obj);
    if (r->status != lp::LpStatus::kOptimal) break;  // dive hit a dead end
    basis = r->basis;
    x = r->x;
  }
  rec.nodes = static_cast<int>(dive.size());
  if (dive.empty()) {
    rec.agree = false;
    return rec;
  }

  // ---- primal path: identical bound sequence, warm primal solves ----
  std::vector<double> primal_obj;
  basis = root.basis;
  for (const auto& [dlb, dub] : dive) {
    Stopwatch watch;
    const lp::LpResult r =
        lp::LpSolver(fallback_opt).solve(m, dlb, dub, basis.get(), csc.get());
    accumulate(rec.primal, r, watch.seconds(), primal_obj);
    if (r.status != lp::LpStatus::kOptimal) break;
    basis = r.basis;
  }

  const std::size_t common = std::min(dual_obj.size(), primal_obj.size());
  rec.agree = dual_obj.size() == primal_obj.size();
  for (std::size_t i = 0; i < common; ++i)
    if (std::abs(dual_obj[i] - primal_obj[i]) > 1e-5 * (1.0 + std::abs(primal_obj[i])))
      rec.agree = false;
  return rec;
}

void printReopt(const ReoptRecord& r) {
  std::printf("%-10s %d nodes (root %.2fs/%ld iters)\n", r.name.c_str(), r.nodes,
              r.root_seconds, r.root_iterations);
  std::printf("  primal-warm: mean=%.4fs solves/s=%.1f pivots/s=%.0f iters=%ld "
              "(pivots=%ld flips=%ld ft=%ld refac=%ld)\n",
              r.primal.meanSeconds(r.nodes), r.primal.solvesPerSec(r.nodes),
              r.primal.pivotsPerSec(), r.primal.lp.iterations, r.primal.lp.primal_pivots,
              r.primal.lp.bound_flips, r.primal.lp.ft_updates, r.primal.lp.refactorizations);
  std::printf("  dual-warm:   mean=%.4fs solves/s=%.1f pivots/s=%.0f iters=%ld "
              "(pivots=%ld flips=%ld ft=%ld refac=%ld dual-reopts=%ld/%d)\n",
              r.dual.meanSeconds(r.nodes), r.dual.solvesPerSec(r.nodes),
              r.dual.pivotsPerSec(), r.dual.lp.iterations, r.dual.lp.dual_pivots,
              r.dual.lp.bound_flips, r.dual.lp.ft_updates, r.dual.lp.refactorizations,
              r.dual.lp.dual_reopts, r.nodes);
  std::printf("  dual kernel: ftran=%ld/%ld btran=%ld/%ld (sparse/dense) dse-updates=%ld\n",
              r.dual.lp.ftran_sparse, r.dual.lp.ftran_dense, r.dual.lp.btran_sparse,
              r.dual.lp.btran_dense, r.dual.lp.dse_updates);
  std::printf("  speedup (mean node-solve, primal/dual): %.2fx%s\n", r.speedup(),
              r.agree ? "" : "  [MISMATCH]");
}

/// `path == nullptr` prints the JSON to stdout only (smoke runs must not
/// overwrite the tracked full-run snapshot at the repo root).
void writeReoptJson(const std::vector<ReoptRecord>& records, const char* path) {
  io::JsonWriter w;
  w.beginObject();
  bench::writeBenchMeta(w);
  w.key("bench").value("lp_reopt");
  w.key("runs").beginArray();
  for (const ReoptRecord& r : records) {
    w.beginObject();
    w.key("name").value(r.name);
    w.key("vars").value(r.vars);
    w.key("constrs").value(r.constrs);
    w.key("nnz").value(r.nnz);
    w.key("nodes").value(r.nodes);
    w.key("root_seconds").value(r.root_seconds);
    w.key("root_iterations").value(r.root_iterations);
    const auto path_obj = [&w, &r](const char* key, const ReoptPathStats& s) {
      w.key(key).beginObject();
      w.key("mean_node_seconds").value(s.meanSeconds(r.nodes));
      w.key("total_seconds").value(s.total_seconds);
      w.key("solves_per_sec").value(s.solvesPerSec(r.nodes));
      w.key("pivots_per_sec").value(s.pivotsPerSec());
      for (const lp::LpCounterField& f : lp::kLpCounterFields)
        w.key(f.name).value(s.lp.*f.field);
      w.key("optimal").value(s.optimal);
      w.key("infeasible").value(s.infeasible);
      w.endObject();
    };
    path_obj("primal_warm", r.primal);
    path_obj("dual_warm", r.dual);
    w.key("speedup_mean_node_solve").value(r.speedup());
    w.key("agree").value(r.agree);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  if (path) {
    if (std::FILE* f = std::fopen(path, "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s\n", path);
    } else {
      std::printf("WARNING: could not write %s\n", path);
    }
  }
  std::printf("BEGIN-JSON\n%s\nEND-JSON\n", w.str().c_str());
}

int runReoptMode(bool smoke, const device::Device& dev,
                 const partition::ColumnarPartition& part) {
  std::vector<ReoptRecord> records;
  bool ok = true;

  {
    model::GeneratorOptions gopt;
    gopt.num_regions = 3;
    gopt.num_nets = 2;
    for (gopt.seed = 1; gopt.seed < 32; ++gopt.seed)
      if (model::generateProblem(dev, gopt)) break;
    const auto small = model::generateProblem(dev, gopt);
    if (!small) {
      std::fprintf(stderr, "generator failed\n");
      return 1;
    }
    fp::MilpFormulation form(*small, part, {});
    const ReoptRecord rec = runReoptBench("gen-small", form.model(), 12);
    printReopt(rec);
    ok = ok && rec.agree && rec.nodes > 0;
    // Satellite guard: the dual fast path must not need more iterations
    // than the primal warm path on the same node sequence.
    if (rec.dual.lp.iterations > rec.primal.lp.iterations) {
      std::printf("REGRESSION: dual warm reopt used more iterations (%ld) than the "
                  "primal warm path (%ld) on gen-small\n",
                  rec.dual.lp.iterations, rec.primal.lp.iterations);
      ok = false;
    }
    // Warm reopts perturb ~1 bound, so their triangular solves must go
    // through the hyper-sparse kernel — zero sparse solves means the
    // density gate silently regressed to the dense sweeps.
    if (rec.dual.sparseSolves() == 0) {
      std::printf("REGRESSION: hyper-sparse solve path never taken on %s\n",
                  rec.name.c_str());
      ok = false;
    }
    records.push_back(rec);
  }

  if (!smoke) {
    for (const int reloc : {2, 3}) {
      model::FloorplanProblem sdr = model::makeSdrProblem(dev);
      model::addSdrRelocations(sdr, reloc);
      fp::MilpFormulation form(sdr, part, {});
      const ReoptRecord rec =
          runReoptBench("SDR" + std::to_string(reloc), form.model(), 24);
      printReopt(rec);
      ok = ok && rec.agree && rec.nodes > 0;
      // At paper scale wall time is the verdict (dual pivots are far
      // cheaper than primal ones — no per-node refactorizations — so raw
      // iteration counts are not comparable). SDR2 carries the headline
      // hyper-sparse bar (3.2x mean node-solve improvement); SDR3's
      // hyper-degenerate nodes used to defeat dual Devex row pricing and
      // fall back to the primal engine — exact dual steepest edge keeps
      // them on the fast path, so SDR3 now holds the 2x acceptance bar.
      const double bar = reloc == 2 ? 3.2 : 2.0;
      if (rec.speedup() < bar) {
        std::printf("REGRESSION: dual warm reopt speedup %.2fx < %.1fx on %s\n",
                    rec.speedup(), bar, rec.name.c_str());
        ok = false;
      }
      if (rec.dual.sparseSolves() == 0) {
        std::printf("REGRESSION: hyper-sparse solve path never taken on %s\n",
                    rec.name.c_str());
        ok = false;
      }
      records.push_back(rec);
    }
  }

  writeReoptJson(records, smoke ? nullptr : "BENCH_lp_reopt.json");
  std::printf("%s\n", ok ? "BENCH OK" : "BENCH FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool reopt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--reopt") == 0) reopt = true;
  }
  const device::Device dev = device::virtex5FX70T();
  const auto part = partition::columnarPartition(dev);
  if (!part) {
    std::fprintf(stderr, "device not partitionable\n");
    return 1;
  }
  if (reopt) return runReoptMode(smoke, dev, *part);
  std::vector<RunRecord> records;
  bool ok = true;

  // ---- sparse vs the dense oracle where both fit: a generated formulation ----
  model::GeneratorOptions gopt;
  gopt.num_regions = 3;
  gopt.num_nets = 2;
  for (gopt.seed = 1; gopt.seed < 32; ++gopt.seed)
    if (model::generateProblem(dev, gopt)) break;
  const auto small = model::generateProblem(dev, gopt);
  if (!small) {
    std::fprintf(stderr, "generator failed\n");
    return 1;
  }
  fp::MilpFormulation small_form(*small, *part, {});
  const RunRecord sd = solveWith("gen-small", small_form.model(), /*dense=*/true, 120);
  const RunRecord ss = solveWith("gen-small", small_form.model(), /*dense=*/false, 120);
  printRecord(sd);
  printRecord(ss);
  records.push_back(sd);
  records.push_back(ss);
  if (sd.status != "optimal" || ss.status != "optimal") {
    std::printf("REGRESSION: gen-small must solve to optimality on both engines "
                "(dense=%s sparse=%s)\n",
                sd.status.c_str(), ss.status.c_str());
    ok = false;
  } else if (std::abs(sd.objective - ss.objective) > 1e-5 * (1 + std::abs(sd.objective))) {
    std::printf("MISMATCH: dense and sparse disagree on gen-small\n");
    ok = false;
  }

  // ---- paper scale: sparse solves, dense is reported as an estimate ----
  if (!smoke) {
    for (const int reloc : {2, 3}) {
      model::FloorplanProblem sdr = model::makeSdrProblem(dev);
      model::addSdrRelocations(sdr, reloc);
      fp::MilpFormulation form(sdr, *part, {});
      const std::string name = "SDR" + std::to_string(reloc);
      const RunRecord dense_est = describe(name, form.model(), /*dense=*/true);
      printRecord(dense_est);
      records.push_back(dense_est);
      const RunRecord sparse_run = solveWith(name, form.model(), /*dense=*/false, 1200);
      printRecord(sparse_run);
      records.push_back(sparse_run);
      ok = ok && sparse_run.status == "optimal";
      // The headline claim: paper-scale root relaxations in < 2 GiB resident.
      if (sparse_run.peak_rss_mib > 2048) {
        std::printf("REGRESSION: %s sparse root relaxation exceeded 2 GiB resident\n",
                    name.c_str());
        ok = false;
      }
    }
  }

  writeJson(records);
  std::printf("%s\n", ok ? "BENCH OK" : "BENCH FAILED");
  return ok ? 0 : 1;
}
