// Branch-and-bound MILP solver over the lp::Model API.
//
// This replaces the commercial branch-and-cut solver used by the paper
// (DESIGN.md §3). Features:
//  * LP relaxation via lp::LpSolver, the sparse revised simplex (lp/sparse/),
//  * child nodes reoptimize from the parent node's optimal basis instead of
//    solving each relaxation cold (the tree solves thousands of
//    near-identical LPs; a warm solve is typically a handful of pivots),
//  * root cover-cut rounds chained warm: each round re-solves from the
//    previous round's basis, and the last basis warm-starts the root node,
//  * hybrid node selection: best-bound with depth-first "plunging", in
//    one work-stealing tree search whose single-worker case is sequential,
//  * most-fractional / pseudo-cost branching,
//  * rounding primal heuristic to find incumbents early,
//  * MIP-gap, node-limit and wall-clock termination,
//  * optional warm-start incumbent (used by the HO flow, Sec. II-A).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lp/counters.hpp"
#include "lp/model.hpp"
#include "support/engine_stats.hpp"

namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::milp {

enum class MipStatus {
  kOptimal,     ///< incumbent proven optimal (within gap tolerance)
  kFeasible,    ///< incumbent found, search truncated (time/node limit)
  kInfeasible,  ///< proven infeasible
  kNoSolution,  ///< search truncated before any incumbent was found
  kUnbounded,
};

[[nodiscard]] const char* toString(MipStatus s) noexcept;

struct MipResult {
  MipStatus status = MipStatus::kNoSolution;
  std::vector<double> x;       ///< incumbent (model variable order)
  double objective = 0.0;      ///< incumbent objective (minimization sense)
  double best_bound = -lp::kInfinity;  ///< proven dual bound
  double gap = lp::kInfinity;  ///< |obj - bound| / max(1, |obj|)
  long nodes = 0;
  double seconds = 0.0;
  /// LP work summed over every relaxation this solve ran: cut rounds, root
  /// and nodes (declined dual attempts add their pivots, not a solve).
  lp::LpCounters lp;
  /// Incumbent exchange through the poll/publish callbacks below (zero
  /// without them).
  ExchangeStats exchange;
  /// Per-worker telemetry: one entry per worker, so one at threads <= 1.
  std::vector<WorkerStats> workers;
  /// Deterministic-replay digest over the node expansion order and steal
  /// schedule (Options::deterministic only; 0 otherwise). Two runs with the
  /// same options produce the same hash — the reproducibility contract.
  std::uint64_t replay_hash = 0;

  [[nodiscard]] bool hasSolution() const noexcept {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
};

class MilpSolver {
 public:
  struct Options {
    double time_limit_seconds = 0.0;  ///< <= 0: none
    /// <= 0: none. The limit is checked only when a worker takes a
    /// node from its pool, and a started plunge runs to its end, so
    /// MipResult::nodes can exceed node_limit by at most plunge_depth (at
    /// every thread count: past the limit only one plunge keeps going).
    long node_limit = 0;
    double gap_tol = 1e-6;            ///< relative MIP gap for optimality
    double int_tol = 1e-6;            ///< integrality tolerance
    int plunge_depth = 64;            ///< DFS dives from each best-bound node
    bool enable_rounding_heuristic = true;
    bool enable_presolve = true;      ///< root bound tightening (presolve.hpp)
    bool enable_cover_cuts = true;    ///< root knapsack cover cuts
    int cut_rounds = 5;               ///< max root separation rounds
    bool pseudo_cost_branching = true;  ///< reliability-style var selection
    /// In-solve parallelism: branch & bound workers over one tree. <= 1 runs
    /// one worker inline on the calling thread. Workers own private
    /// best-bound node pools (and private dual reoptimizers) and steal the
    /// best half of a victim's pool when theirs drains; the incumbent is the
    /// shared pruning cutoff. Thread count changes which optimal solution is
    /// returned, never the final status or objective.
    int threads = 1;
    /// Deterministic replay: the same logical workers run lock-step on one
    /// OS thread in a fixed round-robin schedule, making node order, steal
    /// schedule and MipResult::replay_hash identical across runs. A testing
    /// mode — no wall-clock speedup. It matters only when threads > 1: one
    /// worker is deterministic without it (the flag only adds the hash).
    bool deterministic = false;
    /// Cooperative external cancellation: when non-null and set, the solve
    /// terminates at the next node boundary with a truncated status (an
    /// incumbent stays kFeasible, never kOptimal unless the gap closed).
    /// A run that ends with the flag set never claims kOptimal/kInfeasible:
    /// a cancelled run is not a proof. The pointee must outlive solve().
    /// Used by driver portfolios.
    std::atomic<bool>* stop = nullptr;
    /// Incumbent exchange (driver portfolios), phrased over encoded model
    /// points so the solver stays floorplan-agnostic — the fp layer wraps a
    /// SharedIncumbent with MilpFormulation encode/extract.
    ///
    /// `incumbent_poll` is called at node boundaries; when it returns a
    /// point that is integer-feasible for this model and beats the current
    /// incumbent objective, it is adopted as the cutoff (pruning every node
    /// whose relaxation bound cannot beat it). Cheap no-change polls are the
    /// wrapper's job (version-counter check).
    std::function<std::optional<std::vector<double>>()> incumbent_poll;
    /// Called with every improving incumbent the search itself finds
    /// (integral LP optima and rounding-heuristic hits).
    std::function<void(const std::vector<double>&)> incumbent_publish;
    /// Chain the root cut rounds and reoptimize child nodes from the
    /// parent's optimal basis. Off solves every relaxation cold: the
    /// oracle the tests compare the warm path against (results are
    /// identical either way). Warm node solves go through the dual simplex
    /// first with the primal engine as fallback.
    bool lp_warm_start = true;
    /// Solve-scoped observability (support/telemetry): presolve/cut/root-LP
    /// spans, sampled dual-reopt vs primal-fallback instants, live node
    /// counters. Null keeps every instrumentation site branch-only.
    const telemetry::Context* telemetry = nullptr;
  };

  MilpSolver() = default;
  explicit MilpSolver(Options options) : options_(std::move(options)) {}

  /// Solves `model` to optimality (or until a limit hits). If `warm_start`
  /// is a feasible point it becomes the initial incumbent.
  [[nodiscard]] MipResult solve(const lp::Model& model,
                                std::optional<std::vector<double>> warm_start = {}) const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace rfp::milp
