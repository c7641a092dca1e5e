// Unified solve orchestration over the interchangeable floorplanning engines.
//
// The repo ships four ways to floorplan the same `model::FloorplanProblem`:
// the exact columnar branch-and-bound search (src/search), the MILP
// floorplanners O and HO over the from-scratch simplex (src/fp + src/milp),
// the constructive heuristic (src/fp), and the simulated annealer
// (src/baseline). The driver gives them one request/response API and three
// execution modes:
//
//  * single    — dispatch to one backend (Driver::solve),
//  * portfolio — run several backends on std::thread, cooperating through a
//    SharedIncumbent exchange channel next to the shared stop flag: the
//    incomplete engines publish improving floorplans mid-run, the provers
//    consume them as objective cutoffs and publish back, the first proof
//    cancels the rest, and at the deadline the best incumbent wins. With a
//    deadline, the race is staged: the incomplete engines get a short first
//    slice whose incumbent seeds the provers' cutoff, then the provers
//    inherit the remaining budget (Driver::solvePortfolio),
//  * batch     — solve N problems across a thread pool for throughput
//    (Driver::solveBatch); per-problem results are independent of the pool
//    size. An external stop flag and an overall deadline cancel the whole
//    batch cooperatively.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/annealer.hpp"
#include "fp/milp_floorplanner.hpp"
#include "lp/counters.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"
#include "search/solver.hpp"

namespace rfp::telemetry {
struct Context;  // support/telemetry/trace.hpp
}

namespace rfp::driver {

enum class Backend {
  kSearch,     ///< exact columnar branch-and-bound (proves optimality)
  kMilpO,      ///< MILP, full solution space (proves optimality)
  kMilpHO,     ///< MILP restricted by a heuristic sequence pair (no proofs)
  kHeuristic,  ///< constructive heuristic, first feasible solution
  kAnnealer,   ///< simulated-annealing baseline
};

[[nodiscard]] const char* toString(Backend b) noexcept;
[[nodiscard]] std::optional<Backend> backendFromString(std::string_view name) noexcept;

/// Every dispatchable backend, exact engines first.
[[nodiscard]] const std::vector<Backend>& allBackends();

/// True for engines whose completed run is a proof (optimality or
/// infeasibility): exact search and MILP O. HO explores a restricted space
/// and the heuristic/annealer are incomplete.
[[nodiscard]] bool isExhaustive(Backend b) noexcept;

enum class SolveStatus {
  kOptimal,     ///< proven optimal by an exhaustive backend
  kFeasible,    ///< valid floorplan without an optimality proof
  kInfeasible,  ///< proven infeasible by an exhaustive backend
  kNoSolution,  ///< nothing found before the limits hit
};

[[nodiscard]] const char* toString(SolveStatus s) noexcept;

struct SolveRequest {
  Backend backend = Backend::kSearch;  ///< single-backend + batch dispatch
  /// Portfolio composition; empty selects {search, milp-o, milp-ho,
  /// annealer}. Ignored outside solvePortfolio().
  std::vector<Backend> portfolio;
  /// Wall-clock budget per solve; <= 0: none. Tightens (never loosens) the
  /// per-backend time limits below.
  double deadline_seconds = 0.0;
  /// In-solve parallelism: work-stealing workers inside one solve. Takes the
  /// max with search.num_threads (exact search) and milp.milp.threads (MILP
  /// branch & bound). Thread count changes which optimal solution is
  /// returned, never the status or the objective value.
  int num_threads = 1;
  /// Portfolio: share incumbents between the backends through a
  /// SharedIncumbent channel (publish/consume as objective cutoffs). The
  /// result is never worse than the blind race — an adopted incumbent only
  /// tightens pruning and arbitration already ranked published plans.
  bool incumbent_exchange = true;
  /// Portfolio: staged deadline splitting. With a deadline, an exchange
  /// channel, and a portfolio mixing incomplete engines with provers, the
  /// incomplete engines run first on `stage1_fraction * deadline_seconds`
  /// (they typically finish earlier on their own limits), their best
  /// incumbent seeds the provers' cutoff, and the provers inherit the whole
  /// remaining budget. Without a deadline (or with the fraction at 0) every
  /// backend races concurrently.
  bool staged_deadlines = true;
  /// Fraction of `deadline_seconds` granted to the incomplete first stage.
  double stage1_fraction = 0.25;
  /// Absolute cap on the first stage's slice (<= 0: none). Members like HO
  /// rarely finish before their slice expires, so without a cap a generous
  /// deadline imposes `stage1_fraction * deadline` of latency before any
  /// prover starts — even on instances the provers settle in seconds.
  double stage1_max_seconds = 10.0;
  /// Staged portfolios: end stage 1 as soon as the incumbent channel has
  /// gone *quiet* (no adopted publish) for this fraction of the stage-1
  /// slice. Members like HO rarely finish before the slice expires, yet the
  /// channel typically stops improving long before — the remaining slice is
  /// latency the provers could be using. <= 0: stage 1 always runs its full
  /// slice.
  double stage1_quiet_fraction = 0.3;
  /// Solve-scoped observability (support/telemetry): when set, the driver
  /// threads the context into every engine it dispatches (spans + live
  /// counters land in the context's recorder/registry) and wraps each
  /// backend run in a "driver"-category span. Portfolio mode shares one
  /// context across all members — the trace shows the whole race. The
  /// pointee (and its recorder/registry) must outlive the solve.
  const telemetry::Context* telemetry = nullptr;
  /// With `telemetry->metrics` set and a positive interval, the driver logs
  /// a progress line (nodes / LP solves / steals from the live registry)
  /// every this-many seconds at info level while the solve runs.
  double progress_interval_seconds = 0.0;
  /// Consult the driver's result cache (when the Driver has one) before
  /// dispatching, and store checker-validated results after. Applies to
  /// solve() and solveBatch(); portfolio racing is never cached (its value
  /// is the race itself, and its A/B comparisons must stay honest).
  bool use_cache = true;
  // Per-backend knobs. Engine stop flags and incumbent channels are
  // overridden by the portfolio's shared cancellation flag and exchange
  // channel.
  search::SearchOptions search;
  fp::MilpFloorplannerOptions milp;
  fp::HeuristicOptions heuristic;
  baseline::AnnealerOptions annealer;
};

/// LP substrate telemetry of a MILP-backed solve (zero `solves` otherwise):
/// the engines' `lp::LpCounters`, unchanged. `engine` reads "sparse" once an
/// LP ran; it is kept only for perfbench, which reads it, and goes with the
/// next perfbench change.
struct LpStats : lp::LpCounters {
  std::string engine;
};

/// Incumbent-exchange telemetry of a portfolio solve (defaults outside
/// portfolio mode or with the exchange disabled).
struct IncumbentStats {
  std::string source = "-";  ///< engine that published the final shared best
  long publishes = 0;        ///< publish attempts on the channel
  long adoptions = 0;        ///< improving publishes the channel adopted
  long cutoff_prunes = 0;    ///< prover nodes pruned against an external cutoff
  bool staged = false;       ///< staged deadline splitting was in effect
  double stage1_seconds = 0.0;  ///< wall clock of the incomplete first stage
  /// Stage 1 was cut short because the channel went quiet (see
  /// SolveRequest::stage1_quiet_fraction); the provers inherited the saved
  /// time on top of their stage-2 budget.
  bool stage1_ended_early = false;
};

/// Per-member outcome of a portfolio solve. `nodes` is in the member's own
/// unit (B&B nodes for the exact engines, iterations for the annealer), so
/// figures from different members must not be summed.
struct PortfolioMemberStats {
  Backend backend = Backend::kSearch;
  SolveStatus status = SolveStatus::kNoSolution;
  int stage = 0;  ///< 1 = incomplete slice, 2 = prover stage (0 = flat race)
  double seconds = 0.0;
  long nodes = 0;
  long published = 0;      ///< incumbents this member offered to the channel
  long adopted = 0;        ///< external incumbents this member adopted
  long cutoff_prunes = 0;  ///< nodes this member pruned on an external cutoff
};

/// Per-worker telemetry of an in-solve work-stealing scheduler (exact
/// search and parallel MILP branch & bound; empty for single-threaded
/// solves and the incomplete engines). Field meanings follow the engine's
/// own stats: `nodes` are B&B nodes the worker expanded, `stolen` counts
/// work items acquired from other workers' deques.
struct SolveWorkerStats {
  int id = 0;
  long nodes = 0;
  long steals = 0;          ///< successful steal operations performed
  long stolen = 0;          ///< work items acquired through those steals
  long lp_solves = 0;       ///< MILP workers: LP relaxations solved
  long lp_warm_hits = 0;    ///< MILP workers: solves warm-started from a basis
  double idle_seconds = 0.0;
};

struct SolveResponse {
  SolveStatus status = SolveStatus::kNoSolution;
  /// Engine that produced this result (the portfolio winner). Only
  /// meaningful when hasSolution() or the status is a kInfeasible proof — a
  /// winner-less portfolio keeps the default and `detail` says "winner=-".
  Backend backend = Backend::kSearch;
  model::Floorplan plan;               ///< valid when hasSolution()
  model::FloorplanCosts costs;
  double seconds = 0.0;  ///< wall clock of this solve (portfolio: overall)
  /// Backend-specific work measure (B&B nodes / annealer iterations) of the
  /// backend that produced this result. A portfolio reports the *winner's
  /// own* count — never a sum across members, whose units differ; the
  /// per-member figures live in `members`.
  long nodes = 0;
  std::string detail;    ///< per-backend diagnostics
  LpStats lp;            ///< LP substrate telemetry (MILP backends)
  // Incumbent-exchange telemetry of this backend's run (portfolio members).
  long incumbent_published = 0;
  long incumbent_adopted = 0;
  long cutoff_prunes = 0;
  IncumbentStats incumbent;                  ///< portfolio channel summary
  std::vector<PortfolioMemberStats> members; ///< portfolio: one per member
  // In-solve work-stealing telemetry (num_threads > 1 on an exact backend):
  // one entry per worker, plus the steal total across all workers.
  std::vector<SolveWorkerStats> workers;
  long steals = 0;
  // Result-cache provenance (driver/cache.hpp): served from the store
  // without running an engine, or re-solved with the cached plan published
  // into the incumbent channel (near miss under a different budget).
  bool cache_hit = false;
  bool cache_seeded = false;
  /// This response was answered by a concurrent identical solve: the caller
  /// arrived while the same fingerprint was in flight, blocked on the
  /// leader's result and was served from the store (cache_hit is also set).
  bool coalesced = false;
  /// Who actually produced the plan bytes in this response: "engine" (a
  /// backend ran), "cache" (served from the result store without running
  /// anything), or "flight-follower" (a concurrent identical solve's
  /// result, served through the in-flight coalescer). Unlike the flag trio
  /// above this is always populated — cache hits used to return responses
  /// whose `members`/`workers` were silently empty with nothing saying why.
  std::string served_by = "engine";
  /// Flat numeric metrics of this solve (nodes, steals, lp.* counters,
  /// incumbent exchange totals — dotted lowercase names, see README
  /// "Observability"). Built from the engines' own result structs, so the
  /// map is exact and populated even without a telemetry context; a
  /// portfolio reports the winner's engine figures plus channel totals.
  std::map<std::string, double> metrics;

  [[nodiscard]] bool hasSolution() const noexcept {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

class ResultCache;   // driver/cache.hpp
struct CacheStats;   // driver/cache.hpp

struct DriverOptions {
  /// Capacity (entries) of the result cache consulted by solve() and
  /// solveBatch(); 0 disables caching entirely. Entries are checker-
  /// validated SolveResponses, a few KiB each.
  std::size_t cache_entries = 128;
  /// Shared thread budget across batch pool and in-solve workers; <= 0: no
  /// cap. solveBatch never lets `pool_threads * in_solve_threads` exceed
  /// this: the pool width is capped at the budget and each dispatched
  /// solve's in-solve worker count (SolveRequest::num_threads and the
  /// per-engine thread knobs) is capped at `budget / pool_width`, so a
  /// duplicate-heavy batch with parallel B&B enabled does not oversubscribe
  /// the machine. solve() caps its in-solve workers at the full budget.
  int thread_budget = 0;
};

class Driver {
 public:
  Driver();
  explicit Driver(const DriverOptions& options);

  /// Single-backend mode: dispatch to `request.backend`. Consults the
  /// result cache first (see DriverOptions::cache_entries and
  /// SolveRequest::use_cache): an exact or proof hit is returned without
  /// running an engine, a near miss (same structure, different budget)
  /// seeds the engine's incumbent channel with the cached plan.
  [[nodiscard]] SolveResponse solve(const model::FloorplanProblem& problem,
                                    const SolveRequest& request) const;

  /// Portfolio mode: run `request.portfolio` on std::thread, one per
  /// backend, cooperating through a SharedIncumbent channel (see
  /// SolveRequest::incumbent_exchange). A proven result (optimal/infeasible
  /// from an exhaustive backend) cancels the others; otherwise everyone runs
  /// to its limit and the best incumbent under the problem's objective wins.
  /// With a deadline the race is staged (see SolveRequest::staged_deadlines):
  /// incomplete engines first on a short slice, provers on the remainder
  /// with the stage-1 incumbent as their cutoff.
  [[nodiscard]] SolveResponse solvePortfolio(const model::FloorplanProblem& problem,
                                             const SolveRequest& request) const;

  /// Batch mode: solve every problem with the single-backend dispatch across
  /// a pool of `pool_threads` threads, each solve going through the result
  /// cache first (duplicates of an already-answered problem cost a lookup).
  /// Results are positionally aligned with `problems` and, for deadline-free
  /// requests, independent of the pool size (a wall-clock deadline can
  /// truncate a solve differently under pool contention).
  ///
  /// `stop` (optional) cancels the whole batch cooperatively: in-flight
  /// solves unwind through the engines' stop flags (overriding any flag
  /// configured in the request's engine options) and problems not yet
  /// dispatched return kNoSolution with a "cancelled" detail.
  /// `deadline_seconds` (<= 0: none) is an overall wall-clock budget for the
  /// batch, split *fairly*: each dispatched problem receives a slice of
  /// `remaining_wall * pool_threads / remaining_problems` (never more than
  /// the remaining wall clock) instead of first-come-first-served access to
  /// the whole budget, so no problem starves because an earlier one was
  /// slow. Time a cache hit or an early finisher does not use flows back
  /// into the slices of the problems still queued. Problems dispatched after
  /// expiry return kNoSolution.
  [[nodiscard]] std::vector<SolveResponse> solveBatch(
      const std::vector<const model::FloorplanProblem*>& problems, const SolveRequest& request,
      int pool_threads, std::atomic<bool>* stop = nullptr, double deadline_seconds = 0.0) const;

  /// The result cache shared by solve()/solveBatch(); nullptr when disabled.
  [[nodiscard]] ResultCache* cache() const noexcept { return cache_.get(); }
  /// Snapshot of the cache's telemetry (zeros when the cache is disabled).
  [[nodiscard]] CacheStats cacheStats() const;

 private:
  std::shared_ptr<ResultCache> cache_;  ///< shared so Driver copies share it
  DriverOptions options_;
};

}  // namespace rfp::driver
