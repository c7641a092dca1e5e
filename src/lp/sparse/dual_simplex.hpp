// Bounded-variable dual simplex: the warm-reoptimization fast path.
//
// Branch & bound reoptimizes thousands of near-identical node LPs that
// differ from their parent only in one variable bound. The parent's optimal
// basis stays *dual* feasible under any bound change (reduced costs do not
// depend on bounds), so the dual simplex can restore primal feasibility
// directly — typically a handful of pivots — where the primal engine must
// run a phase-1 feasibility restoration first.
//
// Algorithm notes:
//  * works on the same standard form, bounds and statuses as the primal
//    engine (simplex_state.hpp), and the same Forrest–Tomlin-updated LU;
//  * leaving-row selection by exact dual steepest edge: the row norms
//    beta_p = ||B^-T e_p||^2 are kept by the Forrest–Goldfarb recurrence
//    (one extra hyper-sparse FTRAN per pivot) and persist across warm
//    hot-path reoptimizations;
//  * bound-flip ratio test (BFRT): ratio candidates are scanned in dual-step
//    order, and boxed candidates whose bound flip cannot yet restore the
//    row's feasibility are flipped without a basis change — one FTRAN
//    applies all flips of an iteration at once;
//  * reduced costs are maintained incrementally from the pivot row and
//    recomputed from scratch after every refactorization;
//  * a warm basis that is dual-infeasible beyond tolerance (after flipping
//    boxed variables to their cost-preferred bounds) makes the solver give
//    up (`std::nullopt`) — the caller falls back to the primal engine;
//  * optimality and infeasibility claims are re-verified through fresh
//    factors before being reported, mirroring the primal engine.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "lp/lp_solver.hpp"
#include "lp/sparse/basis.hpp"
#include "lp/sparse/csc.hpp"

namespace rfp::lp::sparse {

/// Persistent warm-reoptimization state: the dual simplex over one model,
/// kept alive across that model's solves.
///
/// Adopting a warm basis costs a refactorization, and verifying a claim
/// through fresh factors often a second one — at SDR scale those two
/// factorizations, not the handful of dual pivots, dominate a node solve.
/// `DualReoptimizer` keeps the worker alive across a tree's node
/// solves: when a solve warm-starts from exactly the basis the previous
/// solve returned (every dive child in the plunge — branch & bound hands
/// the parent's optimal basis to its children), the live Forrest–Tomlin
/// factors and reduced costs are reused and the node solves with *zero*
/// refactorizations. Any other warm basis falls back to adopt-and-
/// refactorize, and a nullopt result means the caller should solve the
/// node with the primal engine. `LpSolver`'s warm path is one call on a
/// fresh reoptimizer.
///
/// Concurrency contract: a DualReoptimizer is single-owner mutable state
/// (live factors, reduced costs, breaker strikes) and must only ever be
/// called from one thread at a time. Parallel branch & bound gives every
/// worker its own instance over the shared immutable model/CSC pair, which
/// also keeps the give-up circuit breaker per-worker: one worker's
/// hyper-degenerate subtree cannot disable the warm path for its siblings.
class DualReoptimizer {
 public:
  /// Circuit breaker: after this many consecutive give-ups the warm path
  /// is suspended for kBreakerCooldown calls, then one probe attempt runs.
  /// It is a cool-down, not a kill switch: a hyper-degenerate subtree that
  /// defeats dual row pricing trips it locally, and the rest of the tree
  /// gets the warm path back as soon as a probe succeeds.
  static constexpr int kBreakerStrikes = 3;
  static constexpr int kBreakerCooldown = 16;  ///< calls declined while tripped

  /// `model` and `csc` must outlive the reoptimizer; `csc` must be the CSC
  /// form of `model`'s constraint matrix. `options.time_limit_seconds` is
  /// not read: each call brings its own limit.
  DualReoptimizer(const Model& model, const CscMatrix& csc, LpSolver::Options options);
  ~DualReoptimizer();
  DualReoptimizer(DualReoptimizer&&) noexcept;
  DualReoptimizer& operator=(DualReoptimizer&&) noexcept;

  /// Reoptimizes under `lb`/`ub` from `warm` (normally a parent node's
  /// optimal basis). `time_limit_seconds` <= 0 means no limit (the options'
  /// stop flag still cancels cooperatively). On a give-up (nullopt),
  /// `declined_attempt`, when non-null, receives the abandoned attempt's
  /// telemetry (pivots, refactorizations) so callers can account for the
  /// work instead of under-reporting it.
  [[nodiscard]] std::optional<LpResult> reoptimize(std::span<const double> lb,
                                                   std::span<const double> ub, const Basis& warm,
                                                   double time_limit_seconds,
                                                   LpResult* declined_attempt = nullptr);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rfp::lp::sparse
