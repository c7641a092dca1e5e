// The LP work counters: one value type carried unchanged from the simplex
// kernels through branch & bound, the MILP floorplanner and the driver to
// every output surface.
//
// A finished solve reports `solves = 1`; a declined dual attempt (the
// primal engine then re-solves the node) reports its pivots and
// factorizations with `solves = 0`. Every layer above the kernels merges
// counters with `+=` and never names a field: the response metrics, the
// response JSON, `rfp_cli` and the branch & bound live registry all emit
// them by walking `kLpCounterFields`. Adding a counter is one line in the
// struct, one line in the table, and the engine code that counts it.
#pragma once

#include <array>

namespace rfp::lp {

struct LpCounters {
  long solves = 0;            ///< LP relaxations solved
  long iterations = 0;        ///< total simplex iterations
  long warm_start_hits = 0;   ///< solves that adopted a caller-provided basis
  long refactorizations = 0;  ///< basis refactorizations
  // Pivot-class breakdown: how the LPs were actually solved, and how often
  // the factors were patched (Forrest–Tomlin) instead of rebuilt.
  long primal_pivots = 0;  ///< basis changes made by the primal simplex
  long dual_pivots = 0;    ///< basis changes made by the dual simplex
  long bound_flips = 0;    ///< bound-to-bound moves without a basis change
  long ft_updates = 0;     ///< Forrest–Tomlin factor updates applied
  long dual_reopts = 0;    ///< solves answered by the dual fast path
  // Hyper-sparse kernel breakdown: which path each triangular solve took
  // (graph-driven reachability vs dense sweep), and how many exact
  // steepest-edge weight updates ran.
  long ftran_sparse = 0;  ///< FTRANs through the graph-driven sparse path
  long ftran_dense = 0;   ///< FTRANs through the dense sweep
  long btran_sparse = 0;  ///< BTRANs through the graph-driven sparse path
  long btran_dense = 0;   ///< BTRANs through the dense sweep
  long dse_updates = 0;   ///< steepest-edge weight recurrence applications

  LpCounters& operator+=(const LpCounters& o) noexcept;
  /// Per-solve delta of an engine whose counters persist across solves.
  LpCounters& operator-=(const LpCounters& o) noexcept;

  [[nodiscard]] double warmStartHitRate() const noexcept {
    return solves > 0 ? static_cast<double>(warm_start_hits) / static_cast<double>(solves) : 0.0;
  }
  [[nodiscard]] double dualReoptRate() const noexcept {
    return solves > 0 ? static_cast<double>(dual_reopts) / static_cast<double>(solves) : 0.0;
  }
  [[nodiscard]] double sparseSolveRate() const noexcept {
    const long total = ftran_sparse + ftran_dense + btran_sparse + btran_dense;
    return total > 0
               ? static_cast<double>(ftran_sparse + btran_sparse) / static_cast<double>(total)
               : 0.0;
  }
};

struct LpCounterField {
  const char* name;  ///< output key (`lp.<name>` in metrics and the registry)
  long LpCounters::*field;
};

/// Every counter, in output order.
inline constexpr std::array<LpCounterField, 14> kLpCounterFields{{
    {"solves", &LpCounters::solves},
    {"iterations", &LpCounters::iterations},
    {"warm_start_hits", &LpCounters::warm_start_hits},
    {"refactorizations", &LpCounters::refactorizations},
    {"primal_pivots", &LpCounters::primal_pivots},
    {"dual_pivots", &LpCounters::dual_pivots},
    {"bound_flips", &LpCounters::bound_flips},
    {"ft_updates", &LpCounters::ft_updates},
    {"dual_reopts", &LpCounters::dual_reopts},
    {"ftran_sparse", &LpCounters::ftran_sparse},
    {"ftran_dense", &LpCounters::ftran_dense},
    {"btran_sparse", &LpCounters::btran_sparse},
    {"btran_dense", &LpCounters::btran_dense},
    {"dse_updates", &LpCounters::dse_updates},
}};

struct LpRateField {
  const char* name;
  double (LpCounters::*rate)() const noexcept;
};

/// The derived rates, emitted after the counters.
inline constexpr std::array<LpRateField, 3> kLpRates{{
    {"warm_start_hit_rate", &LpCounters::warmStartHitRate},
    {"dual_reopt_rate", &LpCounters::dualReoptRate},
    {"sparse_solve_rate", &LpCounters::sparseSolveRate},
}};

inline LpCounters& LpCounters::operator+=(const LpCounters& o) noexcept {
  for (const LpCounterField& f : kLpCounterFields) this->*f.field += o.*f.field;
  return *this;
}

inline LpCounters& LpCounters::operator-=(const LpCounters& o) noexcept {
  for (const LpCounterField& f : kLpCounterFields) this->*f.field -= o.*f.field;
  return *this;
}

}  // namespace rfp::lp
