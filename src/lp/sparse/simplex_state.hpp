// Working state shared by the sparse simplex engines.
//
// The primal revised simplex (revised_simplex.cpp) and the dual simplex
// (dual_simplex.cpp) solve the same standard-form problem — Ax + s = b with
// one slack per row, variables resting at bounds — from the same kind of
// factorized basis. `StandardForm` owns the per-solve constant data (bounds,
// costs, right-hand side, and the CSC constraint matrix, either borrowed
// from a caller-held cache or built on the spot); `BasisState` owns the
// mutable basis (basic set, variable statuses, basic values, LU factors)
// plus the repair logic shared by both engines: adopting a warm basis under
// changed bounds, swapping slacks in for singular positions, and recomputing
// the basic values through fresh factors.
#pragma once

#include <memory>
#include <span>

#include "lp/counters.hpp"
#include "lp/model.hpp"
#include "lp/sparse/basis.hpp"
#include "lp/sparse/csc.hpp"
#include "lp/sparse/lu.hpp"

namespace rfp::lp::sparse {

[[nodiscard]] inline std::size_t uz(int v) noexcept { return static_cast<std::size_t>(v); }

[[nodiscard]] inline bool finiteLo(double v) noexcept { return v > -kInfinity / 2; }
[[nodiscard]] inline bool finiteUp(double v) noexcept { return v < kInfinity / 2; }

/// The standard-form problem one solve works on. Variables are indexed
/// 0..n-1 (structural) and n..n+m-1 (slack of row j-n).
struct StandardForm {
  const CscMatrix* a = nullptr;  ///< structural columns (borrowed or `owned`)
  CscMatrix owned;               ///< storage when no cached matrix was given
  int n = 0;   ///< structural variables
  int m = 0;   ///< rows
  int nn = 0;  ///< n + m
  std::vector<double> lo, up;  ///< per-variable bounds (slack bounds encode row sense)
  std::vector<double> rhs;
  std::vector<double> cost;  ///< phase-2 costs, minimization sense (slacks zero)

  // Row-wise mirror of `a` (CSR), built once per solve/tree. The engines use
  // it to scatter a hyper-sparse pivot row rho into column space touching
  // only the columns that intersect rho's support, instead of an
  // O(nnz(A)) columnDot pass over every column.
  std::vector<int> rptr, rcol;
  std::vector<double> rval;

  /// `cached`, when non-null, must be the CSC form of `model`'s constraint
  /// matrix (callers reuse one across a branch & bound tree's node solves);
  /// otherwise the matrix is built here.
  StandardForm(const Model& model, std::span<const double> lb, std::span<const double> ub,
               const CscMatrix* cached);

  // `a` may point into `owned`: copying or moving would leave it dangling.
  StandardForm(const StandardForm&) = delete;
  StandardForm& operator=(const StandardForm&) = delete;

  /// Replaces the structural variable bounds (slack bounds encode row
  /// senses and never change). Used by persistent reoptimizers: branch &
  /// bound solves the same model under a stream of bound vectors.
  void setBounds(std::span<const double> lb, std::span<const double> ub) {
    for (int j = 0; j < n; ++j) {
      lo[uz(j)] = lb[uz(j)];
      up[uz(j)] = ub[uz(j)];
    }
  }

  /// y · (column j), columns n..nn-1 being implicit unit slack columns.
  [[nodiscard]] double columnDot(const std::vector<double>& y, int j) const {
    if (j >= n) return y[uz(j - n)];
    double s = 0.0;
    for (int k = a->ptr[uz(j)]; k < a->ptr[uz(j) + 1]; ++k)
      s += a->val[uz(k)] * y[uz(a->idx[uz(k)])];
    return s;
  }

  void scatterColumn(int j, std::vector<double>& v) const {
    std::fill(v.begin(), v.end(), 0.0);
    if (j >= n) {
      v[uz(j - n)] = 1.0;
      return;
    }
    for (int k = a->ptr[uz(j)]; k < a->ptr[uz(j) + 1]; ++k)
      v[uz(a->idx[uz(k)])] = a->val[uz(k)];
  }

  /// Sparse scatter of column j into an indexed vector (cleared first).
  void scatterColumn(int j, IndexedVector& v) const {
    v.clear();
    if (j >= n) {
      v.set(j - n, 1.0);
      return;
    }
    for (int k = a->ptr[uz(j)]; k < a->ptr[uz(j) + 1]; ++k)
      v.set(a->idx[uz(k)], a->val[uz(k)]);
  }

  /// v += t * (column j).
  void addColumn(int j, double t, std::vector<double>& v) const {
    if (t == 0.0) return;
    if (j >= n) {
      v[uz(j - n)] += t;
      return;
    }
    for (int k = a->ptr[uz(j)]; k < a->ptr[uz(j) + 1]; ++k)
      v[uz(a->idx[uz(k)])] += a->val[uz(k)] * t;
  }
};

/// Mutable basis state: which variables are basic (by row position), where
/// the nonbasic ones rest, the basic values, and the LU factors.
struct BasisState {
  std::vector<int> basic;          ///< basic variable per row position
  std::vector<VarStatus> status;   ///< per-variable status (size nn)
  std::vector<double> xb;          ///< basic values per row position
  BasisLu lu;
  long refactorizations = 0;
  long repairs = 0;  ///< singular-basis slack swaps (changes B outside a pivot)
  bool warm_started = false;

  [[nodiscard]] VarStatus defaultStatus(const StandardForm& f, int j) const {
    if (finiteLo(f.lo[uz(j)])) return VarStatus::kAtLower;
    if (finiteUp(f.up[uz(j)])) return VarStatus::kAtUpper;
    return VarStatus::kFree;
  }

  void slackBasis(const StandardForm& f);

  /// Adopts `warm` when shape-compatible and structurally sane; nonbasic
  /// statuses are re-anchored to bounds that still exist (branch & bound
  /// tightens bounds between solves). Returns false on rejection.
  bool adoptWarmBasis(const StandardForm& f, const Basis* warm);

  /// Re-anchors nonbasic statuses after a bound change: a variable resting
  /// at a bound that no longer exists moves to the other one (or to free).
  void reanchorStatuses(const StandardForm& f);

  /// (Re)factorizes the current basis, repairing singular positions by
  /// swapping in slacks of unpivoted rows. Aborts (RFP_CHECK) only if the
  /// repaired basis still fails, which the repair construction precludes.
  void refactorize(const StandardForm& f);

  [[nodiscard]] double nonbasicValue(const StandardForm& f, int j) const {
    switch (status[uz(j)]) {
      case VarStatus::kAtLower: return f.lo[uz(j)];
      case VarStatus::kAtUpper: return f.up[uz(j)];
      default: return 0.0;
    }
  }

  /// xB := B^-1 (b - N x_N), from scratch through the current factors.
  void computeXb(const StandardForm& f);

  [[nodiscard]] double maxBasicViolation(const StandardForm& f) const {
    double worst = 0.0;
    for (int p = 0; p < f.m; ++p) {
      const int b = basic[uz(p)];
      const double v = xb[uz(p)];
      worst = std::max(worst, f.lo[uz(b)] - v);
      worst = std::max(worst, v - f.up[uz(b)]);
    }
    return worst;
  }

  [[nodiscard]] std::shared_ptr<Basis> snapshot(const StandardForm& f) const;

  /// `engine` (an engine's pivot-class counters) plus this state's factor
  /// counters: refactorizations and the path each triangular solve took.
  [[nodiscard]] LpCounters withFactorCounters(LpCounters engine) const;
};

}  // namespace rfp::lp::sparse
