// Simplex basis snapshot shared between LP solves.
//
// A `Basis` names, for every variable of the standard-form problem
// (structural columns first, then one slack per row), whether it is basic or
// resting at a bound, plus the row-position order of the basic set. It is
// produced by the sparse revised simplex on optimality and can be fed back
// into a later solve as a warm start: branch & bound reoptimizes child nodes
// from the parent's optimal basis, which typically needs a handful of pivots
// instead of a full cold two-phase solve.
//
// The struct is intentionally opaque to callers: nothing outside src/lp
// should interpret the contents, only pass them back unmodified. A basis is
// tied to the (numVars, numConstrs) shape of the model it came from; the
// solver validates the shape and silently falls back to a cold start on
// mismatch, so stale bases are safe.
#pragma once

#include <vector>

namespace rfp::lp::sparse {

/// Simplex status of one variable (structural or slack).
enum class VarStatus : unsigned char {
  kAtLower = 0,  ///< nonbasic at its lower bound
  kAtUpper = 1,  ///< nonbasic at its upper bound
  kBasic = 2,
  kFree = 3,  ///< nonbasic with no finite bound, resting at zero
};

struct Basis {
  /// Basic variable index per row position (size = rows). Values < `cols`
  /// are structural variables; `cols + i` is the slack of row i.
  std::vector<int> basic;
  /// Per-variable status (size = cols + rows).
  std::vector<VarStatus> status;
  int rows = 0;  ///< constraint count of the originating model
  int cols = 0;  ///< structural variable count of the originating model

  [[nodiscard]] bool shapeMatches(int num_rows, int num_cols) const noexcept {
    return rows == num_rows && cols == num_cols &&
           static_cast<int>(basic.size()) == num_rows &&
           static_cast<int>(status.size()) == num_cols + num_rows;
  }
};

}  // namespace rfp::lp::sparse
