// Compressed sparse column storage for the constraint matrix.
//
// The revised simplex never forms a tableau: it keeps the original
// constraint matrix A in CSC form (structural columns only — slack columns
// are implicit unit vectors) and works with factorized bases. An SDR2-scale
// floorplanning formulation (40k rows x 2k columns, ~640k nonzeros) fits in
// ~10 MB here versus ~25 GiB as a dense tableau.
#pragma once

#include <vector>

#include "lp/model.hpp"

namespace rfp::lp::sparse {

struct CscMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> ptr;  ///< size cols + 1
  std::vector<int> idx;  ///< row index per nonzero, ascending within a column
  std::vector<double> val;

  [[nodiscard]] long nnz() const noexcept { return static_cast<long>(idx.size()); }

  /// Builds the structural constraint matrix of `model` (duplicate terms in
  /// a row are summed, exact zeros kept out).
  [[nodiscard]] static CscMatrix fromModel(const Model& model);

  /// Process-wide count of `fromModel` builds. Branch & bound shares one
  /// matrix across a tree's node solves; tests assert via this counter that
  /// a tree builds it exactly once instead of once per solve.
  [[nodiscard]] static long buildCount() noexcept;
};

/// Nonzero count of `model`'s constraint matrix without building it; feeds
/// the nnz-based memory estimate of the `max_lp_gib` admission gate.
[[nodiscard]] long countNonzeros(const Model& model) noexcept;

}  // namespace rfp::lp::sparse
