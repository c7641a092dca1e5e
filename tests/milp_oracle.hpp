// Brute-force MILP oracle for the tests: enumerates every 0/1 assignment of
// a pure-binary model. Independent of the LP layer, so branch & bound
// results can be checked without trusting any simplex engine.
#pragma once

#include <optional>
#include <vector>

#include "lp/model.hpp"

namespace rfp::testutil {

/// The best objective over all feasible 0/1 points of `m` (every variable
/// read as a binary; keep numVars() small), or nullopt when none is
/// feasible.
inline std::optional<double> bruteForceBest(const lp::Model& m) {
  const int n = m.numVars();
  std::optional<double> best;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = (mask >> j) & 1;
    if (!m.isFeasible(x, 1e-9)) continue;
    const double obj = m.evalObjective(x);
    if (!best || (m.objSense() == lp::ObjSense::kMaximize ? obj > *best : obj < *best))
      best = obj;
  }
  return best;
}

}  // namespace rfp::testutil
