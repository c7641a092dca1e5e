// Floorplan solutions and their evaluation.
//
// A `Floorplan` assigns a rectangle to every region plus a (possibly
// partial) set of free-compatible areas. `FloorplanCosts` mirrors the cost
// terms of Eq. 14; `evaluate()` computes them and `check()` independently
// re-validates every paper constraint by direct grid inspection — it is the
// verifier used by tests regardless of which solver produced the solution.
#pragma once

#include <string>
#include <vector>

#include "device/geometry.hpp"
#include "model/problem.hpp"

namespace rfp::model {

/// A placed free-compatible area.
struct FcArea {
  int region = -1;        ///< region this area is compatible with
  device::Rect rect;      ///< placement (valid only when `placed`)
  bool placed = false;    ///< soft requests may remain unplaced (v_c = 1)
  double weight = 1.0;    ///< cw_c
};

struct Floorplan {
  std::vector<device::Rect> regions;  ///< one rect per region, problem order
  std::vector<FcArea> fc_areas;       ///< expanded FC requests (problem order)

  [[nodiscard]] int placedFcCount() const noexcept {
    int n = 0;
    for (const FcArea& a : fc_areas) n += a.placed ? 1 : 0;
    return n;
  }
};

/// Cost terms of the objective function (Eq. 14 naming).
struct FloorplanCosts {
  long wasted_frames = 0;   ///< Rcost: Σ_n Σ_t (covered−required)·frames(t)
  double wire_length = 0;   ///< WLcost: Σ_nets weight·HPWL(centers)
  double perimeter = 0;     ///< Pcost: Σ_n 2(w+h)
  double relocation = 0;    ///< RLcost: Σ_c cw_c·v_c (Eq. 13)
  double objective = 0;     ///< Eq. 14 weighted normalized sum
};

/// Expands the problem's relocation requests into one FcArea per requested
/// area (all unplaced). Solvers fill in rect/placed.
[[nodiscard]] std::vector<FcArea> expandFcRequests(const FloorplanProblem& problem);

/// Eq. 14's normalizers, the instance-level maxima that scale its four terms
/// into [0, 1]: WLmax = Σ net weight·(W+H) in net order, Pmax =
/// 2·regions·(W+H), Rmax = the device's frames, RLmax (Eq. 15) = Σ FC area
/// weight in expandFcRequests order. A maximum that sums to 0 or less (no
/// nets, no FC request) is 1; its term is then 0 with weights >= 0, as if
/// left out.
struct ObjectiveMaxima {
  double wl = 1;
  double p = 1;
  double r = 1;
  double rl = 1;
};

/// The one definition of the Eq. 14 normalizers, for evaluate, the MILP
/// objective and the exact search's bound.
[[nodiscard]] ObjectiveMaxima objectiveMaxima(const FloorplanProblem& problem);

/// Computes all cost terms. The floorplan must have one rect per region.
[[nodiscard]] FloorplanCosts evaluate(const FloorplanProblem& problem, const Floorplan& fp);

/// Independent full verification (Definition .1/.2 and every constraint):
/// bounds, forbidden areas, resource coverage, pairwise non-overlap, hard FC
/// requests all placed, FC footprint equality with their region. Returns ""
/// when valid, else a description of the first violation found.
[[nodiscard]] std::string check(const FloorplanProblem& problem, const Floorplan& fp);

/// Wasted frames of a single region placement (covered − required, weighted
/// by frames per tile type). Negative requirement coverage is a check()
/// failure, not handled here.
[[nodiscard]] long regionWaste(const FloorplanProblem& problem, int n, const device::Rect& r);

/// Weighted HPWL of the netlist for the given region rectangles.
[[nodiscard]] double wireLength(const FloorplanProblem& problem,
                                const std::vector<device::Rect>& regions);

/// True when costs `a` beat costs `b` under the problem's evaluation mode:
/// lexicographic (wasted frames, then wire length) or the Eq. 14 weighted
/// objective. Shared by the driver's portfolio arbitration and the tests.
[[nodiscard]] bool strictlyBetter(const FloorplanProblem& problem, const FloorplanCosts& a,
                                  const FloorplanCosts& b);

}  // namespace rfp::model
