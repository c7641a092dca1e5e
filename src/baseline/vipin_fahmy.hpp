// Reconstruction of the Vipin–Fahmy ARC'12 floorplanner ([8] in the paper):
// "architecture-aware reconfiguration-centric floorplanning".
//
// ARC'12 plans *reconfiguration-centric* regions: allocations are aligned to
// the device's reconfiguration granularity and sized to minimize the partial
// bitstream of each region (its covered configuration frames), rather than
// globally minimizing wasted resources or wire length. The paper's Table II
// reports it at 466 wasted frames on the SDR design vs 306 for the exact
// MILP; our reconstruction reproduces that qualitative gap
// (DESIGN.md §3 substitution 4).
//
// Reconstruction rules (from the ARC'12 description):
//  1. regions are processed in decreasing frame demand;
//  2. allocations start and end on clock-region boundaries: heights and
//     start rows are whole multiples of `kClockRegionRows` = 2 tile rows
//     (clock-region pairs, the Virtex-5 partial-reconfiguration alignment
//     guideline), widths are whole columns;
//  3. candidates are scored by covered frames (partial-bitstream size),
//     ties by wasted frames, then leftmost/topmost;
//  4. the first non-overlapping candidate wins (greedy, no backtracking).
#pragma once

#include <optional>

#include "model/floorplan.hpp"
#include "model/problem.hpp"

namespace rfp::baseline {

/// Allocation height granularity in tile rows (clock regions).
inline constexpr int kClockRegionRows = 2;

/// Runs the heuristic. Returns std::nullopt when it cannot fit all regions.
/// Relocation requests are ignored (the baseline is relocation-unaware);
/// FC slots are returned unplaced.
[[nodiscard]] std::optional<model::Floorplan> vipinFahmyFloorplan(
    const model::FloorplanProblem& problem);

}  // namespace rfp::baseline
