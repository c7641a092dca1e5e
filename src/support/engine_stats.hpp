// Telemetry every tree engine reports the same way, declared once for the
// exact search, the MILP branch & bound and the driver's response: one
// entry per work-stealing worker, and the incumbent-exchange counts. Kept
// below `model/` so the generic MILP solver can fill them too.
#pragma once

#include <vector>

namespace rfp {

/// One work-stealing worker of a tree search. The exact search fills
/// `tasks`/`splits`, the MILP branch & bound `lp_solves`/`lp_warm_hits`;
/// the fields an engine does not have stay zero.
struct WorkerStats {
  int id = 0;
  long nodes = 0;         ///< nodes this worker expanded
  long tasks = 0;         ///< search: tasks it executed (claimed roots and split subtrees)
  long splits = 0;        ///< search: subtrees it deferred as stealable tasks
  long steals = 0;        ///< successful steal operations it performed
  long stolen = 0;        ///< work items (tasks / nodes) those steals acquired
  long lp_solves = 0;     ///< MILP: node LPs it solved
  long lp_warm_hits = 0;  ///< MILP: node LPs that adopted a parent basis
  double idle_seconds = 0.0;  ///< time spent with an empty pool and no loot

  /// Adds `o`'s counts; `id` stays.
  WorkerStats& operator+=(const WorkerStats& o) noexcept {
    nodes += o.nodes;
    tasks += o.tasks;
    splits += o.splits;
    steals += o.steals;
    stolen += o.stolen;
    lp_solves += o.lp_solves;
    lp_warm_hits += o.lp_warm_hits;
    idle_seconds += o.idle_seconds;
    return *this;
  }
};

/// Steal operations across `workers`: the total every layer prints.
[[nodiscard]] inline long totalSteals(const std::vector<WorkerStats>& workers) noexcept {
  long steals = 0;
  for (const WorkerStats& w : workers) steals += w.steals;
  return steals;
}

/// Incumbent-exchange counts of one engine run (zero without a channel).
struct ExchangeStats {
  long published = 0;      ///< improving incumbents offered to the channel
  long adopted = 0;        ///< external incumbents adopted as the cutoff
  /// Nodes pruned against an external cutoff, at most one per node. The
  /// exact search counts a child whose bound fails before its FC check
  /// runs, so a child that would also have failed that check counts too.
  long cutoff_prunes = 0;

  ExchangeStats& operator+=(const ExchangeStats& o) noexcept {
    published += o.published;
    adopted += o.adopted;
    cutoff_prunes += o.cutoff_prunes;
    return *this;
  }
  [[nodiscard]] bool any() const noexcept {
    return published > 0 || adopted > 0 || cutoff_prunes > 0;
  }
};

}  // namespace rfp
