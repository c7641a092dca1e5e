// Internal helpers of the branch & bound: the root phase (bb.cpp) and the
// tree search (bb_parallel.cpp) share LP option derivation and the LP
// counter fold; the tree search's workers share branching variable
// selection, pseudo-cost bookkeeping and integer rounding.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lp/lp_solver.hpp"
#include "milp/bb.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::milp::detail {

/// One bound tightening relative to the parent node (chain representation
/// keeps per-node memory O(1) regardless of model size).
struct BoundChange {
  int var = -1;
  bool is_lower = false;  // true: lb := value, false: ub := value
  double value = 0.0;
};

struct PseudoCost {
  double down_sum = 0, up_sum = 0;
  long down_count = 0, up_count = 0;
};

/// The LP options of one relaxation: the MILP's stop flag and telemetry,
/// and `remaining_seconds` as the time limit (<= 0: none). Paper-scale LP
/// solves run for seconds to minutes, so truncation and cancellation must
/// act inside the pivot loop, not at the next node boundary.
inline lp::LpSolver::Options cappedLpOptions(const MilpSolver::Options& opt,
                                             double remaining_seconds) {
  lp::LpSolver::Options lopt;
  lopt.time_limit_seconds = remaining_seconds;
  lopt.stop = opt.stop;
  lopt.telemetry = opt.telemetry;
  return lopt;
}

[[nodiscard]] inline double clampedRemaining(const Deadline& deadline) {
  return deadline.limit() > 0 ? std::max(0.01, deadline.remaining()) : 0.0;
}

/// The single fold point of a MILP solve's LP work. The pure-LP path, cut
/// rounds, node LPs and declined dual attempts all add their counters
/// through `add`, which feeds both the result and the live registry's
/// `lp.<name>` counters (resolved once from the name table).
class LpFold {
 public:
  explicit LpFold(const telemetry::Context* ctx) {
    if (ctx == nullptr || ctx->metrics == nullptr) return;
    for (std::size_t i = 0; i < registry_.size(); ++i)
      registry_[i] = &ctx->metrics->counter(std::string("lp.") + lp::kLpCounterFields[i].name);
  }

  void add(lp::LpCounters& into, const lp::LpResult& rel) const {
    into += rel.counters;
    if (registry_[0] == nullptr) return;
    for (std::size_t i = 0; i < registry_.size(); ++i)
      if (const long v = rel.counters.*lp::kLpCounterFields[i].field; v != 0)
        registry_[i]->add(v);
  }

 private:
  std::array<telemetry::Counter*, lp::kLpCounterFields.size()> registry_{};
};

/// Most-fractional selection (binaries first), the pseudo-cost fallback.
inline int mostFractional(const lp::Model& model, const MilpSolver::Options& opt,
                          const std::vector<double>& x) {
  int best_bin = -1, best_int = -1;
  double bin_score = opt.int_tol, int_score = opt.int_tol;
  for (int j = 0; j < model.numVars(); ++j) {
    const lp::VarType type = model.var(j).type;
    if (type == lp::VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double dist = std::min(v - std::floor(v), std::ceil(v) - v);
    if (dist <= opt.int_tol) continue;
    if (type == lp::VarType::kBinary) {
      if (dist > bin_score) {
        bin_score = dist;
        best_bin = j;
      }
    } else if (dist > int_score) {
      int_score = dist;
      best_int = j;
    }
  }
  return best_bin >= 0 ? best_bin : best_int;
}

/// Branching variable selection. With pseudo-cost branching, fractional
/// variables are scored by the product of their estimated up/down objective
/// degradations (reliability falls back to fractionality while a variable
/// has no observations). Binaries always outrank general integers — they
/// drive the big-M structure of floorplanning models. Returns -1 when the
/// point is integral.
inline int selectBranchVar(const lp::Model& model, const MilpSolver::Options& opt,
                           const std::vector<PseudoCost>& pseudo_costs,
                           const std::vector<double>& x) {
  if (!opt.pseudo_cost_branching) return mostFractional(model, opt, x);
  int best = -1;
  bool best_binary = false;
  double best_score = -1.0;
  for (int j = 0; j < model.numVars(); ++j) {
    const lp::VarType type = model.var(j).type;
    if (type == lp::VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double f = v - std::floor(v);
    const double dist = std::min(f, 1.0 - f);
    if (dist <= opt.int_tol) continue;
    const PseudoCost& pc = pseudo_costs[static_cast<std::size_t>(j)];
    // Unobserved directions fall back to the fractionality itself, so an
    // unscored variable competes as if it were most-fractional branching.
    const double down = pc.down_count > 0 ? pc.down_sum / pc.down_count * f : dist;
    const double up = pc.up_count > 0 ? pc.up_sum / pc.up_count * (1.0 - f) : dist;
    const double score = std::max(down, 1e-9) * std::max(up, 1e-9);
    const bool binary = type == lp::VarType::kBinary;
    if (best < 0 || (binary && !best_binary) || (binary == best_binary && score > best_score)) {
      best = j;
      best_binary = binary;
      best_score = score;
    }
  }
  return best;
}

/// Records the objective degradation a branch caused into the branched
/// variable's pseudo-cost (up or down direction by the branch sense).
inline void updatePseudoCost(std::vector<PseudoCost>& pseudo_costs, const BoundChange& change,
                             double parent_bound, double branch_frac, double child_bound) {
  const double degradation = std::max(0.0, child_bound - parent_bound);
  PseudoCost& pc = pseudo_costs[static_cast<std::size_t>(change.var)];
  if (change.is_lower) {  // up branch
    pc.up_sum += degradation / std::max(1e-9, 1.0 - branch_frac);
    pc.up_count += 1;
  } else {
    pc.down_sum += degradation / std::max(1e-9, branch_frac);
    pc.down_count += 1;
  }
}

inline void roundIntegers(const lp::Model& model, std::vector<double>& x) {
  for (int j = 0; j < model.numVars(); ++j)
    if (model.var(j).type != lp::VarType::kContinuous)
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
}

/// The branch & bound tree search over `model` (bb_parallel.cpp):
/// `opt.threads` workers (at least one; one runs inline on the caller's
/// thread) with per-worker best-bound pools and private DualReoptimizer
/// instances, cooperating through an atomic incumbent cutoff. With
/// `opt.deterministic` several workers run lock-step on one OS thread and
/// the result carries a replay hash over the node order and steal schedule.
/// `root_basis` (null: cold root) is the cut loop's final basis, which
/// worker 0 warm-starts the root from; `res` carries the root phase's LP
/// counters, to which the tree's are added.
[[nodiscard]] MipResult runSearch(const lp::Model& model, const MilpSolver::Options& opt,
                                  std::optional<std::vector<double>> warm_start,
                                  std::shared_ptr<const lp::sparse::Basis> root_basis,
                                  MipResult res);

}  // namespace rfp::milp::detail
