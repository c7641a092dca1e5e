#include "milp/bb.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "milp/bb_detail.hpp"
#include "milp/presolve.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::milp {

const char* toString(MipStatus s) noexcept {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kNoSolution: return "no-solution";
    case MipStatus::kUnbounded: return "unbounded";
  }
  return "?";
}

namespace {

using detail::addLpEffort;
using detail::BoundChange;
using detail::cappedLpOptions;
using detail::clampedRemaining;
using detail::PseudoCost;

struct Node {
  int parent = -1;          ///< index into the node arena (-1: root)
  BoundChange change;       ///< change applied relative to the parent
  double lp_bound = -lp::kInfinity;  ///< parent LP objective (dual bound)
  int depth = 0;
  double branch_frac = 0.0;  ///< fractional part of the branched variable at
                             ///< the parent (pseudo-cost bookkeeping)
  /// Parent's optimal basis (sparse LP engine): both children share one
  /// snapshot; it is released once this node's own relaxation is solved.
  std::shared_ptr<const lp::sparse::Basis> start_basis;
};

/// Min-heap entry ordered by dual bound (best-bound-first).
struct HeapEntry {
  double bound;
  long seq;  ///< tiebreak: prefer older nodes (FIFO among equals)
  int node;
  bool operator<(const HeapEntry& o) const {
    if (bound != o.bound) return bound > o.bound;  // min-heap via operator<
    return seq > o.seq;
  }
};

class Search {
 public:
  Search(const lp::Model& model, const MilpSolver::Options& opt)
      : model_(model), opt_(opt), lp_solver_(opt.lp) {
    const int n = model.numVars();
    base_lb_.resize(static_cast<std::size_t>(n));
    base_ub_.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      base_lb_[static_cast<std::size_t>(j)] = model.var(j).lb;
      base_ub_[static_cast<std::size_t>(j)] = model.var(j).ub;
    }
    minimize_ = model.objSense() == lp::ObjSense::kMinimize;
    pseudo_costs_.assign(static_cast<std::size_t>(n), PseudoCost{});
    // One CSC build per tree: every node solve differs only in bounds, so
    // the structural matrix is shared across the whole search instead of
    // being rebuilt per solve (pure constant overhead otherwise).
    if (lp_solver_.resolveEngine(model) == lp::LpEngine::kSparse) {
      csc_ = std::make_shared<const lp::sparse::CscMatrix>(
          lp::sparse::CscMatrix::fromModel(model));
      if (opt.lp_warm_start && opt.lp.dual_reopt) {
        // Persistent dual reoptimizer: dive children warm-start from the
        // live factors of the solve that just produced their parent basis,
        // skipping both per-node refactorizations.
        lp::sparse::DualSimplexSolver::Options dopt;
        dopt.core = opt.lp.core;
        if (!dopt.core.stop) dopt.core.stop = opt.stop;
        if (!dopt.core.telemetry) dopt.core.telemetry = opt.telemetry;
        dopt.refactor_interval = opt.lp.refactor_interval;
        dopt.lu = opt.lp.lu;
        reopt_.emplace(model, csc_, dopt);
      }
    }
    if (opt.telemetry != nullptr && opt.telemetry->metrics != nullptr) {
      telemetry::MetricsRegistry& reg = *opt.telemetry->metrics;
      nodes_ctr_ = &reg.counter("milp.nodes");
      lp_solves_ctr_ = &reg.counter("lp.solves");
      lp_iter_ctr_ = &reg.counter("lp.iterations");
      node_iter_hist_ = &reg.histogram("lp.node_iterations");
    }
  }


  /// `root_basis` (null: cold root) warm-starts the root relaxation; `res`
  /// carries the root phase's LP effort, to which the tree's is added.
  MipResult run(std::optional<std::vector<double>> warm_start,
                std::shared_ptr<const lp::sparse::Basis> root_basis, MipResult res) {
    Stopwatch watch;
    Deadline deadline(opt_.time_limit_seconds);
    deadline_ = &deadline;

    if (warm_start && model_.isFeasible(*warm_start, opt_.int_tol)) {
      incumbent_ = *warm_start;
      incumbent_obj_ = signedObj(model_.evalObjective(*warm_start));
    }

    res.lp_engine = lp_solver_.resolveEngine(model_);

    Node root;
    root.start_basis = std::move(root_basis);
    nodes_.push_back(std::move(root));
    heap_.push(HeapEntry{-lp::kInfinity, seq_++, 0});

    bool truncated = false;
    bool root_unbounded = false;
    while (!heap_.empty()) {
      if (deadline.expired() || externallyStopped() ||
          (opt_.node_limit > 0 && res.nodes >= opt_.node_limit)) {
        truncated = true;
        break;
      }
      adoptExternalIncumbent(res);
      HeapEntry top = heap_.top();
      heap_.pop();
      // Prune against the incumbent before solving (releasing the pruned
      // node's basis snapshot — at paper scale each holds ~hundreds of KB
      // and thousands of nodes can be pruned without ever being processed).
      if (hasIncumbent() && top.bound >= incumbent_obj_ - absGapSlack()) {
        nodes_[static_cast<std::size_t>(top.node)].start_basis.reset();
        if (incumbent_external_) ++res.cutoff_prunes;
        continue;
      }

      // Depth-first plunge from the selected node. One plunge = one
      // node-batch span in the trace: fine enough to see where tree time
      // goes, coarse enough to stay off the per-node path.
      telemetry::Span plunge_span(opt_.telemetry, "milp", "node_batch");
      int current = top.node;
      int dove = 0;
      for (int dive = 0; current >= 0 && dive <= opt_.plunge_depth; ++dive) {
        if (deadline.expired() || externallyStopped()) {
          truncated = true;
          break;
        }
        if (dive > 0) adoptExternalIncumbent(res);  // dives outlive the heap poll
        ++res.nodes;
        ++dove;
        current = processNode(current, res, root_unbounded);
      }
      plunge_span.arg("nodes", dove);
      plunge_span.finish();
      if (nodes_ctr_ != nullptr) nodes_ctr_->add(dove);
      if (root_unbounded) break;
    }

    // ---- final status assembly ----
    // A run that ends with the external stop flag set never claims a proof,
    // even when every node happened to be processed before the flag was
    // observed: the flag means another engine settled the problem, and a
    // cancelled run racing it must not hand arbitration a second "proof"
    // whose final LPs may have been cut short mid-pivot.
    truncated = truncated || dropped_node_ || externallyStopped();
    res.seconds = watch.seconds();
    double bound;
    if (truncated) {
      // The dual bound is the weakest unexplored node bound (root nodes carry
      // -inf until their parent LP is solved, so this is conservative). A
      // dropped subtree leaves the dual bound unknown entirely: without
      // this, a drained heap would report gap 0 and claim optimality.
      bound = dropped_node_ ? -lp::kInfinity
                            : (heap_.empty() ? incumbent_obj_ : heap_.top().bound);
    } else {
      bound = hasIncumbent() ? incumbent_obj_ : lp::kInfinity;
    }
    if (root_unbounded) {
      res.status = MipStatus::kUnbounded;
      return res;
    }
    if (hasIncumbent()) {
      res.x = incumbent_;
      res.objective = userObj(incumbent_obj_);
      res.best_bound = userObj(bound);
      res.gap = std::abs(incumbent_obj_ - bound) / std::max(1.0, std::abs(incumbent_obj_));
      res.status = (!truncated || res.gap <= opt_.gap_tol) ? MipStatus::kOptimal
                                                           : MipStatus::kFeasible;
    } else {
      res.status = truncated ? MipStatus::kNoSolution : MipStatus::kInfeasible;
      res.best_bound = userObj(bound);
    }
    return res;
  }

 private:
  // All internal objective handling is in minimization sense.
  [[nodiscard]] double signedObj(double user) const { return minimize_ ? user : -user; }
  [[nodiscard]] double userObj(double internal) const { return minimize_ ? internal : -internal; }
  [[nodiscard]] bool hasIncumbent() const { return !incumbent_.empty(); }
  [[nodiscard]] bool externallyStopped() const {
    return opt_.stop && opt_.stop->load(std::memory_order_relaxed);
  }
  [[nodiscard]] double absGapSlack() const {
    return hasIncumbent() ? opt_.gap_tol * std::max(1.0, std::abs(incumbent_obj_)) : 0.0;
  }

  /// Polls the incumbent-exchange callback and adopts its point as the
  /// objective cutoff when it is integer-feasible for this (possibly cut-
  /// and presolve-augmented) model and beats the current incumbent. Cover
  /// cuts and presolve preserve every integer-feasible point, so a genuinely
  /// feasible external plan passes; HO's sequence-pair rows legitimately
  /// reject plans outside the restricted space.
  void adoptExternalIncumbent(MipResult& res) {
    if (!opt_.incumbent_poll) return;
    std::optional<std::vector<double>> x = opt_.incumbent_poll();
    if (!x || !model_.isFeasible(*x, opt_.int_tol)) return;
    const double obj = signedObj(model_.evalObjective(*x));
    if (hasIncumbent() && obj >= incumbent_obj_ - 1e-12) return;
    incumbent_ = std::move(*x);
    roundIntegers(incumbent_);
    incumbent_obj_ = obj;
    incumbent_external_ = true;
    ++res.external_adoptions;
    telemetry::instant(opt_.telemetry, "incumbent", "adopt", "objective",
                       userObj(incumbent_obj_), "engine", "milp");
    if (opt_.log_progress)
      RFP_LOG_INFO("milp: adopted external incumbent " << userObj(incumbent_obj_));
  }

  void materializeBounds(int node, std::vector<double>& lb, std::vector<double>& ub) const {
    lb = base_lb_;
    ub = base_ub_;
    // Walk the change chain root-ward; the *latest* change to a variable wins,
    // so collect then apply in reverse arrival order via max/min merging
    // (bounds only ever tighten along a path, so max/min is exact).
    for (int cur = node; cur > 0; cur = nodes_[static_cast<std::size_t>(cur)].parent) {
      const BoundChange& ch = nodes_[static_cast<std::size_t>(cur)].change;
      if (ch.is_lower)
        lb[static_cast<std::size_t>(ch.var)] = std::max(lb[static_cast<std::size_t>(ch.var)], ch.value);
      else
        ub[static_cast<std::size_t>(ch.var)] = std::min(ub[static_cast<std::size_t>(ch.var)], ch.value);
    }
  }

  /// Solves the node LP, prunes/branches. Returns the child node index to
  /// continue the plunge on (-1 to end the dive).
  int processNode(int node_index, MipResult& res, bool& root_unbounded) {
    // The root relaxation dominates wall clock at paper scale; give it its
    // own named span so the timeline shows it without per-node spans.
    telemetry::Span root_span;
    if (node_index == 0 && opt_.telemetry != nullptr)
      root_span = telemetry::Span(opt_.telemetry, "lp", "root_lp");
    std::vector<double> lb, ub;
    materializeBounds(node_index, lb, ub);

    // Reoptimize from the parent's optimal basis (sparse engine; the basis
    // is usually a handful of pivots from the child optimum). Take a local
    // copy: nodes_ may reallocate when children are pushed below.
    std::shared_ptr<const lp::sparse::Basis> start_basis =
        std::move(nodes_[static_cast<std::size_t>(node_index)].start_basis);

    // Dual-first warm reoptimization through the persistent per-tree
    // reoptimizer; the primal engine is the fallback for cold nodes and for
    // warm bases the dual engine declines (no dual-feasible start).
    lp::LpResult rel;
    bool solved = false;
    if (reopt_ && opt_.lp_warm_start && start_basis) {
      // The node deadline: per-LP limit capped by the tree's remaining
      // time, merged exactly as cappedLpOptions does for the primal path.
      const double limit =
          cappedLpOptions(opt_, clampedRemaining(*deadline_)).core.time_limit_seconds;
      lp::LpResult declined;
      if (std::optional<lp::LpResult> dual =
              reopt_->reoptimize(lb, ub, start_basis, limit, &declined)) {
        rel = *std::move(dual);
        solved = true;
      } else {
        // A dual attempt that gave up still burned pivots and possibly a
        // refactorization; fold its effort into the telemetry so the
        // pivot-class counters reflect actual solver work.
        addLpEffort(res, declined, /*solve=*/false);
        if (lp_iter_ctr_ != nullptr) lp_iter_ctr_->add(declined.iterations);
      }
    }
    if (!solved) {
      lp::LpSolver::Options lopt = cappedLpOptions(opt_, clampedRemaining(*deadline_));
      lopt.dual_reopt = false;  // the dual fast path already had its chance
      rel = lp::LpSolver(lopt).solve(
          model_, lb, ub, opt_.lp_warm_start ? start_basis.get() : nullptr, csc_.get());
    }
    addLpEffort(res, rel);
    if (lp_solves_ctr_ != nullptr) {
      lp_solves_ctr_->increment();
      lp_iter_ctr_->add(rel.iterations);
      node_iter_hist_->record(static_cast<double>(rel.iterations));
    }
    // Warm nodes either rode the dual fast path or fell back to the primal
    // engine; sample the distinction into the trace (every LP when the
    // sampling knob is 1). Refactorizations are rare enough to always emit.
    if (telemetry::sampleHit(opt_.telemetry, static_cast<std::uint64_t>(res.lp_solves)))
      opt_.telemetry->trace->instant("lp", rel.dual_reopt ? "dual_reopt" : "primal_fallback",
                                     "iterations", static_cast<double>(rel.iterations));
    if (rel.refactorizations > 0)
      telemetry::instant(opt_.telemetry, "lp", "refactorize", "count",
                         static_cast<double>(rel.refactorizations));
    if (rel.status == lp::LpStatus::kInfeasible) return -1;
    if (rel.status == lp::LpStatus::kUnbounded) {
      if (node_index == 0) root_unbounded = true;
      return -1;
    }
    if (rel.status != lp::LpStatus::kOptimal) {
      // Limit hit (or the sparse engine refused to certify its point): the
      // subtree is dropped unexplored, so any final answer is a truncation,
      // not a proof — without this a discarded subtree could hide the true
      // optimum behind a kOptimal/kInfeasible claim.
      dropped_node_ = true;
      return -1;
    }

    const double bound = signedObj(rel.objective);
    if (hasIncumbent() && bound >= incumbent_obj_ - absGapSlack()) {
      if (incumbent_external_) ++res.cutoff_prunes;
      return -1;
    }

    // Pseudo-cost update: this node's LP bound vs the parent bound measures
    // the objective degradation of the branch that created it.
    const Node& node = nodes_[static_cast<std::size_t>(node_index)];
    if (opt_.pseudo_cost_branching && node_index != 0 &&
        node.lp_bound > -lp::kInfinity / 2 && node.branch_frac > 0)
      detail::updatePseudoCost(pseudo_costs_, node.change, node.lp_bound, node.branch_frac,
                               bound);

    const int frac = detail::selectBranchVar(model_, opt_, pseudo_costs_, rel.x);
    if (frac < 0) {
      // Integral LP optimum: new incumbent.
      if (!hasIncumbent() || bound < incumbent_obj_) {
        incumbent_ = rel.x;
        roundIntegers(incumbent_);
        incumbent_obj_ = bound;
        incumbent_external_ = false;
        if (opt_.incumbent_publish) opt_.incumbent_publish(incumbent_);
        telemetry::instant(opt_.telemetry, "incumbent", "publish", "objective",
                           userObj(incumbent_obj_), "engine", "milp");
        if (opt_.log_progress)
          RFP_LOG_INFO("milp: incumbent " << userObj(incumbent_obj_) << " at node " << res.nodes);
      }
      return -1;
    }

    if (opt_.enable_rounding_heuristic) tryRounding(rel.x);

    const double xv = rel.x[static_cast<std::size_t>(frac)];
    const int depth = nodes_[static_cast<std::size_t>(node_index)].depth;

    // Down child (ub := floor) and up child (lb := ceil); both reoptimize
    // from this node's optimal basis (one shared snapshot).
    const double frac_part = xv - std::floor(xv);
    const int down = static_cast<int>(nodes_.size());
    nodes_.push_back(
        Node{node_index, {frac, false, std::floor(xv)}, bound, depth + 1, frac_part, rel.basis});
    const int up = static_cast<int>(nodes_.size());
    nodes_.push_back(
        Node{node_index, {frac, true, std::ceil(xv)}, bound, depth + 1, frac_part, rel.basis});

    // Plunge into the child closer to the LP value; queue the other.
    const bool go_down = (xv - std::floor(xv)) <= 0.5;
    const int dive_child = go_down ? down : up;
    const int queue_child = go_down ? up : down;
    heap_.push(HeapEntry{bound, seq_++, queue_child});
    return dive_child;
  }

  void roundIntegers(std::vector<double>& x) const { detail::roundIntegers(model_, x); }

  /// Rounds the fractional LP point and accepts it if it happens to be
  /// feasible and improving — cheap and surprisingly effective on big-M
  /// floorplanning models where most binaries are already integral.
  void tryRounding(const std::vector<double>& x) {
    std::vector<double> cand = x;
    roundIntegers(cand);
    if (!model_.isFeasible(cand, opt_.int_tol)) return;
    const double obj = signedObj(model_.evalObjective(cand));
    if (!hasIncumbent() || obj < incumbent_obj_ - 1e-12) {
      incumbent_ = std::move(cand);
      incumbent_obj_ = obj;
      incumbent_external_ = false;
      if (opt_.incumbent_publish) opt_.incumbent_publish(incumbent_);
      telemetry::instant(opt_.telemetry, "incumbent", "publish", "objective", userObj(obj),
                         "engine", "milp-rounding");
      if (opt_.log_progress) RFP_LOG_INFO("milp: rounding incumbent " << userObj(obj));
    }
  }

  const lp::Model& model_;
  MilpSolver::Options opt_;
  lp::LpSolver lp_solver_;
  bool minimize_ = true;
  std::vector<PseudoCost> pseudo_costs_;

  std::vector<double> base_lb_, base_ub_;
  std::vector<Node> nodes_;
  std::priority_queue<HeapEntry> heap_;
  long seq_ = 0;
  /// Structural CSC matrix shared by every node solve of this tree (sparse
  /// engine only; null on the dense path).
  std::shared_ptr<const lp::sparse::CscMatrix> csc_;
  /// Persistent dual-simplex state shared across this tree's node solves.
  std::optional<lp::sparse::DualReoptimizer> reopt_;
  bool dropped_node_ = false;  ///< a node LP hit a limit; results are truncations
  // Live registry handles (null without a telemetry context).
  telemetry::Counter* nodes_ctr_ = nullptr;
  telemetry::Counter* lp_solves_ctr_ = nullptr;
  telemetry::Counter* lp_iter_ctr_ = nullptr;
  telemetry::Histogram* node_iter_hist_ = nullptr;

  std::vector<double> incumbent_;
  double incumbent_obj_ = lp::kInfinity;
  bool incumbent_external_ = false;  ///< current incumbent came from the channel
  const Deadline* deadline_ = nullptr;  ///< run()'s deadline, for node LP caps
};

/// Boundary guard for the non-search return paths (pure LP, root presolve):
/// a solve that ends with the external stop flag set is a cancellation, and
/// a cancelled run must never hand the caller a proof.
void downgradeIfCancelled(MipResult& res, const MilpSolver::Options& opt) {
  if (!opt.stop || !opt.stop->load(std::memory_order_relaxed)) return;
  if (res.status == MipStatus::kOptimal) res.status = MipStatus::kFeasible;
  else if (res.status == MipStatus::kInfeasible) res.status = MipStatus::kNoSolution;
}

/// `basis` grown to a model with `rows` rows, every appended row entering
/// with its slack basic. The reduced costs are unchanged (slacks cost
/// nothing), so the grown basis stays dual feasible: a violated cut only
/// makes its own slack primal infeasible, which the dual simplex repairs.
std::shared_ptr<const lp::sparse::Basis> withBasicSlacks(const lp::sparse::Basis& basis,
                                                         int rows) {
  auto grown = std::make_shared<lp::sparse::Basis>(basis);
  for (int i = basis.rows; i < rows; ++i) {
    grown->basic.push_back(basis.cols + i);
    grown->status.push_back(lp::sparse::VarStatus::kBasic);
  }
  grown->rows = rows;
  return grown;
}

}  // namespace

MipLpEffort& MipLpEffort::operator+=(const MipLpEffort& o) noexcept {
  lp_iterations += o.lp_iterations;
  lp_solves += o.lp_solves;
  lp_warm_hits += o.lp_warm_hits;
  lp_refactorizations += o.lp_refactorizations;
  lp_primal_pivots += o.lp_primal_pivots;
  lp_dual_pivots += o.lp_dual_pivots;
  lp_bound_flips += o.lp_bound_flips;
  lp_ft_updates += o.lp_ft_updates;
  lp_dual_reopts += o.lp_dual_reopts;
  lp_ftran_sparse += o.lp_ftran_sparse;
  lp_ftran_dense += o.lp_ftran_dense;
  lp_btran_sparse += o.lp_btran_sparse;
  lp_btran_dense += o.lp_btran_dense;
  lp_dse_updates += o.lp_dse_updates;
  return *this;
}

MipResult MilpSolver::solve(const lp::Model& model,
                            std::optional<std::vector<double>> warm_start) const {
  MipResult res;
  if (!model.hasIntegerVars()) {
    // Pure LP: solve the relaxation directly (with the MILP-level budget and
    // stop flag threaded into the pivot loop).
    lp::LpSolver solver(cappedLpOptions(options_, options_.time_limit_seconds));
    lp::LpResult rel = solver.solve(model);
    addLpEffort(res, rel);
    res.lp_engine = rel.engine;
    res.seconds = rel.seconds;
    switch (rel.status) {
      case lp::LpStatus::kOptimal:
        res.status = MipStatus::kOptimal;
        res.x = std::move(rel.x);
        res.objective = rel.objective;
        res.best_bound = rel.objective;
        res.gap = 0.0;
        break;
      case lp::LpStatus::kInfeasible: res.status = MipStatus::kInfeasible; break;
      case lp::LpStatus::kUnbounded: res.status = MipStatus::kUnbounded; break;
      default: res.status = MipStatus::kNoSolution; break;
    }
    downgradeIfCancelled(res, options_);
    return res;
  }
  // Working copy: presolve tightens its variable bounds; cover cuts append
  // rows. Both transformations preserve every integer-feasible point, so a
  // warm start remains valid and optimality claims are unaffected. The
  // wall-clock budget covers presolve + cuts + search: root work at paper
  // scale is LP-solve-heavy, so the search receives whatever remains.
  Stopwatch root_watch;
  const Deadline cut_deadline(options_.time_limit_seconds);
  lp::Model work = model;
  res.lp_engine = lp::LpSolver(options_.lp).resolveEngine(work);
  std::vector<double> lb(static_cast<std::size_t>(work.numVars()));
  std::vector<double> ub(static_cast<std::size_t>(work.numVars()));
  for (int j = 0; j < work.numVars(); ++j) {
    lb[static_cast<std::size_t>(j)] = work.var(j).lb;
    ub[static_cast<std::size_t>(j)] = work.var(j).ub;
  }

  if (options_.enable_presolve) {
    telemetry::Span presolve_span(options_.telemetry, "milp", "presolve");
    const PresolveResult pr = tightenBounds(work, lb, ub);
    if (pr.infeasible) {
      res.status = MipStatus::kInfeasible;
      res.seconds = root_watch.seconds();
      downgradeIfCancelled(res, options_);
      return res;
    }
    for (int j = 0; j < work.numVars(); ++j)
      work.setVarBounds(j, lb[static_cast<std::size_t>(j)], ub[static_cast<std::size_t>(j)]);
  }

  // The root relaxation is one warm chain: each cut round re-solves from
  // the previous round's optimal basis grown by the appended cover rows,
  // and the last round's basis warm-starts the tree's root — a round that
  // found no cuts already *is* the root optimum. lp_warm_start=false keeps
  // every round and the root cold; the dense engine returns no basis, so
  // it stays cold either way.
  std::shared_ptr<const lp::sparse::Basis> root_basis;
  if (options_.enable_cover_cuts) {
    telemetry::Span cuts_span(options_.telemetry, "milp", "cover_cuts");
    telemetry::MetricsRegistry* reg =
        options_.telemetry != nullptr ? options_.telemetry->metrics : nullptr;
    for (int round = 0; round < options_.cut_rounds; ++round) {
      if (cut_deadline.expired() ||
          (options_.stop && options_.stop->load(std::memory_order_relaxed)))
        break;
      const lp::LpSolver solver(cappedLpOptions(options_, clampedRemaining(cut_deadline)));
      const lp::LpResult rel = solver.solve(work, lb, ub, root_basis.get());
      addLpEffort(res, rel);
      if (reg != nullptr) {
        reg->counter("lp.solves").increment();
        reg->counter("lp.iterations").add(rel.iterations);
      }
      root_basis = options_.lp_warm_start ? rel.basis : nullptr;
      if (rel.status != lp::LpStatus::kOptimal) break;
      const std::vector<CoverCut> cuts = separateCoverCuts(work, rel.x);
      if (cuts.empty()) break;
      for (const CoverCut& cut : cuts) {
        lp::LinExpr expr;
        for (const int j : cut.vars) expr.addTerm(lp::Var{j}, 1.0);
        work.addConstr(expr, lp::Sense::kLessEqual, cut.rhs, "cover_cut");
      }
      if (root_basis) root_basis = withBasicSlacks(*root_basis, work.numConstrs());
    }
  }

  Options search_opt = options_;
  if (search_opt.time_limit_seconds > 0)
    search_opt.time_limit_seconds =
        std::max(0.01, search_opt.time_limit_seconds - root_watch.seconds());
  // threads > 1 dispatches to the work-stealing parallel engine
  // (bb_parallel.cpp); the sequential engine stays the single-thread path so
  // existing single-threaded behavior is bit-for-bit unchanged.
  res = search_opt.threads > 1
            ? detail::runParallelSearch(work, search_opt, std::move(warm_start),
                                        std::move(root_basis), std::move(res))
            : Search(work, search_opt)
                  .run(std::move(warm_start), std::move(root_basis), std::move(res));
  res.seconds = root_watch.seconds();  // include presolve + cut time
  return res;
}

}  // namespace rfp::milp
