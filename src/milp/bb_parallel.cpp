// The branch & bound tree search behind MilpSolver::solve, at every thread
// count: Options::threads workers over one tree, the single-worker case
// being the sequential best-bound B&B with depth-first plunging.
//
// Architecture (SNIPPETS.md Snippet 2 is the blueprint, adapted to this
// repo's warm-start substrate):
//  * every worker owns a finely-locked pool of open nodes: a best-bound heap
//    keyed by (parent LP bound, push order), FIFO among equal bounds. It
//    takes the pool's best node and plunges below it, solving next the
//    child nearer the LP value, for at most plunge_depth + 1 nodes; the
//    other child of each branch goes into the pool. A plunge that ends with
//    a child in hand returns that child to the pool;
//  * a worker whose pool drains steals the best half of the first
//    non-empty victim pool — the most promising open nodes, so one steal
//    buys a stretch of useful independent work;
//  * nodes carry their bound-change chain as an immutable shared_ptr spine
//    (a node arena would need a global lock; the chain is lock-free to read
//    and O(1) per node) plus the exported parent Basis, so a thief
//    warm-starts its first stolen node through adopt-and-refactorize
//    instead of cold-solving;
//  * every worker owns a private DualReoptimizer — its live factors,
//    reduced costs and give-up breaker are single-owner mutable state (see
//    dual_simplex.hpp), which also confines a hyper-degenerate subtree's
//    breaker trips to the worker diving it;
//  * the incumbent is the one shared cutoff: improvements publish an atomic
//    objective that every worker prunes against at node boundaries
//    (externally, SharedIncumbent plugs in through the poll/publish
//    callbacks — both serialized here because the fp-layer wrappers carry
//    unsynchronized mutable captures);
//  * termination: an atomic count of open nodes (root = 1, +1 per branch,
//    -1 per finished node). Idle workers spin-steal until it reaches zero —
//    pools can all be momentarily empty while a peer is still plunging, so
//    "all pools empty" alone is not termination.
//
// One worker runs inline on the caller's thread, with no idle wait: its
// pool is empty only when the tree is exhausted.
//
// Deterministic replay (Options::deterministic): the same logical workers
// run lock-step on one OS thread in a fixed round-robin schedule (one pool
// pick and its plunge per quantum) with a fixed steal-victim order. Node
// expansion order and the steal schedule are then functions of the
// instance alone; both feed MipResult::replay_hash, which tests compare
// across runs.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "lp/sparse/dual_simplex.hpp"
#include "lp/sparse/revised_simplex.hpp"
#include "milp/bb_detail.hpp"
#include "support/sync.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::milp::detail {
namespace {

/// One link of a node's immutable bound-change chain. Nodes share their
/// ancestors' links across workers; links free themselves when the last
/// open descendant is pruned or expanded.
struct PathNode {
  std::shared_ptr<const PathNode> parent;
  BoundChange change;
};

/// An open node: the bound chain that defines it, the dual bound and branch
/// metadata of the parent LP, the parent's exported optimal basis, and its
/// pool key's tiebreak.
struct PNode {
  std::shared_ptr<const PathNode> path;  ///< null: root
  double lp_bound = -lp::kInfinity;
  int depth = 0;
  double branch_frac = 0.0;
  std::shared_ptr<const lp::sparse::Basis> start_basis;
  long seq = 0;  ///< push order: older nodes first among equal bounds
};

/// FNV-1a accumulator for the deterministic replay digest.
struct ReplayHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mixDouble(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/// Heap order for NodePool: the best node (lowest bound, then oldest) sits
/// at the front of a std::make_heap max-heap.
struct WorseNode {
  bool operator()(const PNode& a, const PNode& b) const {
    if (a.lp_bound != b.lp_bound) return a.lp_bound > b.lp_bound;
    return a.seq > b.seq;
  }
};

/// Finely-locked best-bound pool. The owner pushes and pops the best node;
/// thieves take the best half. One mutex per pool: owner and thief only
/// collide on this worker's pool, never globally.
class NodePool {
 public:
  void push(PNode n) {
    const sync::MutexLock lock(mu_);
    heap_.push_back(std::move(n));
    std::push_heap(heap_.begin(), heap_.end(), WorseNode{});
  }

  bool pop(PNode& out) {
    const sync::MutexLock lock(mu_);
    if (heap_.empty()) return false;
    popBest(out);
    return true;
  }

  /// Steal-half policy: moves the best ceil(size/2) nodes into `out`, best
  /// first.
  int stealHalf(std::vector<PNode>& out) {
    const sync::MutexLock lock(mu_);
    const int take = static_cast<int>((heap_.size() + 1) / 2);
    for (int i = 0; i < take; ++i) popBest(out.emplace_back());
    return take;
  }

  /// Weakest dual bound among the leftover nodes (+inf when empty) — the
  /// truncated-run bound.
  double minBound() const {
    const sync::MutexLock lock(mu_);
    return heap_.empty() ? lp::kInfinity : heap_.front().lp_bound;
  }

 private:
  void popBest(PNode& out) RFP_REQUIRES(mu_) {
    std::pop_heap(heap_.begin(), heap_.end(), WorseNode{});
    out = std::move(heap_.back());
    heap_.pop_back();
  }

  mutable sync::Mutex mu_;
  std::vector<PNode> heap_ RFP_GUARDED_BY(mu_);
};

/// State shared by all workers of one tree.
struct SharedTree {
  const lp::Model& model;
  const MilpSolver::Options& opt;
  bool minimize = true;
  std::vector<double> base_lb, base_ub;
  Deadline deadline;
  /// One CSC build per tree, shared by every node solve: node LPs differ
  /// only in bounds.
  const lp::sparse::CscMatrix csc;

  std::vector<std::unique_ptr<NodePool>> pools;
  std::atomic<long> next_seq{0};
  /// Open-node count: nodes sitting in pools plus nodes in a worker's hand.
  /// Zero means the tree is exhausted (the termination signal).
  std::atomic<long> outstanding{0};
  std::atomic<long> total_nodes{0};
  /// The one worker whose plunge may run past the node limit (-1: none yet).
  std::atomic<int> overrun_owner{-1};
  /// Abnormal-stop latch: deadline, node limit, external stop, unbounded
  /// root. Workers observe it at pool picks and drain out.
  std::atomic<bool> halt{false};
  std::atomic<bool> truncated{false};
  std::atomic<bool> dropped{false};  ///< a node LP hit its iteration limit or went uncertified
  std::atomic<bool> root_unbounded{false};

  // The incumbent. `cutoff`/`has_incumbent` are the hot read path (every
  // node prunes against them); the vectors change under `inc_mu`.
  sync::Mutex inc_mu;
  std::vector<double> incumbent RFP_GUARDED_BY(inc_mu);
  double incumbent_obj RFP_GUARDED_BY(inc_mu) = lp::kInfinity;
  std::atomic<double> cutoff{lp::kInfinity};
  std::atomic<bool> has_incumbent{false};
  std::atomic<bool> incumbent_external{false};

  /// Serializes the incumbent_poll/incumbent_publish callbacks: the fp
  /// layer's wrappers carry unsynchronized mutable state (version cursors,
  /// telemetry counters), so concurrent invocation would race. Ordering:
  /// offerIncumbent releases inc_mu before taking callback_mu, so inc_mu is
  /// never held under it (callback_mu forwards into SharedIncumbent, which
  /// sits below in the repo-wide hierarchy — see CONTRIBUTING.md).
  sync::Mutex callback_mu;
  /// Publishes and adoptions; the hot-path cutoff prunes count lock-free
  /// below and join them in the result.
  ExchangeStats exchange RFP_GUARDED_BY(callback_mu);
  std::atomic<long> cutoff_prunes{0};

  // Deterministic mode runs single-threaded, so the digest needs no lock.
  bool deterministic = false;
  ReplayHash replay;

  SharedTree(const lp::Model& m, const MilpSolver::Options& o)
      : model(m),
        opt(o),
        deadline(o.time_limit_seconds),
        csc(lp::sparse::CscMatrix::fromModel(m)) {}

  [[nodiscard]] double signedObj(double user) const { return minimize ? user : -user; }
  [[nodiscard]] double userObj(double internal) const { return minimize ? internal : -internal; }
  [[nodiscard]] bool externallyStopped() const {
    return opt.stop && opt.stop->load(std::memory_order_relaxed);
  }
  /// The deadline passed or the external stop flag is up.
  [[nodiscard]] bool interrupted() const { return deadline.expired() || externallyStopped(); }
  [[nodiscard]] double absGapSlack() const {
    if (!has_incumbent.load(std::memory_order_acquire)) return 0.0;
    return opt.gap_tol * std::max(1.0, std::abs(cutoff.load(std::memory_order_relaxed)));
  }
  /// Cutoff test against the shared incumbent (counts the prunes an
  /// external incumbent caused).
  [[nodiscard]] bool prunedByCutoff(double bound) {
    if (!has_incumbent.load(std::memory_order_acquire)) return false;
    if (bound < cutoff.load(std::memory_order_relaxed) - absGapSlack()) return false;
    if (incumbent_external.load(std::memory_order_relaxed))
      cutoff_prunes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Installs `x` as the incumbent if it improves. Self-found improvements
  /// are forwarded to incumbent_publish (outside inc_mu — the callback can
  /// be slow, and nesting inc_mu under callback_mu elsewhere would
  /// deadlock).
  bool offerIncumbent(std::vector<double> x, double obj, bool external) {
    sync::UniqueLock lock(inc_mu);
    if (has_incumbent.load(std::memory_order_relaxed) && obj >= incumbent_obj - 1e-12)
      return false;
    incumbent = std::move(x);
    incumbent_obj = obj;
    incumbent_external.store(external, std::memory_order_relaxed);
    cutoff.store(obj, std::memory_order_relaxed);
    has_incumbent.store(true, std::memory_order_release);
    std::vector<double> snapshot;
    if (!external && opt.incumbent_publish) snapshot = incumbent;
    lock.unlock();
    if (!snapshot.empty()) {
      const sync::MutexLock cb(callback_mu);
      opt.incumbent_publish(snapshot);
      ++exchange.published;
    }
    if (!external)
      telemetry::instant(opt.telemetry, "incumbent", "publish", "objective", userObj(obj),
                         "engine", "milp");
    return true;
  }

  /// Polls the incumbent-exchange callback and adopts its point as the
  /// objective cutoff when it is integer-feasible for this (possibly cut-
  /// and presolve-augmented) model and beats the current incumbent. Cover
  /// cuts and presolve preserve every integer-feasible point, so a genuinely
  /// feasible external plan passes; HO's sequence-pair rows legitimately
  /// reject plans outside the restricted space. try_lock: if a peer is
  /// already polling, this worker skips — one reader per version suffices.
  void pollExternal() {
    if (!opt.incumbent_poll) return;
    if (!callback_mu.try_lock()) return;
    std::optional<std::vector<double>> x;
    {
      const sync::AdoptLock cb(callback_mu, std::adopt_lock);
      x = opt.incumbent_poll();
    }
    if (!x || !model.isFeasible(*x, opt.int_tol)) return;
    const double obj = signedObj(model.evalObjective(*x));
    roundIntegers(model, *x);
    if (offerIncumbent(std::move(*x), obj, true)) {
      {
        const sync::MutexLock cb(callback_mu);
        ++exchange.adopted;
      }
      telemetry::adoption(opt.telemetry, "milp", "objective", userObj(obj));
    }
  }

  void latchTruncation() {
    truncated.store(true, std::memory_order_relaxed);
    halt.store(true, std::memory_order_relaxed);
  }

  /// True when no pool pick may start: a stop latched, or the deadline,
  /// the external stop flag or the node limit was reached (the last three
  /// latch a truncation so every worker drains out promptly).
  bool stopped() {
    if (halt.load(std::memory_order_relaxed)) return true;
    const bool limit_hit =
        interrupted() ||
        (opt.node_limit > 0 && total_nodes.load(std::memory_order_relaxed) >= opt.node_limit);
    if (limit_hit) latchTruncation();
    return limit_hit;
  }

  /// Claims the expansion of one node, or latches a truncation and returns
  /// false. The deadline and the external stop end a plunge at any node
  /// boundary. The node limit binds only a pool pick (`diving` false): a
  /// started plunge runs to its end. Past the limit only the first worker
  /// to get there keeps diving, so `nodes` exceeds node_limit by at most
  /// plunge_depth at every thread count.
  bool claimNode(int worker, bool diving) {
    if (!interrupted()) {
      long n = total_nodes.load(std::memory_order_relaxed);
      while (opt.node_limit <= 0 || n < opt.node_limit || (diving && ownsOverrun(worker)))
        if (total_nodes.compare_exchange_weak(n, n + 1, std::memory_order_relaxed)) return true;
    }
    latchTruncation();
    return false;
  }

  /// Makes `worker` the overrun owner if there is none yet; true when it is.
  bool ownsOverrun(int worker) {
    int owner = -1;
    return overrun_owner.compare_exchange_strong(owner, worker, std::memory_order_relaxed) ||
           owner == worker;
  }
};

/// Outcome of one scheduling quantum.
enum class Step { kWorked, kIdle, kDone };

class Worker {
 public:
  Worker(int id, SharedTree& shared) : id_(id), shared_(shared), fold_(shared.opt.telemetry) {
    stats_.id = id;
    pseudo_costs_.assign(static_cast<std::size_t>(shared.model.numVars()), PseudoCost{});
    if (shared.opt.lp_warm_start)
      reopt_.emplace(shared.model, shared.csc, cappedLpOptions(shared.opt, 0.0));
    if (shared.opt.telemetry != nullptr) {
      trace_ = shared.opt.telemetry->trace;
      if (shared.opt.telemetry->metrics != nullptr) {
        telemetry::MetricsRegistry& reg = *shared.opt.telemetry->metrics;
        nodes_ctr_ = &reg.counter("milp.nodes");
        steals_ctr_ = &reg.counter("milp.steals");
        node_iter_hist_ = &reg.histogram("lp.node_iterations");
      }
    }
  }

  /// Thread main loop: runs quanta until the tree is exhausted or a stop
  /// latched, sleeping briefly while peers hold all the open nodes.
  void runThreaded() {
    if (trace_ != nullptr) {
      char label[32];
      std::snprintf(label, sizeof(label), "milp-worker-%d", id_);
      trace_->nameThread(label);
    }
    for (Step s = step(); s != Step::kDone; s = step()) {
      if (s != Step::kIdle) continue;
      const Stopwatch idle;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      stats_.idle_seconds += idle.seconds();
    }
  }

  /// One quantum: takes the best node of the own pool (stealing first when
  /// it is empty), prunes it against the incumbent or plunges from it.
  Step step() {
    if (shared_.outstanding.load(std::memory_order_acquire) == 0 || shared_.stopped())
      return Step::kDone;
    shared_.pollExternal();
    PNode node;
    if (!pool().pop(node) && !(trySteal() && pool().pop(node)))
      return shared_.outstanding.load(std::memory_order_acquire) == 0 ? Step::kDone : Step::kIdle;
    // Prune against the incumbent before solving (releasing the node's
    // basis snapshot — at paper scale each holds ~hundreds of KB and
    // thousands of nodes can be pruned without ever being processed).
    if (shared_.prunedByCutoff(node.lp_bound)) {
      finishNode();
      return Step::kWorked;
    }
    plunge(std::move(node));
    return Step::kWorked;
  }

  [[nodiscard]] WorkerStats stats() const {
    WorkerStats s = stats_;
    s.lp_solves = counters.solves;
    s.lp_warm_hits = counters.warm_start_hits;
    return s;
  }

  /// Per-worker LP counters, merged into MipResult by runSearch.
  lp::LpCounters counters;

 private:
  NodePool& pool() { return *shared_.pools[static_cast<std::size_t>(id_)]; }

  void pushOpen(PNode node) {
    node.seq = shared_.next_seq.fetch_add(1, std::memory_order_relaxed);
    pool().push(std::move(node));
  }

  /// Scans victims in a fixed ring order from this worker's successor and
  /// moves the best half of the first non-empty pool into its own. The
  /// fixed order makes the steal schedule a pure function of tree shape in
  /// deterministic mode.
  bool trySteal() {
    const int W = static_cast<int>(shared_.pools.size());
    for (int k = 1; k < W; ++k) {
      const int victim = (id_ + k) % W;
      std::vector<PNode> loot;
      const int got = shared_.pools[static_cast<std::size_t>(victim)]->stealHalf(loot);
      if (got == 0) continue;
      ++stats_.steals;
      stats_.stolen += got;
      if (trace_ != nullptr) trace_->instant("steal", "steal", "nodes", static_cast<double>(got));
      if (steals_ctr_ != nullptr) steals_ctr_->increment();
      if (shared_.deterministic) {
        shared_.replay.mix(0x57ea1ull);  // steal event marker
        shared_.replay.mix(static_cast<std::uint64_t>(id_));
        shared_.replay.mix(static_cast<std::uint64_t>(victim));
        shared_.replay.mix(static_cast<std::uint64_t>(got));
      }
      for (PNode& n : loot) pool().push(std::move(n));  // keys travel unchanged
      return true;
    }
    return false;
  }

  void finishNode() { shared_.outstanding.fetch_sub(1, std::memory_order_acq_rel); }

  /// Depth-first plunge from a pool pick: solves `node`, then keeps solving
  /// the child nearer the LP value, at most plunge_depth + 1 nodes in all.
  /// Only the pool pick takes the pre-solve cutoff test. One plunge is one
  /// node-batch span in the trace: fine enough to see where tree time goes,
  /// coarse enough to stay off the per-node path.
  void plunge(PNode node) {
    telemetry::Span span(shared_.opt.telemetry, "milp", "node_batch");
    std::optional<PNode> next = std::move(node);
    int solved = 0;
    for (int dive = 0; next && dive <= shared_.opt.plunge_depth; ++dive) {
      if (!shared_.claimNode(id_, dive > 0)) break;
      if (dive > 0) shared_.pollExternal();  // dives outlive the pool-pick poll
      next = processNode(*std::move(next));
      ++solved;
    }
    span.arg("nodes", solved);
    // A plunge that stops with a child in hand returns it: the child is an
    // open node, and dropping it would let the run claim a false proof.
    if (next) pushOpen(*std::move(next));
  }

  void materializeBounds(const PNode& node, std::vector<double>& lb,
                         std::vector<double>& ub) const {
    lb = shared_.base_lb;
    ub = shared_.base_ub;
    // Leaf-to-root walk with max/min merging: bounds only tighten along a
    // path, so the merge is exact regardless of application order.
    for (const PathNode* p = node.path.get(); p != nullptr; p = p->parent.get()) {
      const BoundChange& ch = p->change;
      if (ch.is_lower)
        lb[static_cast<std::size_t>(ch.var)] = std::max(lb[static_cast<std::size_t>(ch.var)], ch.value);
      else
        ub[static_cast<std::size_t>(ch.var)] = std::min(ub[static_cast<std::size_t>(ch.var)], ch.value);
    }
  }

  /// Solves one node LP and prunes or branches: the child farther from the
  /// LP value goes into the pool, the nearer one is returned to continue
  /// the plunge (nullopt ends it).
  std::optional<PNode> processNode(PNode node) {
    ++stats_.nodes;
    if (nodes_ctr_ != nullptr) nodes_ctr_->increment();
    if (shared_.deterministic) {
      shared_.replay.mix(static_cast<std::uint64_t>(id_));
      shared_.replay.mix(static_cast<std::uint64_t>(node.depth));
      const BoundChange ch = node.path ? node.path->change : BoundChange{};
      shared_.replay.mix(static_cast<std::uint64_t>(ch.var + 1));
      shared_.replay.mix(ch.is_lower ? 1u : 0u);
      shared_.replay.mixDouble(ch.value);
    }

    std::vector<double> lb, ub;
    materializeBounds(node, lb, ub);

    // Dual-first warm reoptimization through this worker's private
    // reoptimizer; the primal engine is the fallback for cold nodes and
    // warm bases the dual engine declines. A stolen node's basis is not
    // the reoptimizer's live one, so it takes the adopt-and-refactorize
    // path — still far cheaper than a cold phase-1 solve. The root
    // relaxation dominates wall clock at paper scale; it gets its own span.
    telemetry::Span root_span;
    if (node.depth == 0 && shared_.opt.telemetry != nullptr)
      root_span = telemetry::Span(shared_.opt.telemetry, "lp", "root_lp");
    lp::LpResult rel;
    bool solved = false;
    if (reopt_ && node.start_basis) {
      // The node's time limit is the tree's remaining time, as below.
      lp::LpResult declined;
      if (std::optional<lp::LpResult> dual = reopt_->reoptimize(
              lb, ub, *node.start_basis, clampedRemaining(shared_.deadline), &declined)) {
        rel = *std::move(dual);
        solved = true;
      } else {
        // A dual attempt that gave up still burned pivots and possibly a
        // refactorization; fold its counters (no solve of its own) so the
        // pivot-class counters reflect actual solver work.
        fold_.add(counters, declined);
      }
    }
    if (!solved) {
      // The dual fast path already had its chance: straight to the primal.
      const lp::sparse::RevisedSimplexSolver primal(
          cappedLpOptions(shared_.opt, clampedRemaining(shared_.deadline)));
      rel = primal.solve(shared_.model, lb, ub,
                         shared_.opt.lp_warm_start ? node.start_basis.get() : nullptr,
                         &shared_.csc);
    }
    node.start_basis.reset();
    fold_.add(counters, rel);
    if (node_iter_hist_ != nullptr)
      node_iter_hist_->record(static_cast<double>(rel.counters.iterations));
    // Warm nodes either rode the dual fast path or fell back to the primal
    // engine; sample the distinction into the trace (every LP when the
    // sampling knob is 1). Refactorizations are rare enough to always emit.
    if (telemetry::sampleHit(shared_.opt.telemetry, static_cast<std::uint64_t>(counters.solves)))
      trace_->instant("lp", rel.counters.dual_reopts > 0 ? "dual_reopt" : "primal_fallback",
                      "iterations", static_cast<double>(rel.counters.iterations));
    if (rel.counters.refactorizations > 0)
      telemetry::instant(shared_.opt.telemetry, "lp", "refactorize", "count",
                         static_cast<double>(rel.counters.refactorizations));

    if (rel.status != lp::LpStatus::kOptimal) {
      if (rel.status == lp::LpStatus::kUnbounded) {
        if (node.depth == 0) {
          shared_.root_unbounded.store(true, std::memory_order_relaxed);
          shared_.halt.store(true, std::memory_order_relaxed);
        }
      } else if (rel.status == lp::LpStatus::kTimeLimit && shared_.interrupted()) {
        // Cut short by the deadline or the stop flag: the node is still
        // open, so it goes back to its pool, where the truncated run's
        // bound counts it at its parent's bound.
        shared_.latchTruncation();
        pushOpen(std::move(node));
        return std::nullopt;
      } else if (rel.status != lp::LpStatus::kInfeasible) {
        // Iteration limit (or the sparse engine refused to certify its
        // point): the subtree is dropped unexplored, so the final answer is
        // a truncation, never a proof, and its dual bound is unknown.
        shared_.dropped.store(true, std::memory_order_relaxed);
      }
      finishNode();
      return std::nullopt;
    }

    const double bound = shared_.signedObj(rel.objective);
    if (shared_.prunedByCutoff(bound)) {
      finishNode();
      return std::nullopt;
    }

    // Pseudo-cost update: this node's LP bound vs the parent bound measures
    // the objective degradation of the branch that created it. The tables
    // are worker-local: no cross-worker synchronization, at the cost of
    // each worker learning branching scores from its own subtrees only.
    if (shared_.opt.pseudo_cost_branching && node.path && node.lp_bound > -lp::kInfinity / 2 &&
        node.branch_frac > 0)
      updatePseudoCost(pseudo_costs_, node.path->change, node.lp_bound, node.branch_frac, bound);

    const int frac = selectBranchVar(shared_.model, shared_.opt, pseudo_costs_, rel.x);
    if (frac < 0) {
      // Integral LP optimum: offer it as the shared incumbent.
      std::vector<double> x = std::move(rel.x);
      roundIntegers(shared_.model, x);
      shared_.offerIncumbent(std::move(x), bound, false);
      finishNode();
      return std::nullopt;
    }

    if (shared_.opt.enable_rounding_heuristic) tryRounding(rel.x);

    // Down child (ub := floor) and up child (lb := ceil); both reoptimize
    // from this node's optimal basis (one shared snapshot).
    const double xv = rel.x[static_cast<std::size_t>(frac)];
    const double frac_part = xv - std::floor(xv);
    auto down_path = std::make_shared<const PathNode>(
        PathNode{node.path, BoundChange{frac, false, std::floor(xv)}});
    auto up_path = std::make_shared<const PathNode>(
        PathNode{node.path, BoundChange{frac, true, std::ceil(xv)}});
    PNode down{std::move(down_path), bound, node.depth + 1, frac_part, rel.basis};
    PNode up{std::move(up_path), bound, node.depth + 1, frac_part, rel.basis};

    // Plunge into the child closer to the LP value; pool the other. Two
    // open children replace this node.
    const bool go_down = frac_part <= 0.5;
    shared_.outstanding.fetch_add(1, std::memory_order_acq_rel);
    pushOpen(go_down ? std::move(up) : std::move(down));
    return go_down ? std::move(down) : std::move(up);
  }

  /// Rounds the fractional LP point and offers it if feasible — cheap and
  /// surprisingly effective on big-M floorplanning models where most
  /// binaries are already integral.
  void tryRounding(const std::vector<double>& x) {
    std::vector<double> cand = x;
    roundIntegers(shared_.model, cand);
    if (!shared_.model.isFeasible(cand, shared_.opt.int_tol)) return;
    const double obj = shared_.signedObj(shared_.model.evalObjective(cand));
    shared_.offerIncumbent(std::move(cand), obj, false);
  }

  const int id_;
  SharedTree& shared_;
  WorkerStats stats_;
  std::vector<PseudoCost> pseudo_costs_;
  /// Private warm-reopt state (live factors + give-up breaker); see the
  /// concurrency contract in dual_simplex.hpp.
  std::optional<lp::sparse::DualReoptimizer> reopt_;
  const LpFold fold_;
  // Observability (null without a telemetry context).
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* nodes_ctr_ = nullptr;
  telemetry::Counter* steals_ctr_ = nullptr;
  telemetry::Histogram* node_iter_hist_ = nullptr;
};

}  // namespace

MipResult runSearch(const lp::Model& model, const MilpSolver::Options& opt,
                    std::optional<std::vector<double>> warm_start,
                    std::shared_ptr<const lp::sparse::Basis> root_basis, MipResult res) {
  const Stopwatch watch;
  const int W = std::max(1, opt.threads);
  SharedTree shared(model, opt);
  shared.minimize = model.objSense() == lp::ObjSense::kMinimize;
  shared.deterministic = opt.deterministic;
  const int n = model.numVars();
  shared.base_lb.resize(static_cast<std::size_t>(n));
  shared.base_ub.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    shared.base_lb[static_cast<std::size_t>(j)] = model.var(j).lb;
    shared.base_ub[static_cast<std::size_t>(j)] = model.var(j).ub;
  }

  if (warm_start && model.isFeasible(*warm_start, opt.int_tol)) {
    std::vector<double> x = *std::move(warm_start);
    const double obj = shared.signedObj(model.evalObjective(x));
    roundIntegers(model, x);
    // Seeded before any worker starts; external=true suppresses publishing
    // the caller's own point back at it.
    shared.offerIncumbent(std::move(x), obj, true);
    shared.incumbent_external.store(false, std::memory_order_relaxed);
  }

  shared.pools.reserve(static_cast<std::size_t>(W));
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<std::size_t>(W));
  for (int i = 0; i < W; ++i) shared.pools.push_back(std::make_unique<NodePool>());
  for (int i = 0; i < W; ++i) workers.push_back(std::make_unique<Worker>(i, shared));

  shared.outstanding.store(1, std::memory_order_relaxed);
  PNode root;
  root.start_basis = std::move(root_basis);  // worker 0 warm-starts the root
  root.seq = shared.next_seq.fetch_add(1, std::memory_order_relaxed);
  shared.pools[0]->push(std::move(root));

  if (W == 1 || opt.deterministic) {
    // Inline on this thread. With several workers: lock-step round-robin,
    // one quantum per worker per round, so no OS scheduling enters the node
    // order and two runs expand identical trees and steal schedules. A
    // quantum ends with every open node in some pool, so a worker always
    // finds one to take or steal until the run is done.
    bool live = true;
    while (live)
      for (std::size_t i = 0; live && i < workers.size(); ++i)
        live = workers[i]->step() != Step::kDone;
    if (opt.deterministic) res.replay_hash = shared.replay.h;
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(W));
    for (int i = 0; i < W; ++i)
      pool.emplace_back([&workers, i] { workers[static_cast<std::size_t>(i)]->runThreaded(); });
    for (std::thread& t : pool) t.join();
  }

  // ---- final status assembly ----
  // A run that ends with the external stop flag set never claims a proof,
  // even when every node happened to be processed before the flag was
  // observed: the flag means another engine settled the problem, and a
  // cancelled run racing it must not hand arbitration a second "proof"
  // whose final LPs may have been cut short mid-pivot.
  const bool truncated = shared.truncated.load(std::memory_order_relaxed) ||
                         shared.dropped.load(std::memory_order_relaxed) ||
                         shared.externallyStopped();
  res.seconds = watch.seconds();
  res.nodes = shared.total_nodes.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Worker>& w : workers) {
    res.workers.push_back(w->stats());
    res.lp += w->counters;
  }
  {
    const sync::MutexLock cb(shared.callback_mu);
    res.exchange = shared.exchange;
  }
  res.exchange.cutoff_prunes = shared.cutoff_prunes.load(std::memory_order_relaxed);

  if (shared.root_unbounded.load(std::memory_order_relaxed)) {
    res.status = MipStatus::kUnbounded;
    return res;
  }

  // Snapshot the incumbent under its lock. The workers have all finished,
  // but pollExternal/offerIncumbent wrote these fields from their threads —
  // taking inc_mu here keeps the access pattern uniform (and the annotation
  // checkable) instead of relying on the join's happens-before.
  const bool has_inc = shared.has_incumbent.load(std::memory_order_acquire);
  std::vector<double> inc_x;
  double inc_obj = lp::kInfinity;
  if (has_inc) {
    const sync::MutexLock lock(shared.inc_mu);
    inc_x = shared.incumbent;
    inc_obj = shared.incumbent_obj;
  }
  double bound;
  if (truncated) {
    if (shared.dropped.load(std::memory_order_relaxed)) {
      // A dropped subtree leaves the dual bound unknown entirely: without
      // this, drained pools would report gap 0 and claim optimality.
      bound = -lp::kInfinity;
    } else {
      // Weakest unexplored node across all leftover pools (halted workers
      // leave their open nodes in place; root nodes carry -inf until their
      // parent LP is solved, so this is conservative). A drained tree that
      // was still cancelled keeps the incumbent objective.
      bound = lp::kInfinity;
      for (const std::unique_ptr<NodePool>& p : shared.pools) bound = std::min(bound, p->minBound());
      if (bound == lp::kInfinity) bound = has_inc ? inc_obj : -lp::kInfinity;
    }
  } else {
    bound = has_inc ? inc_obj : lp::kInfinity;
  }

  if (has_inc) {
    res.x = std::move(inc_x);
    res.objective = shared.userObj(inc_obj);
    res.best_bound = shared.userObj(bound);
    res.gap = std::abs(inc_obj - bound) / std::max(1.0, std::abs(inc_obj));
    res.status =
        (!truncated || res.gap <= opt.gap_tol) ? MipStatus::kOptimal : MipStatus::kFeasible;
  } else {
    res.status = truncated ? MipStatus::kNoSolution : MipStatus::kInfeasible;
    res.best_bound = shared.userObj(bound);
  }
  return res;
}

}  // namespace rfp::milp::detail
