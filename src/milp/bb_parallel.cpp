// Work-stealing parallel branch & bound (MilpSolver::Options::threads > 1).
//
// Architecture (SNIPPETS.md Snippet 2 is the blueprint, adapted to this
// repo's warm-start substrate):
//  * every worker owns a finely-locked deque of open nodes and expands from
//    its back — LIFO pops reproduce the sequential engine's depth-first
//    plunge, so each worker dives a subtree with hot parent bases;
//  * a worker whose deque drains steals the front *half* of the first
//    non-empty victim deque — front entries are the shallowest nodes, which
//    root the largest unexplored subtrees, so one steal buys a long stretch
//    of independent work;
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
//  * termination: an atomic count of open nodes (root = 1, +2 per branch,
//    -1 per finished node). Idle workers spin-steal until it reaches zero —
//    deques can all be momentarily empty while a peer is still expanding a
//    node that will repopulate them, so "all deques empty" alone is not
//    termination.
//
// Deterministic replay (Options::deterministic): the same logical workers
// run lock-step on one OS thread in a fixed round-robin schedule with a
// fixed steal-victim order. Node expansion order and the steal schedule are
// then functions of the instance alone; both feed MipResult::replay_hash,
// which tests compare across runs.
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "milp/bb_detail.hpp"
#include "support/log.hpp"
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
/// metadata of the parent LP, and the parent's exported optimal basis.
struct PNode {
  std::shared_ptr<const PathNode> path;  ///< null: root
  double lp_bound = -lp::kInfinity;
  int depth = 0;
  double branch_frac = 0.0;
  std::shared_ptr<const lp::sparse::Basis> start_basis;
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

/// Finely-locked work deque. The owner pushes and pops at the back (the
/// depth-first dive); thieves take half from the front (the shallowest,
/// biggest subtrees). One mutex per deque: owner and thief only collide on
/// this worker's queue, never globally.
class NodeDeque {
 public:
  void pushBack(PNode n) {
    const sync::MutexLock lock(mu_);
    q_.push_back(std::move(n));
  }

  bool popBack(PNode& out) {
    const sync::MutexLock lock(mu_);
    if (q_.empty()) return false;
    out = std::move(q_.back());
    q_.pop_back();
    return true;
  }

  /// Steal-half policy: moves the front ceil(size/2) nodes into `out`.
  int stealHalf(std::vector<PNode>& out) {
    const sync::MutexLock lock(mu_);
    const int take = static_cast<int>((q_.size() + 1) / 2);
    for (int i = 0; i < take; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return take;
  }

  /// Weakest dual bound among the leftover nodes (+inf when empty) — the
  /// truncated-run bound, mirroring the sequential engine's heap top.
  double minBound() const {
    const sync::MutexLock lock(mu_);
    double b = lp::kInfinity;
    for (const PNode& n : q_) b = std::min(b, n.lp_bound);
    return b;
  }

  bool empty() const {
    const sync::MutexLock lock(mu_);
    return q_.empty();
  }

 private:
  mutable sync::Mutex mu_;
  std::deque<PNode> q_ RFP_GUARDED_BY(mu_);
};

class PWorker;

/// State shared by all workers of one parallel tree.
struct SharedTree {
  const lp::Model& model;
  const MilpSolver::Options& opt;
  bool minimize = true;
  std::vector<double> base_lb, base_ub;
  std::shared_ptr<const lp::sparse::CscMatrix> csc;  ///< sparse engine only
  lp::LpEngine engine = lp::LpEngine::kDense;
  Deadline deadline;

  std::vector<std::unique_ptr<NodeDeque>> deques;
  /// Open-node count: nodes sitting in deques plus nodes being expanded.
  /// Zero means the tree is exhausted (the termination signal).
  std::atomic<long> outstanding{0};
  std::atomic<long> total_nodes{0};
  /// Abnormal-stop latch: deadline, node limit, external stop, unbounded
  /// root. Workers observe it at node boundaries and drain out.
  std::atomic<bool> halt{false};
  std::atomic<bool> truncated{false};
  std::atomic<bool> dropped{false};  ///< a node LP hit a limit mid-solve
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
  std::atomic<long> external_adoptions{0};
  std::atomic<long> cutoff_prunes{0};

  // Deterministic mode runs single-threaded, so the digest needs no lock.
  bool deterministic = false;
  ReplayHash replay;

  SharedTree(const lp::Model& m, const MilpSolver::Options& o)
      : model(m), opt(o), deadline(o.time_limit_seconds) {}

  [[nodiscard]] double signedObj(double user) const { return minimize ? user : -user; }
  [[nodiscard]] double userObj(double internal) const { return minimize ? internal : -internal; }
  [[nodiscard]] bool externallyStopped() const {
    return opt.stop && opt.stop->load(std::memory_order_relaxed);
  }
  [[nodiscard]] double absGapSlack() const {
    if (!has_incumbent.load(std::memory_order_acquire)) return 0.0;
    return opt.gap_tol * std::max(1.0, std::abs(cutoff.load(std::memory_order_relaxed)));
  }
  /// Cutoff test against the shared incumbent (counts external-cutoff
  /// prunes like the sequential engine).
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
    }
    telemetry::instant(opt.telemetry, "incumbent", external ? "adopt" : "publish",
                       "objective", userObj(obj), "engine", "milp-par");
    return true;
  }

  /// Polls the external incumbent channel (same adoption rules as the
  /// sequential engine). try_lock: if a peer is already polling, this
  /// worker skips — the channel is shared, one reader per version suffices.
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
      external_adoptions.fetch_add(1, std::memory_order_relaxed);
      if (opt.log_progress)
        RFP_LOG_INFO("milp[par]: adopted external incumbent " << userObj(obj));
    }
  }

  /// True when a global stop condition holds; latches halt+truncated for
  /// the abnormal ones so every worker drains out promptly.
  bool checkGlobalStop() {
    if (halt.load(std::memory_order_relaxed)) return true;
    if (deadline.expired() || externallyStopped() ||
        (opt.node_limit > 0 && total_nodes.load(std::memory_order_relaxed) >= opt.node_limit)) {
      truncated.store(true, std::memory_order_relaxed);
      halt.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

class PWorker {
 public:
  PWorker(int id, SharedTree& shared) : id_(id), shared_(shared) {
    stats_.id = id;
    pseudo_costs_.assign(static_cast<std::size_t>(shared.model.numVars()), PseudoCost{});
    if (shared.csc && shared.opt.lp_warm_start && shared.opt.lp.dual_reopt) {
      lp::sparse::DualSimplexSolver::Options dopt;
      dopt.core = shared.opt.lp.core;
      if (!dopt.core.stop) dopt.core.stop = shared.opt.stop;
      if (!dopt.core.telemetry) dopt.core.telemetry = shared.opt.telemetry;
      dopt.refactor_interval = shared.opt.lp.refactor_interval;
      dopt.lu = shared.opt.lp.lu;
      reopt_.emplace(shared.model, shared.csc, dopt);
    }
    if (shared.opt.telemetry != nullptr) {
      trace_ = shared.opt.telemetry->trace;
      if (shared.opt.telemetry->metrics != nullptr) {
        telemetry::MetricsRegistry& reg = *shared.opt.telemetry->metrics;
        nodes_ctr_ = &reg.counter("milp.nodes");
        steals_ctr_ = &reg.counter("milp.steals");
        lp_solves_ctr_ = &reg.counter("lp.solves");
        lp_iter_ctr_ = &reg.counter("lp.iterations");
        node_iter_hist_ = &reg.histogram("lp.node_iterations");
      }
    }
  }

  /// Threaded main loop: expand own work, steal when dry, exit when the
  /// tree is exhausted or a stop condition latched.
  void runThreaded() {
    if (trace_ != nullptr) {
      char label[32];
      std::snprintf(label, sizeof(label), "milp-worker-%d", id_);
      trace_->nameThread(label);
    }
    PNode node;
    while (true) {
      if (shared_.checkGlobalStop()) break;
      shared_.pollExternal();
      if (deque().popBack(node)) {
        processNode(std::move(node));
        continue;
      }
      if (trySteal()) continue;
      if (shared_.outstanding.load(std::memory_order_acquire) == 0) break;
      const Stopwatch idle;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      stats_.idle_seconds += idle.seconds();
    }
    flushBatch();  // close the trailing batch on the worker's own lane
  }

  /// Deterministic quantum: one node expansion, preceded by one steal pass
  /// if the own deque is dry. Returns whether any node was expanded.
  bool step() {
    PNode node;
    if (!deque().popBack(node)) {
      if (!trySteal() || !deque().popBack(node)) return false;
    }
    processNode(std::move(node));
    return true;
  }

  [[nodiscard]] MipWorkerStats stats() const {
    MipWorkerStats s = stats_;
    s.lp_solves = lp_effort.lp_solves;
    s.lp_warm_hits = lp_effort.lp_warm_hits;
    return s;
  }

  /// Per-worker LP effort, merged into MipResult by the driver loop.
  MipLpEffort lp_effort;

 private:
  NodeDeque& deque() { return *shared_.deques[static_cast<std::size_t>(id_)]; }

  /// Scans victims in a fixed ring order from this worker's successor and
  /// moves half of the first non-empty deque into its own. The fixed order
  /// makes the steal schedule a pure function of tree shape in
  /// deterministic mode.
  bool trySteal() {
    const int W = static_cast<int>(shared_.deques.size());
    for (int k = 1; k < W; ++k) {
      const int victim = (id_ + k) % W;
      std::vector<PNode> loot;
      const int got = shared_.deques[static_cast<std::size_t>(victim)]->stealHalf(loot);
      if (got == 0) continue;
      ++stats_.steals;
      stats_.stolen_nodes += got;
      if (trace_ != nullptr) trace_->instant("steal", "steal", "nodes", static_cast<double>(got));
      if (steals_ctr_ != nullptr) steals_ctr_->increment();
      if (shared_.deterministic) {
        shared_.replay.mix(0x57ea1ull);  // steal event marker
        shared_.replay.mix(static_cast<std::uint64_t>(id_));
        shared_.replay.mix(static_cast<std::uint64_t>(victim));
        shared_.replay.mix(static_cast<std::uint64_t>(got));
      }
      // Re-push in steal order: the deque back then holds the deepest of
      // the stolen prefix, so the thief keeps diving depth-first.
      for (PNode& n : loot) deque().pushBack(std::move(n));
      return true;
    }
    return false;
  }

  void finishNode() { shared_.outstanding.fetch_sub(1, std::memory_order_acq_rel); }

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

  /// Solves one node LP and prunes or branches — the parallel counterpart
  /// of the sequential engine's processNode, with children pushed onto the
  /// own deque instead of a plunge recursion.
  void processNode(PNode node) {
    if (shared_.prunedByCutoff(node.lp_bound)) {
      finishNode();
      return;
    }
    ++stats_.nodes;
    shared_.total_nodes.fetch_add(1, std::memory_order_relaxed);
    if (nodes_ctr_ != nullptr) nodes_ctr_->increment();
    // Node-batch spans, opened lazily and closed every 64 nodes (or at
    // drain time through finishTrace): per-node spans would dominate the
    // ring on big trees.
    if (trace_ != nullptr) {
      if (batch_nodes_ == 0) batch_start_us_ = trace_->nowUs();
      if (++batch_nodes_ >= 64) flushBatch();
    }
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
    // path — still far cheaper than a cold phase-1 solve.
    telemetry::Span root_span;
    if (node.depth == 0 && shared_.opt.telemetry != nullptr)
      root_span = telemetry::Span(shared_.opt.telemetry, "lp", "root_lp");
    lp::LpResult rel;
    bool solved = false;
    if (reopt_ && shared_.opt.lp_warm_start && node.start_basis) {
      const double limit =
          cappedLpOptions(shared_.opt, clampedRemaining(shared_.deadline)).core.time_limit_seconds;
      lp::LpResult declined;
      if (std::optional<lp::LpResult> dual =
              reopt_->reoptimize(lb, ub, node.start_basis, limit, &declined)) {
        rel = *std::move(dual);
        solved = true;
      } else {
        addLpEffort(lp_effort, declined, /*solve=*/false);
        if (lp_iter_ctr_ != nullptr) lp_iter_ctr_->add(declined.iterations);
      }
    }
    if (!solved) {
      lp::LpSolver::Options lopt = cappedLpOptions(shared_.opt, clampedRemaining(shared_.deadline));
      lopt.dual_reopt = false;  // the dual fast path already had its chance
      rel = lp::LpSolver(lopt).solve(shared_.model, lb, ub,
                                     shared_.opt.lp_warm_start ? node.start_basis.get() : nullptr,
                                     shared_.csc.get());
    }
    node.start_basis.reset();
    addLpEffort(lp_effort, rel);
    if (lp_solves_ctr_ != nullptr) {
      lp_solves_ctr_->increment();
      lp_iter_ctr_->add(rel.iterations);
      node_iter_hist_->record(static_cast<double>(rel.iterations));
    }
    const auto solves = static_cast<std::uint64_t>(lp_effort.lp_solves);
    if (telemetry::sampleHit(shared_.opt.telemetry, solves))
      trace_->instant("lp", rel.dual_reopt ? "dual_reopt" : "primal_fallback", "iterations",
                      static_cast<double>(rel.iterations));
    if (rel.refactorizations > 0)
      telemetry::instant(shared_.opt.telemetry, "lp", "refactorize", "count",
                         static_cast<double>(rel.refactorizations));

    if (rel.status == lp::LpStatus::kInfeasible) {
      finishNode();
      return;
    }
    if (rel.status == lp::LpStatus::kUnbounded) {
      if (node.depth == 0) {
        shared_.root_unbounded.store(true, std::memory_order_relaxed);
        shared_.halt.store(true, std::memory_order_relaxed);
      }
      finishNode();
      return;
    }
    if (rel.status != lp::LpStatus::kOptimal) {
      // Limit hit mid-solve: the subtree is dropped unexplored, so the
      // final answer is a truncation, never a proof.
      shared_.dropped.store(true, std::memory_order_relaxed);
      finishNode();
      return;
    }

    const double bound = shared_.signedObj(rel.objective);
    if (shared_.prunedByCutoff(bound)) {
      finishNode();
      return;
    }

    // Pseudo-costs are worker-local: no cross-worker synchronization, at
    // the cost of each worker learning branching scores from its own
    // subtree only (stolen nodes still contribute to the thief's tables).
    if (shared_.opt.pseudo_cost_branching && node.path && node.lp_bound > -lp::kInfinity / 2 &&
        node.branch_frac > 0)
      updatePseudoCost(pseudo_costs_, node.path->change, node.lp_bound, node.branch_frac, bound);

    const int frac = selectBranchVar(shared_.model, shared_.opt, pseudo_costs_, rel.x);
    if (frac < 0) {
      // Integral LP optimum: offer it as the shared incumbent.
      std::vector<double> x = std::move(rel.x);
      roundIntegers(shared_.model, x);
      if (shared_.offerIncumbent(std::move(x), bound, false) && shared_.opt.log_progress)
        RFP_LOG_INFO("milp[par]: incumbent " << shared_.userObj(bound) << " from worker " << id_);
      finishNode();
      return;
    }

    if (shared_.opt.enable_rounding_heuristic) tryRounding(rel.x);

    const double xv = rel.x[static_cast<std::size_t>(frac)];
    const double frac_part = xv - std::floor(xv);
    auto down_path = std::make_shared<const PathNode>(
        PathNode{node.path, BoundChange{frac, false, std::floor(xv)}});
    auto up_path = std::make_shared<const PathNode>(
        PathNode{node.path, BoundChange{frac, true, std::ceil(xv)}});
    PNode down{std::move(down_path), bound, node.depth + 1, frac_part, rel.basis};
    PNode up{std::move(up_path), bound, node.depth + 1, frac_part, rel.basis};

    // Push the away-side child first: the next popBack takes the child
    // closer to the LP value — the sequential engine's plunge rule — and
    // leaves the other at a stealable (shallower) position.
    const bool go_down = frac_part <= 0.5;
    shared_.outstanding.fetch_add(2, std::memory_order_acq_rel);
    deque().pushBack(go_down ? std::move(up) : std::move(down));
    deque().pushBack(go_down ? std::move(down) : std::move(up));
    finishNode();
  }

  /// Rounds the fractional LP point and offers it if feasible — same cheap
  /// heuristic as the sequential engine, now feeding the shared incumbent.
  void tryRounding(const std::vector<double>& x) {
    std::vector<double> cand = x;
    roundIntegers(shared_.model, cand);
    if (!shared_.model.isFeasible(cand, shared_.opt.int_tol)) return;
    const double obj = shared_.signedObj(shared_.model.evalObjective(cand));
    if (shared_.offerIncumbent(std::move(cand), obj, false) && shared_.opt.log_progress)
      RFP_LOG_INFO("milp[par]: rounding incumbent " << shared_.userObj(obj));
  }

  void flushBatch() {
    if (trace_ == nullptr || batch_nodes_ == 0) return;
    telemetry::TraceEvent ev;
    ev.cat = "milp";
    ev.name = "node_batch";
    ev.ph = 'X';
    ev.ts_us = batch_start_us_;
    ev.dur_us = trace_->nowUs() - batch_start_us_;
    ev.akey[0] = "nodes";
    ev.aval[0] = static_cast<double>(batch_nodes_);
    ev.nargs = 1;
    trace_->complete(ev);
    batch_nodes_ = 0;
  }

 public:
  /// Closes the trailing node-batch span; the driver loop calls it after
  /// workers quiesce (covers the deterministic mode, which has no
  /// per-worker thread exit to hook).
  void finishTrace() { flushBatch(); }

 private:
  const int id_;
  SharedTree& shared_;
  MipWorkerStats stats_;
  std::vector<PseudoCost> pseudo_costs_;
  /// Private warm-reopt state (live factors + give-up breaker); see the
  /// concurrency contract in dual_simplex.hpp.
  std::optional<lp::sparse::DualReoptimizer> reopt_;
  // Observability (null without a telemetry context).
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* nodes_ctr_ = nullptr;
  telemetry::Counter* steals_ctr_ = nullptr;
  telemetry::Counter* lp_solves_ctr_ = nullptr;
  telemetry::Counter* lp_iter_ctr_ = nullptr;
  telemetry::Histogram* node_iter_hist_ = nullptr;
  int batch_nodes_ = 0;
  double batch_start_us_ = 0.0;
};

}  // namespace

MipResult runParallelSearch(const lp::Model& model, const MilpSolver::Options& opt,
                            std::optional<std::vector<double>> warm_start,
                            std::shared_ptr<const lp::sparse::Basis> root_basis, MipResult res) {
  const Stopwatch watch;
  const int W = std::max(2, opt.threads);
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
  shared.engine = lp::LpSolver(opt.lp).resolveEngine(model);
  if (shared.engine == lp::LpEngine::kSparse)
    shared.csc =
        std::make_shared<const lp::sparse::CscMatrix>(lp::sparse::CscMatrix::fromModel(model));

  res.lp_engine = shared.engine;

  if (warm_start && model.isFeasible(*warm_start, opt.int_tol)) {
    std::vector<double> x = *std::move(warm_start);
    const double obj = shared.signedObj(model.evalObjective(x));
    roundIntegers(model, x);
    // Seeded before any worker starts; external=true suppresses publishing
    // the caller's own point back at it.
    shared.offerIncumbent(std::move(x), obj, true);
    shared.incumbent_external.store(false, std::memory_order_relaxed);
  }

  shared.deques.reserve(static_cast<std::size_t>(W));
  std::vector<std::unique_ptr<PWorker>> workers;
  workers.reserve(static_cast<std::size_t>(W));
  for (int i = 0; i < W; ++i) shared.deques.push_back(std::make_unique<NodeDeque>());
  for (int i = 0; i < W; ++i) workers.push_back(std::make_unique<PWorker>(i, shared));

  shared.outstanding.store(1, std::memory_order_relaxed);
  PNode root;
  root.start_basis = std::move(root_basis);  // worker 0 warm-starts the root
  shared.deques[0]->pushBack(std::move(root));

  if (opt.deterministic) {
    // Lock-step round-robin: one node quantum per worker per round, on this
    // thread. No OS scheduling enters the node order, so two runs expand
    // identical trees and record identical steal schedules.
    while (shared.outstanding.load(std::memory_order_acquire) > 0) {
      if (shared.checkGlobalStop()) break;
      shared.pollExternal();
      for (int i = 0; i < W && !shared.halt.load(std::memory_order_relaxed); ++i)
        workers[static_cast<std::size_t>(i)]->step();
    }
    res.replay_hash = shared.replay.h;
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(W));
    for (int i = 0; i < W; ++i)
      pool.emplace_back([&workers, i] { workers[static_cast<std::size_t>(i)]->runThreaded(); });
    for (std::thread& t : pool) t.join();
  }

  // ---- final status assembly (mirrors the sequential engine) ----
  const bool truncated = shared.truncated.load(std::memory_order_relaxed) ||
                         shared.dropped.load(std::memory_order_relaxed) ||
                         shared.externallyStopped();
  res.seconds = watch.seconds();
  res.nodes = shared.total_nodes.load(std::memory_order_relaxed);
  for (const std::unique_ptr<PWorker>& w : workers) {
    w->finishTrace();
    res.workers.push_back(w->stats());
    res.steals += w->stats().steals;
    res += w->lp_effort;
  }
  res.external_adoptions = shared.external_adoptions.load(std::memory_order_relaxed);
  res.cutoff_prunes = shared.cutoff_prunes.load(std::memory_order_relaxed);

  if (shared.root_unbounded.load(std::memory_order_relaxed)) {
    res.status = MipStatus::kUnbounded;
    return res;
  }

  // Snapshot the incumbent under its lock. The workers have all been
  // joined, but pollExternal/offerIncumbent wrote these fields from their
  // threads — taking inc_mu here keeps the access pattern uniform (and the
  // annotation checkable) instead of relying on the join's happens-before.
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
      // A dropped subtree leaves the dual bound unknown entirely.
      bound = -lp::kInfinity;
    } else {
      // Weakest unexplored node across all leftover deques (halted workers
      // leave their unprocessed nodes in place); a fully drained tree that
      // was still cancelled keeps the incumbent objective, as sequential.
      bound = lp::kInfinity;
      for (const std::unique_ptr<NodeDeque>& d : shared.deques)
        bound = std::min(bound, d->minBound());
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
