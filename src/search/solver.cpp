#include "search/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "driver/incumbent.hpp"
#include "search/candidates.hpp"
#include "search/occupancy.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/sync.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::search {

namespace {

using device::Rect;

constexpr std::uint64_t kKeyInf = ~0ull;
/// Expanded nodes between two polls of the deadline, the external stop flag
/// and the incumbent channel.
constexpr long kPollNodes = 256;

/// One expanded FC slot (a single requested free-compatible area).
struct FcSlot {
  int region = -1;
  bool hard = true;
  double weight = 1.0;
};

/// Immutable per-solve data shared by all worker threads.
struct Instance {
  const model::FloorplanProblem* problem = nullptr;
  std::vector<RegionCandidates> candidates;  ///< per region
  std::vector<int> region_order;             ///< most-constrained-first
  std::vector<FcSlot> slots;                 ///< expanded FC requests
  std::vector<long> suffix_min_waste;        ///< Σ min_waste of order[i..]
  std::vector<double> min_perimeter;         ///< per region, over its shapes
  /// Per type: usable tiles minus Σ (1+hard_fc)·required (the supply prune's
  /// margin with nothing placed).
  std::vector<long> slack;
  std::vector<std::vector<int>> req;         ///< req[n][t] = required tiles
  std::vector<int> hard_fc;                  ///< hard FC slots per region
  std::vector<std::size_t> witness_start;    ///< Σ hard_fc of regions before n
  /// The device's forbidden tiles (sized in buildInstance); every worker's
  /// occupancy starts as a copy, so its overlap tests cover forbidden areas
  /// without a separate check.
  Occupancy forbidden{1, 1};
  // Nets for the wire-length bound: region n is a pin of the nets
  // region_nets[region_net_start[n] .. region_net_start[n+1]), in net order
  // (a net that lists n twice appears twice).
  std::vector<double> net_weight;
  std::vector<int> region_net_start;
  std::vector<int> region_nets;
  SearchOptions opt;
  model::ObjectiveMaxima maxima;  ///< Eq. 14 normalizers

  [[nodiscard]] const model::FloorplanProblem& prob() const { return *problem; }
};

/// Thread-shared incumbent: a monotone 64-bit cost key for lock-free pruning
/// plus the actual plan under a mutex.
struct Shared {
  std::atomic<std::uint64_t> best_key{kKeyInf};
  std::atomic<bool> stop{false};
  std::atomic<long> nodes{0};
  sync::Mutex mutex;
  model::Floorplan best_plan RFP_GUARDED_BY(mutex);
  /// Cost key of the plan actually sitting in `best_plan` (kKeyInf while
  /// empty). `best_key` can run ahead of it: a worker lowers `best_key` by
  /// CAS *before* taking the mutex to install its plan. Install decisions
  /// must therefore compare against this key, not `best_key` — comparing
  /// against the atomic let a worker that lost the CAS race install (and
  /// publish) a strictly worse plan through the `!has_plan` window.
  std::uint64_t best_plan_key RFP_GUARDED_BY(mutex) = kKeyInf;
  // Written under `mutex`; atomic because workers pre-check it outside the
  // lock to skip the mutex on the (common) not-an-improvement path.
  std::atomic<bool> has_plan{false};
  // Incumbent-exchange bookkeeping. `best_is_external` tags whether the
  // current best_key was seeded by the channel (so prunes against it can be
  // attributed); it is advisory — a racy read only misattributes telemetry,
  // never correctness.
  std::atomic<bool> best_is_external{false};
  std::atomic<long> external_prunes{0};
  std::atomic<long> published{0};
  std::atomic<long> adopted{0};
};

/// One placement of a region: (shape index, top row).
using Placement = std::pair<int, int>;

/// A stealable unit of work: the subtree where region_order[0..k-1] are
/// fixed to these placements. Executing a task replays the prefix
/// placements (re-running every prune against the *current* incumbent, so
/// tasks packaged before an improvement die cheaply) and then explores the
/// remaining depths.
struct Task {
  std::vector<Placement> prefix;
};

/// Finely-locked work deque. The owner pushes and pops at the back (keeping
/// its depth-first traversal order); thieves take half from the front — the
/// earliest-deferred, shallowest prefixes, which root the largest subtrees.
class TaskDeque {
 public:
  void pushBack(Task t) {
    const sync::MutexLock lock(mu_);
    q_.push_back(std::move(t));
  }

  bool popBack(Task& out) {
    const sync::MutexLock lock(mu_);
    if (q_.empty()) return false;
    out = std::move(q_.back());
    q_.pop_back();
    return true;
  }

  /// Steal-half policy: moves the front ceil(size/2) tasks into `out`.
  int stealHalf(std::vector<Task>& out) {
    const sync::MutexLock lock(mu_);
    const int take = static_cast<int>((q_.size() + 1) / 2);
    for (int i = 0; i < take; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return take;
  }

 private:
  sync::Mutex mu_;
  std::deque<Task> q_ RFP_GUARDED_BY(mu_);
};

/// Work-stealing scheduler state shared by all workers of one solve.
struct Scheduler {
  std::vector<std::unique_ptr<TaskDeque>> deques;  ///< one per worker
  /// The root tasks: every placement of region_order[0], in waste order.
  /// Workers claim them in that order through `next_root`, once their own
  /// deque is empty and before they steal; deques hold only split subtrees.
  std::vector<Placement> roots;
  std::atomic<std::size_t> next_root{0};
  /// Unfinished roots plus tasks in deques or being executed; zero = tree
  /// exhausted.
  std::atomic<long> outstanding{0};
  /// Workers currently sleeping on an empty deque — the adaptive-splitting
  /// signal: busy workers only pay the task-packaging overhead while a peer
  /// is actually starving.
  std::atomic<int> idle{0};
};

/// Lexicographic key: wasted frames in the high 32 bits, wire length scaled
/// ×64 in the low 32. Monotone in (waste, WL) ordering.
std::uint64_t lexKey(long waste, double wl) {
  const std::uint64_t hi = static_cast<std::uint64_t>(std::min<long>(waste, 0x7fffffffL));
  const std::uint64_t lo = static_cast<std::uint64_t>(
      std::min<double>(std::max(0.0, wl) * 64.0, 4294967294.0));
  return (hi << 32) | lo;
}

/// Weighted key: Eq. 14 objective scaled to integers.
std::uint64_t weightedKey(double objective) {
  return static_cast<std::uint64_t>(std::min(std::max(0.0, objective) * 1e15, 1e18));
}

/// Cost key of a finished floorplan under the active objective mode — the
/// same mapping recordSolution() applies to the search's own solutions, so
/// external incumbents and internal ones are ranked identically.
std::uint64_t costKey(const SearchOptions& opt, const model::FloorplanCosts& costs) {
  return opt.mode == ObjectiveMode::kLexicographic
             ? lexKey(costs.wasted_frames, opt.optimize_wirelength ? costs.wire_length : 0.0)
             : weightedKey(costs.objective);
}

/// Polls the incumbent channel and adopts a newer external plan as the
/// shared search incumbent when it beats the current best key. Adopted plans
/// participate exactly like search-found ones: they seed the bound-pruning
/// cutoff and are returned when nothing better is found.
void adoptExternalIncumbent(const Instance& inst, Shared& shared, std::uint64_t* seen) {
  if (!inst.opt.incumbent) return;
  model::Floorplan plan;
  model::FloorplanCosts costs;
  if (!inst.opt.incumbent->snapshotNewer(seen, &plan, &costs)) return;
  const std::uint64_t key = costKey(inst.opt, costs);
  bool lowered = false;
  std::uint64_t cur = shared.best_key.load(std::memory_order_relaxed);
  while (key < cur)
    if (shared.best_key.compare_exchange_weak(cur, key)) {
      lowered = true;
      break;
    }
  if (!lowered) return;  // ties keep the resident plan — equal keys rank equal
  bool took = false;
  {
    const sync::MutexLock lock(shared.mutex);
    // Strict improvement over the *installed* plan: a concurrent installer
    // may have landed a better one between the CAS above and this lock.
    if (key < shared.best_plan_key) {
      shared.best_plan = std::move(plan);
      shared.best_plan_key = key;
      shared.has_plan = true;
      shared.best_is_external.store(true, std::memory_order_relaxed);
      shared.adopted.fetch_add(1, std::memory_order_relaxed);
      took = true;
    }
  }
  if (took)
    telemetry::adoption(inst.opt.telemetry, "search", "waste",
                        static_cast<double>(costs.wasted_frames));
}

/// Bounding box of a net's placed pin centres; the default is the empty box
/// (the identity of min/max). min/max are exact, so a box grown one centre
/// at a time, in any order, holds the values model::evaluate's scan picks.
struct NetBox {
  double min_x = 1e30, max_x = -1e30, min_y = 1e30, max_y = -1e30;

  /// This box grown by the centre (x, y).
  [[nodiscard]] NetBox with(double x, double y) const {
    return {std::min(min_x, x), std::max(max_x, x), std::min(min_y, y), std::max(max_y, y)};
  }
  /// The net's weighted half-perimeter (the box must not be empty).
  [[nodiscard]] double term(double weight) const {
    return weight * ((max_x - min_x) + (max_y - min_y));
  }
};

class Worker {
 public:
  Worker(int id, const Instance& inst, Shared& shared, Scheduler& sched,
         const Deadline& deadline)
      : id_(id),
        inst_(inst),
        shared_(shared),
        sched_(sched),
        deadline_(deadline),
        occ_(inst.forbidden),
        rects_(static_cast<std::size_t>(inst.prob().numRegions())),
        net_box_(inst.net_weight.size()),
        net_live_(inst.net_weight.size(), 0),
        region_placed_(rects_.size(), 0),
        row_bits_((rects_.size() + 1) * static_cast<std::size_t>(occ_.wordsPerColumn())),
        witnesses_(inst.witness_start.back()),
        witnessed_(rects_.size(), 0),
        fc_rects_(inst.slots.size()),
        fc_placed_(inst.slots.size(), false),
        slack_(inst.slack) {
    stats_.id = id;
    if (inst.opt.telemetry != nullptr) {
      trace_ = inst.opt.telemetry->trace;
      if (inst.opt.telemetry->metrics != nullptr) {
        nodes_ctr_ = &inst.opt.telemetry->metrics->counter("search.nodes");
        steals_ctr_ = &inst.opt.telemetry->metrics->counter("search.steals");
      }
    }
  }

  /// Main loop: drain the own deque, then claim a root, steal when both are
  /// dry, exit when every task is done or the solve stopped. Deques can all
  /// be momentarily empty while a peer still expands a task that will spawn
  /// more, so "no loot" alone is not termination — the outstanding count is.
  void runLoop() {
    if (trace_ != nullptr) {
      char label[32];
      std::snprintf(label, sizeof(label), "search-worker-%d", id_);
      trace_->nameThread(label);
      batch_start_us_ = trace_->nowUs();
    }
    Task task;
    while (true) {
      if (shared_.stop.load(std::memory_order_relaxed)) break;
      if (deque().popBack(task)) {
        execute(task.prefix);
        continue;
      }
      if (claimRoot() || trySteal()) continue;
      if (sched_.outstanding.load(std::memory_order_acquire) == 0) break;
      sched_.idle.fetch_add(1, std::memory_order_relaxed);
      const Stopwatch idle;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      stats_.idle_seconds += idle.seconds();
      sched_.idle.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] const WorkerStats& stats() const { return stats_; }

 private:
  TaskDeque& deque() { return *sched_.deques[static_cast<std::size_t>(id_)]; }

  /// Runs one task and retires it from the outstanding count.
  void execute(std::span<const Placement> prefix) {
    ++stats_.tasks;
    runTask(prefix);
    sched_.outstanding.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Claims and runs the next unclaimed root; false once all are claimed.
  /// A lone worker claims them in ascending order, the sequential traversal.
  /// The load first keeps idle polls from running the cursor up.
  bool claimRoot() {
    if (sched_.next_root.load(std::memory_order_relaxed) >= sched_.roots.size()) return false;
    const std::size_t i = sched_.next_root.fetch_add(1, std::memory_order_relaxed);
    if (i >= sched_.roots.size()) return false;
    execute({&sched_.roots[i], 1});
    return true;
  }

  /// Scans victims in a fixed ring order from this worker's successor and
  /// moves half of the first non-empty deque into its own.
  bool trySteal() {
    const int W = static_cast<int>(sched_.deques.size());
    for (int k = 1; k < W; ++k) {
      const int victim = (id_ + k) % W;
      std::vector<Task> loot;
      if (sched_.deques[static_cast<std::size_t>(victim)]->stealHalf(loot) == 0) continue;
      ++stats_.steals;
      stats_.stolen += static_cast<long>(loot.size());
      if (trace_ != nullptr)
        trace_->instant("steal", "steal", "tasks", static_cast<double>(loot.size()));
      if (steals_ctr_ != nullptr) steals_ctr_->increment();
      for (Task& t : loot) deque().pushBack(std::move(t));
      return true;
    }
    return false;
  }

  /// Replays the task's fixed prefix and explores the remaining subtree.
  /// Worker state is fully unwound afterwards, so tasks run back-to-back on
  /// one clean worker.
  void runTask(std::span<const Placement> prefix) {
    int placed = 0;
    bool viable = true;
    for (std::size_t d = 0; d < prefix.size() && viable; ++d) {
      const int n = inst_.region_order[d];
      const Shape& s = inst_.candidates[static_cast<std::size_t>(n)]
                           .shapes[static_cast<std::size_t>(prefix[d].first)];
      const Rect r{s.x, prefix[d].second, s.w, s.h};
      if (occ_.overlaps(r) || !supplyAllows(n, s)) {
        viable = false;
        break;
      }
      countNode();
      if (!admitChild(static_cast<int>(d), n, s, r)) {
        viable = false;
        break;
      }
      place(n, s, r);
      ++placed;
      viable = quickFcCheckAll(n);
    }
    if (viable && !aborted()) {
      prefix_.assign(prefix.begin(), prefix.end());
      descendRegions(placed);
      prefix_.clear();
    }
    for (int d = placed - 1; d >= 0; --d) {
      const int n = inst_.region_order[static_cast<std::size_t>(d)];
      unplace(n, inst_.candidates[static_cast<std::size_t>(n)]
                     .shapes[static_cast<std::size_t>(prefix[static_cast<std::size_t>(d)].first)]);
    }
  }
  /// Cheap on every call; the deadline, the external stop flag and the
  /// incumbent channel are polled once per kPollNodes expanded nodes.
  [[nodiscard]] bool aborted() {
    if (shared_.stop.load(std::memory_order_relaxed)) return true;
    if (poll_countdown_ <= 0) {
      poll_countdown_ = kPollNodes;
      if (deadline_.expired() ||
          (inst_.opt.stop && inst_.opt.stop->load(std::memory_order_relaxed))) {
        shared_.stop.store(true);
        return true;
      }
      adoptExternalIncumbent(inst_, shared_, &incumbent_seen_);
    }
    return false;
  }

  /// Weighted-HPWL over nets counting only placed pins — admissible lower
  /// bound (adding pins can only grow a bounding box) — with region `child`
  /// (when >= 0, and not placed) counted at (cx, cy) as well: the bound its
  /// placement would have, without placing it. The sum runs over all nets
  /// in net order, as model::evaluate's does, so both give the same bits.
  [[nodiscard]] double wireLengthLowerBound(int child, double cx, double cy) const {
    int i = 0;
    int end = 0;
    if (child >= 0) {
      i = inst_.region_net_start[static_cast<std::size_t>(child)];
      end = inst_.region_net_start[static_cast<std::size_t>(child) + 1];
    }
    double total = 0;
    const auto childNet = [&](std::size_t e) {
      return i < end && static_cast<std::size_t>(inst_.region_nets[static_cast<std::size_t>(i)]) == e;
    };
    for (std::size_t e = 0; e < net_box_.size(); ++e) {
      if (childNet(e)) {
        total += net_box_[e].with(cx, cy).term(inst_.net_weight[e]);
        do ++i; while (childNet(e));
      } else if (net_live_[e] > 0) {
        total += net_box_[e].term(inst_.net_weight[e]);
      }
    }
    return total;
  }

  /// True when the admissible cost-key lower bound of a partial assignment
  /// is below `cutoff`: regions region_order[0..depth) placed, `waste` and
  /// `perim` their totals, and region `child` (when >= 0) among them at
  /// centre (cx, cy) without being placed yet. The one formula for placed
  /// nodes (boundBelow) and for children (admitChild). In lexicographic mode
  /// the waste word (lexKey's high 32 bits) decides alone unless it ties the
  /// cutoff's, so the wire-length bound is only computed on ties.
  [[nodiscard]] bool keyBelow(int depth, std::uint64_t cutoff, long waste, double perim,
                              int child, double cx, double cy) const {
    const long waste_lb = waste + inst_.suffix_min_waste[static_cast<std::size_t>(depth)];
    if (inst_.opt.mode == ObjectiveMode::kLexicographic) {
      const std::uint64_t waste_key = lexKey(waste_lb, 0.0);
      if (!inst_.opt.optimize_wirelength || (waste_key >> 32) != (cutoff >> 32))
        return waste_key < cutoff;
      return lexKey(waste_lb, wireLengthLowerBound(child, cx, cy)) < cutoff;
    }
    // Weighted (Eq. 14): perimeter of placed regions + per-region minima;
    // unplaced FC areas are assumed placeable (RL lower bound 0 + committed
    // skips).
    double perim_lb = perim;
    for (int d = depth; d < inst_.prob().numRegions(); ++d)
      perim_lb += inst_.min_perimeter[static_cast<std::size_t>(inst_.region_order[static_cast<std::size_t>(d)])];
    const double wl_lb = wireLengthLowerBound(child, cx, cy);
    const model::ObjectiveWeights& q = inst_.prob().weights();
    const double obj = q.q1_wirelength * wl_lb / inst_.maxima.wl +
                       q.q2_perimeter * perim_lb / inst_.maxima.p +
                       q.q3_wasted * static_cast<double>(waste_lb) / inst_.maxima.r +
                       q.q4_relocation * rl_ / inst_.maxima.rl;
    return weightedKey(obj) < cutoff;
  }

  /// keyBelow for the current assignment of regions region_order[0..depth).
  [[nodiscard]] bool boundBelow(int depth, std::uint64_t cutoff) const {
    return keyBelow(depth, cutoff, waste_, perim_, -1, 0, 0);
  }

  /// Bound test of the child that places region n = region_order[depth] at
  /// r, decided before placing it: its key has the bits boundBelow(depth +
  /// 1) would compute after place(n, s, r). A rejected child is counted as
  /// an external-cutoff prune when the incumbent came from the channel —
  /// whether or not its FC check, which never runs, would have passed.
  [[nodiscard]] bool admitChild(int depth, int n, const Shape& s, const Rect& r) {
    const bool below = keyBelow(depth + 1, shared_.best_key.load(std::memory_order_relaxed),
                                waste_ + s.waste, perim_ + 2.0 * (r.w + r.h), n, r.centerX(),
                                r.centerY());
    if (!below && shared_.best_is_external.load(std::memory_order_relaxed))
      ++local_external_prunes_;
    return below;
  }

  /// Per-type supply/demand prune: covered tiles of placed regions plus a
  /// lower bound on the demand still outstanding (unplaced regions at their
  /// bare requirement, hard FC slots at their region's footprint) must fit
  /// in the device's usable tiles. This is what makes the Sec. VI
  /// infeasibility proofs (matched filter / video decoder) cheap: DSP
  /// supply is tight, so wasteful shapes die immediately. Independent of
  /// the shape's row.
  [[nodiscard]] bool supplyAllows(int n, const Shape& s) const {
    const long k_fc = inst_.hard_fc[static_cast<std::size_t>(n)];
    const std::vector<int>& req = inst_.req[static_cast<std::size_t>(n)];
    // Placing s turns the region's bare requirement, and that of each of
    // its k_fc hard FC slots, into s's footprint.
    for (std::size_t t = 0; t < slack_.size(); ++t)
      if ((1 + k_fc) * (s.covered[t] - req[t]) > slack_[t]) return false;
    return true;
  }

  /// Counts an expanded node: every placement that passes supplyAllows.
  void countNode() {
    ++local_nodes_;
    --poll_countdown_;
    if ((local_nodes_ & 1023) == 0) flushNodes();
  }

  void place(int n, const Shape& s, const Rect& r) {
    const long k_fc = inst_.hard_fc[static_cast<std::size_t>(n)];
    const std::vector<int>& req = inst_.req[static_cast<std::size_t>(n)];
    occ_.fill(r);
    rects_[static_cast<std::size_t>(n)] = r;
    for (int i = inst_.region_net_start[static_cast<std::size_t>(n)];
         i < inst_.region_net_start[static_cast<std::size_t>(n) + 1]; ++i) {
      const auto e = static_cast<std::size_t>(inst_.region_nets[static_cast<std::size_t>(i)]);
      saved_boxes_.push_back(net_box_[e]);
      ++net_live_[e];
      net_box_[e] = net_box_[e].with(r.centerX(), r.centerY());
    }
    region_placed_[static_cast<std::size_t>(n)] = 1;
    waste_ += s.waste;
    perim_ += 2.0 * (r.w + r.h);
    for (std::size_t t = 0; t < slack_.size(); ++t)
      slack_[t] -= (1 + k_fc) * (s.covered[t] - req[t]);
  }

  void unplace(int n, const Shape& s) {
    const long k_fc = inst_.hard_fc[static_cast<std::size_t>(n)];
    const std::vector<int>& req = inst_.req[static_cast<std::size_t>(n)];
    const Rect r = rects_[static_cast<std::size_t>(n)];
    for (std::size_t t = 0; t < slack_.size(); ++t)
      slack_[t] += (1 + k_fc) * (s.covered[t] - req[t]);
    perim_ -= 2.0 * (r.w + r.h);
    waste_ -= s.waste;
    region_placed_[static_cast<std::size_t>(n)] = 0;
    for (int i = inst_.region_net_start[static_cast<std::size_t>(n) + 1];
         i-- > inst_.region_net_start[static_cast<std::size_t>(n)];) {
      const auto e = static_cast<std::size_t>(inst_.region_nets[static_cast<std::size_t>(i)]);
      net_box_[e] = saved_boxes_.back();
      saved_boxes_.pop_back();
      --net_live_[e];
    }
    occ_.clear(r);
  }

  /// Expands the child placing region n (at depth) as shape s at row y;
  /// the caller has checked its overlap and supply. The bound is decided
  /// before the placement, so the ~all children it rejects never touch the
  /// occupancy, the net boxes or the FC witnesses. FC check and bound are
  /// both pure filters, so descending iff both pass is order-free.
  void placeRegion(int depth, int n, const Shape& s, std::size_t shape_index, int y) {
    if (aborted()) return;
    countNode();
    const Rect r{s.x, y, s.w, s.h};
    if (!admitChild(depth, n, s, r)) return;
    place(n, s, r);
    if (quickFcCheckAll(n)) {
      prefix_.emplace_back(static_cast<int>(shape_index), y);
      descendRegions(depth + 1);
      prefix_.pop_back();
    }
    unplace(n, s);
  }

  /// Adaptive splitting: defer a subtree as a stealable task only while a
  /// peer is actually starving, and only at shallow depths where the prefix
  /// replay cost is negligible against the subtree it buys.
  [[nodiscard]] bool maySplit(int depth) const {
    return sched_.idle.load(std::memory_order_relaxed) > 0 &&
           depth < inst_.prob().numRegions() - 1 && depth <= 6;
  }

  void spawnTask(std::size_t shape_index, int y) {
    Task t;
    t.prefix = prefix_;
    t.prefix.emplace_back(static_cast<int>(shape_index), y);
    sched_.outstanding.fetch_add(1, std::memory_order_acq_rel);
    deque().pushBack(std::move(t));
    ++stats_.splits;
  }

  /// quickFcCheck over every placed region after region `placed` was
  /// placed: placing a region can also destroy the FC candidates of regions
  /// placed earlier. Those keep the free placements their last passing
  /// check found (witnesses). Since then the occupancy only lost rects or
  /// gained rects checked here, so a region whose witnesses the new rect
  /// misses passes unchanged.
  [[nodiscard]] bool quickFcCheckAll(int placed) {
    const Rect& r = rects_[static_cast<std::size_t>(placed)];
    for (int m = 0; m < inst_.prob().numRegions(); ++m) {
      const auto mi = static_cast<std::size_t>(m);
      if (inst_.hard_fc[mi] == 0 || region_placed_[mi] == 0) continue;
      if (m != placed && witnessed_[mi] != 0) {
        const Rect* w = &witnesses_[inst_.witness_start[mi]];
        bool hit = false;
        for (int i = 0; i < inst_.hard_fc[mi]; ++i) hit = hit || w[i].overlaps(r);
        if (!hit) continue;
      }
      if (!quickFcCheck(m)) return false;
    }
    return true;
  }

  /// Cheap necessary condition: each *hard* FC request of region n must have
  /// at least `count` compatible placements free w.r.t. current occupancy
  /// (which holds the forbidden tiles too). Per matching column span, one
  /// column OR and its free src.h-row windows; the first `count` found are
  /// kept as region n's witnesses.
  [[nodiscard]] bool quickFcCheck(int n) {
    const int needed = inst_.hard_fc[static_cast<std::size_t>(n)];
    const Rect& src = rects_[static_cast<std::size_t>(n)];
    Rect* witness = &witnesses_[inst_.witness_start[static_cast<std::size_t>(n)]];
    std::uint64_t* rows = rowBits(inst_.prob().numRegions());
    int found = 0;
    for (const int x : inst_.prob().dev().matchingSpans(src.x, src.w)) {
      occ_.orColumns(x, src.w, rows);
      occ_.freeWindows(rows, src.h);
      // The source rect itself is occupied, so these are genuinely free
      // placements.
      for (int k = 0; k < occ_.wordsPerColumn(); ++k)
        for (std::uint64_t bits = rows[k]; bits != 0; bits &= bits - 1) {
          witness[found] = Rect{x, 64 * k + __builtin_ctzll(bits), src.w, src.h};
          if (++found == needed) {
            witnessed_[static_cast<std::size_t>(n)] = 1;
            return true;
          }
        }
    }
    // A failed check overwrote only some witnesses: the rest may repeat
    // them, so none of them counts until the next passing check.
    witnessed_[static_cast<std::size_t>(n)] = 0;
    return false;
  }

  /// Row-bit scratch slot `slot` (wordsPerColumn() words): slot d belongs to
  /// descendRegions at depth d, slot numRegions to quickFcCheck and
  /// startFcPhase.
  [[nodiscard]] std::uint64_t* rowBits(int slot) {
    return &row_bits_[static_cast<std::size_t>(slot) *
                      static_cast<std::size_t>(occ_.wordsPerColumn())];
  }

  void descendRegions(int depth) {
    if (aborted()) return;
    if (depth == inst_.prob().numRegions()) {
      startFcPhase();
      return;
    }
    const int n = inst_.region_order[static_cast<std::size_t>(depth)];
    const RegionCandidates& cands = inst_.candidates[static_cast<std::size_t>(n)];
    const std::uint64_t best = shared_.best_key.load(std::memory_order_relaxed);
    std::uint64_t* rows = rowBits(depth);
    for (std::size_t si = 0; si < cands.shapes.size(); ++si) {
      const Shape& s = cands.shapes[si];
      // Shapes are waste-sorted: once the waste bound alone exceeds the
      // incumbent, no later shape can help.
      const long waste_lb = waste_ + s.waste +
                            inst_.suffix_min_waste[static_cast<std::size_t>(depth + 1)] -
                            inst_.candidates[static_cast<std::size_t>(n)].min_waste;
      if (inst_.opt.waste_budget >= 0 && waste_lb > inst_.opt.waste_budget) break;
      if (inst_.opt.mode == ObjectiveMode::kLexicographic &&
          lexKey(waste_lb, 0.0) >= best) {
        if (shared_.best_is_external.load(std::memory_order_relaxed))
          ++local_external_prunes_;
        break;
      }
      if (!supplyAllows(n, s)) continue;
      // placeRegion restores the occupancy before the next y, so one column
      // OR per shape serves every y.
      occ_.orColumns(s.x, s.w, rows);
      occ_.freeWindows(rows, s.h);
      for (const int y : s.ys) {
        if (!Occupancy::windowFree(rows, y)) continue;
        if (maySplit(depth)) {
          // A starving peer exists: package this subtree for stealing
          // instead of diving it (it re-checks every prune on execution).
          spawnTask(si, y);
          continue;
        }
        placeRegion(depth, n, s, si, y);
        if (aborted()) return;
      }
    }
  }

  // ---- FC phase ------------------------------------------------------------

  struct SlotPlan {
    int slot = -1;                 ///< index into inst_.slots
    std::vector<Rect> candidates;  ///< compatible, forbidden-free placements
  };

  void startFcPhase() {
    if (inst_.slots.empty()) {
      recordSolution();
      return;
    }
    // Candidates per slot depend only on the region placements; slots of the
    // same region share one list. Order: fewest candidates first.
    std::vector<SlotPlan> plans;
    plans.reserve(inst_.slots.size());
    std::uint64_t* forbidden_rows = rowBits(inst_.prob().numRegions());
    std::vector<std::vector<Rect>> per_region(
        static_cast<std::size_t>(inst_.prob().numRegions()));
    std::vector<bool> computed(static_cast<std::size_t>(inst_.prob().numRegions()), false);
    for (std::size_t i = 0; i < inst_.slots.size(); ++i) {
      const int n = inst_.slots[i].region;
      if (!computed[static_cast<std::size_t>(n)]) {
        computed[static_cast<std::size_t>(n)] = true;
        appendCompatibleRects(inst_.prob().dev(), inst_.forbidden,
                              rects_[static_cast<std::size_t>(n)], forbidden_rows,
                              per_region[static_cast<std::size_t>(n)]);
      }
      plans.push_back(SlotPlan{static_cast<int>(i), per_region[static_cast<std::size_t>(n)]});
    }
    std::stable_sort(plans.begin(), plans.end(), [](const SlotPlan& a, const SlotPlan& b) {
      return a.candidates.size() < b.candidates.size();
    });
    fc_entry_rl_ = rl_;
    descendSlots(plans, 0, std::vector<std::size_t>(
                               static_cast<std::size_t>(inst_.prob().numRegions()), 0));
  }

  /// `next_start[n]` enforces a canonical candidate order among same-region
  /// slots (they are interchangeable), killing the k! symmetry.
  ///
  /// Returns true when the FC phase may stop for this region placement: FC
  /// positions do not enter any cost term (only whether each slot is
  /// placed), so an assignment placing every remaining slot — no skip
  /// penalty over the phase entry — is optimal for the fixed region rects.
  bool descendSlots(const std::vector<SlotPlan>& plans, std::size_t depth,
                    std::vector<std::size_t> next_start) {
    if (aborted()) return true;
    if (depth == plans.size()) {
      recordSolution();
      return rl_ == fc_entry_rl_;
    }
    ++local_nodes_;
    --poll_countdown_;
    const SlotPlan& plan = plans[depth];
    const FcSlot& slot = inst_.slots[static_cast<std::size_t>(plan.slot)];
    const std::size_t start = next_start[static_cast<std::size_t>(slot.region)];
    for (std::size_t c = start; c < plan.candidates.size(); ++c) {
      const Rect& r = plan.candidates[c];
      if (occ_.overlaps(r)) continue;
      occ_.fill(r);
      fc_rects_[static_cast<std::size_t>(plan.slot)] = r;
      fc_placed_[static_cast<std::size_t>(plan.slot)] = true;
      std::vector<std::size_t> ns = next_start;
      ns[static_cast<std::size_t>(slot.region)] = c + 1;
      const bool done = descendSlots(plans, depth + 1, std::move(ns));
      fc_placed_[static_cast<std::size_t>(plan.slot)] = false;
      occ_.clear(r);
      if (done || aborted()) return done;
    }
    if (!slot.hard && inst_.opt.mode == ObjectiveMode::kWeighted) {
      // Soft request: skip with penalty cw_c (Sec. V).
      rl_ += slot.weight;
      bool done = false;
      if (boundBelow(inst_.prob().numRegions(),
                     shared_.best_key.load(std::memory_order_relaxed)))
        done = descendSlots(plans, depth + 1, std::move(next_start));
      rl_ -= slot.weight;
      return done;
    }
    return false;
  }

  void recordSolution() {
    model::Floorplan plan;
    plan.regions = rects_;
    plan.fc_areas = model::expandFcRequests(inst_.prob());
    for (std::size_t i = 0; i < inst_.slots.size(); ++i) {
      plan.fc_areas[i].placed = fc_placed_[i];
      if (fc_placed_[i]) plan.fc_areas[i].rect = fc_rects_[i];
    }
    const model::FloorplanCosts costs = model::evaluate(inst_.prob(), plan);
    const std::uint64_t key = costKey(inst_.opt, costs);

    bool adopted_own = false;
    std::uint64_t cur = shared_.best_key.load(std::memory_order_relaxed);
    while (key < cur && !shared_.best_key.compare_exchange_weak(cur, key)) {
    }
    if (key <= cur || !shared_.has_plan) {
      const sync::MutexLock lock(shared_.mutex);
      // Compare against the installed plan's own key, not the atomic
      // `best_key`: between a peer's CAS and its install there is a window
      // where `has_plan` is stale, and the old `!has_plan` fallback let
      // this worker install — and publish — a strictly worse plan over it.
      if (key < shared_.best_plan_key) {
        shared_.best_plan = plan;  // keep `plan` for the publish below
        shared_.best_plan_key = key;
        shared_.has_plan = true;
        shared_.best_is_external.store(false, std::memory_order_relaxed);
        adopted_own = true;
      }
    }
    // Publish outside the mutex: the channel re-validates and takes its own
    // lock, and a slow publish must not stall sibling workers.
    if (adopted_own && inst_.opt.incumbent) {
      shared_.published.fetch_add(1, std::memory_order_relaxed);
      inst_.opt.incumbent->publish(plan, costs, "search");
    }
    if (adopted_own && trace_ != nullptr)
      trace_->instant("incumbent", "publish", "waste",
                      static_cast<double>(costs.wasted_frames), "engine", "search");
    if (inst_.opt.feasibility_only) shared_.stop.store(true);
  }

  void flushNodes() {
    const long delta = local_nodes_ - flushed_nodes_;
    shared_.nodes.fetch_add(delta, std::memory_order_relaxed);
    flushed_nodes_ = local_nodes_;
    if (nodes_ctr_ != nullptr && delta > 0) nodes_ctr_->add(delta);
    if (trace_ != nullptr && delta > 0) {
      // One complete event covering the nodes expanded since the previous
      // flush: coarse enough to stay off the per-node hot path, fine enough
      // that the timeline shows where a worker's time went.
      const double now = trace_->nowUs();
      telemetry::TraceEvent ev;
      ev.cat = "search";
      ev.name = "node_batch";
      ev.ph = 'X';
      ev.ts_us = batch_start_us_;
      ev.dur_us = now - batch_start_us_;
      ev.akey[0] = "nodes";
      ev.aval[0] = static_cast<double>(delta);
      ev.nargs = 1;
      trace_->complete(ev);
      batch_start_us_ = now;
    }
    if (inst_.opt.node_limit > 0 &&
        shared_.nodes.load(std::memory_order_relaxed) > inst_.opt.node_limit)
      shared_.stop.store(true);
  }

 public:
  void finish() {
    flushNodes();
    shared_.external_prunes.fetch_add(local_external_prunes_, std::memory_order_relaxed);
    local_external_prunes_ = 0;
    stats_.nodes = local_nodes_;
  }

 private:
  const int id_;
  const Instance& inst_;
  Shared& shared_;
  Scheduler& sched_;
  const Deadline& deadline_;
  WorkerStats stats_;
  /// (shape_index, y) of the current path's placements — the prefix a
  /// spawned task needs to replay this position.
  std::vector<Placement> prefix_;
  Occupancy occ_;  ///< forbidden tiles plus the placed regions and FC areas
  std::vector<Rect> rects_;
  std::vector<NetBox> net_box_;  ///< per net, over its placed pins' centres
  std::vector<int> net_live_;    ///< placed pins per net
  /// net_box_ values that placements overwrote, restored LIFO by unplace.
  std::vector<NetBox> saved_boxes_;
  std::vector<unsigned char> region_placed_;
  std::vector<std::uint64_t> row_bits_;  ///< orColumns scratch, see rowBits()
  /// Per placed region with hard FC slots, the free placements its last
  /// quickFcCheck found (hard_fc of them, from witness_start).
  std::vector<Rect> witnesses_;
  std::vector<unsigned char> witnessed_;  ///< per region: its last quickFcCheck passed
  std::vector<Rect> fc_rects_;
  std::vector<bool> fc_placed_;
  /// Per type: usable tiles minus the tiles placed regions cover minus the
  /// lower bound on the demand still outstanding (the supply prune's margin).
  std::vector<long> slack_;
  long waste_ = 0;
  double perim_ = 0;
  double rl_ = 0;
  double fc_entry_rl_ = 0;  ///< rl_ on entering the FC phase (early-stop ref)
  long local_nodes_ = 0;
  long poll_countdown_ = 0;  ///< expanded nodes left until aborted() polls
  long flushed_nodes_ = 0;
  long local_external_prunes_ = 0;
  std::uint64_t incumbent_seen_ = 0;  ///< last channel version this worker saw
  // Observability (null when the solve carries no telemetry context).
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* nodes_ctr_ = nullptr;
  telemetry::Counter* steals_ctr_ = nullptr;
  double batch_start_us_ = 0.0;
};

Instance buildInstance(const model::FloorplanProblem& problem, const SearchOptions& opt) {
  Instance inst;
  inst.problem = &problem;
  inst.opt = opt;
  // Incumbent exchange would defeat feasibility_only: an adopted plan counts
  // as "found" without the search having proven anything about this probe.
  if (inst.opt.feasibility_only) inst.opt.incumbent = nullptr;

  const std::string problem_error = problem.validateStructure();
  RFP_CHECK_MSG(problem_error.empty(), "invalid problem: " << problem_error);

  // In lexicographic mode taller-than-minimal shapes are strictly dominated
  // (see enumerateCandidates); in weighted mode a taller shape can pay off
  // through the wire-length term, so the full shape set is kept.
  const bool min_height_only = opt.mode == ObjectiveMode::kLexicographic;
  inst.candidates.reserve(static_cast<std::size_t>(problem.numRegions()));
  for (int n = 0; n < problem.numRegions(); ++n)
    inst.candidates.push_back(
        enumerateCandidates(problem, n, opt.waste_budget, min_height_only));

  // Most-constrained-first ordering (fewest placements).
  std::vector<std::size_t> placements(static_cast<std::size_t>(problem.numRegions()));
  inst.region_order.resize(placements.size());
  for (std::size_t n = 0; n < placements.size(); ++n) {
    placements[n] = inst.candidates[n].totalPlacements();
    inst.region_order[n] = static_cast<int>(n);
  }
  std::stable_sort(inst.region_order.begin(), inst.region_order.end(), [&](int a, int b) {
    return placements[static_cast<std::size_t>(a)] < placements[static_cast<std::size_t>(b)];
  });

  inst.suffix_min_waste.assign(static_cast<std::size_t>(problem.numRegions()) + 1, 0);
  for (int i = problem.numRegions() - 1; i >= 0; --i) {
    const RegionCandidates& c =
        inst.candidates[static_cast<std::size_t>(inst.region_order[static_cast<std::size_t>(i)])];
    const long mw = c.shapes.empty() ? LONG_MAX / 8 : c.min_waste;
    inst.suffix_min_waste[static_cast<std::size_t>(i)] =
        inst.suffix_min_waste[static_cast<std::size_t>(i) + 1] + mw;
  }

  inst.min_perimeter.assign(static_cast<std::size_t>(problem.numRegions()), 0.0);
  for (int n = 0; n < problem.numRegions(); ++n) {
    double best = 1e30;
    for (const Shape& s : inst.candidates[static_cast<std::size_t>(n)].shapes)
      best = std::min(best, 2.0 * (s.w + s.h));
    inst.min_perimeter[static_cast<std::size_t>(n)] =
        inst.candidates[static_cast<std::size_t>(n)].shapes.empty() ? 0.0 : best;
  }

  for (const model::RelocationRequest& req : problem.relocations()) {
    RFP_CHECK_MSG(req.hard || opt.mode == ObjectiveMode::kWeighted,
                  "soft relocation requests require ObjectiveMode::kWeighted");
    for (int i = 0; i < req.count; ++i)
      inst.slots.push_back(FcSlot{req.region, req.hard, req.weight});
  }

  // Supply/demand bookkeeping for the per-type prune.
  const int T = problem.dev().numTileTypes();
  const std::vector<int> totals = problem.dev().totalTiles(/*usable_only=*/true);
  inst.slack.assign(totals.begin(), totals.end());
  inst.hard_fc.assign(static_cast<std::size_t>(problem.numRegions()), 0);
  for (const FcSlot& s : inst.slots)
    if (s.hard) ++inst.hard_fc[static_cast<std::size_t>(s.region)];
  inst.witness_start.assign(static_cast<std::size_t>(problem.numRegions()) + 1, 0);
  for (int n = 0; n < problem.numRegions(); ++n)
    inst.witness_start[static_cast<std::size_t>(n) + 1] =
        inst.witness_start[static_cast<std::size_t>(n)] +
        static_cast<std::size_t>(inst.hard_fc[static_cast<std::size_t>(n)]);
  inst.req.resize(static_cast<std::size_t>(problem.numRegions()));
  for (int n = 0; n < problem.numRegions(); ++n) {
    inst.req[static_cast<std::size_t>(n)].resize(static_cast<std::size_t>(T));
    for (int t = 0; t < T; ++t) {
      const int r = problem.region(n).required(t);
      inst.req[static_cast<std::size_t>(n)][static_cast<std::size_t>(t)] = r;
      inst.slack[static_cast<std::size_t>(t)] -=
          static_cast<long>(1 + inst.hard_fc[static_cast<std::size_t>(n)]) * r;
    }
  }

  inst.forbidden = forbiddenGrid(problem.dev());

  inst.region_net_start.assign(static_cast<std::size_t>(problem.numRegions()) + 1, 0);
  for (const model::Net& net : problem.nets()) {
    inst.net_weight.push_back(net.weight);
    for (const int r : net.regions) ++inst.region_net_start[static_cast<std::size_t>(r) + 1];
  }
  for (int n = 0; n < problem.numRegions(); ++n)
    inst.region_net_start[static_cast<std::size_t>(n) + 1] +=
        inst.region_net_start[static_cast<std::size_t>(n)];
  inst.region_nets.resize(static_cast<std::size_t>(inst.region_net_start.back()));
  std::vector<int> next_net(inst.region_net_start.begin(), inst.region_net_start.end() - 1);
  for (std::size_t e = 0; e < problem.nets().size(); ++e)
    for (const int r : problem.nets()[e].regions)
      inst.region_nets[static_cast<std::size_t>(next_net[static_cast<std::size_t>(r)]++)] =
          static_cast<int>(e);

  inst.maxima = model::objectiveMaxima(problem);
  return inst;
}

}  // namespace

SearchResult ColumnarSearchSolver::solve(const model::FloorplanProblem& problem) const {
  Stopwatch watch;
  Deadline deadline(options_.time_limit_seconds);
  SearchResult result;

  // Aggregate over-demand is an infeasibility verdict, not an API error.
  if (!problem.supplyShortfall().empty()) {
    result.status = model::SolveStatus::kInfeasible;
    result.seconds = watch.seconds();
    return result;
  }

  telemetry::Span build_span(options_.telemetry, "search", "build_instance");
  const Instance inst = buildInstance(problem, options_);
  build_span.finish();
  Shared shared;

  // Seed the cutoff from the channel before the root fan-out: an incumbent
  // published by a faster engine prunes from the very first node.
  std::uint64_t root_seen = 0;
  adoptExternalIncumbent(inst, shared, &root_seen);

  if (inst.region_order.empty()) {
    // No regions: trivially feasible empty plan.
    result.plan.fc_areas = model::expandFcRequests(problem);
    result.costs = model::evaluate(problem, result.plan);
    result.status = model::SolveStatus::kOptimal;
    result.seconds = watch.seconds();
    return result;
  }

  const int threads = std::max(1, options_.num_threads);
  Scheduler sched;
  sched.deques.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) sched.deques.push_back(std::make_unique<TaskDeque>());
  // Root decomposition: one root per placement of the first region in the
  // order, claimed by the workers through the scheduler's cursor.
  const RegionCandidates& first = inst.candidates[static_cast<std::size_t>(inst.region_order[0])];
  sched.roots.reserve(first.totalPlacements());
  for (std::size_t si = 0; si < first.shapes.size(); ++si)
    for (const int y : first.shapes[si].ys) sched.roots.emplace_back(static_cast<int>(si), y);
  sched.outstanding.store(static_cast<long>(sched.roots.size()), std::memory_order_relaxed);

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    workers.push_back(std::make_unique<Worker>(t, inst, shared, sched, deadline));

  if (threads == 1) {
    workers[0]->runLoop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&workers, t] { workers[static_cast<std::size_t>(t)]->runLoop(); });
    for (std::thread& t : pool) t.join();
  }
  for (const std::unique_ptr<Worker>& w : workers) {
    w->finish();
    result.workers.push_back(w->stats());
  }

  result.nodes = shared.nodes.load();
  result.seconds = watch.seconds();
  result.exchange = {shared.published.load(), shared.adopted.load(),
                     shared.external_prunes.load()};
  // A cancelled run is not a proof: even when every worker happened to
  // exhaust its subtree without observing the flag, a set stop flag at the
  // boundary downgrades the verdict (the portfolio's winner already holds
  // the real proof).
  const bool externally_cancelled =
      options_.stop && options_.stop->load(std::memory_order_relaxed);
  const bool truncated =
      (shared.stop.load() || externally_cancelled) &&
      !(options_.feasibility_only && shared.has_plan);  // feasibility stop ≠ limit
  if (shared.has_plan) {
    {
      // Workers are joined, but best_plan is mutex-guarded state written
      // from their threads — read it the same way it was written.
      const sync::MutexLock lock(shared.mutex);
      result.plan = shared.best_plan;
    }
    result.costs = model::evaluate(problem, result.plan);
    result.status = truncated && !options_.feasibility_only ? model::SolveStatus::kFeasible
                                                            : model::SolveStatus::kOptimal;
    if (options_.feasibility_only) result.status = model::SolveStatus::kFeasible;
  } else {
    result.status = truncated ? model::SolveStatus::kNoSolution : model::SolveStatus::kInfeasible;
  }
  return result;
}

std::vector<bool> ColumnarSearchSolver::feasibilityAnalysis(
    const model::FloorplanProblem& problem) const {
  std::vector<bool> relocatable(static_cast<std::size_t>(problem.numRegions()), false);
  for (int n = 0; n < problem.numRegions(); ++n) {
    // Rebuild the problem with a single hard FC request for region n.
    model::FloorplanProblem probe(&problem.dev());
    for (int i = 0; i < problem.numRegions(); ++i) probe.addRegion(problem.region(i));
    for (const model::Net& net : problem.nets()) probe.addNet(net);
    probe.addRelocation(model::RelocationRequest{n, 1, /*hard=*/true, 1.0});
    probe.setLexicographic(problem.lexicographic());

    SearchOptions opt = options_;
    opt.feasibility_only = true;
    opt.mode = ObjectiveMode::kLexicographic;
    ColumnarSearchSolver probe_solver(opt);
    const SearchResult res = probe_solver.solve(probe);
    relocatable[static_cast<std::size_t>(n)] = res.hasSolution();
  }
  return relocatable;
}

}  // namespace rfp::search
