// MetricsRegistry: named counters and log-bucketed histograms with
// per-thread sharded accumulation.
//
// Six PRs of engine work each grew a private counter struct (`LpStats`,
// per-worker steal telemetry, `CacheStats`); this registry is the shared
// substrate they aggregate through. The design constraint is the hot path:
// branch & bound flushes node counts every 1024 nodes and the LP engines
// count pivots per node, so an update must never take a lock or contend a
// single cache line across workers. Each instrument therefore owns a small
// array of cacheline-padded atomic shards; a thread bumps the shard picked
// by its (process-wide, monotonically assigned) slot with a relaxed
// fetch_add, and `snapshot()` sums shards. Sums are exact once writers have
// quiesced (joined threads, finished solve) — the only reader the engines
// support anyway — and monotonically fresh while they run, which is all the
// progress ticker needs.
//
// Instrument handles returned by `counter()` / `histogram()`
// are stable for the registry's lifetime (instruments are never removed),
// so callers resolve names once at solve start and bump through the pointer
// afterwards. Name lookup takes the registry mutex; updates never do.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/sync.hpp"

namespace rfp::telemetry {

/// Process-wide small integer id for the calling thread, assigned on first
/// use. Shard index = slot % kShards; distinct live threads usually land on
/// distinct shards, and correctness never depends on it.
int threadSlot() noexcept;

namespace detail {
constexpr int kShards = 16;

struct alignas(64) PaddedCount {
  std::atomic<long> v{0};
};
}  // namespace detail

/// Monotonic counter. `add` is wait-free and never contends across threads
/// with distinct slots.
class Counter {
 public:
  void add(long n) noexcept {
    shards_[threadSlot() % detail::kShards].v.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  [[nodiscard]] long total() const noexcept {
    long sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  detail::PaddedCount shards_[detail::kShards];
};

/// Log2-bucketed histogram of non-negative samples. Bucket k holds samples
/// in [2^(k-1), 2^k) (bucket 0 holds [0, 1)), so 48 buckets cover anything
/// from a sub-microsecond pivot to hours expressed in microseconds. Sum and
/// count ride along per shard for exact means.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void record(double v) noexcept;

  struct Snapshot {
    long count = 0;
    double sum = 0.0;
    long buckets[kBuckets] = {};
    /// Upper edge (2^k) of the highest non-empty bucket, 0 when empty.
    [[nodiscard]] double maxEdge() const noexcept;
    [[nodiscard]] double mean() const noexcept { return count > 0 ? sum / count : 0.0; }
  };
  [[nodiscard]] Snapshot snapshot() const noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<long> buckets[kBuckets] = {};
    std::atomic<long> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  // accumulated via CAS loop
  };
  Shard shards_[detail::kShards];
};

/// One flattened metric value in a snapshot.
struct MetricValue {
  enum class Kind { kCounter, kHistogram };
  Kind kind = Kind::kCounter;
  double value = 0.0;  // counter total; histogram mean
  Histogram::Snapshot hist;  // populated for histograms only
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. The returned reference stays valid for the
  /// registry's lifetime. Kind mismatches (a counter name reused as a
  /// histogram) create independent instruments per kind namespace.
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point-in-time aggregation of every instrument, keyed by name.
  [[nodiscard]] std::map<std::string, MetricValue> snapshot() const;

  /// Snapshot flattened to name -> number for export surfaces
  /// (`SolveResponse::metrics`, JSON): counters map directly;
  /// a histogram `h` contributes `h.count`, `h.mean`, and `h.max`.
  [[nodiscard]] std::map<std::string, double> flatten() const;

 private:
  // Guards name lookup only — the instruments themselves are lock-free
  // shards, and the unique_ptrs are never reassigned once created (handle
  // stability). Top of the lock-ordering hierarchy (CONTRIBUTING.md):
  // nothing else may be acquired while this is held.
  mutable sync::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ RFP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ RFP_GUARDED_BY(mu_);
};

}  // namespace rfp::telemetry
