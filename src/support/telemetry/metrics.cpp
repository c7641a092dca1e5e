#include "support/telemetry/metrics.hpp"

#include <bit>
#include <cmath>

namespace rfp::telemetry {

int threadSlot() noexcept {
  static std::atomic<int> next{0};
  thread_local int slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

namespace {

int bucketOf(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // [0,1) and any NaN/negative junk
  const int b = std::ilogb(v) + 1;
  return b >= Histogram::kBuckets ? Histogram::kBuckets - 1 : b;
}

}  // namespace

void Histogram::record(double v) noexcept {
  Shard& s = shards_[threadSlot() % detail::kShards];
  s.buckets[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  // No fetch_add for atomic doubles pre-C++20-TS on all stdlibs; a CAS loop
  // on the bit pattern keeps the sum exact without a lock.
  std::uint64_t old = s.sum_bits.load(std::memory_order_relaxed);
  for (;;) {
    const double updated = std::bit_cast<double>(old) + v;
    if (s.sum_bits.compare_exchange_weak(old, std::bit_cast<std::uint64_t>(updated),
                                         std::memory_order_relaxed))
      break;
  }
}

double Histogram::Snapshot::maxEdge() const noexcept {
  for (int k = kBuckets - 1; k >= 0; --k)
    if (buckets[k] > 0) return std::ldexp(1.0, k);
  return 0.0;
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot out;
  for (const Shard& s : shards_) {
    out.count += s.count.load(std::memory_order_relaxed);
    out.sum += std::bit_cast<double>(s.sum_bits.load(std::memory_order_relaxed));
    for (int k = 0; k < kBuckets; ++k)
      out.buckets[k] += s.buckets[k].load(std::memory_order_relaxed);
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const sync::MutexLock lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const sync::MutexLock lk(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::map<std::string, MetricValue> MetricsRegistry::snapshot() const {
  const sync::MutexLock lk(mu_);
  std::map<std::string, MetricValue> out;
  for (const auto& [name, c] : counters_) {
    MetricValue v;
    v.kind = MetricValue::Kind::kCounter;
    v.value = static_cast<double>(c->total());
    out.emplace(name, v);
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue v;
    v.kind = MetricValue::Kind::kHistogram;
    v.hist = h->snapshot();
    v.value = v.hist.mean();
    out.emplace(name, v);
  }
  return out;
}

std::map<std::string, double> MetricsRegistry::flatten() const {
  std::map<std::string, double> out;
  for (const auto& [name, v] : snapshot()) {
    if (v.kind == MetricValue::Kind::kHistogram) {
      out[name + ".count"] = static_cast<double>(v.hist.count);
      out[name + ".mean"] = v.hist.mean();
      out[name + ".max"] = v.hist.maxEdge();
    } else {
      out[name] = v.value;
    }
  }
  return out;
}

}  // namespace rfp::telemetry
