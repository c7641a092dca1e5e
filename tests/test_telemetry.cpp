// Tests for the tracing + metrics subsystem (src/support/telemetry/):
// sharded-counter exactness under contention, histogram bucketing, span
// nesting and the Chrome trace-event JSON round trip (emitted JSON is
// parsed back by the repo's own validator), the sampling knob, and the
// disabled-path cost contract (a null context must stay branch-only).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "support/log.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::telemetry {
namespace {

// ---- metrics -------------------------------------------------------------

TEST(Metrics, CounterSumsExactlyAcrossContendingThreads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.bumps");
  constexpr int kThreads = 8;
  constexpr long kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (long i = 0; i < kPerThread; ++i) c.increment();
    });
  for (std::thread& t : threads) t.join();
  // The property under test: relaxed per-shard bumps lose nothing — the
  // post-quiesce snapshot is exact, not approximate.
  EXPECT_EQ(c.total(), static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(reg.flatten().at("test.bumps"), static_cast<double>(kThreads) * kPerThread);
}

TEST(Metrics, RegistryReturnsStableInstrumentIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same.name");
  Counter& b = reg.counter("same.name");
  EXPECT_EQ(&a, &b);  // find-or-create, never a second instrument
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.total(), 7);
}

TEST(Metrics, HistogramCountsSumsAndBucketsUnderThreads) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.hist");
  constexpr int kThreads = 6;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(static_cast<double>(t + 1));
    });
  for (std::thread& t : threads) t.join();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<long>(kThreads) * kPerThread);
  // Sum of t+1 for t in [0,6) is 21, times kPerThread — exact, since the
  // per-shard sums CAS full doubles rather than losing precision to racing.
  EXPECT_DOUBLE_EQ(s.sum, 21.0 * kPerThread);
  EXPECT_DOUBLE_EQ(s.mean(), 21.0 / kThreads);
  long bucketed = 0;
  for (const long b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, s.count);
}

TEST(Metrics, FlattenExposesHistogramFacets) {
  MetricsRegistry reg;
  reg.histogram("lp.iters").record(8.0);
  reg.histogram("lp.iters").record(16.0);
  const auto flat = reg.flatten();
  EXPECT_EQ(flat.at("lp.iters.count"), 2.0);
  EXPECT_DOUBLE_EQ(flat.at("lp.iters.mean"), 12.0);
  EXPECT_GE(flat.at("lp.iters.max"), 16.0);
}

// ---- tracing -------------------------------------------------------------

TEST(Trace, SpansAndInstantsRoundTripThroughChromeJson) {
  TraceRecorder rec;
  rec.nameThread("main-test-thread");
  {
    Span outer(&rec, "search", "node_batch");
    outer.arg("nodes", 1024.0);
    {
      Span inner(&rec, "lp", "root_lp");
      inner.note("engine", "sparse");
    }
    rec.instant("incumbent", "publish", "waste", 42.0, "engine", "search");
  }
  const std::string json = rec.toChromeJson();
  const TraceSummary sum = validateChromeTrace(json);
  ASSERT_TRUE(sum.ok) << sum.error << "\n" << json;
  EXPECT_EQ(sum.events, 3);
  EXPECT_TRUE(sum.categories.count("search"));
  EXPECT_TRUE(sum.categories.count("lp"));
  EXPECT_TRUE(sum.categories.count("incumbent"));
  EXPECT_TRUE(sum.names.count("node_batch"));
  EXPECT_TRUE(sum.names.count("root_lp"));
  EXPECT_TRUE(sum.names.count("publish"));
  // The lane name travels as a thread_name metadata event.
  EXPECT_NE(json.find("main-test-thread"), std::string::npos);
}

TEST(Trace, MultiThreadedEventsLandOnDistinctLanes) {
  TraceRecorder rec;
  constexpr int kThreads = 4;
  constexpr int kEach = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&rec] {
      for (int i = 0; i < kEach; ++i) rec.instant("steal", "steal", "tasks", 1.0);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rec.retained(), static_cast<long>(kThreads) * kEach);
  EXPECT_EQ(rec.dropped(), 0);
  const TraceSummary sum = validateChromeTrace(rec.toChromeJson());
  ASSERT_TRUE(sum.ok) << sum.error;
  EXPECT_EQ(sum.events, static_cast<long>(kThreads) * kEach);
}

TEST(Trace, RingOverwritesOldestAndCountsDropped) {
  TraceRecorder rec(/*lane_capacity=*/16);
  for (int i = 0; i < 100; ++i) rec.instant("cat", "ev");
  EXPECT_EQ(rec.retained(), 16);
  EXPECT_EQ(rec.dropped(), 84);
  const TraceSummary sum = validateChromeTrace(rec.toChromeJson());
  ASSERT_TRUE(sum.ok) << sum.error;
  EXPECT_EQ(sum.events, 16);
}

TEST(Trace, ValidatorRejectsMalformedJson) {
  EXPECT_FALSE(validateChromeTrace("").ok);
  EXPECT_FALSE(validateChromeTrace("[]").ok);  // top level must be an object
  EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": 3}").ok);
  EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": [{\"name\":\"x\"}]}").ok);  // no ph/pid/tid
  EXPECT_FALSE(validateChromeTrace("{\"traceEvents\": []} trailing").ok);
  EXPECT_TRUE(validateChromeTrace("{\"traceEvents\": []}").ok);
}

TEST(Trace, SamplingKnobGatesHighFrequencyEvents) {
  TraceRecorder rec;
  MetricsRegistry reg;
  Context ctx;
  ctx.metrics = &reg;
  ctx.trace = &rec;
  ctx.detail_sample = 10;
  long hits = 0;
  for (std::uint64_t n = 1; n <= 1000; ++n)
    if (sampleHit(&ctx, n)) ++hits;
  EXPECT_EQ(hits, 100);
  ctx.detail_sample = 0;  // 0 disables detail events entirely
  EXPECT_FALSE(sampleHit(&ctx, 10));
  EXPECT_FALSE(sampleHit(nullptr, 10));
}

TEST(Trace, NullContextSpanIsInertAndCheap) {
  // Contract: instrumentation with no context must cost a branch, never a
  // clock read or an allocation. A generous wall-clock bound (micro-
  // benchmarks don't belong in unit tests) still catches an accidental
  // steady_clock::now() or mutex on the disabled path — 2M spans would
  // then take far longer than the bound.
  constexpr long kSpans = 2000000;
  Stopwatch watch;
  double sink = 0.0;
  for (long i = 0; i < kSpans; ++i) {
    Span s(static_cast<const Context*>(nullptr), "cat", "name");
    s.arg("k", 1.0);
    sink += s.active() ? 1.0 : 0.0;
  }
  const double seconds = watch.seconds();
  EXPECT_EQ(sink, 0.0);
  EXPECT_LT(seconds, 2.0) << "disabled-path span cost is not branch-only";
}

TEST(Trace, SpanMoveTransfersOwnershipOnce) {
  TraceRecorder rec;
  {
    Span a(&rec, "cat", "outer");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());  // NOLINT(bugprone-use-after-move): asserting the postcondition
    EXPECT_TRUE(b.active());
    Span c;
    c = std::move(b);
    EXPECT_TRUE(c.active());
  }
  // One 'X' event total: the moves must not double-record the span.
  EXPECT_EQ(rec.retained(), 1);
  const TraceSummary sum = validateChromeTrace(rec.toChromeJson());
  ASSERT_TRUE(sum.ok) << sum.error;
  EXPECT_EQ(sum.events, 1);
}

// ---- log sink ------------------------------------------------------------

TEST(Log, LevelFromStringParsesNamesCaseInsensitively) {
  using log::Level;
  EXPECT_EQ(log::levelFromString("info", Level::kError), Level::kInfo);
  EXPECT_EQ(log::levelFromString("WARN", Level::kError), Level::kWarn);
  EXPECT_EQ(log::levelFromString("warning", Level::kError), Level::kWarn);
  EXPECT_EQ(log::levelFromString("off", Level::kError), Level::kOff);
  EXPECT_EQ(log::levelFromString("junk", Level::kDebug), Level::kDebug);
}

TEST(Log, SetLogFileRejectsUnwritablePath) {
  EXPECT_FALSE(log::setLogFile("/nonexistent-dir-for-rfp-test/x.log"));
  // Empty path restores stderr; must always succeed.
  EXPECT_TRUE(log::setLogFile(""));
}

}  // namespace
}  // namespace rfp::telemetry
