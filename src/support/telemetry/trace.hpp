// TraceRecorder: RAII spans into per-thread ring buffers, exported as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
//
// A solve threads one `telemetry::Context*` through its engines alongside
// the existing stop-flag/incumbent pointers; everything hangs off that
// pointer and a null context costs exactly one branch per instrumentation
// site. When a recorder is attached, emitting an event is a couple of
// steady_clock reads plus a store into the calling thread's ring lane — no
// lock, no allocation (event names and categories must be string literals;
// the recorder stores the pointers). Lanes are registered under a mutex on
// a thread's first event and cached in a thread_local keyed by recorder id,
// so a recorder destroyed and recreated at the same address can never serve
// a stale lane.
//
// Export (`toChromeJson`) must happen after writers have quiesced — the
// engines join their workers before returning, so the driver/CLI call sites
// satisfy this by construction. Rings overwrite oldest events when full and
// report the overwritten count through `dropped()`.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "support/sync.hpp"
#include "support/telemetry/metrics.hpp"

namespace rfp::telemetry {

/// One trace event. POD on purpose: recording must not allocate, so the
/// name/category/arg-key pointers must have static storage duration
/// (string literals at every call site in this repo).
struct TraceEvent {
  const char* cat = "";
  const char* name = "";
  double ts_us = 0.0;   // relative to the recorder's epoch
  double dur_us = 0.0;  // 'X' events only
  char ph = 'X';        // 'X' complete, 'i' instant
  int nargs = 0;
  const char* akey[2] = {nullptr, nullptr};
  double aval[2] = {0.0, 0.0};
  const char* skey = nullptr;  // optional string arg (literal)
  const char* sval = nullptr;
};

class TraceRecorder {
 public:
  /// `lane_capacity` bounds events kept per thread (oldest overwritten).
  explicit TraceRecorder(std::size_t lane_capacity = 1 << 15);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds since this recorder was constructed.
  [[nodiscard]] double nowUs() const noexcept;

  /// Record a completed span ('X') on the calling thread's lane.
  void complete(const TraceEvent& ev);
  /// Record an instant event ('i') stamped with the current time.
  void instant(const char* cat, const char* name, const char* akey = nullptr,
               double aval = 0.0, const char* skey = nullptr,
               const char* sval = nullptr);

  /// Label the calling thread's lane in the exported timeline
  /// (e.g. "search-worker-3"). Truncated to the lane's fixed buffer.
  void nameThread(const char* name);

  /// Events overwritten because a lane wrapped.
  [[nodiscard]] long dropped() const;
  /// Events currently retained across all lanes.
  [[nodiscard]] long retained() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with per-lane
  /// thread_name metadata, events sorted by timestamp. Call only after
  /// writer threads have quiesced.
  [[nodiscard]] std::string toChromeJson() const;

 private:
  struct Lane {
    int tid = 0;
    char name[48] = {};
    std::uint64_t written = 0;  // total appends; ring holds the newest
    std::vector<TraceEvent> ring;
  };
  Lane& lane();

  std::uint64_t id_ = 0;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  // Guards lane *registration* (the lanes_ vector) only. A Lane's contents
  // are single-owner: written lock-free by the thread the lane belongs to,
  // read by the exporters after writers have quiesced (the class contract).
  // Top tier of the lock-ordering hierarchy, like the metrics registry.
  mutable sync::Mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_ RFP_GUARDED_BY(mu_);
};

/// The solve-scoped observability context threaded through engine option
/// structs next to the stop flag and shared incumbent. Either pointer may
/// be null independently; a fully-null context is equivalent to passing no
/// context at all.
struct Context {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  /// Emit 1-in-N of the highest-frequency instants (per-LP-node reopt
  /// events, per-pivot samples). 1 = every event, 0 disables them while
  /// keeping coarse spans.
  int detail_sample = 16;
};

/// True when the n-th high-frequency event should be emitted under the
/// context's sampling knob.
inline bool sampleHit(const Context* ctx, std::uint64_t n) noexcept {
  return ctx != nullptr && ctx->trace != nullptr && ctx->detail_sample > 0 &&
         n % static_cast<std::uint64_t>(ctx->detail_sample) == 0;
}

/// RAII span: records a complete ('X') event covering its lifetime on the
/// owning context's recorder. With a null context (or null recorder) the
/// constructor and destructor each cost one branch.
class Span {
 public:
  Span() = default;
  Span(const Context* ctx, const char* cat, const char* name) {
    if (ctx != nullptr && ctx->trace != nullptr) begin(ctx->trace, cat, name);
  }
  Span(TraceRecorder* rec, const char* cat, const char* name) {
    if (rec != nullptr) begin(rec, cat, name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) noexcept : rec_(o.rec_), ev_(o.ev_) { o.rec_ = nullptr; }
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      finish();
      rec_ = o.rec_;
      ev_ = o.ev_;
      o.rec_ = nullptr;
    }
    return *this;
  }
  ~Span() { finish(); }

  /// Attach a numeric arg (up to two; extras dropped). Key must be a
  /// string literal.
  void arg(const char* key, double value) noexcept {
    if (rec_ != nullptr && ev_.nargs < 2) {
      ev_.akey[ev_.nargs] = key;
      ev_.aval[ev_.nargs] = value;
      ++ev_.nargs;
    }
  }
  /// Attach the single string arg (literal only).
  void note(const char* key, const char* literal) noexcept {
    if (rec_ != nullptr) {
      ev_.skey = key;
      ev_.sval = literal;
    }
  }
  [[nodiscard]] bool active() const noexcept { return rec_ != nullptr; }

  /// Close the span early (idempotent).
  void finish() {
    if (rec_ == nullptr) return;
    ev_.dur_us = rec_->nowUs() - ev_.ts_us;
    rec_->complete(ev_);
    rec_ = nullptr;
  }

 private:
  void begin(TraceRecorder* rec, const char* cat, const char* name) {
    rec_ = rec;
    ev_.cat = cat;
    ev_.name = name;
    ev_.ph = 'X';
    ev_.ts_us = rec->nowUs();
  }
  TraceRecorder* rec_ = nullptr;
  TraceEvent ev_;
};

/// Instant-event helper with the null-context branch inlined.
inline void instant(const Context* ctx, const char* cat, const char* name,
                    const char* akey = nullptr, double aval = 0.0,
                    const char* skey = nullptr, const char* sval = nullptr) {
  if (ctx != nullptr && ctx->trace != nullptr)
    ctx->trace->instant(cat, name, akey, aval, skey, sval);
}

/// One external incumbent adopted by `engine`: the "incumbent"/"adopt"
/// instant plus the live `incumbent.adoptions` counter, for every engine.
inline void adoption(const Context* ctx, const char* engine, const char* akey, double aval) {
  instant(ctx, "incumbent", "adopt", akey, aval, "engine", engine);
  if (ctx != nullptr && ctx->metrics != nullptr)
    ctx->metrics->counter("incumbent.adoptions").increment();
}

/// Summary returned by `validateChromeTrace`.
struct TraceSummary {
  bool ok = false;
  std::string error;
  long events = 0;           // non-metadata events
  std::set<std::string> categories;
  std::set<std::string> names;
};

/// Parses Chrome trace-event JSON back (full recursive-descent JSON parse,
/// no external deps) and checks the trace-event schema: top-level object
/// with a `traceEvents` array whose entries carry `name`/`ph`/`ts`/`pid`/
/// `tid`. Used by the round-trip tests and `rfp_cli --trace` verification.
[[nodiscard]] TraceSummary validateChromeTrace(const std::string& json);

}  // namespace rfp::telemetry
