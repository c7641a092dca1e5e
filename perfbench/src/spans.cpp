#include "spans.hpp"

#include <algorithm>

#include "bench_meta.hpp"
#include "io/json.hpp"

namespace perfbench {

int SpanRecorder::open(const std::string& name, long request) {
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(Span{name, now, now, stack_.empty() ? -1 : stack_.back(), request});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

double SpanRecorder::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  return (s.end_us - s.start_us) * 1e-6;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(static_cast<int>(i));
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (const int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      iv.emplace_back(std::max(k.start_us, s.start_us), std::min(k.end_us, s.end_us));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, reach = s.start_us;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, reach);
      if (b > lo) covered += b - lo;
      reach = std::max(reach, b);
    }
    Totals& t = out[s.name];
    t.total_us += s.end_us - s.start_us;
    t.self_us += s.end_us - s.start_us - covered;
    ++t.count;
  }
  return out;
}

std::string SpanRecorder::chromeJson(const std::string& workload, std::uint64_t seed) const {
  rfp::io::JsonWriter w;
  w.beginObject();
  rfp::bench::writeBenchMeta(w);
  w.key("workload").value(workload);
  w.key("seed").value(static_cast<long>(seed));
  w.key("traceEvents").beginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.beginObject();
    w.key("name").value(s.name);
    w.key("cat").value(s.name.substr(0, s.name.find('.')));
    w.key("ph").value("X");
    w.key("ts").value(s.start_us);
    w.key("dur").value(s.end_us - s.start_us);
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("args").beginObject();
    w.key("id").value(static_cast<long>(i));
    w.key("parent").value(s.parent);
    w.key("request").value(s.request);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.key("self_time_us").beginObject();
  for (const auto& [name, t] : totals()) {
    w.key(name).beginObject();
    w.key("count").value(t.count);
    w.key("total").value(t.total_us);
    w.key("self").value(t.self_us);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  return w.str();
}

}  // namespace perfbench
