// Tests for the benchmark's own logic: the percentile rule, workload
// generation and the correctness oracle (metric names are checked by
// test_run.py against BENCHMARK.json and a real run's output). Plain
// main(): exits non-zero when any check fails.
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "device/parser.hpp"
#include "driver/cache.hpp"
#include "gen.hpp"
#include "io/problem_text.hpp"
#include "oracle.hpp"
#include "probe.hpp"
#include "search/solver.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::fprintf(stderr, "%s:%d: CHECK(%s)\n", __FILE__, __LINE__, #cond); \
    }                                                                 \
  } while (0)

using namespace perfbench;

std::string inputs(const Workload& w) {
  std::string all;
  for (const std::string& d : w.devices) all += d;
  for (const Workload::Problem& p : w.problems) all += p.instance + "\n" + p.text;
  return all;
}

void testPercentileRule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  CHECK(percentile(v, 0.5) == 50.0);
  CHECK(percentile(v, 0.9) == 90.0);
  CHECK(percentile({7.0}, 0.9) == 7.0);
  CHECK(tailReportable(100, 0.9));   // ranks 91..100 lie beyond p90
  CHECK(!tailReportable(99, 0.9));   // only 9 beyond
  CHECK(!tailReportable(10, 0.9));
  CHECK(tailReportable(20, 0.5));
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void testHostScaling() {
  // Times read as on a host where the probe takes kReferenceProbeSeconds.
  const double ref = kReferenceProbeSeconds;
  CHECK(onReferenceHost(2.0, ref, ref) == 2.0);
  CHECK(onReferenceHost(2.0, 2 * ref, 2 * ref) == 1.0);
  CHECK(onReferenceHost(3.0, ref, 2 * ref) == 2.0);
  const double probe = probeSeconds();
  CHECK(probe > 0.0 && probe < 1.0);
}

void testGeneration() {
  for (const std::string& name : workloadNames()) {
    const Workload a = makeWorkload(name, 7), b = makeWorkload(name, 7), c = makeWorkload(name, 8);
    CHECK(inputs(a) == inputs(b));
    CHECK(inputs(a) != inputs(c));
    CHECK(!a.pass.empty() && !a.warmup.empty());
    for (const Request& r : a.pass) {
      CHECK(!r.problems.empty());
      // Every request is bounded by work, never by time; only the exact
      // search may run without a node limit.
      CHECK(r.node_limit > 0 || r.backend == rfp::driver::Backend::kSearch);
    }
    // Each seed's inputs parse.
    for (const Workload::Problem& p : a.problems) {
      const rfp::device::Device dev = rfp::device::parseDevice(a.devices[static_cast<std::size_t>(p.device)]);
      CHECK(rfp::io::parseProblem(p.text, dev).validateStructure().empty());
    }
  }
  // batch-sweep: every batch is full and opens with fresh problems, each
  // requested in no other batch, for the whole pass.
  const Workload sweep = makeWorkload("batch-sweep", 7);
  const auto instance = [&](int p) -> const std::string& {
    return sweep.problems[static_cast<std::size_t>(p)].instance;
  };
  CHECK(sweep.pass.size() == static_cast<std::size_t>(kSweepBatches));
  std::map<std::string, int> batches_of;
  for (const Request& r : sweep.pass) {
    std::set<std::string> seen;
    for (const int p : r.problems) seen.insert(instance(p));
    for (const std::string& i : seen) ++batches_of[i];
  }
  for (const Request& r : sweep.pass) {
    CHECK(r.problems.size() == static_cast<std::size_t>(kSweepBatchSize));
    for (std::size_t k = 0; k < static_cast<std::size_t>(kSweepFreshPerBatch) && k < r.problems.size(); ++k)
      CHECK(batches_of[instance(r.problems[k])] == 1);
  }

  bool threw = false;
  try {
    (void)makeWorkload("no-such-workload", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

void testTwinsShareFingerprints() {
  const DeviceSpec spec = paperDevice();
  const rfp::device::Device dev = rfp::device::parseDevice(deviceText(spec));
  const rfp::driver::SolveRequest q;
  for (std::uint64_t s = 1; s <= 20; ++s) {
    const std::string text = problemText(spec, {3, 10, 4, 1, 1, 1, 0.2, false}, s, "t");
    if (text.empty()) continue;
    const std::string twin = permutedTwin(text, s * 31);
    CHECK(twin != text);
    const auto a = rfp::driver::fingerprintProblem(rfp::io::parseProblem(text, dev), q, q.backend);
    const auto b = rfp::driver::fingerprintProblem(rfp::io::parseProblem(twin, dev), q, q.backend);
    CHECK(a.structural == b.structural);
  }
}

void testOracle() {
  const rfp::device::Device dev = rfp::device::parseDevice(deviceText(paperDevice()));
  const rfp::model::FloorplanProblem problem = rfp::io::parseProblem(sdrProblemText(1), dev);
  const rfp::search::SearchResult r = rfp::search::ColumnarSearchSolver().solve(problem);
  CHECK(r.status == rfp::search::SearchStatus::kOptimal);
  Reference ref;
  ref.feasible = true;
  ref.waste = r.costs.wasted_frames;
  ref.wire_length = r.costs.wire_length;
  ref.objective = r.costs.objective;
  const ReferenceTable table = parseReferenceTable(formatReference("w/sdr1", ref) + "\n");
  CHECK(table.at("w/sdr1").waste == ref.waste && table.at("w/sdr1").wire_length == ref.wire_length);

  // cost_ratio is exactly 1.0 on reference plans.
  CHECK(costRatio(r.costs, ref, true) == 1.0);
  CHECK(geometricMean({costRatio(r.costs, ref, true), costRatio(r.costs, ref, true)}) == 1.0);
  rfp::model::FloorplanCosts worse = r.costs;
  worse.wasted_frames += 36;
  CHECK(costRatio(worse, ref, true) > 1.0);

  rfp::driver::SolveResponse ok;
  ok.status = rfp::driver::SolveStatus::kOptimal;
  ok.plan = r.plan;
  ok.costs = r.costs;
  CHECK(judge(problem, ok, ref).empty());

  rfp::driver::SolveResponse none;  // no plan although one exists
  CHECK(!judge(problem, none, ref).empty());
  rfp::driver::SolveResponse infeasible = none;
  infeasible.status = rfp::driver::SolveStatus::kInfeasible;
  CHECK(!judge(problem, infeasible, ref).empty());

  rfp::driver::SolveResponse broken = ok;  // overlapping regions
  broken.plan.regions[1] = broken.plan.regions[0];
  CHECK(!judge(problem, broken, ref).empty());

  rfp::driver::SolveResponse misreported = ok;  // costs that are not the plan's own
  misreported.costs.objective += 0.5;
  CHECK(!judge(problem, misreported, ref).empty());

  // A reference optimum below the answer: an optimality claim is wrong, a
  // plan without a proof is merely suboptimal.
  Reference lower = ref;
  lower.wire_length -= 1.0;
  rfp::driver::SolveResponse feasible = ok;
  feasible.status = rfp::driver::SolveStatus::kFeasible;
  CHECK(!judge(problem, ok, lower).empty());
  CHECK(judge(problem, feasible, lower).empty());
  // A reference optimum above the answer: nothing may beat a proven optimum.
  Reference higher = ref;
  higher.wire_length += 1.0;
  CHECK(!judge(problem, ok, higher).empty());
  CHECK(!judge(problem, feasible, higher).empty());
}

}  // namespace

int main() {
  testPercentileRule();
  testHostScaling();
  testGeneration();
  testTwinsShareFingerprints();
  testOracle();
  if (failures == 0) std::printf("perfbench_tests: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
