// Driver subsystem: backend dispatch, portfolio arbitration + cancellation,
// incumbent exchange, staged deadlines, deadline handling, and batch
// determinism / cancellation across pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "device/builders.hpp"
#include "driver/backend_runner.hpp"
#include "driver/cache.hpp"
#include "driver/driver.hpp"
#include "driver/incumbent.hpp"
#include "driver/response_json.hpp"
#include "fp/formulation.hpp"
#include "model/floorplan.hpp"
#include "model/generator.hpp"
#include "model/problem.hpp"
#include "partition/columnar.hpp"
#include "search/solver.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::driver {
namespace {

model::FloorplanProblem twoRegionProblem(const device::Device& dev) {
  model::FloorplanProblem p(&dev);
  model::RegionSpec a;
  a.name = "a";
  a.tiles = {6, 1, 0};
  p.addRegion(a);
  model::RegionSpec b;
  b.name = "b";
  b.tiles = {4, 0, 1};
  p.addRegion(b);
  p.addNet(model::Net{{0, 1}, 1.0, "n"});
  return p;
}

TEST(DriverEnums, BackendNamesRoundTrip) {
  for (const Backend b : allBackends()) {
    const auto parsed = backendFromString(toString(b));
    ASSERT_TRUE(parsed.has_value()) << toString(b);
    EXPECT_EQ(*parsed, b);
  }
  // rfp_cli's historical aliases for the MILP algorithms keep working.
  EXPECT_EQ(backendFromString("o"), Backend::kMilpO);
  EXPECT_EQ(backendFromString("ho"), Backend::kMilpHO);
  EXPECT_FALSE(backendFromString("simplex").has_value());
}

TEST(DriverSingle, EveryBackendSolvesASmallProblem) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  for (const Backend b : allBackends()) {
    SolveRequest req;
    req.backend = b;
    req.deadline_seconds = 60.0;
    const SolveResponse res = drv.solve(p, req);
    EXPECT_EQ(res.backend, b);
    ASSERT_TRUE(res.hasSolution()) << toString(b) << ": " << res.detail;
    EXPECT_EQ(model::check(p, res.plan), "") << toString(b);
    if (isExhaustive(b)) {
      EXPECT_EQ(res.status, model::SolveStatus::kOptimal) << res.detail;
    }
  }
}

TEST(DriverSingle, ExhaustiveBackendsAgreeOnTheOptimum) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  const SolveResponse exact = drv.solve(p, req);
  req.backend = Backend::kMilpO;
  req.deadline_seconds = 120.0;
  const SolveResponse milp = drv.solve(p, req);
  ASSERT_EQ(exact.status, model::SolveStatus::kOptimal);
  ASSERT_EQ(milp.status, model::SolveStatus::kOptimal) << milp.detail;
  EXPECT_EQ(exact.costs.wasted_frames, milp.costs.wasted_frames);
  // MILP optimality holds within MilpSolver::kGapTol, so equally-optimal
  // plans may differ in the last bits of the wire length.
  EXPECT_NEAR(exact.costs.wire_length, milp.costs.wire_length,
              1e-4 * std::max(1.0, exact.costs.wire_length));
}

TEST(DriverSingle, InfeasibleProblemsAreProvenInfeasible) {
  // Demand beyond the device's supply: an aggregate-infeasibility verdict.
  const device::Device dev = device::columnarFromPattern("t", "CCCC", 3);
  model::FloorplanProblem p(&dev);
  model::RegionSpec r;
  r.name = "huge";
  r.tiles = {1000, 0, 0};
  p.addRegion(r);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  EXPECT_EQ(drv.solve(p, req).status, model::SolveStatus::kInfeasible);
  // The incomplete engines cannot prove anything.
  req.backend = Backend::kHeuristic;
  EXPECT_EQ(drv.solve(p, req).status, model::SolveStatus::kNoSolution);
}

TEST(DriverPortfolio, MatchesTheExactOptimumOnTheSdrProblem) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);

  search::SearchOptions sopt;
  sopt.num_threads = 2;
  const search::SearchResult ref = search::ColumnarSearchSolver(sopt).solve(sdr);
  ASSERT_EQ(ref.status, model::SolveStatus::kOptimal);

  const Driver drv;
  SolveRequest req;
  req.num_threads = 2;
  // Ample for the provers; short enough that the staged first slice (a
  // quarter of this) does not dominate the test's wall clock.
  req.deadline_seconds = 12.0;
  const SolveResponse res = drv.solvePortfolio(sdr, req);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal) << res.detail;
  EXPECT_EQ(res.costs.wasted_frames, ref.costs.wasted_frames);
  // A gap-tolerance MILP win is equally optimal but not bit-identical.
  EXPECT_NEAR(res.costs.wire_length, ref.costs.wire_length,
              1e-4 * std::max(1.0, ref.costs.wire_length));
  EXPECT_EQ(model::check(sdr, res.plan), "");
}

TEST(DriverPortfolio, ProvenInfeasibilityWinsOverNoSolution) {
  const device::Device dev = device::columnarFromPattern("t", "CCCC", 3);
  model::FloorplanProblem p(&dev);
  model::RegionSpec r;
  r.name = "huge";
  r.tiles = {1000, 0, 0};
  p.addRegion(r);
  const Driver drv;
  SolveRequest req;
  req.deadline_seconds = 60.0;
  const SolveResponse res = drv.solvePortfolio(p, req);
  EXPECT_EQ(res.status, model::SolveStatus::kInfeasible) << res.detail;
}

TEST(DriverPortfolio, ExplicitSingletonPortfolioBehavesLikeSingle) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.portfolio = {Backend::kSearch};
  const SolveResponse res = drv.solvePortfolio(p, req);
  EXPECT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(res.backend, Backend::kSearch);
}

TEST(DriverDeadline, AnnealerStopsAtTheDeadline) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kAnnealer;
  req.annealer.iterations = 2000000000L;  // would run for hours un-bounded
  req.deadline_seconds = 0.3;
  Stopwatch watch;
  const SolveResponse res = drv.solve(sdr, req);
  EXPECT_LT(watch.seconds(), 10.0);  // poll granularity + CI slack
  EXPECT_EQ(res.status, model::SolveStatus::kFeasible) << res.detail;
}

TEST(DriverDeadline, MilpStopsNearTheDeadline) {
  // The full SDR MILP runs far beyond a minute un-bounded; a one-second
  // deadline must cut it off at a node boundary.
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kMilpO;
  req.deadline_seconds = 1.0;
  Stopwatch watch;
  const SolveResponse res = drv.solve(sdr, req);
  EXPECT_LT(watch.seconds(), 60.0);  // one LP/presolve round of slack
  EXPECT_NE(res.status, model::SolveStatus::kOptimal);
}

TEST(DriverBatch, ResultsAreIndependentOfThePoolSize) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCCCCBC", 6);
  model::GeneratorOptions gopt;
  gopt.num_regions = 3;
  gopt.max_region_width = 4;
  gopt.max_region_height = 3;
  std::vector<model::FloorplanProblem> problems;
  for (std::uint64_t seed = 1; problems.size() < 8; ++seed) {
    gopt.seed = seed;
    if (auto p = model::generateProblem(dev, gopt)) problems.push_back(std::move(*p));
  }
  std::vector<const model::FloorplanProblem*> ptrs;
  for (const auto& p : problems) ptrs.push_back(&p);

  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  // Deliberately no deadline: the pool-size-independence guarantee only
  // holds when wall-clock truncation cannot differ under pool contention.
  const std::vector<SolveResponse> serial = drv.solveBatch(ptrs, req, 1);
  const std::vector<SolveResponse> pooled = drv.solveBatch(ptrs, req, 4);
  ASSERT_EQ(serial.size(), ptrs.size());
  ASSERT_EQ(pooled.size(), ptrs.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    EXPECT_EQ(serial[i].status, pooled[i].status) << "problem " << i;
    ASSERT_TRUE(serial[i].hasSolution()) << "problem " << i;
    EXPECT_EQ(serial[i].costs.wasted_frames, pooled[i].costs.wasted_frames) << "problem " << i;
    EXPECT_DOUBLE_EQ(serial[i].costs.wire_length, pooled[i].costs.wire_length)
        << "problem " << i;
    EXPECT_EQ(model::check(*ptrs[i], pooled[i].plan), "") << "problem " << i;
  }
}

TEST(DriverPortfolio, StagedDeadlinesSeedTheProversAndReportTelemetry) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.num_threads = 2;
  req.deadline_seconds = 12.0;
  req.annealer.iterations = 20000;  // a quick stage-1 publisher
  const SolveResponse res = drv.solvePortfolio(sdr, req);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal) << res.detail;
  EXPECT_TRUE(res.incumbent.staged) << res.detail;
  EXPECT_GT(res.incumbent.adoptions, 0) << res.detail;  // stage 1 published
  ASSERT_EQ(res.members.size(), 4u);
  for (const PortfolioMemberStats& m : res.members) {
    EXPECT_EQ(m.stage, isExhaustive(m.backend) ? 2 : 1) << toString(m.backend);
    // The winner's `nodes` is its own count, not a sum across members.
    if (m.backend == res.backend) {
      EXPECT_EQ(res.nodes, m.nodes);
    }
  }
}

TEST(DriverPortfolio, ExchangeNeverWorseThanTheBlindRace) {
  // Satellite invariant: with the incumbent channel (and staging), the
  // portfolio never returns a worse floorplan than the blind flat race on
  // the same instance — in either objective mode.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCCCCBC", 6);
  model::GeneratorOptions gopt;
  gopt.num_regions = 3;
  gopt.max_region_width = 4;
  gopt.max_region_height = 3;
  const Driver drv;
  for (const bool lexicographic : {true, false}) {
    int exercised = 0;
    for (std::uint64_t seed = 1; exercised < 3 && seed < 40; ++seed) {
      gopt.seed = seed;
      auto p = model::generateProblem(dev, gopt);
      if (!p) continue;
      ++exercised;
      p->setLexicographic(lexicographic);

      SolveRequest req;
      req.deadline_seconds = 8.0;
      req.annealer.iterations = 20000;  // instances are tiny; keep races quick
      req.incumbent_exchange = false;
      req.staged_deadlines = false;
      const SolveResponse blind = drv.solvePortfolio(*p, req);
      req.incumbent_exchange = true;
      req.staged_deadlines = true;
      const SolveResponse coop = drv.solvePortfolio(*p, req);

      ASSERT_TRUE(blind.hasSolution()) << "seed " << seed << ": " << blind.detail;
      ASSERT_TRUE(coop.hasSolution()) << "seed " << seed << ": " << coop.detail;
      EXPECT_FALSE(model::strictlyBetter(*p, blind.costs, coop.costs))
          << "seed " << seed << " lex=" << lexicographic << ": exchange lost ("
          << coop.detail << ")";
      EXPECT_EQ(model::check(*p, coop.plan), "") << "seed " << seed;
    }
    EXPECT_GE(exercised, 2);
  }
}

TEST(SharedIncumbentChannel, ConcurrentPublishesAreMonotoneAndKeepTheBest) {
  // Property: under concurrent publishes the channel's best cost never
  // worsens between observations, and the final best is not beaten by any
  // published cost.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  // One checker-valid plan (publish re-validates plans); the synthetic cost
  // vectors attached to it drive the ordering under test.
  const search::SearchResult ref = search::ColumnarSearchSolver().solve(p);
  ASSERT_TRUE(ref.hasSolution());

  SharedIncumbent channel(p);
  constexpr int kThreads = 4;
  constexpr long kPublishes = 400;
  std::atomic<bool> go{false};
  std::atomic<long> best_seen_waste{1L << 40};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      // Distinct deterministic cost sequences per thread, non-monotone on
      // purpose so the channel has to reject the worsening ones.
      for (long i = 0; i < kPublishes; ++i) {
        model::FloorplanCosts costs;
        costs.wasted_frames = ((i * 37 + t * 11) % 1000) + 1;
        costs.wire_length = static_cast<double>(t);
        channel.publish(ref.plan, costs, "writer");
        long cur = best_seen_waste.load();
        while (costs.wasted_frames < cur &&
               !best_seen_waste.compare_exchange_weak(cur, costs.wasted_frames)) {
        }
      }
    });
  std::thread reader([&] {
    model::FloorplanCosts prev;
    bool have_prev = false;
    std::uint64_t seen = 0;
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 10000; ++i) {
      model::FloorplanCosts cur;
      if (!channel.snapshotNewer(&seen, nullptr, &cur)) continue;
      if (have_prev) {
        EXPECT_FALSE(model::strictlyBetter(p, prev, cur))
            << "channel went backwards: " << prev.wasted_frames << " -> " << cur.wasted_frames;
      }
      prev = cur;
      have_prev = true;
    }
  });
  go.store(true);
  for (std::thread& w : writers) w.join();
  reader.join();

  model::FloorplanCosts final_costs;
  ASSERT_TRUE(channel.best(nullptr, &final_costs));
  EXPECT_EQ(final_costs.wasted_frames, best_seen_waste.load());
  EXPECT_EQ(channel.publishes(), static_cast<long>(kThreads) * kPublishes);
  EXPECT_GT(channel.adoptions(), 0);
  EXPECT_EQ(channel.adoptions(), static_cast<long>(channel.version()));
}

TEST(SharedIncumbentChannel, SearchProvesASeededIncumbentOptimal) {
  // Seed the channel with the known optimum: the search must adopt it
  // (pruning from the root) and still prove optimality — returning the
  // seeded plan, since nothing strictly better exists.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const search::SearchResult ref = search::ColumnarSearchSolver().solve(p);
  ASSERT_EQ(ref.status, model::SolveStatus::kOptimal);

  SharedIncumbent channel(p);
  ASSERT_TRUE(channel.publish(ref.plan, ref.costs, "annealer"));

  search::SearchOptions opt;
  opt.incumbent = &channel;
  const search::SearchResult res = search::ColumnarSearchSolver(opt).solve(p);
  EXPECT_EQ(res.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(res.exchange.adopted, 1);
  EXPECT_EQ(res.costs.wasted_frames, ref.costs.wasted_frames);
  // The search ranks plans by a wire-length key quantized at 1/64, so an
  // equal-key tie may swap in a plan within that resolution of the optimum.
  EXPECT_NEAR(res.costs.wire_length, ref.costs.wire_length, 1.0 / 32.0);
  // The channel never regressed: its best is still the optimum.
  model::FloorplanCosts chan_costs;
  ASSERT_TRUE(channel.best(nullptr, &chan_costs));
  EXPECT_FALSE(model::strictlyBetter(p, ref.costs, chan_costs));
  // Each prune against the adopted cutoff is charged to its own node: a
  // child the bound rejected (bounded before its FC check runs), or a node
  // whose remaining shapes the waste bound cut off.
  EXPECT_GT(res.exchange.cutoff_prunes, 0);
  EXPECT_LE(res.exchange.cutoff_prunes, res.nodes);

  // Through the driver, the response's metrics carry the engine's counts.
  SharedIncumbent seeded(p);
  ASSERT_TRUE(seeded.publish(ref.plan, ref.costs, "annealer"));
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  req.use_cache = false;
  req.search.incumbent = &seeded;
  const SolveResponse via_driver = drv.solve(p, req);
  ASSERT_EQ(via_driver.status, model::SolveStatus::kOptimal) << via_driver.detail;
  EXPECT_GT(via_driver.exchange.cutoff_prunes, 0) << via_driver.detail;
  EXPECT_LE(via_driver.exchange.cutoff_prunes, via_driver.nodes) << via_driver.detail;
  EXPECT_EQ(via_driver.metrics.at("incumbent.cutoff_prunes"),
            static_cast<double>(via_driver.exchange.cutoff_prunes));
  EXPECT_EQ(via_driver.metrics.at("nodes"), static_cast<double>(via_driver.nodes));
}

TEST(DriverCancellation, CancelledExactBackendsNeverClaimProofs) {
  // Regression: an exact backend unwinding from an already-raised stop flag
  // (the "instant prover" won before we even started) must never report
  // kOptimal or kInfeasible — a cancelled run is not a proof.
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  SolveRequest req;
  req.deadline_seconds = 30.0;
  std::atomic<bool> stop{true};
  for (const Backend b : {Backend::kSearch, Backend::kMilpO}) {
    req.backend = b;
    const SolveResponse res = detail::runBackend(sdr, req, b, &stop);
    EXPECT_NE(res.status, model::SolveStatus::kOptimal) << toString(b) << ": " << res.detail;
    EXPECT_NE(res.status, model::SolveStatus::kInfeasible) << toString(b) << ": " << res.detail;
  }

  // Even a verdict the engine can reach without searching (aggregate supply
  // shortfall) is downgraded at the boundary once the run was cancelled.
  model::FloorplanProblem infeasible(&dev);
  model::RegionSpec huge;
  huge.name = "huge";
  huge.tiles = {1000000, 0, 0};
  infeasible.addRegion(huge);
  req.backend = Backend::kSearch;
  const SolveResponse res = detail::runBackend(infeasible, req, Backend::kSearch, &stop);
  EXPECT_EQ(res.status, model::SolveStatus::kNoSolution) << res.detail;
}

TEST(DriverCancellation, RacingAnInstantProverAgainstASlowExactSolve) {
  // The instant prover settles the problem milliseconds in; the slow exact
  // MILP run must unwind promptly and report a truncation, not a proof.
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  SolveRequest req;
  req.backend = Backend::kMilpO;
  req.deadline_seconds = 120.0;
  std::atomic<bool> stop{false};
  std::thread prover([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
  });
  Stopwatch watch;
  const SolveResponse res = detail::runBackend(sdr, req, Backend::kMilpO, &stop);
  prover.join();
  EXPECT_LT(watch.seconds(), 60.0);  // unwound long before the deadline
  EXPECT_NE(res.status, model::SolveStatus::kOptimal) << res.detail;
  EXPECT_NE(res.status, model::SolveStatus::kInfeasible) << res.detail;
}

TEST(DriverBatch, ExternalStopCancelsInFlightAndPendingSolves) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  std::vector<const model::FloorplanProblem*> ptrs(6, &sdr);

  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kAnnealer;
  req.annealer.iterations = 2000000000L;  // would run for hours un-cancelled
  std::atomic<bool> stop{false};
  std::thread killer([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
  });
  Stopwatch watch;
  const std::vector<SolveResponse> res = drv.solveBatch(ptrs, req, 2, &stop);
  killer.join();
  EXPECT_LT(watch.seconds(), 30.0);  // poll granularity + CI slack
  ASSERT_EQ(res.size(), ptrs.size());
  int skipped = 0;
  for (const SolveResponse& r : res) {
    EXPECT_NE(r.status, model::SolveStatus::kOptimal);
    skipped += r.detail == "batch: cancelled before dispatch" ? 1 : 0;
  }
  // With 6 problems on 2 pool threads and a 200ms cancellation, the tail of
  // the batch is never dispatched.
  EXPECT_GE(skipped, 1);
}

TEST(DriverBatch, OverallDeadlineBoundsTheWholeBatch) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  std::vector<const model::FloorplanProblem*> ptrs(6, &sdr);

  const Driver drv(DriverOptions{0});  // no cache: 6 genuinely solved problems
  SolveRequest req;
  req.backend = Backend::kAnnealer;
  req.annealer.iterations = 2000000000L;  // would run for hours un-bounded
  Stopwatch watch;
  const std::vector<SolveResponse> res =
      drv.solveBatch(ptrs, req, 2, /*stop=*/nullptr, /*deadline_seconds=*/2.0);
  EXPECT_LT(watch.seconds(), 30.0);  // poll granularity + CI slack
  ASSERT_EQ(res.size(), ptrs.size());
  // Fair budget slices: under first-come-first-served the first two solves
  // would eat the whole budget and starve the queue; with fair slicing the
  // whole queue is dispatched, each solve truncated to its share.
  int dispatched = 0;
  double max_seconds = 0.0;
  for (const SolveResponse& r : res) {
    EXPECT_NE(r.status, model::SolveStatus::kOptimal);
    if (r.detail.rfind("batch:", 0) != 0) {
      ++dispatched;
      max_seconds = std::max(max_seconds, r.seconds);
    }
  }
  EXPECT_GE(dispatched, 5) << "fair slices should dispatch (nearly) the whole queue";
  // No single solve may monopolize the batch budget (FCFS gave the first
  // dispatch the full remaining 2.0s).
  EXPECT_LT(max_seconds, 1.5);
}

// ---- result cache: fingerprint properties ---------------------------------

/// Three distinguishable regions, two nets, two relocation requests —
/// enough structure that every canonicalization path (region ranks, net
/// endpoint remap, relocation blocks) is exercised.
model::FloorplanProblem threeRegionProblem(const device::Device& dev) {
  model::FloorplanProblem p(&dev);
  model::RegionSpec a;
  a.name = "a";
  a.tiles = {6, 1, 0};
  p.addRegion(a);
  model::RegionSpec b;
  b.name = "b";
  b.tiles = {4, 0, 1};
  p.addRegion(b);
  model::RegionSpec c;
  c.name = "c";
  c.tiles = {2, 0, 0};
  p.addRegion(c);
  p.addNet(model::Net{{0, 1}, 1.0, "n0"});
  p.addNet(model::Net{{1, 2}, 2.0, "n1"});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  p.addRelocation(model::RelocationRequest{2, 1, false, 0.5});
  return p;
}

/// The same problem as threeRegionProblem with every list permuted: regions
/// reversed (net/relocation indices remapped accordingly), nets and
/// relocation requests added in the opposite order.
model::FloorplanProblem threeRegionProblemPermuted(const device::Device& dev) {
  model::FloorplanProblem p(&dev);
  model::RegionSpec c;
  c.name = "c2";
  c.tiles = {2, 0, 0};
  p.addRegion(c);  // index 0 (was 2)
  model::RegionSpec b;
  b.name = "b2";
  b.tiles = {4, 0, 1};
  p.addRegion(b);  // index 1 (was 1)
  model::RegionSpec a;
  a.name = "a2";
  a.tiles = {6, 1};  // trailing zero dropped: still the same requirement
  p.addRegion(a);    // index 2 (was 0)
  p.addNet(model::Net{{0, 1}, 2.0, "m1"});  // was {1, 2}
  p.addNet(model::Net{{1, 2}, 1.0, "m0"});  // was {0, 1}
  p.addRelocation(model::RelocationRequest{0, 1, false, 0.5});  // was region 2
  p.addRelocation(model::RelocationRequest{2, 1, true, 1.0});   // was region 0
  return p;
}

TEST(CacheFingerprint, PermutedProblemsShareAFingerprint) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p1 = threeRegionProblem(dev);
  const model::FloorplanProblem p2 = threeRegionProblemPermuted(dev);
  const SolveRequest req;
  for (const Backend b : allBackends()) {
    const Fingerprint f1 = fingerprintProblem(p1, req, b);
    const Fingerprint f2 = fingerprintProblem(p2, req, b);
    EXPECT_EQ(f1.structural, f2.structural) << toString(b);
    EXPECT_EQ(f1.hash, f2.hash) << toString(b);
    EXPECT_EQ(f1.budget, f2.budget) << toString(b);
  }
}

TEST(CacheFingerprint, EveryStructuralMutationChangesTheKey) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem base = threeRegionProblem(dev);
  const SolveRequest req;
  const Fingerprint ref = fingerprintProblem(base, req, Backend::kSearch);

  // Each mutant differs from the base in exactly one structural field.
  std::vector<model::FloorplanProblem> mutants;
  {
    model::FloorplanProblem m = threeRegionProblem(dev);  // region requirement
    model::RegionSpec extra;
    extra.name = "d";
    extra.tiles = {1, 0, 0};
    m.addRegion(extra);
    mutants.push_back(std::move(m));
  }
  {
    model::FloorplanProblem m(&dev);  // one tile count changed
    model::RegionSpec a;
    a.tiles = {7, 1, 0};
    m.addRegion(a);
    model::RegionSpec b;
    b.tiles = {4, 0, 1};
    m.addRegion(b);
    model::RegionSpec c;
    c.tiles = {2, 0, 0};
    m.addRegion(c);
    m.addNet(model::Net{{0, 1}, 1.0, ""});
    m.addNet(model::Net{{1, 2}, 2.0, ""});
    m.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
    m.addRelocation(model::RelocationRequest{2, 1, false, 0.5});
    mutants.push_back(std::move(m));
  }
  {
    model::FloorplanProblem m = threeRegionProblem(dev);  // extra net
    m.addNet(model::Net{{0, 2}, 1.0, ""});
    mutants.push_back(std::move(m));
  }
  {
    model::FloorplanProblem m = threeRegionProblem(dev);  // extra relocation
    m.addRelocation(model::RelocationRequest{1, 2, true, 1.0});
    mutants.push_back(std::move(m));
  }
  {
    model::FloorplanProblem m = threeRegionProblem(dev);  // objective mode
    m.setLexicographic(false);
    mutants.push_back(std::move(m));
  }
  {
    model::FloorplanProblem m = threeRegionProblem(dev);  // objective weights
    model::ObjectiveWeights w;
    w.q1_wirelength = 2.0;
    m.setWeights(w);
    mutants.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < mutants.size(); ++i) {
    const Fingerprint f = fingerprintProblem(mutants[i], req, Backend::kSearch);
    EXPECT_NE(f.structural, ref.structural) << "mutant " << i;
  }

  // Net weight and relocation-hardness flips (same shapes, different values).
  model::FloorplanProblem weight(&dev);
  {
    model::RegionSpec a;
    a.tiles = {6, 1, 0};
    weight.addRegion(a);
    model::RegionSpec b;
    b.tiles = {4, 0, 1};
    weight.addRegion(b);
    model::RegionSpec c;
    c.tiles = {2, 0, 0};
    weight.addRegion(c);
    weight.addNet(model::Net{{0, 1}, 1.5, ""});  // was 1.0
    weight.addNet(model::Net{{1, 2}, 2.0, ""});
    weight.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
    weight.addRelocation(model::RelocationRequest{2, 1, false, 0.5});
  }
  EXPECT_NE(fingerprintProblem(weight, req, Backend::kSearch).structural, ref.structural);

  // A different device is a different problem.
  const device::Device dev2 = device::columnarFromPattern("t2", "CCBCCDCB", 4);
  const model::FloorplanProblem other_dev = threeRegionProblem(dev2);
  EXPECT_NE(fingerprintProblem(other_dev, req, Backend::kSearch).structural, ref.structural);

  // Backend and answer-shaping request knobs are part of the key too.
  EXPECT_NE(fingerprintProblem(base, req, Backend::kAnnealer).structural, ref.structural);
  SolveRequest seeded = req;
  seeded.annealer.seed = 99;
  EXPECT_NE(fingerprintProblem(base, seeded, Backend::kAnnealer).structural,
            fingerprintProblem(base, req, Backend::kAnnealer).structural);

  // Budget-style knobs move the budget tier only: same structure, so a
  // changed deadline is a near miss, never a different problem.
  SolveRequest deadline = req;
  deadline.deadline_seconds = 7.5;
  const Fingerprint fd = fingerprintProblem(base, deadline, Backend::kSearch);
  EXPECT_EQ(fd.structural, ref.structural);
  EXPECT_EQ(fd.hash, ref.hash);
  EXPECT_NE(fd.budget, ref.budget);
}

TEST(ResultCacheStore, ForcedHashCollisionNeverCrossReturns) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p1 = twoRegionProblem(dev);
  model::FloorplanProblem p2 = twoRegionProblem(dev);
  p2.addNet(model::Net{{0, 1}, 3.0, "extra"});  // structurally different

  const Driver drv(DriverOptions{0});
  SolveRequest req;
  req.backend = Backend::kSearch;
  const SolveResponse r1 = drv.solve(p1, req);
  const SolveResponse r2 = drv.solve(p2, req);
  ASSERT_EQ(r1.status, model::SolveStatus::kOptimal);
  ASSERT_EQ(r2.status, model::SolveStatus::kOptimal);

  Fingerprint f1 = fingerprintProblem(p1, req, Backend::kSearch);
  Fingerprint f2 = fingerprintProblem(p2, req, Backend::kSearch);
  ASSERT_NE(f1.structural, f2.structural);
  // Forge a full 64-bit hash collision: only the stored-key comparison can
  // tell the entries apart now.
  f1.hash = 42;
  f2.hash = 42;

  ResultCache cache(8);
  ASSERT_TRUE(cache.insert(f1, p1, r1));
  // The colliding key must not be served p1's answer.
  EXPECT_EQ(cache.lookup(f2, p2).outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(cache.insert(f2, p2, r2));
  const CacheLookup l1 = cache.lookup(f1, p1);
  const CacheLookup l2 = cache.lookup(f2, p2);
  ASSERT_EQ(l1.outcome, CacheOutcome::kHit);
  ASSERT_EQ(l2.outcome, CacheOutcome::kHit);
  EXPECT_EQ(l1.response.costs.wire_length, r1.costs.wire_length);
  EXPECT_EQ(l2.response.costs.wire_length, r2.costs.wire_length);
  EXPECT_EQ(model::check(p1, l1.response.plan), "");
  EXPECT_EQ(model::check(p2, l2.response.plan), "");
}

TEST(ResultCacheStore, PermutedHitRemapsThePlanIntoTheRequestersOrder) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCCCCBC", 6);
  model::FloorplanProblem p1 = threeRegionProblem(dev);
  model::FloorplanProblem p2 = threeRegionProblemPermuted(dev);
  // The problems carry a soft relocation request, which the search only
  // accepts under the weighted objective.
  p1.setLexicographic(false);
  p2.setLexicographic(false);

  const Driver drv(DriverOptions{0});
  SolveRequest req;
  req.backend = Backend::kSearch;
  const SolveResponse r1 = drv.solve(p1, req);
  ASSERT_EQ(r1.status, model::SolveStatus::kOptimal) << r1.detail;

  ResultCache cache(8);
  ASSERT_TRUE(cache.insert(fingerprintProblem(p1, req, Backend::kSearch), p1, r1));
  const CacheLookup hit = cache.lookup(fingerprintProblem(p2, req, Backend::kSearch), p2);
  ASSERT_EQ(hit.outcome, CacheOutcome::kHit);
  EXPECT_EQ(hit.response.status, model::SolveStatus::kOptimal);
  // The money property: the stored plan, remapped, is checker-valid for the
  // *permuted* problem and costs exactly the same.
  EXPECT_EQ(model::check(p2, hit.response.plan), "");
  const model::FloorplanCosts costs = model::evaluate(p2, hit.response.plan);
  EXPECT_EQ(costs.wasted_frames, r1.costs.wasted_frames);
  EXPECT_DOUBLE_EQ(costs.wire_length, r1.costs.wire_length);
}

TEST(ResultCacheStore, UntrustworthyResponsesAreRefused) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  SolveRequest req;
  const Fingerprint fp = fingerprintProblem(p, req, Backend::kSearch);
  ResultCache cache(8);

  SolveResponse no_solution;
  no_solution.backend = Backend::kSearch;
  EXPECT_FALSE(cache.insert(fp, p, no_solution));

  SolveResponse bogus;  // kFeasible with a plan the checker rejects
  bogus.backend = Backend::kSearch;
  bogus.status = model::SolveStatus::kFeasible;
  bogus.plan.regions = {device::Rect{0, 0, 1, 1}, device::Rect{0, 0, 1, 1}};  // overlap
  EXPECT_FALSE(cache.insert(fp, p, bogus));

  SolveResponse fake_proof;  // infeasibility claimed by a non-exhaustive engine
  fake_proof.backend = Backend::kAnnealer;
  fake_proof.status = model::SolveStatus::kInfeasible;
  EXPECT_FALSE(cache.insert(fingerprintProblem(p, req, Backend::kAnnealer), p, fake_proof));

  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected, 3);
  EXPECT_EQ(cache.lookup(fp, p).outcome, CacheOutcome::kMiss);
}

// ---- result cache: driver integration -------------------------------------

TEST(DriverCache, RepeatSolvesAreServedFromTheCache) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  const SolveResponse cold = drv.solve(p, req);
  ASSERT_EQ(cold.status, model::SolveStatus::kOptimal);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.served_by, "engine");
  // The engine run reports its exact effort in the metrics map.
  ASSERT_TRUE(cold.metrics.count("nodes"));
  EXPECT_GE(cold.metrics.at("nodes"), 1.0);
  ASSERT_TRUE(cold.metrics.count("seconds"));

  const SolveResponse warm = drv.solve(p, req);
  EXPECT_TRUE(warm.cache_hit) << warm.detail;
  EXPECT_EQ(warm.served_by, "cache");
  EXPECT_EQ(warm.status, model::SolveStatus::kOptimal);
  EXPECT_EQ(warm.costs.wasted_frames, cold.costs.wasted_frames);
  EXPECT_DOUBLE_EQ(warm.costs.wire_length, cold.costs.wire_length);
  EXPECT_EQ(model::check(p, warm.plan), "");

  const CacheStats stats = drv.cacheStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.insertions, 1);

  // Opting out per request bypasses the store in both directions.
  req.use_cache = false;
  const SolveResponse bypass = drv.solve(p, req);
  EXPECT_FALSE(bypass.cache_hit);
  EXPECT_EQ(drv.cacheStats().hits, 1);
}

TEST(DriverCache, ProofsServeAnyBudget) {
  // An optimality proof is a budget-independent truth: a request under a
  // different deadline still gets the stored answer as a full hit.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  ASSERT_EQ(drv.solve(p, req).status, model::SolveStatus::kOptimal);

  req.deadline_seconds = 5.0;  // different budget tier
  const SolveResponse warm = drv.solve(p, req);
  EXPECT_TRUE(warm.cache_hit) << warm.detail;
  EXPECT_EQ(warm.status, model::SolveStatus::kOptimal);
}

TEST(DriverCache, NearMissSeedsTheReSolveAndNeverComesBackWorse) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kAnnealer;  // no proofs: forces the near-miss path
  req.annealer.iterations = 5000;
  const SolveResponse cold = drv.solve(p, req);
  ASSERT_TRUE(cold.hasSolution()) << cold.detail;

  // Same structure, different budget tier: the cached plan must seed the
  // re-solve instead of short-circuiting it.
  req.annealer.iterations = 8000;
  const SolveResponse warm = drv.solve(p, req);
  ASSERT_TRUE(warm.hasSolution()) << warm.detail;
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_TRUE(warm.cache_seeded) << warm.detail;
  // Arbitration against the seed: the result is never worse than what the
  // cache already knew.
  EXPECT_FALSE(model::strictlyBetter(p, cold.costs, warm.costs)) << warm.detail;
  EXPECT_EQ(model::check(p, warm.plan), "");
  EXPECT_EQ(drv.cacheStats().seeded_incumbents, 1);

  // The seeded re-solve was stored under its own budget key: asking again
  // is a plain hit, and the stored entry's provenance is *this* lookup's
  // (hit), not the original near-miss seeding.
  const SolveResponse third = drv.solve(p, req);
  EXPECT_TRUE(third.cache_hit) << third.detail;
  EXPECT_FALSE(third.cache_seeded) << third.detail;
}

TEST(DriverCache, LruEvictionDropsTheColdestEntry) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  // Three structurally distinct variants of the same base problem.
  std::vector<model::FloorplanProblem> problems;
  problems.push_back(twoRegionProblem(dev));
  problems.push_back(twoRegionProblem(dev));
  problems.back().addNet(model::Net{{0, 1}, 2.0, "x"});
  problems.push_back(twoRegionProblem(dev));
  problems.back().addNet(model::Net{{0, 1}, 3.0, "y"});

  DriverOptions opt;
  opt.cache_entries = 2;
  const Driver drv(opt);
  SolveRequest req;
  req.backend = Backend::kSearch;
  for (const auto& p : problems) ASSERT_TRUE(drv.solve(p, req).hasSolution());
  // Capacity 2: solving the third evicted the first (least recently used).
  EXPECT_EQ(drv.cacheStats().evictions, 1);
  EXPECT_FALSE(drv.solve(problems[0], req).cache_hit);  // was evicted
  EXPECT_TRUE(drv.solve(problems[2], req).cache_hit);   // still resident
}

TEST(DriverBatch, DuplicateProblemsHitTheCacheOnTheRerun) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCCCCBC", 6);
  model::GeneratorOptions gopt;
  gopt.num_regions = 3;
  gopt.max_region_width = 4;
  gopt.max_region_height = 3;
  std::vector<model::FloorplanProblem> problems;
  for (std::uint64_t seed = 1; problems.size() < 2 && seed < 40; ++seed) {
    gopt.seed = seed;
    if (auto p = model::generateProblem(dev, gopt)) problems.push_back(std::move(*p));
  }
  ASSERT_EQ(problems.size(), 2u);
  // >= 50% duplicates, interleaved so pool threads race on them.
  const std::vector<const model::FloorplanProblem*> ptrs = {
      &problems[0], &problems[1], &problems[0], &problems[1], &problems[0], &problems[1]};

  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  const std::vector<SolveResponse> cold = drv.solveBatch(ptrs, req, 2);
  ASSERT_EQ(cold.size(), ptrs.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    ASSERT_TRUE(cold[i].hasSolution()) << i;
    EXPECT_EQ(model::check(*ptrs[i], cold[i].plan), "") << i;
  }

  // The rerun is served from the store: no hit runs an engine, so nothing
  // new is inserted.
  const long insertions = drv.cacheStats().insertions;
  const std::vector<SolveResponse> warm = drv.solveBatch(ptrs, req, 2);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].cache_hit) << i << ": " << warm[i].detail;
    EXPECT_EQ(warm[i].served_by, "cache") << i;
    EXPECT_EQ(warm[i].status, cold[i].status) << i;
    EXPECT_EQ(warm[i].costs.wasted_frames, cold[i].costs.wasted_frames) << i;
    EXPECT_EQ(model::check(*ptrs[i], warm[i].plan), "") << i;
  }
  EXPECT_GE(drv.cacheStats().hits, static_cast<long>(ptrs.size()));
  EXPECT_EQ(drv.cacheStats().insertions, insertions);
}

TEST(DriverCache, RequestStopTruncatedRunsAreNeverCached) {
  // A run truncated by a stop flag the *caller* wired into the engine
  // options is cut at an arbitrary point; caching it would poison every
  // later identical, uncancelled request with the truncated answer.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kAnnealer;
  std::atomic<bool> stop{true};  // truncated from the very first poll
  req.annealer.stop = &stop;
  (void)drv.solve(p, req);
  EXPECT_EQ(drv.cacheStats().insertions, 0);

  // The uncancelled request must genuinely solve (a miss), not hit.
  req.annealer.stop = nullptr;
  const SolveResponse fresh = drv.solve(p, req);
  EXPECT_FALSE(fresh.cache_hit) << fresh.detail;
  ASSERT_TRUE(fresh.hasSolution()) << fresh.detail;
  EXPECT_EQ(drv.cacheStats().insertions, 1);
}

TEST(DriverCache, NearMissSeedsTheCallersChannelInsteadOfReplacingIt) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kAnnealer;
  req.annealer.iterations = 5000;
  const SolveResponse cold = drv.solve(p, req);
  ASSERT_TRUE(cold.hasSolution()) << cold.detail;

  // The caller observes the solve through its own channel; the near-miss
  // seed must land there, not in a hidden cache-internal channel.
  SharedIncumbent mine(p);
  req.annealer.incumbent = &mine;
  req.annealer.iterations = 8000;  // different budget tier: near miss
  const SolveResponse warm = drv.solve(p, req);
  EXPECT_TRUE(warm.cache_seeded) << warm.detail;
  EXPECT_GT(mine.version(), 0u);  // the seed (and publishes) reached us
  model::FloorplanCosts best;
  ASSERT_TRUE(mine.best(nullptr, &best));
  EXPECT_FALSE(model::strictlyBetter(p, warm.costs, best));  // channel kept the best
}

TEST(DriverBatch, DeadlineBoundedRerunsHitUnderTheBatchBudgetKey) {
  // Fair slices are derived from the live wall clock and never repeat, so
  // cache entries must be keyed on the *batch-wide* budget — otherwise a
  // deadline-bounded batch of a non-proving backend could never hit.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  std::vector<model::FloorplanProblem> problems;
  problems.push_back(twoRegionProblem(dev));
  problems.push_back(twoRegionProblem(dev));
  problems.back().addNet(model::Net{{0, 1}, 2.0, "x"});
  const std::vector<const model::FloorplanProblem*> ptrs = {
      &problems[0], &problems[1], &problems[0], &problems[1], &problems[0], &problems[1]};

  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kAnnealer;  // no proofs: only exact-budget hits
  req.annealer.iterations = 2000000000L;
  const std::vector<SolveResponse> cold =
      drv.solveBatch(ptrs, req, 2, /*stop=*/nullptr, /*deadline_seconds=*/1.5);
  ASSERT_EQ(cold.size(), ptrs.size());

  const std::vector<SolveResponse> warm =
      drv.solveBatch(ptrs, req, 2, /*stop=*/nullptr, /*deadline_seconds=*/1.5);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_TRUE(warm[i].cache_hit) << i << ": " << warm[i].detail;
    ASSERT_TRUE(warm[i].hasSolution()) << i;
    EXPECT_EQ(model::check(*ptrs[i], warm[i].plan), "") << i;
  }
}

// ---- staged portfolio: adaptive stage 1 ------------------------------------

TEST(DriverPortfolio, QuietChannelEndsStageOneEarly) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;
  SolveRequest req;
  req.portfolio = {Backend::kAnnealer, Backend::kSearch};
  req.deadline_seconds = 30.0;
  req.stage1_fraction = 0.5;          // nominal slice: 10s (stage1_max cap)
  req.stage1_quiet_fraction = 0.05;   // quiet for 0.5s => end stage 1
  req.annealer.iterations = 2000000000L;  // would fill the whole slice
  Stopwatch watch;
  const SolveResponse res = drv.solvePortfolio(p, req);
  ASSERT_EQ(res.status, model::SolveStatus::kOptimal) << res.detail;
  EXPECT_TRUE(res.incumbent.staged);
  // On a trivial instance the annealer stops improving almost immediately;
  // the watchdog must hand the rest of the 10s slice to the prover.
  EXPECT_TRUE(res.incumbent.stage1_ended_early) << res.detail;
  EXPECT_LT(res.incumbent.stage1_seconds, 8.0) << res.detail;
  EXPECT_LT(watch.seconds(), 25.0);
}

TEST(DriverBatch, EmptyBatchAndOversizedPoolAreFine) {
  const Driver drv;
  SolveRequest req;
  EXPECT_TRUE(drv.solveBatch({}, req, 8).empty());

  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const std::vector<const model::FloorplanProblem*> one = {&p};
  const std::vector<SolveResponse> res = drv.solveBatch(one, req, 16);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].status, model::SolveStatus::kOptimal);
}

TEST(DriverSingle, InSolveParallelismReportsWorkerTelemetry) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  const Driver drv;

  SolveRequest seq;
  seq.backend = Backend::kSearch;
  const SolveResponse base = drv.solve(p, seq);
  ASSERT_EQ(base.status, model::SolveStatus::kOptimal);

  // The exact search: num_threads fans out work-stealing workers; the
  // parallel solve proves the same optimum and surfaces per-worker stats.
  SolveRequest par = seq;
  par.use_cache = false;  // a cache hit would skip the engine entirely
  par.num_threads = 4;
  const SolveResponse ps = drv.solve(p, par);
  ASSERT_EQ(ps.status, model::SolveStatus::kOptimal) << ps.detail;
  EXPECT_EQ(ps.costs.wasted_frames, base.costs.wasted_frames);
  ASSERT_EQ(ps.workers.size(), 4u) << ps.detail;
  long nodes = 0, steals = 0;
  for (const WorkerStats& w : ps.workers) {
    nodes += w.nodes;
    steals += w.steals;
  }
  EXPECT_EQ(nodes, ps.nodes);
  EXPECT_EQ(steals, ps.metrics.at("steals"));

  // The MILP backend: the same knob reaches the B&B node pool.
  par.backend = Backend::kMilpO;
  par.num_threads = 2;
  const SolveResponse pm = drv.solve(p, par);
  ASSERT_EQ(pm.status, model::SolveStatus::kOptimal) << pm.detail;
  EXPECT_EQ(pm.costs.wasted_frames, base.costs.wasted_frames);
  EXPECT_EQ(pm.workers.size(), 2u) << pm.detail;
}

TEST(DriverBatch, ThreadBudgetCapsPoolTimesInSolveWorkers) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  DriverOptions opt;
  opt.thread_budget = 4;
  const Driver drv(opt);

  // Single solve: in-solve workers are capped at the whole budget.
  SolveRequest req;
  req.backend = Backend::kSearch;
  req.use_cache = false;
  req.num_threads = 16;
  const SolveResponse single = drv.solve(p, req);
  ASSERT_EQ(single.status, model::SolveStatus::kOptimal) << single.detail;
  EXPECT_EQ(single.workers.size(), 4u);

  // Batch: pool width (4) times in-solve workers must stay within the
  // budget, so each dispatched solve is forced down to one worker (for
  // which no per-worker breakdown is reported).
  std::vector<model::FloorplanProblem> problems(4, p);
  for (std::size_t i = 0; i < problems.size(); ++i)
    problems[i].addNet(model::Net{{0, 1}, 2.0 + static_cast<double>(i), "x"});
  std::vector<const model::FloorplanProblem*> ptrs;
  for (const auto& q : problems) ptrs.push_back(&q);
  const std::vector<SolveResponse> res = drv.solveBatch(ptrs, req, 4);
  for (std::size_t i = 0; i < res.size(); ++i) {
    ASSERT_EQ(res[i].status, model::SolveStatus::kOptimal) << i;
    EXPECT_TRUE(res[i].workers.empty()) << i;
  }
}

TEST(ResultCacheStore, FlightTableBlocksFollowersUntilTheLeaderLands) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  SolveRequest req;
  const Fingerprint fp = fingerprintProblem(p, req, Backend::kSearch);
  ResultCache cache(8);

  ASSERT_EQ(cache.joinFlight(fp, nullptr), ResultCache::FlightJoin::kLeader);

  // A follower joining the same key must block until finishFlight, then see
  // the leader's freshly inserted answer on its re-lookup.
  std::atomic<bool> follower_landed{false};
  std::thread follower([&] {
    const ResultCache::FlightJoin j = cache.joinFlight(fp, nullptr);
    EXPECT_EQ(j, ResultCache::FlightJoin::kLanded);
    follower_landed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(follower_landed.load());  // still in flight

  SolveResponse answer;
  answer.status = model::SolveStatus::kOptimal;
  answer.backend = Backend::kSearch;
  Driver drv;
  answer = drv.solve(p, req);  // a real, checker-valid response to store
  ASSERT_TRUE(cache.insert(fp, p, answer));
  cache.finishFlight(fp);
  follower.join();
  EXPECT_TRUE(follower_landed.load());
  EXPECT_EQ(cache.lookup(fp, p).outcome, CacheOutcome::kHit);

  // A raised stop flag aborts the wait instead of blocking forever.
  ASSERT_EQ(cache.joinFlight(fp, nullptr), ResultCache::FlightJoin::kLeader);
  std::atomic<bool> stop{true};
  EXPECT_EQ(cache.joinFlight(fp, &stop), ResultCache::FlightJoin::kCancelled);
  cache.finishFlight(fp);
}

TEST(ResultCacheStore, PreRaisedStopCancelsJoinWithoutWaitingATick) {
  // Regression: joinFlight used to sleep one 10 ms poll tick before noticing
  // a stop flag that was already raised on entry, so a cancelled batch
  // draining queued duplicates paid a tick per key. The stop check must run
  // before the first wait: 50 cancelled joins finish in microseconds now,
  // versus a guaranteed >= 500 ms with the old ordering.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = twoRegionProblem(dev);
  SolveRequest req;
  const Fingerprint fp = fingerprintProblem(p, req, Backend::kSearch);
  ResultCache cache(8);
  ASSERT_EQ(cache.joinFlight(fp, nullptr), ResultCache::FlightJoin::kLeader);

  std::atomic<bool> stop{true};
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(cache.joinFlight(fp, &stop), ResultCache::FlightJoin::kCancelled) << i;
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 250) << "cancelled joins waited on the poll tick";
  cache.finishFlight(fp);
}

TEST(DriverBatch, ConcurrentDuplicatesSolveEachFingerprintExactlyOnce) {
  // The PR 5 gap: duplicates dispatched *concurrently* both missed the
  // still-empty cache and re-solved. With in-flight coalescing the batch
  // must run one engine per unique fingerprint — counter-asserted below —
  // whatever the interleaving.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCCCCBC", 6);
  model::GeneratorOptions gopt;
  gopt.num_regions = 3;
  gopt.max_region_width = 4;
  gopt.max_region_height = 3;
  std::vector<model::FloorplanProblem> problems;
  for (std::uint64_t seed = 1; problems.size() < 2 && seed < 40; ++seed) {
    gopt.seed = seed;
    if (auto p = model::generateProblem(dev, gopt)) problems.push_back(std::move(*p));
  }
  ASSERT_EQ(problems.size(), 2u);
  // Duplicate-heavy: 12 dispatches over 2 unique fingerprints, interleaved
  // so the pool threads race on the same key from the first claim on.
  std::vector<const model::FloorplanProblem*> ptrs;
  for (int k = 0; k < 6; ++k) {
    ptrs.push_back(&problems[0]);
    ptrs.push_back(&problems[1]);
  }

  const Driver drv;
  SolveRequest req;
  req.backend = Backend::kSearch;
  const std::vector<SolveResponse> res = drv.solveBatch(ptrs, req, 4);
  ASSERT_EQ(res.size(), ptrs.size());

  long engine_runs = 0, served = 0, coalesced = 0;
  for (std::size_t i = 0; i < res.size(); ++i) {
    ASSERT_TRUE(res[i].hasSolution()) << i << ": " << res[i].detail;
    EXPECT_EQ(model::check(*ptrs[i], res[i].plan), "") << i;
    // A duplicate's answer must be byte-identical to its twin's.
    EXPECT_EQ(res[i].status, res[i % 2].status) << i;
    EXPECT_EQ(res[i].costs.wasted_frames, res[i % 2].costs.wasted_frames) << i;
    engine_runs += res[i].cache_hit ? 0 : 1;
    served += res[i].cache_hit ? 1 : 0;
    coalesced += res[i].coalesced ? 1 : 0;
    if (res[i].coalesced) {
      EXPECT_TRUE(res[i].cache_hit) << i;
    }
    // served_by records where the answer actually came from.
    if (res[i].coalesced) {
      EXPECT_EQ(res[i].served_by, "flight-follower") << i;
    } else if (res[i].cache_hit) {
      EXPECT_EQ(res[i].served_by, "cache") << i;
    } else {
      EXPECT_EQ(res[i].served_by, "engine") << i;
    }
  }
  // Exactly one engine invocation per unique fingerprint; everyone else was
  // served — either coalesced onto the in-flight leader or a plain hit.
  EXPECT_EQ(engine_runs, 2) << "duplicate solves ran their own engines";
  EXPECT_EQ(served, static_cast<long>(ptrs.size()) - 2);
  const CacheStats cs = drv.cacheStats();
  EXPECT_EQ(cs.insertions, 2);
  EXPECT_EQ(cs.hits, static_cast<long>(ptrs.size()) - 2);
  EXPECT_EQ(cs.coalesced, coalesced);
}

TEST(DriverCache, ConcurrentMixedSolvesStressTheStoreAndFlightTable) {
  // Hammer one shared cache from several threads mixing duplicates, near
  // misses (same structure, different budget) and distinct problems; the
  // store must stay internally consistent and every unique exact-budget key
  // must run its engine exactly once across the whole stress.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  std::vector<model::FloorplanProblem> problems;
  problems.push_back(twoRegionProblem(dev));
  problems.push_back(twoRegionProblem(dev));
  problems.back().addNet(model::Net{{0, 1}, 2.0, "x"});
  problems.push_back(twoRegionProblem(dev));
  problems.back().addNet(model::Net{{0, 1}, 3.0, "y"});

  const Driver drv;
  std::atomic<long> engine_runs{0};
  const auto hammer = [&](int tid) {
    for (int round = 0; round < 6; ++round) {
      SolveRequest req;
      req.backend = Backend::kSearch;
      const auto& p = problems[static_cast<std::size_t>((tid + round) % 3)];
      const SolveResponse r = drv.solve(p, req);
      ASSERT_EQ(r.status, model::SolveStatus::kOptimal) << r.detail;
      EXPECT_EQ(model::check(p, r.plan), "");
      if (!r.cache_hit && !r.cache_seeded) engine_runs.fetch_add(1);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 6; ++t) pool.emplace_back(hammer, t);
  for (std::thread& t : pool) t.join();

  // 3 unique fingerprints, 36 total solves: the flight table plus the store
  // guarantee one cold engine run per fingerprint, not one per thread.
  EXPECT_EQ(engine_runs.load(), 3);
  const CacheStats cs = drv.cacheStats();
  EXPECT_EQ(cs.insertions, 3);
  // One hit per served solve (a coalesced follower's first lookup counts a
  // miss, its post-landing re-lookup the hit — so misses is 3 plus however
  // many followers looked up before their leader landed).
  EXPECT_EQ(cs.hits, 6 * 6 - 3);
  EXPECT_GE(cs.misses, 3);
  EXPECT_EQ(cs.rejected, 0);
}

/// twoRegionProblem plus a third region and net on the same 8-column
/// device: every backend finds a plan, and MILP branches.
model::FloorplanProblem threeRegionChain(const device::Device& dev) {
  model::FloorplanProblem p = twoRegionProblem(dev);
  model::RegionSpec c;
  c.name = "c";
  c.tiles = {3, 0, 0};
  p.addRegion(c);
  p.addNet(model::Net{{1, 2}, 2.0, "m"});
  return p;
}

TEST(DriverTelemetry, RegistryTotalsMatchTheResponseForEveryBackend) {
  // The live registry and the response come from one fold point per
  // engine, so their totals agree exactly for every backend and thread
  // count: the node counter of the backend that ran, and every lp.* counter.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem chain = threeRegionChain(dev);
  // SDR's MILP-O tree declines dual attempts within its first ten nodes,
  // so the declined-attempt fold is covered too.
  const device::Device v5 = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(v5);
  struct Case {
    const model::FloorplanProblem* problem;
    Backend backend;
    const char* node_counter;  ///< null: the backend counts no nodes
    long milp_node_limit;
  };
  const Case cases[] = {
      {&chain, Backend::kSearch, "search.nodes", 0},
      {&chain, Backend::kMilpO, "milp.nodes", 200},  // truncated trees agree too
      {&chain, Backend::kMilpHO, "milp.nodes", 200},
      {&chain, Backend::kAnnealer, "annealer.iterations", 0},
      {&chain, Backend::kHeuristic, nullptr, 0},
      {&sdr, Backend::kMilpO, "milp.nodes", 10},
  };
  const Driver drv;
  for (const Case& c : cases) {
    for (const int threads : {1, 2}) {
      SCOPED_TRACE(std::string(toString(c.backend)) + " on " +
                   std::to_string(c.problem->numRegions()) + " regions at " +
                   std::to_string(threads) + " threads");
      telemetry::MetricsRegistry reg;
      telemetry::Context ctx;
      ctx.metrics = &reg;
      SolveRequest req;
      req.backend = c.backend;
      req.num_threads = threads;
      req.use_cache = false;
      req.telemetry = &ctx;
      req.deadline_seconds = 60.0;
      req.milp.milp.node_limit = c.milp_node_limit;
      req.annealer.iterations = 20000;
      const SolveResponse res = drv.solve(*c.problem, req);
      ASSERT_TRUE(res.hasSolution()) << res.detail;
      for (const char* name : {"search.nodes", "milp.nodes", "annealer.iterations"}) {
        const bool ran = c.node_counter != nullptr && std::string(name) == c.node_counter;
        EXPECT_EQ(reg.counter(name).total(), ran ? res.nodes : 0) << name;
      }
      if (c.node_counter == nullptr) {
        EXPECT_EQ(res.nodes, 0);
      }
      const bool milp = c.backend == Backend::kMilpO || c.backend == Backend::kMilpHO;
      EXPECT_EQ(res.lp.solves > 0, milp);
      for (const lp::LpCounterField& f : lp::kLpCounterFields)
        EXPECT_EQ(reg.counter(std::string("lp.") + f.name).total(), res.lp.*f.field) << f.name;
      long steals = 0;
      for (const WorkerStats& w : res.workers) steals += w.steals;
      EXPECT_EQ(reg.counter("search.steals").total() + reg.counter("milp.steals").total(),
                steals);
    }
  }

  // Incumbent adoptions reach the registry from every engine that adopts.
  // The search adopts a channel-seeded optimum at its root, and MILP-O takes
  // it as its warm start in place of the heuristic construction. MILP-O on
  // the weighted objective also polls for external incumbents at node
  // boundaries; without a channel, its poll hands over the search's optimum
  // in the formulation's encoding, which beats the heuristic warm start.
  model::FloorplanProblem weighted = chain;
  weighted.setLexicographic(false);
  const search::SearchResult best = search::ColumnarSearchSolver(
      search::SearchOptions{search::ObjectiveMode::kWeighted}).solve(weighted);
  ASSERT_EQ(best.status, model::SolveStatus::kOptimal);
  struct SeededCase {
    Backend backend;
    bool seeded_channel;  ///< false: seeded through the node-boundary poll
  };
  for (const SeededCase sc : {SeededCase{Backend::kSearch, true},
                              SeededCase{Backend::kMilpO, false},
                              SeededCase{Backend::kMilpO, true}}) {
    const Backend backend = sc.backend;
    SCOPED_TRACE(std::string("seeded ") + toString(backend) +
                 (sc.seeded_channel ? " through its channel" : " through its poll"));
    telemetry::MetricsRegistry reg;
    telemetry::Context ctx;
    ctx.metrics = &reg;
    SolveRequest req;
    req.telemetry = &ctx;
    SharedIncumbent channel(weighted);
    ASSERT_TRUE(channel.publish(best.plan, best.costs, "test"));
    if (!sc.seeded_channel) {
      const auto part = partition::columnarPartition(dev);
      fp::FormulationOptions fopt;
      fopt.objective = fp::ObjectiveKind::kWeighted;
      const std::vector<double> x = fp::MilpFormulation(weighted, *part, fopt).encode(best.plan);
      req.milp.milp.incumbent_poll = [x, sent = false]() mutable
          -> std::optional<std::vector<double>> {
        if (sent) return std::nullopt;
        sent = true;
        return x;
      };
    }
    const SolveResponse res = detail::runBackend(weighted, req, backend, nullptr,
                                                 sc.seeded_channel ? &channel : nullptr);
    ASSERT_TRUE(res.hasSolution()) << res.detail;
    EXPECT_EQ(res.exchange.adopted, 1) << res.detail;
    EXPECT_EQ(reg.counter("incumbent.adoptions").total(), res.exchange.adopted);
  }
}

TEST(DriverTelemetry, MilpBackendsCountEveryPublishTheyMake) {
  // MILP-O and MILP-HO publish their heuristic construction and then branch
  // & bound's improvements; the response counts each publish call once.
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem chain = threeRegionChain(dev);
  for (const Backend backend : {Backend::kMilpO, Backend::kMilpHO}) {
    SCOPED_TRACE(toString(backend));
    SharedIncumbent channel(chain);
    SolveRequest req;
    req.deadline_seconds = 60.0;
    req.milp.milp.node_limit = 200;
    const SolveResponse res = detail::runBackend(chain, req, backend, nullptr, &channel);
    ASSERT_TRUE(res.hasSolution()) << res.detail;
    EXPECT_GE(res.exchange.published, 1);
    EXPECT_EQ(res.exchange.published, channel.publishes());
  }
}

/// Every object key and every scalar value of a compact JSON document, by
/// path: "" is the top level, "incumbent" the object under that key, and
/// "workers[]" the elements of that array; a value is listed under its
/// path and key ("workers[].steals"), raw, in document order.
struct JsonSurface {
  std::map<std::string, std::set<std::string>> keys;
  std::map<std::string, std::vector<std::string>> values;
};

JsonSurface jsonSurface(const std::string& json) {
  JsonSurface out;
  std::vector<std::string> paths;  // one per open container
  std::vector<bool> in_object;
  std::string key;
  const auto child = [&](const std::string& k) {
    if (paths.empty()) return std::string();
    if (!in_object.back()) return paths.back() + "[]";
    return paths.back().empty() ? k : paths.back() + "." + k;
  };
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{' || c == '[') {
      paths.push_back(child(key));
      in_object.push_back(c == '{');
    } else if (c == '}' || c == ']') {
      paths.pop_back();
      in_object.pop_back();
    } else if (c == '"' || c == '-' || std::isalnum(static_cast<unsigned char>(c))) {
      std::string token;
      if (c == '"') {
        for (++i; json[i] != '"'; ++i) token += json[i] == '\\' ? json[++i] : json[i];
      } else {
        for (; i < json.size() && std::string(",}]").find(json[i]) == std::string::npos; ++i)
          token += json[i];
        --i;
      }
      if (in_object.back() && i + 1 < json.size() && json[i + 1] == ':') {
        key = token;
        out.keys[paths.back()].insert(key);
      } else {
        out.values[in_object.back() ? child(key) : paths.back() + "[]"].push_back(token);
      }
    }
  }
  return out;
}

double jsonNumber(const JsonSurface& s, const std::string& path, std::size_t i = 0) {
  const auto it = s.values.find(path);
  return it == s.values.end() || i >= it->second.size() ? -1.0 : std::stod(it->second[i]);
}

TEST(DriverOutput, LpKeysAreTheNameTableAndTheValuesTheResponses) {
  // The lp.* surface as it was before one name table emitted it: the
  // metrics map's keys (under "lp.") and the JSON "lp" object's keys, which
  // also carried the engine name. Only "engine" may leave the JSON.
  const std::set<std::string> metric_keys = {
      "solves",        "iterations",   "warm_start_hits", "warm_start_hit_rate",
      "refactorizations", "primal_pivots", "dual_pivots", "bound_flips",
      "ft_updates",    "dual_reopts",  "dual_reopt_rate", "ftran_sparse",
      "ftran_dense",   "btran_sparse", "btran_dense",     "dse_updates",
      "sparse_solve_rate"};
  const std::set<std::string> parent_json_keys = {
      "engine",        "solves",       "iterations",      "refactorizations",
      "warm_start_hits", "warm_start_hit_rate", "primal_pivots", "dual_pivots",
      "bound_flips",   "ft_updates",   "dual_reopts",     "dual_reopt_rate",
      "ftran_sparse",  "ftran_dense",  "btran_sparse",    "btran_dense",
      "dse_updates",   "sparse_solve_rate"};
  std::set<std::string> json_keys = parent_json_keys;
  json_keys.erase("engine");
  std::set<std::string> table;
  for (const lp::LpCounterField& f : lp::kLpCounterFields) table.insert(f.name);
  for (const lp::LpRateField& r : lp::kLpRates) table.insert(r.name);
  EXPECT_EQ(table, metric_keys);

  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = threeRegionChain(dev);
  SolveRequest req;
  req.backend = Backend::kMilpO;
  req.deadline_seconds = 60.0;
  req.milp.milp.node_limit = 200;
  const SolveResponse res = Driver().solve(p, req);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  ASSERT_GT(res.lp.solves, 0);
  std::map<std::string, double> expected;
  for (const lp::LpCounterField& f : lp::kLpCounterFields)
    expected[f.name] = static_cast<double>(res.lp.*f.field);
  for (const lp::LpRateField& r : lp::kLpRates) expected[r.name] = (res.lp.*r.rate)();

  std::map<std::string, double> metrics;
  for (const auto& [name, value] : res.metrics)
    if (name.rfind("lp.", 0) == 0) metrics[name.substr(3)] = value;
  const JsonSurface json = jsonSurface(solveResponseToJson(p, res));
  std::set<std::string> got_metric_keys;
  for (const auto& kv : metrics) got_metric_keys.insert(kv.first);
  EXPECT_EQ(got_metric_keys, metric_keys);
  EXPECT_EQ(json.keys.at("lp"), json_keys);
  for (const auto& [name, value] : expected) {
    EXPECT_DOUBLE_EQ(metrics[name], value) << name;
    // The JSON writer prints six significant digits.
    EXPECT_NEAR(jsonNumber(json, "lp." + name), value, 1e-5 * std::max(1.0, std::abs(value)))
        << name;
  }
}

TEST(DriverOutput, ResponseSurfaceIsPinned) {
  // The response's JSON and metrics surface, recorded before the engines'
  // common outcome was declared once: key sets of the top level, workers[],
  // portfolio[] and incumbent objects and of the metrics map, the status
  // strings, and the exchange and worker values against the response.
  EXPECT_STREQ(toString(model::SolveStatus::kOptimal), "optimal");
  EXPECT_STREQ(toString(model::SolveStatus::kFeasible), "feasible");
  EXPECT_STREQ(toString(model::SolveStatus::kInfeasible), "infeasible");
  EXPECT_STREQ(toString(model::SolveStatus::kNoSolution), "no-solution");

  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  const model::FloorplanProblem p = threeRegionChain(dev);
  const Driver drv;
  const std::set<std::string> worker_keys = {"id", "nodes", "steals", "stolen", "idle_seconds"};
  std::set<std::string> lp_metrics;
  for (const lp::LpCounterField& f : lp::kLpCounterFields)
    lp_metrics.insert(std::string("lp.") + f.name);
  for (const lp::LpRateField& r : lp::kLpRates) lp_metrics.insert(std::string("lp.") + r.name);

  /// Worker values in the JSON equal the response's, their steals add up
  /// to the top-level and metrics totals, and the listing needs two workers.
  const auto checkWorkers = [](const SolveResponse& res, const JsonSurface& s) {
    ASSERT_EQ(s.values.at("workers[].id").size(), res.workers.size());
    long steals = 0;
    for (std::size_t i = 0; i < res.workers.size(); ++i) {
      EXPECT_EQ(jsonNumber(s, "workers[].id", i), res.workers[i].id);
      EXPECT_EQ(jsonNumber(s, "workers[].nodes", i), res.workers[i].nodes);
      EXPECT_EQ(jsonNumber(s, "workers[].steals", i), res.workers[i].steals);
      steals += res.workers[i].steals;
    }
    EXPECT_GT(res.workers.size(), 1u);
    EXPECT_EQ(jsonNumber(s, "steals"), steals);
    EXPECT_EQ(res.metrics.at("steals"), steals);
    EXPECT_EQ(res.metrics.at("workers"), static_cast<double>(res.workers.size()));
  };
  const auto metricKeys = [](const SolveResponse& res) {
    std::set<std::string> keys;
    for (const auto& kv : res.metrics) keys.insert(kv.first);
    return keys;
  };

  {
    SCOPED_TRACE("search at 2 threads");
    SolveRequest req;
    req.backend = Backend::kSearch;
    req.num_threads = 2;
    req.use_cache = false;
    const SolveResponse res = drv.solve(p, req);
    ASSERT_EQ(res.status, model::SolveStatus::kOptimal) << res.detail;
    const JsonSurface s = jsonSurface(solveResponseToJson(p, res));
    EXPECT_EQ(s.keys.at(""), (std::set<std::string>{"status", "backend", "seconds", "served_by",
                                                    "nodes", "steals", "workers", "metrics",
                                                    "detail", "floorplan"}));
    EXPECT_EQ(s.keys.at("workers[]"), worker_keys);
    EXPECT_EQ(metricKeys(res), (std::set<std::string>{"nodes", "seconds", "steals", "workers"}));
    checkWorkers(res, s);
    EXPECT_EQ(s.values.at("status").front(), "optimal");
  }
  {
    SCOPED_TRACE("MILP-O at 2 deterministic threads");
    SolveRequest req;
    req.backend = Backend::kMilpO;
    req.num_threads = 2;
    req.use_cache = false;
    req.milp.milp.deterministic = true;
    req.milp.milp.node_limit = 200;
    const SolveResponse res = drv.solve(p, req);
    ASSERT_TRUE(res.hasSolution()) << res.detail;
    const JsonSurface s = jsonSurface(solveResponseToJson(p, res));
    EXPECT_EQ(s.keys.at(""), (std::set<std::string>{"status", "backend", "seconds", "served_by",
                                                    "nodes", "steals", "workers", "lp",
                                                    "metrics", "detail", "floorplan"}));
    std::set<std::string> milp_worker_keys = worker_keys;
    milp_worker_keys.insert({"lp_solves", "lp_warm_hits"});
    EXPECT_EQ(s.keys.at("workers[]"), milp_worker_keys);
    std::set<std::string> metrics = lp_metrics;
    metrics.insert({"nodes", "seconds", "steals", "workers"});
    EXPECT_EQ(metricKeys(res), metrics);
    checkWorkers(res, s);
    long lp_solves = 0;
    for (std::size_t i = 0; i < res.workers.size(); ++i)
      lp_solves += static_cast<long>(jsonNumber(s, "workers[].lp_solves", i));
    EXPECT_EQ(lp_solves, res.lp.solves);  // every LP, the root among them, runs in a worker
  }
  {
    SCOPED_TRACE("staged portfolio");
    SolveRequest req;
    req.portfolio = {Backend::kSearch, Backend::kAnnealer};
    req.deadline_seconds = 20.0;
    req.annealer.iterations = 2000;
    const SolveResponse res = drv.solvePortfolio(p, req);
    ASSERT_EQ(res.status, model::SolveStatus::kOptimal) << res.detail;
    ASSERT_TRUE(res.incumbent.staged) << res.detail;
    const JsonSurface s = jsonSurface(solveResponseToJson(p, res));
    EXPECT_EQ(s.keys.at(""), (std::set<std::string>{"status", "backend", "seconds", "served_by",
                                                    "nodes", "portfolio", "incumbent",
                                                    "metrics", "detail", "floorplan"}));
    EXPECT_EQ(s.keys.at("incumbent"),
              (std::set<std::string>{"source", "publishes", "adoptions", "cutoff_prunes",
                                     "staged", "stage1_seconds", "stage1_ended_early"}));
    // Member exchange counts are listed only when positive.
    std::set<std::string> member_keys = {"backend", "status", "stage", "seconds", "nodes"};
    ASSERT_EQ(res.members.size(), 2u);
    long published = 0, prunes = 0;
    for (const PortfolioMemberStats& m : res.members) {
      if (m.exchange.published > 0) member_keys.insert("published");
      if (m.exchange.adopted > 0) member_keys.insert("adopted");
      if (m.exchange.cutoff_prunes > 0) member_keys.insert("cutoff_prunes");
      published += m.exchange.published;
      prunes += m.exchange.cutoff_prunes;
    }
    EXPECT_EQ(s.keys.at("portfolio[]"), member_keys);
    EXPECT_GT(published, 0) << res.detail;  // the annealer published in stage 1
    EXPECT_EQ(static_cast<double>(prunes), jsonNumber(s, "incumbent.cutoff_prunes"));
    EXPECT_EQ(res.incumbent.cutoff_prunes, prunes);
    std::set<std::string> metrics = {"nodes", "seconds", "portfolio.publishes",
                                     "portfolio.adoptions", "portfolio.stage1_seconds",
                                     "portfolio.members"};
    // The search proves the optimum, so it wins; the metrics carry its own
    // exchange counts.
    ASSERT_EQ(res.backend, Backend::kSearch);
    const PortfolioMemberStats& won = res.members[0];
    if (won.exchange.published > 0 || won.exchange.adopted > 0 ||
        won.exchange.cutoff_prunes > 0) {
      metrics.insert({"incumbent.published", "incumbent.adopted", "incumbent.cutoff_prunes"});
      EXPECT_EQ(res.metrics.at("incumbent.published"), won.exchange.published);
      EXPECT_EQ(res.metrics.at("incumbent.adopted"), won.exchange.adopted);
      EXPECT_EQ(res.metrics.at("incumbent.cutoff_prunes"), won.exchange.cutoff_prunes);
    }
    EXPECT_EQ(metricKeys(res), metrics);
    EXPECT_EQ(res.metrics.at("portfolio.publishes"), res.incumbent.publishes);
    EXPECT_EQ(res.metrics.at("portfolio.adoptions"), res.incumbent.adoptions);
    EXPECT_EQ(jsonNumber(s, "incumbent.adoptions"), res.incumbent.adoptions);
    for (const char* path : {"status", "portfolio[].status"}) {
      for (const std::string& v : s.values.at(path)) {
        EXPECT_TRUE(v == "optimal" || v == "feasible" || v == "infeasible" ||
                    v == "no-solution")
            << v;
      }
    }
  }
}

}  // namespace
}  // namespace rfp::driver
