// Tests for the branch-and-bound MILP solver, including a brute-force
// cross-check on random binary programs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <optional>
#include <string>

#include "device/builders.hpp"
#include "fp/formulation.hpp"
#include "fp/milp_floorplanner.hpp"
#include "milp/bb.hpp"
#include "milp_oracle.hpp"
#include "oracle/generator.hpp"
#include "partition/columnar.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace rfp::milp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::Sense;
using lp::Var;
using testutil::bruteForceBest;

TEST(Milp, PureLpPassThrough) {
  Model m;
  const Var x = m.addContinuous(0, 4, "x");
  m.setObjective(LinExpr(x), ObjSense::kMaximize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.gap, 0.0, 1e-9);
}

TEST(Milp, KnapsackOptimal) {
  // max 60a+100b+120c st 10a+20b+30c <= 50 → b+c = 220.
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b"), c = m.addBinary("c");
  m.addConstr(10.0 * a + 20.0 * b + 30.0 * c, Sense::kLessEqual, 50);
  m.setObjective(60.0 * a + 100.0 * b + 120.0 * c, ObjSense::kMaximize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 220.0, 1e-6);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // min x st 3x >= 10, x integer → x=4.
  Model m;
  const Var x = m.addInteger(0, 100, "x");
  m.addConstr(3.0 * x, Sense::kGreaterEqual, 10);
  m.setObjective(LinExpr(x), ObjSense::kMinimize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(Milp, InfeasibleBinaryProgram) {
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b");
  m.addConstr(LinExpr(a) + b, Sense::kGreaterEqual, 3);
  const MipResult r = MilpSolver().solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x binary, y cont <= 3.7, x + y <= 4 → x=1, y=3 → 5... y<=3.7
  // and x+y<=4 → y<=3 when x=1: obj 5. vs x=0,y=3.7: 3.7. Optimal 5.
  Model m;
  const Var x = m.addBinary("x");
  const Var y = m.addContinuous(0, 3.7, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 4);
  m.setObjective(2.0 * x + y, ObjSense::kMaximize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(Milp, WarmStartAcceptedAsIncumbent) {
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b");
  m.addConstr(LinExpr(a) + b, Sense::kLessEqual, 1);
  m.setObjective(LinExpr(a) + 2.0 * b, ObjSense::kMaximize);
  // Warm start with the suboptimal a=1.
  const MipResult r = MilpSolver().solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);  // must still find b=1
}

TEST(Milp, NodeLimitReportsTruncation) {
  // A 14-item knapsack with a 1-node limit cannot be proven optimal. The
  // limit binds only pool picks, so the started plunge may finish: at most
  // plunge_depth nodes past the limit, at every thread count.
  Model m;
  LinExpr weight, value;
  Rng rng(5);
  for (int i = 0; i < 14; ++i) {
    const Var v = m.addBinary("v");
    weight += (1.0 + static_cast<double>(rng.nextBelow(9))) * v;
    value += (1.0 + static_cast<double>(rng.nextBelow(17))) * v;
  }
  m.addConstr(weight, Sense::kLessEqual, 20);
  m.setObjective(value, ObjSense::kMaximize);
  for (const int threads : {1, 4}) {
    MilpSolver::Options opt;
    opt.node_limit = 1;
    opt.threads = threads;
    const MipResult r = MilpSolver(opt).solve(m);
    EXPECT_TRUE(r.status == MipStatus::kFeasible || r.status == MipStatus::kNoSolution ||
                r.status == MipStatus::kOptimal)
        << threads << " threads";
    EXPECT_LE(r.nodes, 2 + opt.plunge_depth) << threads << " threads";
  }
}

TEST(Milp, EqualityConstrainedAssignment) {
  // 2x2 assignment: costs [[1, 10], [10, 1]] → diagonal, cost 2.
  Model m;
  std::vector<std::vector<Var>> x(2, std::vector<Var>(2));
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) x[i][j] = m.addBinary("x");
  for (int i = 0; i < 2; ++i) {
    m.addConstr(LinExpr(x[i][0]) + x[i][1], Sense::kEqual, 1);
    m.addConstr(LinExpr(x[0][i]) + x[1][i], Sense::kEqual, 1);
  }
  m.setObjective(1.0 * x[0][0] + 10.0 * x[0][1] + 10.0 * x[1][0] + 1.0 * x[1][1],
                 ObjSense::kMinimize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

// ---- brute-force cross-check property -------------------------------------

TEST(MilpProperty, MatchesBruteForceOnRandomBinaryPrograms) {
  // Every plunge depth must give exact answers: a plunge that stops at
  // plunge_depth with a child in hand must keep that child open, or the
  // run claims a false proof. Checked at one worker and at two
  // deterministic ones.
  struct Config {
    int plunge_depth;
    int threads;
  };
  const Config configs[] = {{0, 1}, {1, 1}, {64, 1}, {0, 2}, {1, 2}, {64, 2}};
  Rng rng(99);
  for (int trial = 0; trial < 80; ++trial) {
    const int n = 3 + static_cast<int>(rng.nextBelow(8));  // up to 10 binaries
    const int rows = 1 + static_cast<int>(rng.nextBelow(4));
    Model m;
    std::vector<Var> vars;
    for (int j = 0; j < n; ++j) vars.push_back(m.addBinary("b"));
    for (int i = 0; i < rows; ++i) {
      LinExpr e;
      for (int j = 0; j < n; ++j) {
        const long c = rng.nextInt(-4, 6);
        if (c != 0) e += static_cast<double>(c) * vars[static_cast<std::size_t>(j)];
      }
      const double rhs = static_cast<double>(rng.nextInt(0, 12));
      m.addConstr(e, rng.nextBool() ? Sense::kLessEqual : Sense::kGreaterEqual, rhs);
    }
    LinExpr obj;
    for (int j = 0; j < n; ++j)
      obj += static_cast<double>(rng.nextInt(-10, 10)) * vars[static_cast<std::size_t>(j)];
    const ObjSense sense = rng.nextBool() ? ObjSense::kMaximize : ObjSense::kMinimize;
    m.setObjective(obj, sense);

    const std::optional<double> expected = bruteForceBest(m);
    for (const Config& c : configs) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << ", plunge_depth "
                                      << c.plunge_depth << ", " << c.threads << " threads");
      MilpSolver::Options opt;
      opt.plunge_depth = c.plunge_depth;
      opt.threads = c.threads;
      opt.deterministic = c.threads > 1;
      const MipResult r = MilpSolver(opt).solve(m);
      if (!expected) {
        EXPECT_EQ(r.status, MipStatus::kInfeasible);
      } else {
        ASSERT_EQ(r.status, MipStatus::kOptimal);
        EXPECT_NEAR(r.objective, *expected, 1e-6);
        EXPECT_TRUE(m.isFeasible(r.x, 1e-6));
      }
    }
  }
}

// ---- work-stealing parallel engine ----------------------------------------

Model randomBinaryProgram(Rng& rng) {
  const int n = 6 + static_cast<int>(rng.nextBelow(9));  // up to 14 binaries
  const int rows = 2 + static_cast<int>(rng.nextBelow(4));
  Model m;
  std::vector<Var> vars;
  for (int j = 0; j < n; ++j) vars.push_back(m.addBinary("b"));
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) {
      const long c = rng.nextInt(-4, 6);
      if (c != 0) e += static_cast<double>(c) * vars[static_cast<std::size_t>(j)];
    }
    m.addConstr(e, rng.nextBool() ? Sense::kLessEqual : Sense::kGreaterEqual,
                static_cast<double>(rng.nextInt(0, 12)));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j)
    obj += static_cast<double>(rng.nextInt(-10, 10)) * vars[static_cast<std::size_t>(j)];
  m.setObjective(obj, rng.nextBool() ? ObjSense::kMaximize : ObjSense::kMinimize);
  return m;
}

TEST(MilpParallel, MatchesSequentialStatusAndObjective) {
  // The core parallel contract: thread count may change which optimal point
  // is returned, never the final status or objective.
  Rng rng(1234);
  for (int trial = 0; trial < 30; ++trial) {
    const Model m = randomBinaryProgram(rng);
    MilpSolver::Options seq;
    MilpSolver::Options par;
    par.threads = 8;
    const MipResult a = MilpSolver(seq).solve(m);
    const MipResult b = MilpSolver(par).solve(m);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.hasSolution()) {
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << "trial " << trial;
      EXPECT_TRUE(m.isFeasible(b.x, 1e-6)) << "trial " << trial;
    }
  }
}

TEST(MilpParallel, WorkerTelemetryAggregates) {
  // One entry per worker at every thread count, summing to the totals.
  Rng rng(7);
  const Model m = randomBinaryProgram(rng);
  for (const int threads : {1, 4}) {
    MilpSolver::Options opt;
    opt.threads = threads;
    const MipResult r = MilpSolver(opt).solve(m);
    ASSERT_EQ(r.workers.size(), static_cast<std::size_t>(threads));
    long nodes = 0;
    for (const WorkerStats& w : r.workers) nodes += w.nodes;
    EXPECT_EQ(nodes, r.nodes) << threads << " threads";
  }
}

TEST(MilpParallel, DeterministicReplayIsReproducible) {
  // Two deterministic runs must expand the identical tree: same node count,
  // same steal schedule, same replay digest, same answer.
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Model m = randomBinaryProgram(rng);
    MilpSolver::Options opt;
    opt.threads = 4;
    opt.deterministic = true;
    const MipResult a = MilpSolver(opt).solve(m);
    const MipResult b = MilpSolver(opt).solve(m);
    EXPECT_EQ(a.replay_hash, b.replay_hash) << "trial " << trial;
    EXPECT_NE(a.replay_hash, 0u) << "trial " << trial;
    EXPECT_EQ(a.nodes, b.nodes) << "trial " << trial;
    EXPECT_EQ(totalSteals(a.workers), totalSteals(b.workers)) << "trial " << trial;
    EXPECT_EQ(a.status, b.status) << "trial " << trial;
    if (a.hasSolution()) {
      EXPECT_NEAR(a.objective, b.objective, 1e-12) << "trial " << trial;
      EXPECT_EQ(a.x, b.x) << "trial " << trial;
    }
  }
}

TEST(MilpParallel, WarmStartSeedsSharedIncumbent) {
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b");
  m.addConstr(LinExpr(a) + b, Sense::kLessEqual, 1);
  m.setObjective(LinExpr(a) + 2.0 * b, ObjSense::kMaximize);
  MilpSolver::Options opt;
  opt.threads = 2;
  const MipResult r = MilpSolver(opt).solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

// ---- cold root, warm tree ---------------------------------------------------

/// Three knapsack rows over 16 binaries with correlated weights: the root LP
/// is fractional on every row, so the solve branches.
Model threeRowKnapsack() {
  Model m;
  Rng rng(2024);
  std::vector<Var> items;
  for (int j = 0; j < 16; ++j) items.push_back(m.addBinary("item"));
  LinExpr value;
  for (int row = 0; row < 3; ++row) {
    LinExpr weight;
    double total = 0.0;
    for (const Var v : items) {
      const double w = 5.0 + static_cast<double>(rng.nextBelow(20));
      weight += w * v;
      total += w;
    }
    m.addConstr(weight, Sense::kLessEqual, std::floor(total * 0.3));
  }
  for (const Var v : items) value += (10.0 + static_cast<double>(rng.nextBelow(30))) * v;
  m.setObjective(value, ObjSense::kMaximize);
  return m;
}

/// Root-only solve (no plunge below the first node): lp.solves counts the
/// root LP alone.
MipResult solveRootOnly(const Model& m, MilpSolver::Options opt) {
  opt.node_limit = 1;
  opt.plunge_depth = 0;
  return MilpSolver(opt).solve(m);
}

void expectSameAnswerAsColdPath(const Model& m, const MilpSolver::Options& warm_opt) {
  MilpSolver::Options cold_opt = warm_opt;
  cold_opt.lp_warm_start = false;
  const MipResult warm = MilpSolver(warm_opt).solve(m);
  const MipResult cold = MilpSolver(cold_opt).solve(m);
  EXPECT_EQ(cold.lp.warm_start_hits, 0);
  ASSERT_EQ(warm.status, cold.status);
  if (warm.hasSolution()) {
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
    EXPECT_TRUE(m.isFeasible(warm.x, 1e-6));
  }
}

TEST(MilpWarmRoot, ParallelDeterministicSolveReplays) {
  const Model m = threeRowKnapsack();
  for (const int threads : {2, 4}) {
    MilpSolver::Options opt;
    opt.threads = threads;
    opt.deterministic = true;
    const MipResult a = MilpSolver(opt).solve(m);
    const MipResult b = MilpSolver(opt).solve(m);
    EXPECT_EQ(a.replay_hash, b.replay_hash) << threads << " threads";
    EXPECT_EQ(a.nodes, b.nodes) << threads << " threads";
  }
}

/// A model without integer variables: MilpSolver solves it as one LP.
Model pureLp() {
  Model m;
  const Var x = m.addContinuous(0, 3, "x");
  const Var y = m.addContinuous(0, 5, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 4);
  m.addConstr(LinExpr(x) + 3.0 * y, Sense::kLessEqual, 6);
  m.setObjective(3.0 * x + 2.0 * y, ObjSense::kMaximize);
  return m;
}

TEST(MilpWarmRoot, RegistryTotalsMatchTheResult) {
  // Every LP — the root, nodes, declined dual attempts and the pure-LP
  // path — must reach the live registry too, not only the result.
  for (const Model& m : {threeRowKnapsack(), pureLp()}) {
    for (const int threads : {1, 2}) {
      SCOPED_TRACE(std::to_string(m.numVars()) + " vars, " + std::to_string(threads) +
                   " threads");
      telemetry::MetricsRegistry reg;
      telemetry::Context ctx;
      ctx.metrics = &reg;
      MilpSolver::Options opt;
      opt.threads = threads;
      opt.telemetry = &ctx;
      const MipResult r = MilpSolver(opt).solve(m);
      ASSERT_EQ(r.status, MipStatus::kOptimal);
      ASSERT_GT(r.lp.solves, 0);
      for (const lp::LpCounterField& f : lp::kLpCounterFields)
        EXPECT_EQ(reg.counter(std::string("lp.") + f.name).total(), r.lp.*f.field) << f.name;
      EXPECT_EQ(reg.counter("milp.nodes").total(), r.nodes);
    }
  }
}

TEST(MilpWarmRoot, FloorplanRootSolvesColdOnce) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 3);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 0}});
  p.addNet(model::Net{{0, 1}, 1.0, "n"});
  const fp::MilpFormulation formulation(p, *partition::columnarPartition(dev));
  const Model& m = formulation.model();

  const MipResult root = solveRootOnly(m, {});
  ASSERT_EQ(root.lp.solves, 1) << "the root LP, solved once";
  EXPECT_EQ(root.lp.warm_start_hits, 0);
  const MipResult full = MilpSolver().solve(m);
  EXPECT_EQ(full.lp.solves - full.lp.warm_start_hits, 1) << "exactly one cold LP per solve";
  expectSameAnswerAsColdPath(m, {});
}

TEST(MilpWarmRoot, AgreesWithColdPathOnPresolveKnapsacks) {
  // test_presolve's random-knapsack fixture shape: the warm tree
  // reproduces the cold path's answer.
  Rng rng(4242);
  int branched = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Model m;
    LinExpr weight_row, value;
    for (int i = 0; i < 10; ++i) {
      const Var x = m.addBinary();
      weight_row.addTerm(x, 1.0 + static_cast<double>(rng.nextBelow(9)));
      value.addTerm(x, 1.0 + static_cast<double>(rng.nextBelow(20)));
    }
    m.addConstr(weight_row, Sense::kLessEqual, 17);
    m.setObjective(value, ObjSense::kMaximize);
    SCOPED_TRACE(trial);
    const MipResult warm = MilpSolver().solve(m);
    if (warm.nodes > 1) {
      ++branched;
      EXPECT_GT(warm.lp.warm_start_hits, 0);  // children start warm
    }
    expectSameAnswerAsColdPath(m, {});
  }
  EXPECT_GT(branched, 0);
}

TEST(MilpWarmRoot, PresolveInfeasibleReportsRootTime) {
  Model m;
  const Var x = m.addInteger(3, 10, "x");
  const Var y = m.addInteger(3, 10, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 5);
  m.setObjective(LinExpr(x), ObjSense::kMinimize);
  const MipResult res = MilpSolver().solve(m);
  EXPECT_EQ(res.status, MipStatus::kInfeasible);
  EXPECT_EQ(res.lp.solves, 0);  // presolve proved it: no LP ran
  EXPECT_GT(res.seconds, 0.0);
}

/// The pinned work of one single-threaded solve: its answer, its tree size
/// and every LP counter (in kLpCounterFields order). The LP layer's
/// tolerances, factorization settings and refactorization cap all steer
/// these numbers, so a change to any of them shows up here; a change that
/// alters the work on purpose re-records the pins and says why.
struct PinnedMilpWork {
  std::string status;
  double objective;
  long nodes;
  std::array<long, lp::kLpCounterFields.size()> lp;
};

void expectMilpWork(const std::string& status, double objective, long nodes,
                    const lp::LpCounters& lp, const PinnedMilpWork& want) {
  EXPECT_EQ(status, want.status);
  EXPECT_DOUBLE_EQ(objective, want.objective);
  EXPECT_EQ(nodes, want.nodes);
  for (std::size_t i = 0; i < lp::kLpCounterFields.size(); ++i)
    EXPECT_EQ(lp.*lp::kLpCounterFields[i].field, want.lp[i]) << lp::kLpCounterFields[i].name;
}

/// MILP-O (the paper's formulation, Eq. 14 objective or lexicographic) on
/// one worker.
void expectMilpOWork(const model::FloorplanProblem& p, bool lexicographic, long node_limit,
                     const PinnedMilpWork& want) {
  model::FloorplanProblem q = p;
  q.setLexicographic(lexicographic);
  fp::MilpFloorplannerOptions opt;
  opt.algorithm = fp::Algorithm::kO;
  opt.milp.node_limit = node_limit;
  const fp::FpResult res = fp::MilpFloorplanner(opt).solve(q);
  expectMilpWork(model::toString(res.status), res.costs.objective, res.nodes, res.lp, want);
}

model::FloorplanProblem generatedProblem(const device::Device& dev, int regions, double slack,
                                         int fc, std::uint64_t seed) {
  model::GeneratorOptions g;
  g.num_regions = regions;
  g.max_region_width = 4;
  g.max_region_height = 3;
  g.requirement_slack = slack;
  g.fc_per_region = fc;
  g.seed = seed;
  std::optional<model::FloorplanProblem> p = model::generateProblem(dev, g);
  RFP_CHECK(p.has_value());
  return *std::move(p);
}

TEST(MilpSolver, WorkIsUnchanged) {
  {
    // Both lexicographic stages proved: warm dual dives under a cold root.
    SCOPED_TRACE("two regions, lexicographic");
    const device::Device dev = device::columnarFromPattern("t", "CCBCC", 3);
    model::FloorplanProblem p(&dev);
    p.addRegion(model::RegionSpec{"a", {2, 1, 0}});
    p.addRegion(model::RegionSpec{"b", {2, 0, 0}});
    p.addNet(model::Net{{0, 1}, 1.0, "n"});
    expectMilpOWork(p, true, 0,
                    {"optimal", 0.1875, 198,
                     {198, 1482, 196, 147, 49, 1183, 61, 1232, 196, 99, 2749, 1113, 608, 1232}});
  }
  {
    // A dive the dual engine gives up on: one primal fallback.
    SCOPED_TRACE("primal fallback");
    const device::Device dev = device::columnarFromPattern("f", "CBCDCCBCDCB", 4);
    expectMilpOWork(generatedProblem(dev, 2, 0.2, 0, 18), true, 60,
                    {"feasible", 0.2, 61,
                     {61, 1788, 59, 36, 259, 1457, 229, 1716, 58, 179, 3291, 1603, 729, 1716}});
  }
  {
    // milp-root's shape (three regions, one FC area, Eq. 14 objective;
    // 6.8k rows): a cold root long enough to hit the refactorization cap,
    // then a short tree.
    SCOPED_TRACE("three regions, one FC area");
    const device::Device dev = device::columnarFromPattern("w", "CBCDCCBCDCB", 6);
    expectMilpOWork(generatedProblem(dev, 3, 0.2, 1, 1), false, 20,
                    {"feasible", 0.16289592760180996, 20,
                     {20, 1265, 19, 19, 416, 824, 59, 1240, 19, 290, 1874, 1463, 630, 1224}});
  }
}

}  // namespace
}  // namespace rfp::milp
