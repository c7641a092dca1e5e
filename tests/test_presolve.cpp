// Presolve: activity-based bound tightening, integer rounding, infeasibility
// detection, and knapsack cover-cut separation; plus the branch & bound
// (presolve at its root) against a brute-force oracle.
#include <gtest/gtest.h>

#include <optional>

#include "lp/model.hpp"
#include "milp/bb.hpp"
#include "milp/presolve.hpp"
#include "milp_oracle.hpp"
#include "support/rng.hpp"

namespace rfp::milp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::Var;

std::pair<std::vector<double>, std::vector<double>> bounds(const Model& m) {
  std::vector<double> lb, ub;
  for (int j = 0; j < m.numVars(); ++j) {
    lb.push_back(m.var(j).lb);
    ub.push_back(m.var(j).ub);
  }
  return {lb, ub};
}

TEST(Presolve, TightensUpperBoundFromLeRow) {
  Model m;
  const Var x = m.addContinuous(0, 100, "x");
  const Var y = m.addContinuous(2, 100, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 10);
  auto [lb, ub] = bounds(m);
  const PresolveResult r = tightenBounds(m, lb, ub);
  EXPECT_FALSE(r.infeasible);
  EXPECT_NEAR(ub[static_cast<std::size_t>(x.index)], 8.0, 1e-9);   // 10 - lb(y)
  EXPECT_NEAR(ub[static_cast<std::size_t>(y.index)], 10.0, 1e-9);  // 10 - lb(x)
  EXPECT_GE(r.tightened_bounds, 2);
}

TEST(Presolve, TightensLowerBoundFromGeRow) {
  Model m;
  const Var x = m.addContinuous(0, 10, "x");
  const Var y = m.addContinuous(0, 3, "y");
  m.addConstr(LinExpr(x) + y, Sense::kGreaterEqual, 8);
  auto [lb, ub] = bounds(m);
  (void)tightenBounds(m, lb, ub);
  EXPECT_NEAR(lb[static_cast<std::size_t>(x.index)], 5.0, 1e-9);  // 8 - ub(y)
}

TEST(Presolve, NegativeCoefficientTightensLowerBound) {
  Model m;
  const Var x = m.addContinuous(0, 100, "x");
  const Var y = m.addContinuous(0, 4, "y");
  // -x + y <= -6  →  x >= y + 6 >= 6.
  m.addConstr(-1.0 * LinExpr(x) + y, Sense::kLessEqual, -6);
  auto [lb, ub] = bounds(m);
  (void)tightenBounds(m, lb, ub);
  EXPECT_NEAR(lb[static_cast<std::size_t>(x.index)], 6.0, 1e-9);
}

TEST(Presolve, RoundsIntegerBoundsInward) {
  Model m;
  const Var x = m.addInteger(0, 10, "x");
  m.addConstr(2.0 * LinExpr(x), Sense::kLessEqual, 7);  // x <= 3.5 → 3
  auto [lb, ub] = bounds(m);
  (void)tightenBounds(m, lb, ub);
  EXPECT_DOUBLE_EQ(ub[0], 3.0);
}

TEST(Presolve, IteratesToAFixedPoint) {
  Model m;
  const Var x = m.addContinuous(0, 100, "x");
  const Var y = m.addContinuous(0, 100, "y");
  m.addConstr(LinExpr(x), Sense::kLessEqual, 10);
  m.addConstr(LinExpr(y) - x, Sense::kLessEqual, 0);  // y <= x <= 10
  auto [lb, ub] = bounds(m);
  const PresolveResult r = tightenBounds(m, lb, ub);
  EXPECT_NEAR(ub[1], 10.0, 1e-9);
  EXPECT_GE(r.rounds, 2);
}

TEST(Presolve, DetectsInfeasibleRow) {
  Model m;
  const Var x = m.addContinuous(5, 10, "x");
  const Var y = m.addContinuous(5, 10, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 4);  // min activity 10 > 4
  auto [lb, ub] = bounds(m);
  const PresolveResult r = tightenBounds(m, lb, ub);
  EXPECT_TRUE(r.infeasible);
  EXPECT_FALSE(r.detail.empty());
}

TEST(Presolve, EqualityTightensBothDirections) {
  Model m;
  const Var x = m.addContinuous(0, 100, "x");
  const Var y = m.addContinuous(1, 2, "y");
  m.addConstr(LinExpr(x) + y, Sense::kEqual, 10);
  auto [lb, ub] = bounds(m);
  (void)tightenBounds(m, lb, ub);
  EXPECT_NEAR(ub[0], 9.0, 1e-9);  // 10 - lb(y)
  EXPECT_NEAR(lb[0], 8.0, 1e-9);  // 10 - ub(y)
}

TEST(Presolve, BigMRowUntouchedUntilBinaryFixes) {
  // x <= 2 + 100·b: with b free, ub(x) stays; with b fixed to 0 it drops.
  Model m;
  const Var x = m.addContinuous(0, 50, "x");
  const Var b = m.addBinary("b");
  m.addConstr(LinExpr(x) - 100.0 * LinExpr(b), Sense::kLessEqual, 2);
  {
    auto [lb, ub] = bounds(m);
    (void)tightenBounds(m, lb, ub);
    EXPECT_DOUBLE_EQ(ub[0], 50.0);
  }
  {
    auto [lb, ub] = bounds(m);
    ub[static_cast<std::size_t>(b.index)] = 0.0;  // branch b := 0
    (void)tightenBounds(m, lb, ub);
    EXPECT_NEAR(ub[0], 2.0, 1e-9);
  }
}

// ---- cover cuts --------------------------------------------------------------

TEST(CoverCuts, SeparatesAViolatedMinimalCover) {
  // 3x1 + 3x2 + 3x3 <= 5 over binaries; LP point (0.8, 0.8, 0.2) satisfies
  // the row (5.4 > 5? no: 3·1.8=5.4 — violates the row; use a feasible
  // fractional point instead): (0.8, 0.8, 0.03) → 4.89 <= 5 feasible, but
  // any two variables form a cover (6 > 5) with x1 + x2 <= 1 violated at
  // 1.6.
  Model m;
  const Var x1 = m.addBinary("x1");
  const Var x2 = m.addBinary("x2");
  const Var x3 = m.addBinary("x3");
  m.addConstr(3.0 * LinExpr(x1) + 3.0 * LinExpr(x2) + 3.0 * LinExpr(x3),
              Sense::kLessEqual, 5);
  const std::vector<double> x{0.8, 0.8, 0.03};
  const std::vector<CoverCut> cuts = separateCoverCuts(m, x);
  ASSERT_FALSE(cuts.empty());
  const CoverCut& cut = cuts.front();
  EXPECT_EQ(cut.vars.size(), 2u);
  EXPECT_DOUBLE_EQ(cut.rhs, 1.0);
  EXPECT_NEAR(cut.violation, 0.6, 1e-9);
}

TEST(CoverCuts, NoCutWhenPointIsIntegral) {
  Model m;
  const Var x1 = m.addBinary("x1");
  const Var x2 = m.addBinary("x2");
  m.addConstr(3.0 * LinExpr(x1) + 3.0 * LinExpr(x2), Sense::kLessEqual, 5);
  EXPECT_TRUE(separateCoverCuts(m, std::vector<double>{1.0, 0.0}).empty());
}

TEST(CoverCuts, SkipsNonKnapsackRows) {
  Model m;
  const Var x = m.addBinary("x");
  const Var y = m.addContinuous(0, 5, "y");  // continuous → not a knapsack
  m.addConstr(2.0 * LinExpr(x) + y, Sense::kLessEqual, 2);
  const Var z = m.addBinary("z");
  m.addConstr(2.0 * LinExpr(z) - LinExpr(x), Sense::kLessEqual, 1);  // negative coef
  EXPECT_TRUE(separateCoverCuts(m, std::vector<double>{0.9, 4.0, 0.9}).empty());
}

TEST(CoverCuts, CutsNeverExcludeIntegerFeasiblePoints) {
  // Any 0/1 point satisfying the knapsack satisfies every separated cover
  // inequality (validity).
  Model m;
  std::vector<Var> xs;
  const std::vector<double> w{4, 3, 5, 2, 6};
  LinExpr row;
  for (std::size_t i = 0; i < w.size(); ++i) {
    xs.push_back(m.addBinary());
    row += w[i] * LinExpr(xs.back());
  }
  m.addConstr(row, Sense::kLessEqual, 9);

  const std::vector<double> frac{0.9, 0.8, 0.7, 0.6, 0.5};
  const std::vector<CoverCut> cuts = separateCoverCuts(m, frac, 64, 1e-9);
  for (int mask = 0; mask < (1 << 5); ++mask) {
    double weight = 0;
    for (int i = 0; i < 5; ++i)
      if (mask & (1 << i)) weight += w[static_cast<std::size_t>(i)];
    if (weight > 9) continue;  // not feasible for the row
    for (const CoverCut& cut : cuts) {
      int lhs = 0;
      for (const int j : cut.vars) lhs += (mask >> j) & 1;
      EXPECT_LE(lhs, static_cast<int>(cut.rhs) + 0) << "mask " << mask;
    }
  }
}

// ---- branch & bound against brute force ---------------------------------------

TEST(MilpFeatures, MatchesBruteForceOnRandomKnapsacks) {
  Rng rng(99);
  for (int trial = 0; trial < 12; ++trial) {
    Model m;
    LinExpr weight_row, value;
    const int n = 8;
    for (int i = 0; i < n; ++i) {
      const Var x = m.addBinary();
      weight_row += (1.0 + static_cast<double>(rng.nextBelow(9))) * LinExpr(x);
      value += (1.0 + static_cast<double>(rng.nextBelow(20))) * LinExpr(x);
    }
    m.addConstr(weight_row, Sense::kLessEqual, 15);
    m.setObjective(value, lp::ObjSense::kMaximize);

    const std::optional<double> expected = testutil::bruteForceBest(m);
    ASSERT_TRUE(expected.has_value()) << "trial " << trial;
    const MipResult res = MilpSolver().solve(m);
    ASSERT_EQ(res.status, MipStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(res.objective, *expected, 1e-6) << "trial " << trial;
  }
}

TEST(MilpFeatures, PresolveProvesInfeasibilityWithoutSearch) {
  Model m;
  const Var x = m.addInteger(3, 10, "x");
  const Var y = m.addInteger(3, 10, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 5);
  m.setObjective(LinExpr(x), lp::ObjSense::kMinimize);
  const MipResult res = MilpSolver().solve(m);
  EXPECT_EQ(res.status, MipStatus::kInfeasible);
  EXPECT_EQ(res.nodes, 0);
}

}  // namespace
}  // namespace rfp::milp
