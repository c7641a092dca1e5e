// Tests for the sparse LP substrate: the Markowitz LU kernel, the revised
// simplex against the dense reference solver (unit cases and randomized
// property tests), basis warm starts, the memory estimate, and branch &
// bound checked against brute-force enumeration and warm-vs-cold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "device/builders.hpp"
#include "fp/formulation.hpp"
#include "lp/lp_solver.hpp"
#include "lp/sparse/csc.hpp"
#include "lp/sparse/dual_simplex.hpp"
#include "lp/sparse/lu.hpp"
#include "lp/sparse/revised_simplex.hpp"
#include "milp/bb.hpp"
#include "milp_oracle.hpp"
#include "oracle/generator.hpp"
#include "oracle/simplex.hpp"
#include "partition/columnar.hpp"
#include "support/rng.hpp"

namespace rfp::lp {
namespace {

using sparse::BasisLu;
using sparse::CscMatrix;
using sparse::DualReoptimizer;
using sparse::RevisedSimplexSolver;

// ---- LU kernel -------------------------------------------------------------

/// Dense multiply B x (columns of `a` or unit slacks per `basic`).
std::vector<double> multiplyBasis(const CscMatrix& a, const std::vector<int>& basic,
                                  const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
  for (int p = 0; p < a.rows; ++p) {
    const int b = basic[static_cast<std::size_t>(p)];
    const double xp = x[static_cast<std::size_t>(p)];
    if (b >= a.cols) {
      y[static_cast<std::size_t>(b - a.cols)] += xp;
    } else {
      for (int k = a.ptr[static_cast<std::size_t>(b)]; k < a.ptr[static_cast<std::size_t>(b) + 1]; ++k)
        y[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] +=
            a.val[static_cast<std::size_t>(k)] * xp;
    }
  }
  return y;
}

/// Dense B^T y: entry p is column p of B (per `basic`) dotted with `y`.
std::vector<double> multiplyBasisTransposed(const CscMatrix& a, const std::vector<int>& basic,
                                            const std::vector<double>& y) {
  std::vector<double> out(static_cast<std::size_t>(a.rows), 0.0);
  for (int p = 0; p < a.rows; ++p) {
    const int b = basic[static_cast<std::size_t>(p)];
    double& dot = out[static_cast<std::size_t>(p)];
    if (b >= a.cols) {
      dot = y[static_cast<std::size_t>(b - a.cols)];
    } else {
      for (int k = a.ptr[static_cast<std::size_t>(b)]; k < a.ptr[static_cast<std::size_t>(b) + 1]; ++k)
        dot += a.val[static_cast<std::size_t>(k)] *
               y[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])];
    }
  }
  return out;
}

Model randomSparseModel(Rng& rng, int n, int rows) {
  Model m;
  for (int j = 0; j < n; ++j) m.addContinuous(0, 10, "v");
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    bool any = false;
    for (int j = 0; j < n; ++j) {
      if (rng.nextBelow(3) != 0) continue;
      const long c = rng.nextInt(-5, 6);
      if (c != 0) {
        e += static_cast<double>(c) * Var{j};
        any = true;
      }
    }
    if (!any) e += 1.0 * Var{static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)))};
    m.addConstr(e, Sense::kLessEqual, 100.0);
  }
  return m;
}

TEST(SparseLu, FtranBtranSolveRandomBases) {
  Rng rng(2001);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.nextBelow(10));
    const int rows = 3 + static_cast<int>(rng.nextBelow(12));
    const Model m = randomSparseModel(rng, n, rows);
    const CscMatrix a = CscMatrix::fromModel(m);
    // Random basis: each row position picks its own slack or a random
    // structural column (duplicates allowed — repair is reported then).
    std::vector<int> basic(static_cast<std::size_t>(rows));
    for (int p = 0; p < rows; ++p)
      basic[static_cast<std::size_t>(p)] =
          rng.nextBool(0.4) ? static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)))
                            : n + p;
    BasisLu lu;
    if (!lu.factorize(a, basic)) {
      // Singular: the reported repair must itself factorize.
      ASSERT_EQ(lu.deficientPositions().size(), lu.unpivotedRows().size());
      for (std::size_t i = 0; i < lu.deficientPositions().size(); ++i)
        basic[static_cast<std::size_t>(lu.deficientPositions()[i])] = n + lu.unpivotedRows()[i];
      ASSERT_TRUE(lu.factorize(a, basic)) << "trial " << trial;
    }
    // FTRAN: B (B^-1 b) == b.
    std::vector<double> b(static_cast<std::size_t>(rows));
    for (double& v : b) v = static_cast<double>(rng.nextInt(-9, 9));
    std::vector<double> w = b;
    lu.ftran(w);
    const std::vector<double> back = multiplyBasis(a, basic, w);
    for (int i = 0; i < rows; ++i)
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)], 1e-7)
          << "trial " << trial << " row " << i;
    // BTRAN: (B^-T c)^T B == c^T, i.e. for every position p the dual times
    // column p recovers c[p].
    std::vector<double> c(static_cast<std::size_t>(rows));
    for (double& v : c) v = static_cast<double>(rng.nextInt(-9, 9));
    std::vector<double> y = c;
    lu.btran(y);
    const std::vector<double> bty = multiplyBasisTransposed(a, basic, y);
    for (int p = 0; p < rows; ++p)
      EXPECT_NEAR(bty[static_cast<std::size_t>(p)], c[static_cast<std::size_t>(p)], 1e-7)
          << "trial " << trial << " pos " << p;
  }
}

TEST(SparseLu, ForrestTomlinUpdateMatchesRefactorization) {
  // Replace one basic column, once via updateColumn and once by
  // refactorizing; both must produce the same B^-1 b.
  Model m;
  for (int j = 0; j < 4; ++j) m.addContinuous(0, 10, "v");
  m.addConstr(2.0 * Var{0} + 1.0 * Var{1}, Sense::kLessEqual, 5);
  m.addConstr(1.0 * Var{1} + 3.0 * Var{2}, Sense::kLessEqual, 7);
  m.addConstr(1.0 * Var{0} + 1.0 * Var{3}, Sense::kLessEqual, 9);
  const CscMatrix a = CscMatrix::fromModel(m);
  std::vector<int> basic{0, 1, 4 + 2};  // x0, x1, slack2
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basic));

  // Enter x3 (column 3) at position 2.
  std::vector<double> alpha(3, 0.0);
  for (int k = a.ptr[3]; k < a.ptr[4]; ++k) alpha[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] = a.val[static_cast<std::size_t>(k)];
  BasisLu::Spike spike;
  lu.ftran(alpha, &spike);
  ASSERT_GT(std::abs(alpha[2]), 1e-9);
  ASSERT_TRUE(lu.updateColumn(2, spike));
  EXPECT_EQ(lu.updateCount(), 1);

  std::vector<int> basic2{0, 1, 3};
  BasisLu lu2;
  ASSERT_TRUE(lu2.factorize(a, basic2));

  const std::vector<double> b{1.0, -2.0, 3.0};
  std::vector<double> via_update = b, via_fresh = b;
  lu.ftran(via_update);
  lu2.ftran(via_fresh);
  for (int p = 0; p < 3; ++p) EXPECT_NEAR(via_update[static_cast<std::size_t>(p)], via_fresh[static_cast<std::size_t>(p)], 1e-9);
}

TEST(SparseLu, ForrestTomlinSurvivesFiftyUpdates) {
  // A long chain of Forrest–Tomlin updates must keep FTRAN and BTRAN in
  // agreement with a fresh factorization of the same basis — this is the
  // property that lets the simplex stretch refactorization intervals to
  // stability triggers only.
  Rng rng(7777);
  const int n = 60;
  const int rows = 70;
  const Model m = randomSparseModel(rng, n, rows);
  const CscMatrix a = CscMatrix::fromModel(m);
  std::vector<int> basic(static_cast<std::size_t>(rows));
  for (int p = 0; p < rows; ++p) basic[static_cast<std::size_t>(p)] = n + p;  // slack basis
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basic));

  std::vector<char> in_basis(static_cast<std::size_t>(n), 0);
  int updates = 0;
  for (int attempt = 0; attempt < 400 && updates < 55; ++attempt) {
    const int c = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    if (in_basis[static_cast<std::size_t>(c)]) continue;
    std::vector<double> alpha(static_cast<std::size_t>(rows), 0.0);
    for (int k = a.ptr[static_cast<std::size_t>(c)]; k < a.ptr[static_cast<std::size_t>(c) + 1]; ++k)
      alpha[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] =
          a.val[static_cast<std::size_t>(k)];
    BasisLu::Spike spike;
    lu.ftran(alpha, &spike);
    // Pivot on the largest entry (mimicking a stable ratio-test choice).
    int p_best = -1;
    for (int p = 0; p < rows; ++p)
      if (p_best < 0 || std::abs(alpha[static_cast<std::size_t>(p)]) >
                            std::abs(alpha[static_cast<std::size_t>(p_best)]))
        p_best = p;
    if (std::abs(alpha[static_cast<std::size_t>(p_best)]) < 1e-6) continue;
    ASSERT_TRUE(lu.updateColumn(p_best, spike)) << "update " << updates;
    const int displaced = basic[static_cast<std::size_t>(p_best)];
    if (displaced < n) in_basis[static_cast<std::size_t>(displaced)] = 0;
    basic[static_cast<std::size_t>(p_best)] = c;
    in_basis[static_cast<std::size_t>(c)] = 1;
    ++updates;

    if (updates % 10 != 0 && updates < 50) continue;
    // FTRAN/BTRAN through the updated factors vs a fresh factorization.
    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(a, basic)) << "update " << updates;
    std::vector<double> b(static_cast<std::size_t>(rows));
    for (double& v : b) v = static_cast<double>(rng.nextInt(-9, 9));
    std::vector<double> via_update = b, via_fresh = b;
    lu.ftran(via_update);
    fresh.ftran(via_fresh);
    for (int p = 0; p < rows; ++p)
      EXPECT_NEAR(via_update[static_cast<std::size_t>(p)],
                  via_fresh[static_cast<std::size_t>(p)], 1e-6)
          << "ftran after " << updates << " updates, pos " << p;
    std::vector<double> cvec(static_cast<std::size_t>(rows));
    for (double& v : cvec) v = static_cast<double>(rng.nextInt(-9, 9));
    std::vector<double> bt_update = cvec, bt_fresh = cvec;
    lu.btran(bt_update);
    fresh.btran(bt_fresh);
    for (int p = 0; p < rows; ++p)
      EXPECT_NEAR(bt_update[static_cast<std::size_t>(p)],
                  bt_fresh[static_cast<std::size_t>(p)], 1e-6)
          << "btran after " << updates << " updates, pos " << p;
  }
  EXPECT_GE(updates, 50);
  EXPECT_EQ(lu.updateCount(), updates);
}

TEST(SparseLu, HyperSparseSolvesMatchDenseAcrossFtUpdates) {
  // The graph-driven FTRAN/BTRAN must agree with the dense sweeps on the
  // same factors — including after a long Forrest–Tomlin chain, where the
  // eta file participates in the structural reachability pass — and must
  // uphold the IndexedVector contract (values exactly zero off the index).
  Rng rng(5150);
  const int n = 60;
  const int rows = 70;
  const Model m = randomSparseModel(rng, n, rows);
  const CscMatrix a = CscMatrix::fromModel(m);
  std::vector<int> basic(static_cast<std::size_t>(rows));
  for (int p = 0; p < rows; ++p) basic[static_cast<std::size_t>(p)] = n + p;  // slack basis
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basic));

  const auto checkAgainstDense = [&](int updates) {
    for (int rep = 0; rep < 6; ++rep) {
      // 1-2 structural nonzeros: within the hyper-sparse input gate.
      sparse::IndexedVector v;
      v.reset(rows);
      v.set(static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(rows))), 2.0);
      const int extra = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(rows)));
      if (v.val[static_cast<std::size_t>(extra)] == 0.0) v.set(extra, -3.0);
      std::vector<double> dense_in = v.val;

      sparse::IndexedVector fs = v;
      lu.ftranSparse(fs);
      std::vector<double> fd = dense_in;
      lu.ftran(fd);
      std::vector<char> listed(static_cast<std::size_t>(rows), 0);
      for (const int p : fs.idx) listed[static_cast<std::size_t>(p)] = 1;
      for (int p = 0; p < rows; ++p) {
        EXPECT_NEAR(fs.val[static_cast<std::size_t>(p)], fd[static_cast<std::size_t>(p)], 1e-7)
            << "ftran after " << updates << " updates, pos " << p;
        if (!listed[static_cast<std::size_t>(p)]) {
          EXPECT_EQ(fs.val[static_cast<std::size_t>(p)], 0.0)
              << "unlisted entry must be exactly zero, pos " << p;
        }
      }

      sparse::IndexedVector bs = v;
      lu.btranSparse(bs);
      std::vector<double> bd = dense_in;
      lu.btran(bd);
      std::fill(listed.begin(), listed.end(), 0);
      for (const int p : bs.idx) listed[static_cast<std::size_t>(p)] = 1;
      for (int p = 0; p < rows; ++p) {
        EXPECT_NEAR(bs.val[static_cast<std::size_t>(p)], bd[static_cast<std::size_t>(p)], 1e-7)
            << "btran after " << updates << " updates, pos " << p;
        if (!listed[static_cast<std::size_t>(p)]) {
          EXPECT_EQ(bs.val[static_cast<std::size_t>(p)], 0.0)
              << "unlisted entry must be exactly zero, pos " << p;
        }
      }
    }
  };

  checkAgainstDense(0);
  std::vector<char> in_basis(static_cast<std::size_t>(n), 0);
  int updates = 0;
  for (int attempt = 0; attempt < 400 && updates < 50; ++attempt) {
    const int c = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    if (in_basis[static_cast<std::size_t>(c)]) continue;
    std::vector<double> alpha(static_cast<std::size_t>(rows), 0.0);
    for (int k = a.ptr[static_cast<std::size_t>(c)]; k < a.ptr[static_cast<std::size_t>(c) + 1]; ++k)
      alpha[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] =
          a.val[static_cast<std::size_t>(k)];
    BasisLu::Spike spike;
    lu.ftran(alpha, &spike);
    int p_best = 0;
    for (int p = 1; p < rows; ++p)
      if (std::abs(alpha[static_cast<std::size_t>(p)]) >
          std::abs(alpha[static_cast<std::size_t>(p_best)]))
        p_best = p;
    if (std::abs(alpha[static_cast<std::size_t>(p_best)]) < 1e-6) continue;
    ASSERT_TRUE(lu.updateColumn(p_best, spike)) << "update " << updates;
    const int displaced = basic[static_cast<std::size_t>(p_best)];
    if (displaced < n) in_basis[static_cast<std::size_t>(displaced)] = 0;
    basic[static_cast<std::size_t>(p_best)] = c;
    in_basis[static_cast<std::size_t>(c)] = 1;
    ++updates;
    if (updates % 10 == 0 || updates >= 50) checkAgainstDense(updates);
  }
  EXPECT_GE(updates, 50);
  // Near-unit inputs on a slack-heavy basis must actually take the sparse
  // path — a silent everything-falls-dense regression defeats the kernel.
  const BasisLu::SolveStats& ss = lu.solveStats();
  EXPECT_GT(ss.ftran_sparse, 0);
  EXPECT_GT(ss.btran_sparse, 0);
}

/// FNV-1a over the bit patterns of solve outputs: pins results exactly.
struct BitHash {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::vector<double>& v) {
    for (const double d : v) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      add(bits);
    }
  }
};

struct BasisCase {
  CscMatrix a;
  std::vector<int> basic;
};

/// A basis shaped like the floorplanning ones: every position outside a
/// random `nucleus`-row set holds its row's slack, the nucleus positions
/// hold structural columns. Each structural column is long — `spread`
/// random rows outside the nucleus with big-M style values, all retired by
/// slack pivots — plus `density_pct`% of the nucleus rows with integers in
/// [-vmax, vmax], whose exact arithmetic lets fill cancel to 0.0 and be
/// refilled by a later pivot. `tiny` adds entries below the LU drop
/// tolerance, which the factorization keeps until it rewrites their column.
BasisCase slackHeavyBasis(Rng& rng, int m, int nucleus, int spread, int density_pct, int vmax,
                          bool tiny) {
  std::vector<int> rows(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) rows[static_cast<std::size_t>(r)] = r;
  for (int r = m - 1; r > 0; --r)
    std::swap(rows[static_cast<std::size_t>(r)],
              rows[rng.nextBelow(static_cast<std::uint64_t>(r) + 1)]);
  std::vector<char> in_nucleus(static_cast<std::size_t>(m), 0);
  for (int k = 0; k < nucleus; ++k) in_nucleus[static_cast<std::size_t>(rows[static_cast<std::size_t>(k)])] = 1;

  BasisCase c;
  c.a.rows = m;
  c.a.cols = nucleus;
  c.a.ptr.push_back(0);
  for (int j = 0; j < nucleus; ++j) {
    std::vector<double> col(static_cast<std::size_t>(m), 0.0);
    for (int k = 0; k < nucleus; ++k)
      if (static_cast<int>(rng.nextBelow(100)) < density_pct || k == j)
        col[static_cast<std::size_t>(rows[static_cast<std::size_t>(k)])] =
            static_cast<double>(rng.nextBool(0.5) ? rng.nextInt(1, vmax) : -rng.nextInt(1, vmax));
    for (int t = 0; t < spread; ++t) {
      const int r = rows[static_cast<std::size_t>(nucleus) +
                         rng.nextBelow(static_cast<std::uint64_t>(m - nucleus))];
      col[static_cast<std::size_t>(r)] =
          rng.nextBool(0.5) ? 1000.0 * static_cast<double>(rng.nextInt(1, 9)) : -1.0;
    }
    if (tiny && j % 3 == 0) {
      col[static_cast<std::size_t>(rows[static_cast<std::size_t>(nucleus) + static_cast<std::size_t>(j)])] = 1e-14;
      const int k = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(nucleus)));
      if (col[static_cast<std::size_t>(rows[static_cast<std::size_t>(k)])] == 0.0)
        col[static_cast<std::size_t>(rows[static_cast<std::size_t>(k)])] = -1e-14;
    }
    for (int r = 0; r < m; ++r) {
      if (col[static_cast<std::size_t>(r)] == 0.0) continue;
      c.a.idx.push_back(r);
      c.a.val.push_back(col[static_cast<std::size_t>(r)]);
    }
    c.a.ptr.push_back(static_cast<int>(c.a.idx.size()));
  }
  c.basic.resize(static_cast<std::size_t>(m));
  for (int p = 0; p < m; ++p) c.basic[static_cast<std::size_t>(p)] = nucleus + p;
  for (int j = 0; j < nucleus; ++j) c.basic[static_cast<std::size_t>(rows[static_cast<std::size_t>(j)])] = j;
  return c;
}

TEST(SparseLu, FactorsMatchPinnedBitPatterns) {
  // The factorization's pivot sequence and arithmetic are pinned: FTRAN and
  // BTRAN of fixed vectors must reproduce these bit patterns exactly, and
  // the factors these nonzero counts. Any change to the Markowitz choices,
  // the elimination order or the drop rule moves the hash, so a faster
  // factorize must leave every downstream simplex pivot unchanged.
  Rng rng(1990);
  BitHash hash;
  long nonzeros = 0;
  int singular = 0;
  const auto pin = [&](BasisCase c) {
    const int m = c.a.rows;
    BasisLu lu;
    if (!lu.factorize(c.a, c.basic)) {
      ++singular;
      ASSERT_EQ(lu.deficientPositions().size(), lu.unpivotedRows().size());
      for (std::size_t i = 0; i < lu.deficientPositions().size(); ++i) {
        hash.add(static_cast<std::uint64_t>(lu.deficientPositions()[i]));
        hash.add(static_cast<std::uint64_t>(lu.unpivotedRows()[i]));
        c.basic[static_cast<std::size_t>(lu.deficientPositions()[i])] =
            c.a.cols + lu.unpivotedRows()[i];
      }
      ASSERT_TRUE(lu.factorize(c.a, c.basic));
    }
    nonzeros += lu.factorNonzeros();
    for (const int unit : {0, m / 2, m - 1}) {
      std::vector<double> e(static_cast<std::size_t>(m), 0.0);
      e[static_cast<std::size_t>(unit)] = 1.0;
      std::vector<double> f = e, b = e;
      lu.ftran(f);
      lu.btran(b);
      hash.add(f);
      hash.add(b);
    }
    std::vector<double> d(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) d[static_cast<std::size_t>(i)] = (i % 7) - 3 + 0.25 * (i % 3);
    std::vector<double> f = d, b = d;
    lu.ftran(f);
    lu.btran(b);
    hash.add(f);
    hash.add(b);
    const std::vector<double> back = multiplyBasis(c.a, c.basic, f);
    for (int i = 0; i < m; ++i)
      EXPECT_NEAR(back[static_cast<std::size_t>(i)], d[static_cast<std::size_t>(i)], 1e-6);
  };
  for (int s = 0; s < 6; ++s) pin(slackHeavyBasis(rng, 400, 24, 150, 20, 3, s % 2 == 0));
  for (int s = 0; s < 40; ++s) {
    BasisCase c = slackHeavyBasis(rng, 60, 20, 10, 45, 3, s % 4 == 0);
    if (s % 5 == 1) {
      // A repeated structural column: singular, pins the deficiency report.
      const auto first = std::find_if(c.basic.begin(), c.basic.end(),
                                      [&](int b) { return b < c.a.cols; });
      const auto second = std::find_if(first + 1, c.basic.end(),
                                       [&](int b) { return b < c.a.cols; });
      *second = *first;
    }
    pin(std::move(c));
  }
  // +-1 nuclei: cancellations also empty columns down to singletons, so a
  // pivot without arithmetic can meet a row that lists a refilled column
  // twice.
  for (int s = 0; s < 300; ++s) pin(slackHeavyBasis(rng, 42, 16, 10, 28, 1, false));
  EXPECT_EQ(hash.h, 0x274a994b8591c8bfULL);
  EXPECT_EQ(nonzeros, 118345L);
  EXPECT_EQ(singular, 13);
}

TEST(SparseLu, SteepestEdgeRecurrenceMatchesFromScratchRowNorms) {
  // The Forrest–Goldfarb recurrence the dual engine maintains —
  //   beta_p' = beta_p - 2 (alpha_p / alpha_r) tau_p + (alpha_p / alpha_r)^2 beta_r,
  //   beta_r' = beta_r / alpha_r^2,  with tau = B^-1 rho_r through the OLD
  // factors — must track the exact row norms beta_p = ||B^-T e_p||^2 across
  // a chain of basis changes. This is the weight-exactness contract that
  // lets DualReoptimizer persist weights across warm reoptimizations.
  Rng rng(90210);
  const int n = 40;
  const int rows = 45;
  const Model m = randomSparseModel(rng, n, rows);
  const CscMatrix a = CscMatrix::fromModel(m);
  std::vector<int> basic(static_cast<std::size_t>(rows));
  for (int p = 0; p < rows; ++p) basic[static_cast<std::size_t>(p)] = n + p;
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basic));

  const auto exactBetas = [&]() {
    std::vector<double> beta(static_cast<std::size_t>(rows));
    sparse::IndexedVector rho;
    rho.reset(rows);
    for (int p = 0; p < rows; ++p) {
      rho.clear();
      rho.set(p, 1.0);
      lu.btranSparse(rho);
      double s = 0.0;
      for (const int i : rho.idx)
        s += rho.val[static_cast<std::size_t>(i)] * rho.val[static_cast<std::size_t>(i)];
      beta[static_cast<std::size_t>(p)] = s;
    }
    return beta;
  };

  std::vector<double> beta = exactBetas();  // exact at the starting basis
  std::vector<char> in_basis(static_cast<std::size_t>(n), 0);
  sparse::IndexedVector alpha, rho, tau;
  alpha.reset(rows);
  rho.reset(rows);
  tau.reset(rows);
  int pivots = 0;
  for (int attempt = 0; attempt < 200 && pivots < 12; ++attempt) {
    const int c = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    if (in_basis[static_cast<std::size_t>(c)]) continue;
    alpha.clear();
    for (int k = a.ptr[static_cast<std::size_t>(c)]; k < a.ptr[static_cast<std::size_t>(c) + 1]; ++k)
      alpha.set(a.idx[static_cast<std::size_t>(k)], a.val[static_cast<std::size_t>(k)]);
    BasisLu::Spike spike;
    lu.ftranSparse(alpha, &spike);
    int r = 0;
    for (int p = 1; p < rows; ++p)
      if (std::abs(alpha.val[static_cast<std::size_t>(p)]) >
          std::abs(alpha.val[static_cast<std::size_t>(r)]))
        r = p;
    const double ar = alpha.val[static_cast<std::size_t>(r)];
    if (std::abs(ar) < 1e-4) continue;

    // Recurrence inputs through the factors *before* the update.
    rho.clear();
    rho.set(r, 1.0);
    lu.btranSparse(rho);
    tau.copyFrom(rho);
    lu.ftranSparse(tau);
    const double beta_r = beta[static_cast<std::size_t>(r)];
    for (int p = 0; p < rows; ++p) {
      if (p == r) continue;
      const double q = alpha.val[static_cast<std::size_t>(p)] / ar;
      if (q == 0.0) continue;
      beta[static_cast<std::size_t>(p)] +=
          -2.0 * q * tau.val[static_cast<std::size_t>(p)] + q * q * beta_r;
    }
    beta[static_cast<std::size_t>(r)] = beta_r / (ar * ar);

    ASSERT_TRUE(lu.updateColumn(r, spike)) << "pivot " << pivots;
    const int displaced = basic[static_cast<std::size_t>(r)];
    if (displaced < n) in_basis[static_cast<std::size_t>(displaced)] = 0;
    basic[static_cast<std::size_t>(r)] = c;
    in_basis[static_cast<std::size_t>(c)] = 1;
    ++pivots;

    const std::vector<double> fresh = exactBetas();
    for (int p = 0; p < rows; ++p)
      EXPECT_NEAR(beta[static_cast<std::size_t>(p)], fresh[static_cast<std::size_t>(p)],
                  1e-5 * (1.0 + std::abs(fresh[static_cast<std::size_t>(p)])))
          << "pivot " << pivots << " row " << p;
  }
  EXPECT_GE(pivots, 10);
}

// ---- revised simplex unit cases (mirroring the dense suite) ----------------

TEST(SparseSimplex, TextbookMaximization) {
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  m.addConstr(LinExpr(x), Sense::kLessEqual, 4);
  m.addConstr(2.0 * y, Sense::kLessEqual, 12);
  m.addConstr(3.0 * x + 2.0 * y, Sense::kLessEqual, 18);
  m.setObjective(3.0 * x + 5.0 * y, ObjSense::kMaximize);
  const LpResult r = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-7);
  EXPECT_NEAR(r.x[0], 2.0, 1e-7);
  EXPECT_NEAR(r.x[1], 6.0, 1e-7);
}

TEST(SparseSimplex, EqualityAndGreaterRows) {
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  const Var z = m.addContinuous(0, 3, "z");
  m.addConstr(LinExpr(x) + y + z, Sense::kEqual, 10);
  m.addConstr(LinExpr(x) - y, Sense::kGreaterEqual, 2);
  m.setObjective(2.0 * x + 3.0 * y + z, ObjSense::kMinimize);
  const LpResult r = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 17.0, 1e-7);
}

TEST(SparseSimplex, BoundFlipsWithFiniteUpperBounds) {
  Model m;
  const Var x = m.addContinuous(0, 1, "x");
  const Var y = m.addContinuous(0, 1, "y");
  const Var z = m.addContinuous(0, 1, "z");
  m.addConstr(LinExpr(x) + y + z, Sense::kLessEqual, 2.5);
  m.setObjective(LinExpr(x) + y + z, ObjSense::kMaximize);
  const LpResult r = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-7);
}

TEST(SparseSimplex, NegativeLowerBounds) {
  Model m;
  const Var x = m.addContinuous(-5, 0, "x");
  const Var y = m.addContinuous(-4, 4, "y");
  m.addConstr(LinExpr(x) + 2.0 * y, Sense::kGreaterEqual, -3);
  m.setObjective(LinExpr(x) + y, ObjSense::kMinimize);
  const LpResult r = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-7);
}

TEST(SparseSimplex, DetectsInfeasibility) {
  Model m;
  const Var x = m.addContinuous(0, 1, "x");
  const Var y = m.addContinuous(0, 1, "y");
  m.addConstr(LinExpr(x) + y, Sense::kGreaterEqual, 3);
  EXPECT_EQ(RevisedSimplexSolver().solve(m).status, LpStatus::kInfeasible);
}

TEST(SparseSimplex, DetectsUnboundedness) {
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  m.addConstr(LinExpr(x) - y, Sense::kLessEqual, 1);
  m.setObjective(LinExpr(x) + y, ObjSense::kMaximize);
  EXPECT_EQ(RevisedSimplexSolver().solve(m).status, LpStatus::kUnbounded);
}

TEST(SparseSimplex, DegenerateProblemTerminates) {
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  m.addConstr(LinExpr(x) - y, Sense::kLessEqual, 0);
  m.addConstr(2.0 * x - y, Sense::kLessEqual, 0);
  m.addConstr(3.0 * x - y, Sense::kLessEqual, 0);
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 4);
  m.setObjective(2.0 * x + y, ObjSense::kMaximize);
  const LpResult r = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-7);
}

TEST(SparseSimplex, FreeVariableViaInfiniteBounds) {
  // min x st x >= -7, x free: the sparse engine supports free columns
  // (the dense solver requires finite lower bounds).
  Model m;
  const Var x = m.addContinuous(-kInfinity, kInfinity, "x");
  m.addConstr(LinExpr(x), Sense::kGreaterEqual, -7);
  m.setObjective(LinExpr(x), ObjSense::kMinimize);
  const LpResult r = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -7.0, 1e-7);
}

// ---- dense/sparse agreement property ---------------------------------------

TEST(SparseSimplexProperty, AgreesWithDenseOnRandomLps) {
  Rng rng(90210);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int trial = 0; trial < 250; ++trial) {
    const int n = 1 + static_cast<int>(rng.nextBelow(8));
    const int rows = 1 + static_cast<int>(rng.nextBelow(10));
    Model m;
    std::vector<Var> vars;
    for (int j = 0; j < n; ++j) {
      const double lb = static_cast<double>(rng.nextInt(-5, 5));
      const double ub =
          rng.nextBelow(4) == 0 ? kInfinity : lb + static_cast<double>(rng.nextBelow(10));
      vars.push_back(m.addContinuous(lb, ub, "v"));
    }
    for (int i = 0; i < rows; ++i) {
      LinExpr e;
      bool any = false;
      for (int j = 0; j < n; ++j) {
        const long c = rng.nextInt(-4, 5);
        if (c != 0) {
          e += static_cast<double>(c) * vars[static_cast<std::size_t>(j)];
          any = true;
        }
      }
      if (!any) e += 1.0 * vars[0];
      const Sense s = rng.nextBelow(3) == 0 ? Sense::kEqual
                      : rng.nextBool()      ? Sense::kLessEqual
                                            : Sense::kGreaterEqual;
      m.addConstr(e, s, static_cast<double>(rng.nextInt(-10, 15)));
    }
    LinExpr obj;
    for (int j = 0; j < n; ++j)
      obj += static_cast<double>(rng.nextInt(-9, 10)) * vars[static_cast<std::size_t>(j)];
    m.setObjective(obj, rng.nextBool() ? ObjSense::kMaximize : ObjSense::kMinimize);

    const LpResult dense = SimplexSolver().solve(m);
    const LpResult sparse = RevisedSimplexSolver().solve(m);
    ASSERT_EQ(dense.status, sparse.status) << "trial " << trial;
    switch (dense.status) {
      case LpStatus::kOptimal:
        ++optimal;
        EXPECT_NEAR(sparse.objective, dense.objective, 1e-6 * (1 + std::abs(dense.objective)))
            << "trial " << trial;
        EXPECT_TRUE(m.isFeasible(sparse.x, 1e-6)) << "trial " << trial;
        break;
      case LpStatus::kInfeasible: ++infeasible; break;
      case LpStatus::kUnbounded: ++unbounded; break;
      default: break;
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GE(optimal, 30);
  EXPECT_GE(infeasible, 30);
  EXPECT_GE(unbounded, 3);
}

// ---- warm starts -----------------------------------------------------------

TEST(SparseSimplex, WarmStartReoptimizesInFewerIterations) {
  Rng rng(555);
  int exercised = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 8 + static_cast<int>(rng.nextBelow(10));
    Model m = randomSparseModel(rng, n, n + 5);
    LinExpr obj;
    for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(1, 9)) * Var{j};
    m.setObjective(obj, ObjSense::kMaximize);

    const LpResult first = RevisedSimplexSolver().solve(m);
    ASSERT_EQ(first.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_NE(first.basis, nullptr);
    EXPECT_EQ(first.counters.warm_start_hits, 0);

    // Tighten one variable's upper bound (a branch & bound style change).
    const int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    m.setVarBounds(j, m.var(j).lb, std::max(m.var(j).lb, m.var(j).ub / 2.0));
    const LpResult cold = RevisedSimplexSolver().solve(m);
    std::vector<double> lb(static_cast<std::size_t>(n)), ub(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      lb[static_cast<std::size_t>(k)] = m.var(k).lb;
      ub[static_cast<std::size_t>(k)] = m.var(k).ub;
    }
    const LpResult warm = RevisedSimplexSolver().solve(m, lb, ub, first.basis.get());
    ASSERT_EQ(cold.status, warm.status) << "trial " << trial;
    if (cold.status != LpStatus::kOptimal) continue;
    EXPECT_EQ(warm.counters.warm_start_hits, 1) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * (1 + std::abs(cold.objective)))
        << "trial " << trial;
    EXPECT_LE(warm.counters.iterations, cold.counters.iterations) << "trial " << trial;
    ++exercised;
  }
  EXPECT_GE(exercised, 20);
}

TEST(SparseSimplex, StaleBasisShapeFallsBackToColdStart) {
  Model m;
  m.addContinuous(0, 1, "x");
  m.addConstr(LinExpr(Var{0}), Sense::kLessEqual, 1);
  m.setObjective(LinExpr(Var{0}), ObjSense::kMaximize);
  sparse::Basis stale;  // wrong shape on purpose
  stale.rows = 99;
  stale.cols = 99;
  const std::vector<double> lb{0.0}, ub{1.0};
  const LpResult r = RevisedSimplexSolver().solve(m, lb, ub, &stale);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.counters.warm_start_hits, 0);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

// ---- dual simplex ----------------------------------------------------------

/// One dual reoptimization from `warm` on a fresh reoptimizer, as
/// LpSolver's warm path runs it: nullopt when no dual-feasible start exists.
std::optional<LpResult> dualReoptimize(const Model& m, std::span<const double> lb,
                                       std::span<const double> ub, const sparse::Basis& warm) {
  const CscMatrix csc = CscMatrix::fromModel(m);
  return DualReoptimizer(m, csc, {}).reoptimize(lb, ub, warm, 0);
}

TEST(DualSimplexProperty, AgreesWithDenseAndPrimalAfterBoundTightening) {
  // The branch & bound pattern: solve, tighten one bound, reoptimize from
  // the (dual-feasible) optimal basis. The dual engine must accept the warm
  // start and agree with cold dense and cold primal-sparse solves on every
  // outcome — including the tightenings that make the LP infeasible.
  Rng rng(4242);
  int dual_ran = 0, optimal = 0, infeasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    // Mixed-sense rows (equalities included) so that tightening a bound can
    // genuinely make the LP infeasible, not just move the optimum.
    const int n = 4 + static_cast<int>(rng.nextBelow(8));
    const int rows = 3 + static_cast<int>(rng.nextBelow(8));
    Model m;
    for (int j = 0; j < n; ++j) {
      const double lb = static_cast<double>(rng.nextInt(-4, 4));
      m.addContinuous(lb, lb + 2.0 + static_cast<double>(rng.nextBelow(8)), "v");
    }
    for (int i = 0; i < rows; ++i) {
      LinExpr e;
      bool any = false;
      for (int j = 0; j < n; ++j) {
        const long c = rng.nextInt(-4, 5);
        if (c != 0) {
          e += static_cast<double>(c) * Var{j};
          any = true;
        }
      }
      if (!any) e += 1.0 * Var{0};
      const Sense s = rng.nextBelow(4) == 0 ? Sense::kEqual
                      : rng.nextBool()      ? Sense::kLessEqual
                                            : Sense::kGreaterEqual;
      m.addConstr(e, s, static_cast<double>(rng.nextInt(-8, 12)));
    }
    LinExpr obj;
    for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(-9, 10)) * Var{j};
    m.setObjective(obj, rng.nextBool() ? ObjSense::kMaximize : ObjSense::kMinimize);

    const LpResult first = RevisedSimplexSolver().solve(m);
    if (first.status != LpStatus::kOptimal) continue;  // need a parent optimum
    ASSERT_NE(first.basis, nullptr);

    // One branch-style bound change: clamp one variable hard toward a bound.
    const int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    const double mid = 0.5 * (m.var(j).lb + m.var(j).ub);
    if (rng.nextBool())
      m.setVarBounds(j, m.var(j).lb, std::floor(mid));
    else
      m.setVarBounds(j, std::ceil(mid), m.var(j).ub);
    if (m.var(j).lb > m.var(j).ub) continue;  // empty box: nothing to reoptimize
    std::vector<double> lb(static_cast<std::size_t>(n)), ub(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      lb[static_cast<std::size_t>(k)] = m.var(k).lb;
      ub[static_cast<std::size_t>(k)] = m.var(k).ub;
    }

    const std::optional<LpResult> dual = dualReoptimize(m, lb, ub, *first.basis);
    const LpResult dense = SimplexSolver().solve(m);
    const LpResult cold = RevisedSimplexSolver().solve(m);
    ASSERT_EQ(dense.status, cold.status) << "trial " << trial;
    if (!dual) continue;  // dual-infeasible warm basis: primal fallback territory
    ++dual_ran;
    EXPECT_EQ(dual->counters.dual_reopts, 1);
    EXPECT_EQ(dual->counters.warm_start_hits, 1);
    ASSERT_EQ(dual->status, dense.status) << "trial " << trial;
    if (dense.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(dual->objective, dense.objective, 1e-6 * (1 + std::abs(dense.objective)))
          << "trial " << trial;
      EXPECT_TRUE(m.isFeasible(dual->x, 1e-6)) << "trial " << trial;
    } else if (dense.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
  }
  // A parent-optimal basis is dual feasible by construction, so the dual
  // engine must actually take these reoptimizations (and see both outcomes).
  EXPECT_GE(dual_ran, 40);
  EXPECT_GE(optimal, 20);
  EXPECT_GE(infeasible, 3);
}

TEST(DualSimplex, ReoptimizesWithFewPivotsAfterSingleTightening) {
  // A single bound change should cost the dual engine a handful of pivots,
  // not a cold-solve-sized iteration count.
  Rng rng(1357);
  int exercised = 0;
  long dual_iters = 0, cold_iters = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 10 + static_cast<int>(rng.nextBelow(8));
    Model m = randomSparseModel(rng, n, n + 5);
    LinExpr obj;
    for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(1, 9)) * Var{j};
    m.setObjective(obj, ObjSense::kMaximize);
    const LpResult first = RevisedSimplexSolver().solve(m);
    ASSERT_EQ(first.status, LpStatus::kOptimal);
    const int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    m.setVarBounds(j, m.var(j).lb, std::max(m.var(j).lb, m.var(j).ub / 2.0));
    std::vector<double> lb(static_cast<std::size_t>(n)), ub(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      lb[static_cast<std::size_t>(k)] = m.var(k).lb;
      ub[static_cast<std::size_t>(k)] = m.var(k).ub;
    }
    const std::optional<LpResult> dual = dualReoptimize(m, lb, ub, *first.basis);
    ASSERT_TRUE(dual.has_value()) << "trial " << trial;
    if (dual->status != LpStatus::kOptimal) continue;
    const LpResult cold = RevisedSimplexSolver().solve(m);
    ASSERT_EQ(cold.status, LpStatus::kOptimal);
    dual_iters += dual->counters.iterations;
    cold_iters += cold.counters.iterations;
    ++exercised;
  }
  EXPECT_GE(exercised, 15);
  EXPECT_LE(dual_iters, cold_iters);
}

TEST(DualSimplex, GivesUpOnDualInfeasibleWarmBasis) {
  // min x + 2y st x + y >= 2 puts x basic and y nonbasic at its lower
  // bound. Re-solving with the opposite objective makes y's reduced cost
  // negative with no upper bound to flip to: the dual engine must decline
  // so the caller falls back to the primal.
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  m.addConstr(LinExpr(x) + y, Sense::kGreaterEqual, 2);
  m.setObjective(LinExpr(x) + 2.0 * y, ObjSense::kMinimize);
  const LpResult first = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  ASSERT_NE(first.basis, nullptr);

  Model m2 = m;
  m2.setObjective(LinExpr(x) + 2.0 * y, ObjSense::kMaximize);  // now unbounded-ish
  const std::vector<double> lb{0.0, 0.0};
  const std::vector<double> ub{kInfinity, kInfinity};
  EXPECT_FALSE(dualReoptimize(m2, lb, ub, *first.basis).has_value());
}

TEST(DualSimplex, AntiCyclingOnDegenerateReopt) {
  // The degenerate cluster from the primal suite, reoptimized through the
  // dual engine after a bound tightening: must terminate and agree with a
  // cold dense solve.
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  m.addConstr(LinExpr(x) - y, Sense::kLessEqual, 0);
  m.addConstr(2.0 * x - y, Sense::kLessEqual, 0);
  m.addConstr(3.0 * x - y, Sense::kLessEqual, 0);
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 4);
  m.setObjective(2.0 * x + y, ObjSense::kMaximize);
  const LpResult first = RevisedSimplexSolver().solve(m);
  ASSERT_EQ(first.status, LpStatus::kOptimal);

  m.setVarBounds(0, 0.0, 0.5);  // x <= 0.5
  const std::vector<double> lb{0.0, 0.0};
  const std::vector<double> ub{0.5, kInfinity};
  const std::optional<LpResult> dual = dualReoptimize(m, lb, ub, *first.basis);
  const LpResult dense = SimplexSolver().solve(m);
  ASSERT_EQ(dense.status, LpStatus::kOptimal);
  ASSERT_TRUE(dual.has_value());
  ASSERT_EQ(dual->status, LpStatus::kOptimal);
  EXPECT_NEAR(dual->objective, dense.objective, 1e-7);
}

TEST(DualReopt, BreakerCoolsDownAndReArmsInsteadOfDisablingForever) {
  // Regression: the circuit breaker used to be a kill switch — once
  // kBreakerStrikes consecutive give-ups tripped it, the strike counter
  // could never reset (the reset lived behind the tripped check), so one
  // hyper-degenerate subtree disabled the dual warm path for the entire
  // rest of the tree. It is now a cool-down: after kBreakerCooldown
  // declined calls one probe runs, and a completed probe re-arms the path.
  constexpr int kStrikes = DualReoptimizer::kBreakerStrikes;
  constexpr int kCooldown = DualReoptimizer::kBreakerCooldown;
  static_assert(kStrikes == 3 && kCooldown == 16, "the breaker's pinned settings");
  Model m;
  const Var x = m.addContinuous(0, kInfinity, "x");
  const Var y = m.addContinuous(0, kInfinity, "y");
  m.addConstr(LinExpr(x) + y, Sense::kGreaterEqual, 2);
  m.setObjective(2.0 * LinExpr(x) + y, ObjSense::kMinimize);
  const LpResult good = RevisedSimplexSolver().solve(m);  // y basic, x at lb
  ASSERT_EQ(good.status, LpStatus::kOptimal);
  ASSERT_NE(good.basis, nullptr);

  // A warm basis optimal for the *swapped* objective (x basic, y at lb) is
  // dual-infeasible for `m`: y's reduced cost is negative with no upper
  // bound to flip to, so every reoptimize from it must give up — the
  // deterministic stand-in for a subtree that defeats dual Devex.
  Model swapped = m;
  swapped.setObjective(LinExpr(x) + 2.0 * y, ObjSense::kMinimize);
  const LpResult bad_src = RevisedSimplexSolver().solve(swapped);
  ASSERT_EQ(bad_src.status, LpStatus::kOptimal);
  const sparse::Basis& bad = *bad_src.basis;
  const sparse::Basis& fine = *good.basis;

  const CscMatrix csc = CscMatrix::fromModel(m);
  DualReoptimizer reopt(m, csc, {});
  const std::vector<double> lb{0.0, 0.0};
  const std::vector<double> ub{kInfinity, kInfinity};

  // Three genuine give-ups trip the breaker...
  for (int i = 0; i < kStrikes; ++i)
    EXPECT_FALSE(reopt.reoptimize(lb, ub, bad, 0).has_value()) << "give-up " << i;
  // ...and while tripped even a perfectly good warm basis is declined for
  // 16 calls (the declines cost nothing — that is the point).
  for (int i = 0; i < kCooldown; ++i)
    EXPECT_FALSE(reopt.reoptimize(lb, ub, fine, 0).has_value()) << "cooldown call " << i;
  // The cool-down has elapsed: the next call is the probe, it completes,
  // and the warm path is fully re-armed — this is what the old kill-switch
  // breaker could never do.
  const std::optional<LpResult> probe = reopt.reoptimize(lb, ub, fine, 0);
  ASSERT_TRUE(probe.has_value()) << "probe after cool-down must run";
  EXPECT_EQ(probe->status, LpStatus::kOptimal);
  EXPECT_NEAR(probe->objective, good.objective, 1e-9);
  const std::optional<LpResult> rearmed = reopt.reoptimize(lb, ub, fine, 0);
  ASSERT_TRUE(rearmed.has_value());
  EXPECT_EQ(rearmed->status, LpStatus::kOptimal);

  // And a fresh run of give-ups can trip it again: the re-arm restored the
  // breaker, not just one probe.
  for (int i = 0; i < kStrikes; ++i)
    EXPECT_FALSE(reopt.reoptimize(lb, ub, bad, 0).has_value()) << "second give-up " << i;
  EXPECT_FALSE(reopt.reoptimize(lb, ub, fine, 0).has_value());  // tripped again
}

TEST(LpSolverReopt, DualFirstWithPrimalFallbackProducesCorrectResults) {
  // Through the LpSolver entry point: warm solves take the dual fast path
  // and still agree with the dense oracle; the primal engine alone, from
  // the same warm basis, agrees too.
  Rng rng(8642);
  int dual_hits = 0, exercised = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 6 + static_cast<int>(rng.nextBelow(8));
    Model m = randomSparseModel(rng, n, n + 3);
    LinExpr obj;
    for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(1, 9)) * Var{j};
    m.setObjective(obj, ObjSense::kMaximize);
    const LpResult first = LpSolver().solve(m);
    ASSERT_EQ(first.status, LpStatus::kOptimal);
    const int j = static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(n)));
    m.setVarBounds(j, m.var(j).lb, std::max(m.var(j).lb, m.var(j).ub / 2.0));
    std::vector<double> lb(static_cast<std::size_t>(n)), ub(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      lb[static_cast<std::size_t>(k)] = m.var(k).lb;
      ub[static_cast<std::size_t>(k)] = m.var(k).ub;
    }
    const LpResult warm = LpSolver().solve(m, lb, ub, first.basis.get());
    const LpResult primal = RevisedSimplexSolver().solve(m, lb, ub, first.basis.get());
    const LpResult dense = SimplexSolver().solve(m);
    ASSERT_EQ(warm.status, dense.status) << "trial " << trial;
    ASSERT_EQ(primal.status, dense.status) << "trial " << trial;
    EXPECT_EQ(primal.counters.dual_reopts, 0);
    dual_hits += warm.counters.dual_reopts;
    if (dense.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(warm.objective, dense.objective, 1e-6 * (1 + std::abs(dense.objective)));
    EXPECT_NEAR(primal.objective, dense.objective, 1e-6 * (1 + std::abs(dense.objective)));
    ++exercised;
  }
  EXPECT_GE(exercised, 15);
  EXPECT_GE(dual_hits, 25);  // the fast path must actually be the default
}

// ---- LpSolver memory estimate ---------------------------------------------

TEST(LpSolverDispatch, MemoryEstimatesScaleAsDocumented) {
  Rng rng(12);
  const Model m = randomSparseModel(rng, 40, 120);
  // 96 B/nonzero + 160 B/variable (documented in lp_solver.cpp) — assert
  // the exact formula so a unit slip (KiB/GiB confusion would mis-gate
  // max_lp_gib) is caught.
  const long nnz = sparse::countNonzeros(m);
  EXPECT_GT(nnz, 0);
  constexpr double kGib = 1024.0 * 1024.0 * 1024.0;
  EXPECT_NEAR(LpSolver::sparseFootprintGib(m) * kGib,
              96.0 * static_cast<double>(nnz) + 160.0 * (40 + 120), 1.0);
}

}  // namespace
}  // namespace rfp::lp

// ---- branch & bound over the sparse engine ---------------------------------

namespace rfp::milp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::Sense;
using lp::Var;
using testutil::bruteForceBest;

Model randomBinaryProgram(Rng& rng) {
  const int n = 4 + static_cast<int>(rng.nextBelow(8));
  const int rows = 1 + static_cast<int>(rng.nextBelow(4));
  Model m;
  for (int j = 0; j < n; ++j) m.addBinary("b");
  for (int i = 0; i < rows; ++i) {
    LinExpr e;
    for (int j = 0; j < n; ++j) {
      const long c = rng.nextInt(-4, 6);
      if (c != 0) e += static_cast<double>(c) * Var{j};
    }
    m.addConstr(e, rng.nextBool() ? Sense::kLessEqual : Sense::kGreaterEqual,
                static_cast<double>(rng.nextInt(0, 12)));
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(-10, 10)) * Var{j};
  m.setObjective(obj, rng.nextBool() ? ObjSense::kMaximize : ObjSense::kMinimize);
  return m;
}

TEST(MilpSparseProperty, MatchesBruteForceOnRandomPrograms) {
  Rng rng(31415);
  int solved = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Model m = randomBinaryProgram(rng);
    const std::optional<double> expected = bruteForceBest(m);
    const MipResult rs = MilpSolver().solve(m);
    if (!expected) {
      EXPECT_EQ(rs.status, MipStatus::kInfeasible) << "trial " << trial;
      continue;
    }
    ASSERT_EQ(rs.status, MipStatus::kOptimal) << "trial " << trial;
    ++solved;
    EXPECT_NEAR(rs.objective, *expected, 1e-6) << "trial " << trial;
    EXPECT_TRUE(m.isFeasible(rs.x, 1e-6)) << "trial " << trial;
  }
  EXPECT_GE(solved, 25);
}

TEST(MilpSparse, WarmStartedTreeIsDeterministicAndCheaper) {
  // Same model, warm starts on vs off: identical tree
  // (node-for-node) and optimum, but warm starts must not cost more LP
  // iterations in aggregate — that is the point of reoptimizing children
  // from the parent basis.
  Rng rng(2718);
  long warm_total = 0, cold_total = 0;
  int compared = 0;
  for (int trial = 0; trial < 25; ++trial) {
    const Model m = randomBinaryProgram(rng);
    MilpSolver::Options cold_opt;
    cold_opt.lp_warm_start = false;
    const MipResult warm = MilpSolver().solve(m);
    const MipResult cold = MilpSolver(cold_opt).solve(m);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    if (warm.status != MipStatus::kOptimal) continue;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
    EXPECT_EQ(cold.lp.warm_start_hits, 0);
    warm_total += warm.lp.iterations;
    cold_total += cold.lp.iterations;
    if (warm.nodes > 1) {
      EXPECT_GT(warm.lp.warm_start_hits, 0) << "trial " << trial;
      ++compared;
    }
  }
  EXPECT_GE(compared, 5);
  EXPECT_LE(warm_total, cold_total);
}

TEST(MilpSparse, ChildNodesReoptimizeThroughDualSimplex) {
  // With warm starts on (the default), child-node reoptimization must go
  // through the dual simplex: every tree that branches reports dual-reopt
  // solves, and the results still match brute-force enumeration.
  Rng rng(998877);
  int trees = 0, with_dual = 0;
  for (int trial = 0; trial < 120 && trees < 15; ++trial) {
    const Model m = randomBinaryProgram(rng);
    const MipResult rs = MilpSolver().solve(m);
    if (rs.status != MipStatus::kOptimal || rs.nodes <= 1) continue;
    ++trees;
    with_dual += rs.lp.dual_reopts > 0 ? 1 : 0;
    if (rs.lp.dual_reopts > 0) {
      EXPECT_GT(rs.lp.dual_pivots + rs.lp.bound_flips, 0);
    }
    const std::optional<double> expected = bruteForceBest(m);
    ASSERT_TRUE(expected.has_value()) << "trial " << trial;
    EXPECT_NEAR(rs.objective, *expected, 1e-6) << "trial " << trial;
  }
  EXPECT_GE(trees, 8);
  // A parent-optimal basis is dual feasible under a bound change, so the
  // fast path should carry (nearly) every branching tree.
  EXPECT_GE(with_dual, (trees * 3) / 4);
}

TEST(MilpSparse, CscMatrixBuiltExactlyOncePerTree) {
  // A fractional knapsack forces branching; the whole tree (root + every
  // node reoptimization) must share a single CSC build.
  Model m;
  const std::vector<double> w{3, 5, 7, 4, 6};
  const std::vector<double> c{4, 5, 6, 3, 7};
  LinExpr cap, obj;
  for (int j = 0; j < 5; ++j) {
    m.addBinary("b");
    cap += w[static_cast<std::size_t>(j)] * Var{j};
    obj += c[static_cast<std::size_t>(j)] * Var{j};
  }
  m.addConstr(cap, Sense::kLessEqual, 11);
  m.setObjective(obj, ObjSense::kMaximize);

  const long before = lp::sparse::CscMatrix::buildCount();
  const MipResult res = MilpSolver().solve(m);
  const long built = lp::sparse::CscMatrix::buildCount() - before;
  ASSERT_EQ(res.status, MipStatus::kOptimal);
  EXPECT_GT(res.nodes, 1);  // the instance must actually branch
  EXPECT_EQ(built, 1) << "every node solve should reuse the tree's CSC build";
}

}  // namespace
}  // namespace rfp::milp

// ---- floorplanning formulation root relaxations ----------------------------

namespace rfp {
namespace {

TEST(SparseFormulation, RootRelaxationAgreesWithDenseOnGeneratedInstances) {
  Rng rng(64);
  const device::Device dev = device::virtex5FX70T();
  int exercised = 0;
  for (std::uint64_t seed = 1; seed <= 8 && exercised < 3; ++seed) {
    model::GeneratorOptions gopt;
    gopt.num_regions = 3;
    gopt.num_nets = 2;
    gopt.seed = seed;
    const auto problem = model::generateProblem(dev, gopt);
    if (!problem) continue;
    const auto part = partition::columnarPartition(dev);
    ASSERT_TRUE(part.has_value());
    fp::MilpFormulation formulation(*problem, *part, {});
    const lp::Model& m = formulation.model();

    const lp::LpResult dense = lp::SimplexSolver().solve(m);
    const lp::LpResult sparse = lp::LpSolver().solve(m);
    ASSERT_EQ(dense.status, sparse.status) << "seed " << seed;
    if (dense.status != lp::LpStatus::kOptimal) continue;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-5 * (1 + std::abs(dense.objective)))
        << "seed " << seed;
    ++exercised;
  }
  EXPECT_GE(exercised, 1) << "generator produced no solvable instance";
}

TEST(SparseFormulation, DegenerateDiveStaysOnDualPathUnderSteepestEdge) {
  // Regression for the SDR3 failure mode: floorplanning formulations are
  // hyper-degenerate, and dual Devex row pricing used to wander past the
  // effort budget on their node reoptimizations — tripping the give-up
  // circuit breaker and dumping the dive onto the primal fallback. With
  // exact steepest-edge pricing a branch & bound style dive must stay on
  // the dual fast path: every node answered, no declines. Warm reopts
  // perturb ~1 bound, so their triangular solves must take the hyper-sparse
  // kernel path, and the dual path must need no more iterations than the
  // primal warm path replaying the same nodes from the same parent bases.
  Rng rng(64);
  const device::Device dev = device::virtex5FX70T();
  model::GeneratorOptions gopt;
  gopt.num_regions = 3;
  gopt.num_nets = 2;
  std::optional<model::FloorplanProblem> problem;
  for (gopt.seed = 1; gopt.seed <= 16 && !problem; ++gopt.seed)
    problem = model::generateProblem(dev, gopt);
  ASSERT_TRUE(problem.has_value());
  const auto part = partition::columnarPartition(dev);
  ASSERT_TRUE(part.has_value());
  fp::MilpFormulation formulation(*problem, *part, {});
  const lp::Model& m = formulation.model();

  const lp::sparse::CscMatrix csc = lp::sparse::CscMatrix::fromModel(m);
  const lp::LpResult root = lp::LpSolver().solve(m);
  ASSERT_EQ(root.status, lp::LpStatus::kOptimal);
  ASSERT_NE(root.basis, nullptr);

  lp::sparse::DualReoptimizer reopt(m, csc, {});
  std::vector<double> lb(static_cast<std::size_t>(m.numVars()));
  std::vector<double> ub(static_cast<std::size_t>(m.numVars()));
  for (int j = 0; j < m.numVars(); ++j) {
    lb[static_cast<std::size_t>(j)] = m.var(j).lb;
    ub[static_cast<std::size_t>(j)] = m.var(j).ub;
  }
  std::shared_ptr<const lp::sparse::Basis> basis = root.basis;
  std::vector<double> x = root.x;
  struct Node {
    std::vector<double> lb, ub;
    std::shared_ptr<const lp::sparse::Basis> parent;
    lp::LpStatus status = lp::LpStatus::kIterLimit;
    double objective = 0.0;
  };
  std::vector<Node> dive;
  lp::LpCounters dual;
  while (dive.size() < 10) {
    int frac_var = -1;
    for (int j = 0; j < m.numVars() && frac_var < 0; ++j) {
      if (m.var(j).type == lp::VarType::kContinuous) continue;
      const double f =
          x[static_cast<std::size_t>(j)] - std::floor(x[static_cast<std::size_t>(j)]);
      if (f > 1e-6 && f < 1.0 - 1e-6) frac_var = j;
    }
    if (frac_var < 0) break;  // dive reached an integral point
    const double v = x[static_cast<std::size_t>(frac_var)];
    if (v - std::floor(v) <= 0.5)
      ub[static_cast<std::size_t>(frac_var)] = std::floor(v);
    else
      lb[static_cast<std::size_t>(frac_var)] = std::floor(v) + 1.0;
    const std::optional<lp::LpResult> r = reopt.reoptimize(lb, ub, *basis, 30);
    ASSERT_TRUE(r.has_value()) << "node " << dive.size()
                               << ": dual fast path declined a parent-optimal warm start";
    dive.push_back({lb, ub, basis, r->status, r->objective});
    dual += r->counters;
    if (r->status != lp::LpStatus::kOptimal) break;  // infeasible leaf ends the dive
    EXPECT_EQ(r->counters.dual_reopts, 1);
    basis = r->basis;
    x = r->x;
  }
  EXPECT_GE(dive.size(), 3u) << "instance did not branch enough to exercise the dive";
  // Steepest-edge pricing must actually be running its recurrence: every
  // dual pivot applies one weight update.
  EXPECT_EQ(dual.dse_updates, dual.dual_pivots);
  EXPECT_GT(dual.dual_pivots, 0);
  EXPECT_GT(dual.ftran_sparse + dual.btran_sparse, 0)
      << "warm reopts never took the hyper-sparse FTRAN/BTRAN path";

  const lp::sparse::RevisedSimplexSolver primal_warm;
  lp::LpCounters primal;
  for (std::size_t i = 0; i < dive.size(); ++i) {
    const Node& node = dive[i];
    const lp::LpResult r = primal_warm.solve(m, node.lb, node.ub, node.parent.get(), &csc);
    ASSERT_EQ(r.status, node.status) << "node " << i;
    if (r.status == lp::LpStatus::kOptimal) {
      EXPECT_NEAR(r.objective, node.objective, 1e-5 * (1 + std::abs(node.objective)))
          << "node " << i;
    }
    primal += r.counters;
  }
  EXPECT_EQ(primal.dual_reopts, 0);
  EXPECT_LE(dual.iterations, primal.iterations)
      << "dual warm reopt needed more iterations than the primal warm path";
}

TEST(SparseFormulation, Sdr2BasesFactorizeWithSmallResiduals) {
  // Paper scale for the LU kernel: bases of the SDR2 MILP-O formulation
  // (~40k rows, big-M structural columns hundreds of entries long). The
  // cold root's optimal basis, then seeded mixes of the longest structural
  // columns into the slack basis, each at one of its own rows; singular
  // mixes are repaired as the simplex would. FTRAN and BTRAN must solve
  // B x = b and B^T y = c to small residuals.
  const device::Device dev = device::virtex5FX70T();
  const auto part = partition::columnarPartition(dev);
  ASSERT_TRUE(part.has_value());
  model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr, 2);
  const fp::MilpFormulation form(sdr, *part, {});
  const lp::Model& m = form.model();
  const lp::sparse::CscMatrix a = lp::sparse::CscMatrix::fromModel(m);
  const int rows = a.rows;

  Rng rng(2);
  const auto residuals = [&](std::vector<int> basic, const std::string& what) {
    lp::sparse::BasisLu lu;
    if (!lu.factorize(a, basic)) {
      ASSERT_EQ(lu.deficientPositions().size(), lu.unpivotedRows().size()) << what;
      for (std::size_t i = 0; i < lu.deficientPositions().size(); ++i)
        basic[static_cast<std::size_t>(lu.deficientPositions()[i])] =
            a.cols + lu.unpivotedRows()[i];
      ASSERT_TRUE(lu.factorize(a, basic)) << what;
    }
    std::vector<double> b(static_cast<std::size_t>(rows)), c(b.size());
    for (double& v : b) v = static_cast<double>(rng.nextInt(-9, 9));
    for (double& v : c) v = static_cast<double>(rng.nextInt(-9, 9));
    std::vector<double> x = b, y = c;
    lu.ftran(x);
    lu.btran(y);
    const std::vector<double> bx = lp::multiplyBasis(a, basic, x);
    const std::vector<double> bty = lp::multiplyBasisTransposed(a, basic, y);
    double worst_ftran = 0.0, worst_btran = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      worst_ftran = std::max(worst_ftran, std::abs(bx[i] - b[i]));
      worst_btran = std::max(worst_btran, std::abs(bty[i] - c[i]));
    }
    EXPECT_LE(worst_ftran, 1e-6) << what << ": ||Bx - b||_inf";
    EXPECT_LE(worst_btran, 1e-6) << what << ": ||B^T y - c||_inf";
  };

  const lp::LpResult root = lp::LpSolver().solve(m);
  ASSERT_EQ(root.status, lp::LpStatus::kOptimal);
  ASSERT_NE(root.basis, nullptr);
  residuals(root.basis->basic, "cold root basis");

  // The longest structural columns: the big-M rows of the formulation.
  std::vector<int> by_length(static_cast<std::size_t>(a.cols));
  for (int j = 0; j < a.cols; ++j) by_length[static_cast<std::size_t>(j)] = j;
  const auto length = [&](int j) {
    return a.ptr[static_cast<std::size_t>(j) + 1] - a.ptr[static_cast<std::size_t>(j)];
  };
  std::stable_sort(by_length.begin(), by_length.end(),
                   [&](int i, int j) { return length(i) > length(j); });
  by_length.resize(by_length.size() / 4);
  for (const int mix : {64, 256, 512}) {
    std::vector<int> basic(static_cast<std::size_t>(rows));
    for (int p = 0; p < rows; ++p) basic[static_cast<std::size_t>(p)] = a.cols + p;
    for (int t = 0; t < mix; ++t) {
      const int j = by_length[rng.nextBelow(by_length.size())];
      const int k = a.ptr[static_cast<std::size_t>(j)] +
                    static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(length(j))));
      basic[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])] = j;
    }
    residuals(basic, "mix of " + std::to_string(mix) + " big-M columns");
  }
}

}  // namespace
}  // namespace rfp
