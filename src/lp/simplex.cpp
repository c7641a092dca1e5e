#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace rfp::lp {

const char* toString(LpStatus s) noexcept {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterLimit: return "iteration-limit";
    case LpStatus::kTimeLimit: return "time-limit";
  }
  return "?";
}

namespace {

constexpr double kInf = kInfinity;

/// Dense working tableau for the two-phase bounded simplex.
///
/// Column layout: [0, n) structural (shifted to lower bound 0),
/// [n, n+m) slack/surplus, [n+m, n+m+na) artificial. Row 0 is the cost row;
/// rows 1..m are constraints; column `ncols` is the rhs.
class Tableau {
 public:
  Tableau(const Model& model, std::span<const double> lb, std::span<const double> ub,
          const SimplexSolver::Options& opt)
      : opt_(opt), model_(model) {
    n_ = model.numVars();
    m_ = model.numConstrs();
    shift_.resize(n_);
    upper_.assign(n_, kInf);

    for (int j = 0; j < n_; ++j) {
      const double l = lb[static_cast<std::size_t>(j)];
      const double u = ub[static_cast<std::size_t>(j)];
      RFP_CHECK_MSG(l > -kInf / 2,
                    "simplex requires finite lower bounds (var " << j << ")");
      RFP_CHECK_MSG(l <= u, "simplex: lb > ub for var " << j);
      shift_[j] = l;
      upper_[j] = (u >= kInf / 2) ? kInf : u - l;
    }

    // Row preprocessing: shift rhs by lower bounds, normalize rhs >= 0.
    struct Row {
      const Constraint* c;
      double rhs;
      double sign;  // +1 or -1 applied to the stored coefficients
      Sense sense;  // after sign normalization
    };
    std::vector<Row> rows;
    rows.reserve(static_cast<std::size_t>(m_));
    int n_artificial = 0;
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = model.constr(i);
      double rhs = c.rhs;
      for (const auto& [v, coef] : c.terms) rhs -= coef * shift_[v];
      double sign = 1.0;
      Sense sense = c.sense;
      if (rhs < 0) {
        sign = -1.0;
        rhs = -rhs;
        if (sense == Sense::kLessEqual)
          sense = Sense::kGreaterEqual;
        else if (sense == Sense::kGreaterEqual)
          sense = Sense::kLessEqual;
      }
      if (sense != Sense::kLessEqual) ++n_artificial;
      rows.push_back(Row{&c, rhs, sign, sense});
    }

    na_ = n_artificial;
    ncols_ = n_ + m_ + na_;
    stride_ = ncols_ + 1;
    tab_.assign(static_cast<std::size_t>(m_ + 1) * static_cast<std::size_t>(stride_), 0.0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    flipped_.assign(static_cast<std::size_t>(ncols_), false);
    is_artificial_.assign(static_cast<std::size_t>(ncols_), false);
    col_upper_.assign(static_cast<std::size_t>(ncols_), kInf);
    for (int j = 0; j < n_; ++j) col_upper_[static_cast<std::size_t>(j)] = upper_[j];

    int next_art = n_ + m_;
    for (int i = 0; i < m_; ++i) {
      const Row& row = rows[static_cast<std::size_t>(i)];
      double* tr = rowPtr(i + 1);
      for (const auto& [v, coef] : row.c->terms) tr[v] += row.sign * coef;
      tr[ncols_] = row.rhs;
      const int slack = n_ + i;
      switch (row.sense) {
        case Sense::kLessEqual:
          tr[slack] = 1.0;
          basis_[static_cast<std::size_t>(i)] = slack;
          break;
        case Sense::kGreaterEqual: {
          tr[slack] = -1.0;
          tr[next_art] = 1.0;
          is_artificial_[static_cast<std::size_t>(next_art)] = true;
          basis_[static_cast<std::size_t>(i)] = next_art++;
          break;
        }
        case Sense::kEqual: {
          // The slack column for '=' rows is fixed at zero.
          col_upper_[static_cast<std::size_t>(slack)] = 0.0;
          tr[next_art] = 1.0;
          is_artificial_[static_cast<std::size_t>(next_art)] = true;
          basis_[static_cast<std::size_t>(i)] = next_art++;
          break;
        }
      }
    }
    RFP_CHECK(next_art == ncols_);
  }

  /// Runs both phases; returns the outcome and fills `x_out` on optimality.
  LpStatus run(std::vector<double>& x_out, long& iters_out, const Deadline& deadline) {
    long iters = 0;
    // ---- Phase 1 (only when artificial variables exist) ----
    if (na_ > 0) {
      setPhase1CostRow();
      const LpStatus s1 = iterate(/*ban_artificials=*/false, iters, deadline);
      if (s1 == LpStatus::kIterLimit || s1 == LpStatus::kTimeLimit) {
        iters_out = iters;
        return s1;
      }
      // Phase-1 objective value = -rhs of the cost row.
      const double infeas = -rowPtr(0)[ncols_];
      if (infeas > 1e-6) {
        iters_out = iters;
        return LpStatus::kInfeasible;
      }
      driveOutArtificials();
    }
    // ---- Phase 2 ----
    setPhase2CostRow();
    const LpStatus s2 = iterate(/*ban_artificials=*/true, iters, deadline);
    iters_out = iters;
    if (s2 != LpStatus::kOptimal) return s2;

    x_out.assign(static_cast<std::size_t>(n_), 0.0);
    std::vector<double> raw(static_cast<std::size_t>(ncols_), 0.0);
    for (int i = 0; i < m_; ++i)
      raw[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = rowPtr(i + 1)[ncols_];
    for (int j = 0; j < n_; ++j) {
      double v = raw[static_cast<std::size_t>(j)];
      if (flipped_[static_cast<std::size_t>(j)]) v = col_upper_[static_cast<std::size_t>(j)] - v;
      x_out[static_cast<std::size_t>(j)] = shift_[j] + v;
    }
    return LpStatus::kOptimal;
  }

 private:
  double* rowPtr(int i) { return tab_.data() + static_cast<std::size_t>(i) * stride_; }
  const double* rowPtr(int i) const {
    return tab_.data() + static_cast<std::size_t>(i) * stride_;
  }

  void setPhase1CostRow() {
    double* z = rowPtr(0);
    std::fill(z, z + stride_, 0.0);
    for (int j = 0; j < ncols_; ++j)
      if (is_artificial_[static_cast<std::size_t>(j)]) z[j] = 1.0;
    // Eliminate the (basic) artificial columns from the cost row.
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (!is_artificial_[static_cast<std::size_t>(b)]) continue;
      const double* tr = rowPtr(i + 1);
      for (int j = 0; j <= ncols_; ++j) z[j] -= tr[j];
    }
  }

  void setPhase2CostRow() {
    double* z = rowPtr(0);
    std::fill(z, z + stride_, 0.0);
    const double dir = (model_.objSense() == ObjSense::kMinimize) ? 1.0 : -1.0;
    for (const auto& [v, c] : model_.objective().terms()) {
      if (flipped_[static_cast<std::size_t>(v)]) {
        z[v] += -dir * c;
        z[ncols_] -= dir * c * col_upper_[static_cast<std::size_t>(v)];
      } else {
        z[v] += dir * c;
      }
    }
    // Eliminate basic columns.
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      const double zb = z[b];
      if (zb == 0.0) continue;
      const double* tr = rowPtr(i + 1);
      for (int j = 0; j <= ncols_; ++j) z[j] -= zb * tr[j];
    }
  }

  /// After phase 1: pivot remaining basic artificials out wherever possible.
  void driveOutArtificials() {
    for (int i = 0; i < m_; ++i) {
      const int b = basis_[static_cast<std::size_t>(i)];
      if (!is_artificial_[static_cast<std::size_t>(b)]) continue;
      const double* tr = rowPtr(i + 1);
      int pivot_col = -1;
      double best = opt_.pivot_tol;
      for (int j = 0; j < n_ + m_; ++j) {
        if (isBasic(j)) continue;
        if (col_upper_[static_cast<std::size_t>(j)] <= 0.0) continue;  // fixed column
        const double a = std::abs(tr[j]);
        if (a > best) {
          best = a;
          pivot_col = j;
        }
      }
      if (pivot_col >= 0) pivot(i + 1, pivot_col);
      // Otherwise the row is redundant; the artificial stays basic at value 0
      // and `ban_artificials` keeps it from ever moving.
    }
  }

  [[nodiscard]] bool isBasic(int j) const {
    for (int i = 0; i < m_; ++i)
      if (basis_[static_cast<std::size_t>(i)] == j) return true;
    return false;
  }

  void pivot(int row, int col) {
    double* pr = rowPtr(row);
    const double p = pr[col];
    const double inv = 1.0 / p;
    for (int j = 0; j <= ncols_; ++j) pr[j] *= inv;
    pr[col] = 1.0;  // exact
    for (int i = 0; i <= m_; ++i) {
      if (i == row) continue;
      double* tr = rowPtr(i);
      const double f = tr[col];
      if (f == 0.0) continue;
      for (int j = 0; j <= ncols_; ++j) tr[j] -= f * pr[j];
      tr[col] = 0.0;  // exact
    }
    basis_[static_cast<std::size_t>(row - 1)] = col;
  }

  /// Flip nonbasic column j between its bounds: substitute x := U - x.
  void flipColumn(int j) {
    const double u = col_upper_[static_cast<std::size_t>(j)];
    RFP_CHECK(u < kInf / 2);
    for (int i = 0; i <= m_; ++i) {
      double* tr = rowPtr(i);
      tr[ncols_] -= u * tr[j];
      tr[j] = -tr[j];
    }
    flipped_[static_cast<std::size_t>(j)] = !flipped_[static_cast<std::size_t>(j)];
  }

  LpStatus iterate(bool ban_artificials, long& iters, const Deadline& deadline) {
    std::vector<char> in_basis(static_cast<std::size_t>(ncols_), 0);
    for (int i = 0; i < m_; ++i) in_basis[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = 1;

    int degenerate_streak = 0;
    while (true) {
      if (++iters > opt_.max_iterations) return LpStatus::kIterLimit;
      if ((iters & 63) == 0 &&
          (deadline.expired() ||
           (opt_.stop && opt_.stop->load(std::memory_order_relaxed))))
        return LpStatus::kTimeLimit;

      const bool bland = degenerate_streak > opt_.bland_after_degenerate;
      const double* z = rowPtr(0);

      // ---- pricing ----
      int e = -1;
      double best = -opt_.cost_tol;
      for (int j = 0; j < ncols_; ++j) {
        if (in_basis[static_cast<std::size_t>(j)]) continue;
        if (ban_artificials && is_artificial_[static_cast<std::size_t>(j)]) continue;
        if (col_upper_[static_cast<std::size_t>(j)] <= 0.0) continue;  // fixed at bound
        const double d = z[j];
        if (d < best) {
          best = d;
          e = j;
          if (bland) break;  // Bland: first improving index
        }
      }
      if (e < 0) return LpStatus::kOptimal;

      // ---- ratio test (upper-bounded) ----
      double t_best = col_upper_[static_cast<std::size_t>(e)];  // entering hits own UB
      int leave_row = -1;
      bool leave_at_upper = false;
      double best_pivot_mag = 0.0;
      for (int i = 1; i <= m_; ++i) {
        const double* tr = rowPtr(i);
        const double a = tr[e];
        const int bi = basis_[static_cast<std::size_t>(i - 1)];
        if (a > opt_.pivot_tol) {
          const double t = std::max(0.0, tr[ncols_]) / a;
          if (t < t_best - 1e-12 ||
              (t < t_best + 1e-12 && leave_row >= 0 && std::abs(a) > best_pivot_mag)) {
            t_best = t;
            leave_row = i;
            leave_at_upper = false;
            best_pivot_mag = std::abs(a);
          }
        } else if (a < -opt_.pivot_tol) {
          const double ub = col_upper_[static_cast<std::size_t>(bi)];
          if (ub >= kInf / 2) continue;
          const double t = (ub - tr[ncols_]) / (-a);
          if (t < t_best - 1e-12 ||
              (t < t_best + 1e-12 && leave_row >= 0 && std::abs(a) > best_pivot_mag)) {
            t_best = std::max(0.0, t);
            leave_row = i;
            leave_at_upper = true;
            best_pivot_mag = std::abs(a);
          }
        }
      }

      if (leave_row < 0) {
        if (t_best >= kInf / 2) return LpStatus::kUnbounded;
        // Bound flip: entering moves from one bound to the other; no pivot.
        flipColumn(e);
        degenerate_streak = 0;
        continue;
      }

      degenerate_streak = (t_best < 1e-10) ? degenerate_streak + 1 : 0;

      const int leaving = basis_[static_cast<std::size_t>(leave_row - 1)];
      pivot(leave_row, e);
      in_basis[static_cast<std::size_t>(e)] = 1;
      in_basis[static_cast<std::size_t>(leaving)] = 0;
      if (leave_at_upper) flipColumn(leaving);
    }
  }

  SimplexSolver::Options opt_;
  const Model& model_;
  int n_ = 0;      ///< structural variables
  int m_ = 0;      ///< rows
  int na_ = 0;     ///< artificial variables
  int ncols_ = 0;  ///< total columns (excluding rhs)
  int stride_ = 0;
  std::vector<double> tab_;
  std::vector<int> basis_;
  std::vector<double> shift_;       ///< structural lower bounds
  std::vector<double> upper_;       ///< structural (shifted) upper bounds
  std::vector<double> col_upper_;   ///< per-column upper bound (shifted space)
  std::vector<bool> flipped_;
  std::vector<bool> is_artificial_;
};

}  // namespace

LpResult SimplexSolver::solve(const Model& model) const {
  std::vector<double> lb(static_cast<std::size_t>(model.numVars()));
  std::vector<double> ub(static_cast<std::size_t>(model.numVars()));
  for (int j = 0; j < model.numVars(); ++j) {
    lb[static_cast<std::size_t>(j)] = model.var(j).lb;
    ub[static_cast<std::size_t>(j)] = model.var(j).ub;
  }
  return solve(model, lb, ub);
}

LpResult SimplexSolver::solve(const Model& model, std::span<const double> lb,
                              std::span<const double> ub) const {
  RFP_CHECK(static_cast<int>(lb.size()) == model.numVars());
  RFP_CHECK(static_cast<int>(ub.size()) == model.numVars());
  Stopwatch watch;
  Deadline deadline(options_.time_limit_seconds);
  LpResult result;
  result.counters.solves = 1;

  // Infeasible boxes short-circuit (branch & bound produces these).
  for (int j = 0; j < model.numVars(); ++j) {
    if (lb[static_cast<std::size_t>(j)] > ub[static_cast<std::size_t>(j)] + 1e-12) {
      result.status = LpStatus::kInfeasible;
      result.seconds = watch.seconds();
      return result;
    }
  }

  Tableau tableau(model, lb, ub, options_);
  result.status = tableau.run(result.x, result.counters.iterations, deadline);
  if (result.status == LpStatus::kOptimal)
    result.objective = model.evalObjective(result.x);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace rfp::lp
