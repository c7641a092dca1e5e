#include "lp/sparse/revised_simplex.hpp"

#include <algorithm>
#include <cmath>

#include "lp/sparse/simplex_state.hpp"
#include "support/check.hpp"
#include "support/telemetry/trace.hpp"

namespace rfp::lp::sparse {

namespace {

/// One solve's working state over the shared StandardForm/BasisState
/// machinery (simplex_state.hpp).
class Worker {
 public:
  Worker(const Model& model, std::span<const double> lb, std::span<const double> ub,
         const CscMatrix* csc, const RevisedSimplexSolver::Options& opt)
      : opt_(opt), f_(model, lb, ub, csc) {
    bs_.lu = BasisLu(opt_.lu);
    weights_.assign(uz(f_.nn), 1.0);
    alpha_.reset(f_.m);
    rho_.reset(f_.m);
    tau_.reset(f_.m);
    cb_.resize(uz(f_.m));
    dual_.resize(uz(f_.m));
    arow_.assign(uz(f_.nn), 0.0);
    colmark_.assign(uz(f_.nn), 0);
    if (opt_.core.telemetry && opt_.core.telemetry->metrics) {
      ftran_hist_ = &opt_.core.telemetry->metrics->histogram("lp.ftran_density_permille");
      btran_hist_ = &opt_.core.telemetry->metrics->histogram("lp.btran_density_permille");
    }
  }

  LpStatus run(const Basis* warm, LpResult& out, const Deadline& deadline) {
    if (!bs_.adoptWarmBasis(f_, warm)) bs_.slackBasis(f_);
    bs_.refactorize(f_);
    bs_.computeXb(f_);

    long iters = 0;
    LpStatus status = LpStatus::kIterLimit;
    // Outer recovery loop: after phase 2 claims optimality, the basics are
    // recomputed through a fresh factorization; residual infeasibility
    // (accumulated factor drift) sends the solve back to phase 1.
    bool verified = false;
    for (int round = 0; round < 3 && !verified; ++round) {
      status = iterate(/*phase1=*/true, iters, deadline);
      if (status == LpStatus::kInfeasible && bs_.lu.updateCount() > 0) {
        // Infeasibility claims get the same skepticism as optimality ones:
        // re-derive the basics through fresh factors before pruning a
        // branch & bound subtree on the verdict.
        bs_.refactorize(f_);
        bs_.computeXb(f_);
        status = iterate(/*phase1=*/true, iters, deadline);
      }
      if (status != LpStatus::kOptimal) break;
      status = iterate(/*phase1=*/false, iters, deadline);
      if (status != LpStatus::kOptimal) break;
      if (bs_.lu.updateCount() > 0) bs_.refactorize(f_);  // fresh factors for the final check
      bs_.computeXb(f_);
      verified = bs_.maxBasicViolation(f_) <= 10.0 * opt_.core.feas_tol;
    }
    // Never report an unverified point as optimal: if the re-check kept
    // failing, degrade to a truncation status so callers (branch & bound)
    // drop the result instead of pruning against a bogus bound.
    if (status == LpStatus::kOptimal && !verified) status = LpStatus::kIterLimit;
    out.counters = bs_.withFactorCounters(counters_);
    out.counters.solves = 1;
    out.counters.iterations = iters;
    out.counters.warm_start_hits = bs_.warm_started ? 1 : 0;
    if (status != LpStatus::kOptimal) return status;

    // Extract the primal point (structural variables only).
    out.x.assign(uz(f_.n), 0.0);
    for (int j = 0; j < f_.n; ++j)
      if (bs_.status[uz(j)] != VarStatus::kBasic) out.x[uz(j)] = bs_.nonbasicValue(f_, j);
    for (int p = 0; p < f_.m; ++p) {
      const int b = bs_.basic[uz(p)];
      if (b < f_.n) out.x[uz(b)] = bs_.xb[uz(p)];
    }
    out.basis = bs_.snapshot(f_);
    return LpStatus::kOptimal;
  }

 private:
  // ---- the simplex loop ----------------------------------------------------
  //
  // Pricing weights start at all ones for both rules: Devex's reference
  // framework and *projected* steepest edge both take the starting basis as
  // the reference. (Seeding steepest edge with exact column norms instead
  // was measured slower on the big-M floorplanning formulations — huge
  // norms starve exactly the columns worth entering.)

  /// True when basic position p currently violates a bound beyond feas_tol.
  enum class Feas { kOk, kBelow, kAbove };
  [[nodiscard]] Feas classify(int p) const {
    const int b = bs_.basic[uz(p)];
    const double v = bs_.xb[uz(p)];
    if (v < f_.lo[uz(b)] - opt_.core.feas_tol) return Feas::kBelow;
    if (v > f_.up[uz(b)] + opt_.core.feas_tol) return Feas::kAbove;
    return Feas::kOk;
  }

  LpStatus iterate(bool phase1, long& iters, const Deadline& deadline) {
    int degenerate_streak = 0;
    int consecutive_recoveries = 0;
    // Devex restarts its reference framework per phase; steepest-edge
    // weights describe basis geometry, which phases share.
    if (opt_.pricing == Pricing::kDevex)
      std::fill(weights_.begin(), weights_.end(), 1.0);
    while (true) {
      if (++iters > opt_.core.max_iterations) return LpStatus::kIterLimit;
      if ((iters & 7) == 0 &&
          (deadline.expired() ||
           (opt_.core.stop && opt_.core.stop->load(std::memory_order_relaxed))))
        return LpStatus::kTimeLimit;

      // Phase-1 cost row: unit penalty per violated bound. Phase 1 is over
      // as soon as every basic variable is inside its bounds.
      bool any_infeasible = false;
      if (phase1) {
        for (int p = 0; p < f_.m; ++p) {
          const Feas fe = classify(p);
          cb_[uz(p)] = fe == Feas::kBelow ? -1.0 : (fe == Feas::kAbove ? 1.0 : 0.0);
          any_infeasible = any_infeasible || fe != Feas::kOk;
        }
        if (!any_infeasible) return LpStatus::kOptimal;
      } else {
        for (int p = 0; p < f_.m; ++p) cb_[uz(p)] = f_.cost[uz(bs_.basic[uz(p)])];
      }

      // Duals and pricing. The dual vector is structurally dense (the basic
      // cost row rarely has small support), so it keeps the dense sweep.
      dual_ = cb_;
      bs_.lu.btran(dual_);  // dual_ now holds y (row space)
      const bool bland = degenerate_streak > opt_.core.bland_after_degenerate;
      int enter = -1;
      double enter_d = 0.0;
      double best_score = 0.0;
      for (int j = 0; j < f_.nn; ++j) {
        if (bs_.status[uz(j)] == VarStatus::kBasic) continue;
        if (f_.lo[uz(j)] == f_.up[uz(j)]) continue;  // fixed
        const double cj = phase1 ? 0.0 : f_.cost[uz(j)];
        const double d = cj - f_.columnDot(dual_, j);
        const VarStatus s = bs_.status[uz(j)];
        const bool eligible = (s == VarStatus::kAtLower && d < -opt_.core.cost_tol) ||
                              (s == VarStatus::kAtUpper && d > opt_.core.cost_tol) ||
                              (s == VarStatus::kFree && std::abs(d) > opt_.core.cost_tol);
        if (!eligible) continue;
        if (bland) {
          enter = j;
          enter_d = d;
          break;  // Bland: first eligible index
        }
        const double score = d * d / weights_[uz(j)];
        if (enter < 0 || score > best_score) {
          enter = j;
          enter_d = d;
          best_score = score;
        }
      }
      if (enter < 0)
        return phase1 && any_infeasible ? LpStatus::kInfeasible : LpStatus::kOptimal;

      const double dir =
          bs_.status[uz(enter)] == VarStatus::kAtUpper
              ? -1.0
              : (bs_.status[uz(enter)] == VarStatus::kFree && enter_d > 0 ? -1.0 : 1.0);
      f_.scatterColumn(enter, alpha_);
      bs_.lu.ftranSparse(alpha_, &spike_);
      if (ftran_hist_) ftran_hist_->record(densityPermille(alpha_));

      // ---- ratio test (phase-aware, over alpha's support only) ----
      // `relax` loosens the blocking bound: 0 gives the exact ratio, a
      // positive value the Harris pass-1 relaxed one. Returns false when the
      // row cannot block.
      const auto rowRatio = [&](int p, double relax, double& t, bool& at_upper) -> bool {
        const double apv = alpha_.val[uz(p)];
        if (std::abs(apv) <= opt_.core.pivot_tol) return false;
        const double delta = -dir * apv;  // d xB_p / dt
        const int b = bs_.basic[uz(p)];
        const double v = bs_.xb[uz(p)];
        const Feas fe = phase1 ? classify(p) : Feas::kOk;
        if (fe == Feas::kBelow) {
          // Infeasible basics block only where they regain feasibility.
          if (delta <= 0) return false;
          t = (f_.lo[uz(b)] - v + relax) / delta;
          at_upper = false;
        } else if (fe == Feas::kAbove) {
          if (delta >= 0) return false;
          t = (v - f_.up[uz(b)] + relax) / (-delta);
          at_upper = true;
        } else if (delta > 0) {
          if (!finiteUp(f_.up[uz(b)])) return false;
          t = (f_.up[uz(b)] - v + relax) / delta;
          at_upper = true;
        } else {
          if (!finiteLo(f_.lo[uz(b)])) return false;
          t = (v - f_.lo[uz(b)] + relax) / (-delta);
          at_upper = false;
        }
        return true;
      };

      const double lo_e = f_.lo[uz(enter)];
      const double up_e = f_.up[uz(enter)];
      const double t_flip = (finiteLo(lo_e) && finiteUp(up_e)) ? up_e - lo_e : kInfinity;
      double t_best = t_flip;
      int block = -1;
      bool leave_upper = false;
      if (bland) {
        // Bland keeps the classic single pass: its anti-cycling argument
        // needs the minimum-ratio / lowest-index choice.
        for (const int p : alpha_.idx) {
          double t;
          bool at_upper;
          if (!rowRatio(p, 0.0, t, at_upper)) continue;
          t = std::max(0.0, t);
          const bool tie = t < t_best + 1e-12 && block >= 0;
          if (t < t_best - 1e-12 || (tie && bs_.basic[uz(p)] < bs_.basic[uz(block)])) {
            t_best = t;
            block = p;
            leave_upper = at_upper;
          }
        }
      } else {
        // Harris two-pass: pass 1 bounds the step with feas_tol-relaxed
        // ratios, pass 2 takes the largest pivot whose exact ratio fits —
        // trading a feas_tol-bounded overshoot for numerical stability on
        // the degenerate ties the floorplanning models are full of.
        double theta_max = t_flip;
        for (const int p : alpha_.idx) {
          double t;
          bool at_upper;
          if (!rowRatio(p, opt_.core.feas_tol, t, at_upper)) continue;
          theta_max = std::min(theta_max, std::max(0.0, t));
        }
        double best_mag = 0.0;
        for (const int p : alpha_.idx) {
          double t;
          bool at_upper;
          if (!rowRatio(p, 0.0, t, at_upper)) continue;
          t = std::max(0.0, t);
          if (t > theta_max) continue;
          const double mag = std::abs(alpha_.val[uz(p)]);
          if (block < 0 || mag > best_mag) {
            t_best = t;
            block = p;
            leave_upper = at_upper;
            best_mag = mag;
          }
        }
      }

      if (block < 0) {
        if (t_best >= kInfinity / 2) {
          // Phase 1 cannot be unbounded below; reaching here means the
          // factorization drifted — recover once, then give up.
          if (!phase1) return LpStatus::kUnbounded;
          if (consecutive_recoveries++ < 2) {
            bs_.refactorize(f_);
            bs_.computeXb(f_);
            continue;
          }
          return LpStatus::kInfeasible;
        }
        // Bound flip: the entering variable crosses to its other bound.
        for (const int p : alpha_.idx) bs_.xb[uz(p)] -= dir * t_best * alpha_.val[uz(p)];
        bs_.status[uz(enter)] = bs_.status[uz(enter)] == VarStatus::kAtUpper
                                    ? VarStatus::kAtLower
                                    : VarStatus::kAtUpper;
        ++counters_.bound_flips;
        degenerate_streak = 0;
        consecutive_recoveries = 0;
        continue;
      }

      // Numerical cross-check: the pivot element via the row (BTRAN) and the
      // column (FTRAN) computations must agree; disagreement means the
      // factors have degraded — refactorize and redo this iteration.
      rho_.clear();
      rho_.set(block, 1.0);
      bs_.lu.btranSparse(rho_);  // rho_ now holds the pivot row multipliers
      if (btran_hist_) btran_hist_->record(densityPermille(rho_));
      const double pivot_col = alpha_.val[uz(block)];
      const double pivot_row = f_.columnDot(rho_.val, enter);
      if (std::abs(pivot_row - pivot_col) > 1e-7 * (1.0 + std::abs(pivot_col))) {
        if (consecutive_recoveries++ < 2) {
          bs_.refactorize(f_);
          bs_.computeXb(f_);
          continue;
        }
        // Accept the pivot anyway; the outer recovery loop re-verifies.
      }
      consecutive_recoveries = 0;

      degenerate_streak = (t_best < 1e-10) ? degenerate_streak + 1 : 0;

      // Steepest edge needs tau = B^-T (B^-1 a_q) through the old factors.
      const bool pse = !bland && opt_.pricing == Pricing::kSteepestEdge;
      if (pse) {
        tau_.copyFrom(alpha_);
        bs_.lu.btranSparse(tau_);
      }

      // ---- apply the pivot ----
      const int leaving = bs_.basic[uz(block)];
      const double enter_val = bs_.nonbasicValue(f_, enter) + dir * t_best;
      for (const int p : alpha_.idx) bs_.xb[uz(p)] -= dir * t_best * alpha_.val[uz(p)];
      bs_.status[uz(leaving)] = leave_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      bs_.basic[uz(block)] = enter;
      bs_.status[uz(enter)] = VarStatus::kBasic;
      bs_.xb[uz(block)] = enter_val;
      ++counters_.primal_pivots;
      if (telemetry::sampleHit(opt_.core.telemetry,
                               static_cast<std::uint64_t>(counters_.primal_pivots)))
        opt_.core.telemetry->trace->instant("lp", "pivot", "phase", phase1 ? 1.0 : 2.0, "kind",
                                            "primal");

      // Reference-weight update from the pivot row (already in rho_). The
      // CSR mirror confines the pass to columns intersecting rho's support
      // — every other column has a zero alpha-row entry and keeps its
      // weight, exactly as the old full columnDot sweep concluded at O(nnz).
      if (!bland) {
        const double arq = pivot_col;
        const double arq2 = arq * arq;
        const double wq = weights_[uz(enter)];
        coltouch_.clear();
        for (const int i : rho_.idx) {
          const double rv = rho_.val[uz(i)];
          if (rv == 0.0) continue;
          for (int k = f_.rptr[uz(i)]; k < f_.rptr[uz(i) + 1]; ++k) {
            const int j = f_.rcol[uz(k)];
            if (!colmark_[uz(j)]) {
              colmark_[uz(j)] = 1;
              arow_[uz(j)] = 0.0;
              coltouch_.push_back(j);
            }
            arow_[uz(j)] += f_.rval[uz(k)] * rv;
          }
          const int js = f_.n + i;  // slack column of row i is the unit e_i
          if (!colmark_[uz(js)]) {
            colmark_[uz(js)] = 1;
            arow_[uz(js)] = 0.0;
            coltouch_.push_back(js);
          }
          arow_[uz(js)] += rv;
        }
        for (const int j : coltouch_) {
          colmark_[uz(j)] = 0;
          if (j == leaving || bs_.status[uz(j)] == VarStatus::kBasic) continue;
          const double ar = arow_[uz(j)];
          if (ar == 0.0) continue;
          const double r = ar / arq;
          if (pse) {
            // Forrest–Goldfarb: gamma_j' = gamma_j - 2 r (a_j . tau) + r^2
            // gamma_q, floored at the exact lower bound 1 + r^2.
            const double g =
                weights_[uz(j)] - 2.0 * r * f_.columnDot(tau_.val, j) + r * r * wq;
            weights_[uz(j)] = std::max(g, 1.0 + r * r);
          } else {
            weights_[uz(j)] = std::max(weights_[uz(j)], r * r * wq);
          }
        }
        weights_[uz(leaving)] = std::max(wq / arq2, 1.0);
        ++counters_.dse_updates;
        if (weights_[uz(leaving)] > 1e12) std::fill(weights_.begin(), weights_.end(), 1.0);
      }

      if (!bs_.lu.updateColumn(block, spike_)) {
        // Unstable update: the factorization is spoiled — rebuild it.
        telemetry::instant(opt_.core.telemetry, "lp", "refactorize", nullptr, 0.0, "reason",
                           "unstable_update");
        bs_.refactorize(f_);
        bs_.computeXb(f_);
      } else {
        ++counters_.ft_updates;
        if ((opt_.refactor_interval > 0 &&
             bs_.lu.updateCount() >= opt_.refactor_interval) ||
            bs_.lu.shouldRefactorize()) {
          telemetry::instant(opt_.core.telemetry, "lp", "refactorize", nullptr, 0.0, "reason",
                             "interval");
          bs_.refactorize(f_);
          bs_.computeXb(f_);
        }
      }
    }
  }

  [[nodiscard]] double densityPermille(const IndexedVector& v) const {
    return 1000.0 * static_cast<double>(v.idx.size()) / static_cast<double>(f_.m);
  }

  RevisedSimplexSolver::Options opt_;
  StandardForm f_;
  BasisState bs_;
  LpCounters counters_;  ///< pivot-class counters (the factor side is in bs_)

  std::vector<double> weights_;  ///< pricing reference weights (Devex or PSE)
  IndexedVector alpha_, rho_, tau_;  ///< hyper-sparse solve vectors
  std::vector<double> cb_, dual_;    ///< basic cost row and dual sweep (dense)
  std::vector<double> arow_;         ///< pivot-row scatter over columns (size nn)
  std::vector<char> colmark_;
  std::vector<int> coltouch_;
  telemetry::Histogram* ftran_hist_ = nullptr;
  telemetry::Histogram* btran_hist_ = nullptr;
  BasisLu::Spike spike_;
};

}  // namespace

LpResult RevisedSimplexSolver::solve(const Model& model) const {
  std::vector<double> lb(uz(model.numVars()));
  std::vector<double> ub(uz(model.numVars()));
  for (int j = 0; j < model.numVars(); ++j) {
    lb[uz(j)] = model.var(j).lb;
    ub[uz(j)] = model.var(j).ub;
  }
  return solve(model, lb, ub);
}

LpResult RevisedSimplexSolver::solve(const Model& model, std::span<const double> lb,
                                     std::span<const double> ub, const Basis* warm,
                                     const CscMatrix* csc) const {
  RFP_CHECK(static_cast<int>(lb.size()) == model.numVars());
  RFP_CHECK(static_cast<int>(ub.size()) == model.numVars());
  Stopwatch watch;
  Deadline deadline(options_.core.time_limit_seconds);
  LpResult result;
  result.counters.solves = 1;

  for (int j = 0; j < model.numVars(); ++j) {
    if (lb[uz(j)] > ub[uz(j)] + 1e-12) {
      result.status = LpStatus::kInfeasible;
      result.seconds = watch.seconds();
      return result;
    }
  }

  Worker worker(model, lb, ub, csc, options_);
  result.status = worker.run(warm, result, deadline);
  if (result.status == LpStatus::kOptimal) result.objective = model.evalObjective(result.x);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace rfp::lp::sparse
