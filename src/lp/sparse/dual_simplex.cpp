#include "lp/sparse/dual_simplex.hpp"

#include <algorithm>
#include <cmath>

#include "lp/sparse/simplex_state.hpp"
#include "support/check.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::lp::sparse {

namespace {

/// Lower bound on steepest-edge row weights. True row norms of B^-1 are
/// bounded well away from zero on the scaled floorplanning bases; anything
/// at this floor is an artifact of inexact initialization, and letting it
/// fall further turns the row's pricing score (violation^2 / weight) into
/// an absorbing state.
constexpr double kDseWeightFloor = 1e-4;

/// One dual ratio-test candidate: nonbasic column `j` with pivot-row entry
/// `atil` (sign-normalized) and dual step `ratio` at which its reduced cost
/// hits zero.
struct Candidate {
  double ratio;
  double atil;
  int j;
};

/// Marks `r` as one finished solve of the dual fast path; `warm`: it ran
/// from the caller's basis (the bound-box short circuit never adopts one).
/// A declined attempt is never marked, so it reports `solves = 0`.
void countDualSolve(LpResult& r, bool warm) {
  r.counters.solves = 1;
  r.counters.dual_reopts = 1;
  r.counters.warm_start_hits = warm ? 1 : 0;
}

class Worker {
 public:
  Worker(const Model& model, std::span<const double> lb, std::span<const double> ub,
         const CscMatrix* csc, const LpSolver::Options& opt)
      : opt_(opt), f_(model, lb, ub, csc) {
    d_.assign(uz(f_.nn), 0.0);
    arow_.assign(uz(f_.nn), 0.0);
    colmark_.assign(uz(f_.nn), 0);
    w_.assign(uz(f_.m), 1.0);
    alpha_.reset(f_.m);
    rho_.reset(f_.m);
    tau_.reset(f_.m);
    flip_col_.reset(f_.m);
    rowmark_.assign(uz(f_.m), 0);
    cb_.resize(uz(f_.m));
    dualy_.resize(uz(f_.m));
    if (opt_.telemetry && opt_.telemetry->metrics) {
      ftran_hist_ = &opt_.telemetry->metrics->histogram("lp.ftran_density_permille");
      btran_hist_ = &opt_.telemetry->metrics->histogram("lp.btran_density_permille");
    }
  }

  void setBounds(std::span<const double> lb, std::span<const double> ub) {
    f_.setBounds(lb, ub);
  }

  /// One reoptimization from `warm`. `hot` means the live basis, factors
  /// and reduced costs already equal `warm` (the previous solve returned
  /// it): only the basic values need recomputing — no refactorization.
  /// nullopt: no dual-feasible start (caller should run the primal engine).
  std::optional<LpStatus> reoptimize(const Basis& warm, bool hot, LpResult& out,
                                     const Deadline& deadline) {
    const std::optional<LpStatus> status = reoptimizeImpl(warm, hot, out, deadline);
    // Whatever the exit path, a persistent worker must never carry the
    // anti-degeneracy cost bias into the next solve — the residues would
    // stack across a tree's nodes and eventually certify wrong optima.
    removePerturbation();
    return status;
  }

 private:
  std::optional<LpStatus> reoptimizeImpl(const Basis& warm, bool hot, LpResult& out,
                                         const Deadline& deadline) {
    stalled_ = false;
    // A persistent worker accumulates counters across solves; telemetry
    // reports this call's delta.
    base_ = bs_.withFactorCounters(counters_);
    if (hot) {
      // Bounds changed under the live basis: re-anchor the nonbasic
      // statuses and recompute the basics; factors, reduced costs — and
      // under steepest edge the exact row weights — are already current.
      bs_.reanchorStatuses(f_);
      bs_.computeXb(f_);
    } else {
      if (!bs_.adoptWarmBasis(f_, &warm)) return std::nullopt;
      refactorizeTracked();
      bs_.computeXb(f_);
      computeDuals();
      // The adopted basis is new geometry: restart the steepest-edge
      // reference at ones (exact for a slack basis, an approximate
      // reference otherwise; the recurrence keeps it exact from here).
      std::fill(w_.begin(), w_.end(), 1.0);
    }
    if (!repairDualFeasibility()) return std::nullopt;

    long iters = 0;
    LpStatus status = LpStatus::kIterLimit;
    // Outer recovery loop. Optimality (primal feasibility) is verified by
    // recomputing the basics and reduced costs from scratch through the
    // current factors — every pivot already cross-checked them FTRAN vs
    // BTRAN, so a full refactorization is only escalated to when that
    // verification fails. Infeasibility claims prune whole subtrees and
    // keep the stricter fresh-factor recheck.
    bool verified = false;
    for (int round = 0; round < 3 && !verified; ++round) {
      // Retry rounds re-enter after the perturbation was stripped for
      // verification; restore it or they iterate on the maximally
      // degenerate true costs the perturbation exists to avoid.
      if (!perturbed_) applyPerturbation();
      status = iterate(iters, deadline);
      if (stalled_) return telemetry(out, iters), std::nullopt;
      if (status == LpStatus::kInfeasible && bs_.lu.updateCount() > 0) {
        refactorizeTracked();
        bs_.computeXb(f_);
        computeDuals();
        if (!repairDualFeasibility()) return telemetry(out, iters), std::nullopt;
        status = iterate(iters, deadline);
        if (stalled_) return telemetry(out, iters), std::nullopt;
      }
      if (status != LpStatus::kOptimal) break;
      removePerturbation();
      bs_.computeXb(f_);
      computeDuals();
      // Drifted reduced costs are repaired by re-flipping boxed variables;
      // an unfixable violation sends the solve to the primal fallback
      // rather than reporting a point that is not actually optimal.
      if (dualViolation() > 10.0 * kCostTol) {
        if (!repairDualFeasibility()) return telemetry(out, iters), std::nullopt;
      }
      verified = bs_.maxBasicViolation(f_) <= 10.0 * kFeasTol &&
                 dualViolation() <= 10.0 * kCostTol;
      if (!verified && bs_.lu.updateCount() > 0) {
        // Escalate the retry round to fresh factors.
        refactorizeTracked();
        bs_.computeXb(f_);
        computeDuals();
        if (!repairDualFeasibility()) return telemetry(out, iters), std::nullopt;
      }
    }
    telemetry(out, iters);
    if (status == LpStatus::kOptimal && !verified) {
      // The claim kept failing verification: this is the dual engine losing
      // its numerical footing, not an exhausted budget — hand the node to
      // the primal engine instead of making branch & bound drop it.
      return std::nullopt;
    }
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
  void telemetry(LpResult& out, long iters) const {
    out.counters = bs_.withFactorCounters(counters_);
    out.counters -= base_;
    out.counters.iterations = iters;
  }

  /// Refactorizes and, when the singular-repair path swapped slacks in, the
  /// basis changed outside the pivot stream — the steepest-edge recurrence
  /// no longer describes it, so the weight reference restarts at ones.
  void refactorizeTracked() {
    const long repairs_before = bs_.repairs;
    bs_.refactorize(f_);
    if (bs_.repairs != repairs_before) std::fill(w_.begin(), w_.end(), 1.0);
  }

  /// Pivot budget for one warm reoptimization before giving up to the
  /// primal engine. Generous against real reopt work (dozens of pivots,
  /// hundreds for an endgame infeasibility proof) but small next to a
  /// wandering solve at paper scale.
  [[nodiscard]] long effortLimit() const { return std::max(500, f_.m / 50); }

  [[nodiscard]] bool isFixed(int j) const { return f_.lo[uz(j)] == f_.up[uz(j)]; }
  [[nodiscard]] bool isBoxed(int j) const {
    return finiteLo(f_.lo[uz(j)]) && finiteUp(f_.up[uz(j)]);
  }

  /// Floorplanning objectives are massively degenerate (stage-1 "wasted
  /// frames" leaves most reduced costs exactly zero), which makes every
  /// dual ratio zero and invites cycling. A tiny deterministic cost
  /// perturbation — pushing each nonbasic reduced cost strictly into its
  /// feasible side, scaled under the verification tolerance — restores
  /// monotone dual progress; it is removed before optimality is verified,
  /// so claims are always made against the true costs.
  void applyPerturbation() {
    pert_.assign(uz(f_.nn), 0.0);
    for (int j = 0; j < f_.nn; ++j) {
      if (bs_.status[uz(j)] == VarStatus::kBasic || isFixed(j)) continue;
      // Deterministic per-column magnitude in [0.1, 0.9] * cost_tol:
      // distinct ratios break ties while the removal residue stays well
      // inside the 10 * cost_tol verification threshold.
      const double xi = 0.1 * kCostTol *
                        (1.0 + 8.0 * static_cast<double>((static_cast<unsigned>(j) *
                                                          2654435761u >>
                                                          16) &
                                                         1023u) /
                                   1023.0);
      switch (bs_.status[uz(j)]) {
        case VarStatus::kAtLower: pert_[uz(j)] = xi; break;
        case VarStatus::kAtUpper: pert_[uz(j)] = -xi; break;
        default: break;  // free variables keep d == 0
      }
      f_.cost[uz(j)] += pert_[uz(j)];
      d_[uz(j)] += pert_[uz(j)];  // basics unperturbed, so d shifts exactly
    }
    perturbed_ = true;
  }

  /// Restores the true costs. Callers that keep solving must recompute the
  /// reduced costs afterwards (the optimal-path verification does; give-up
  /// paths discard the live state, so stale d_ never survives into a
  /// hot-path reuse).
  void removePerturbation() {
    if (!perturbed_) return;
    for (int j = 0; j < f_.nn; ++j) f_.cost[uz(j)] -= pert_[uz(j)];
    perturbed_ = false;
  }

  /// Reduced costs of every nonbasic variable, from scratch (basics get 0).
  void computeDuals() {
    for (int p = 0; p < f_.m; ++p) cb_[uz(p)] = f_.cost[uz(bs_.basic[uz(p)])];
    dualy_ = cb_;
    bs_.lu.btran(dualy_);
    for (int j = 0; j < f_.nn; ++j)
      d_[uz(j)] = bs_.status[uz(j)] == VarStatus::kBasic
                      ? 0.0
                      : f_.cost[uz(j)] - f_.columnDot(dualy_, j);
  }

  [[nodiscard]] double dualViolation() const {
    double worst = 0.0;
    for (int j = 0; j < f_.nn; ++j) {
      if (bs_.status[uz(j)] == VarStatus::kBasic || isFixed(j)) continue;
      switch (bs_.status[uz(j)]) {
        case VarStatus::kAtLower: worst = std::max(worst, -d_[uz(j)]); break;
        case VarStatus::kAtUpper: worst = std::max(worst, d_[uz(j)]); break;
        default: worst = std::max(worst, std::abs(d_[uz(j)])); break;
      }
    }
    return worst;
  }

  /// Flips boxed nonbasic variables to the bound their reduced cost prefers.
  /// Returns false when a violation cannot be flipped away (free variable or
  /// a one-sided bound) — the basis is genuinely dual-infeasible and the
  /// primal engine must take over. Recomputes the basics when it flipped.
  bool repairDualFeasibility() {
    bool flipped = false;
    for (int j = 0; j < f_.nn; ++j) {
      if (bs_.status[uz(j)] == VarStatus::kBasic || isFixed(j)) continue;
      const double dj = d_[uz(j)];
      switch (bs_.status[uz(j)]) {
        case VarStatus::kAtLower:
          if (dj < -kCostTol) {
            if (!finiteUp(f_.up[uz(j)])) return false;
            bs_.status[uz(j)] = VarStatus::kAtUpper;
            ++counters_.bound_flips;
            flipped = true;
          }
          break;
        case VarStatus::kAtUpper:
          if (dj > kCostTol) {
            if (!finiteLo(f_.lo[uz(j)])) return false;
            bs_.status[uz(j)] = VarStatus::kAtLower;
            ++counters_.bound_flips;
            flipped = true;
          }
          break;
        default:
          if (std::abs(dj) > kCostTol) return false;
          break;
      }
    }
    if (flipped) bs_.computeXb(f_);
    return true;
  }

  LpStatus iterate(long& iters, const Deadline& deadline) {
    int degenerate_streak = 0;
    int consecutive_recoveries = 0;
    // Steepest-edge weights are exact row norms maintained by the
    // recurrence across rounds and across hot-path reoptimizations, so they
    // are not reset here.
    std::vector<Candidate> cands;
    std::vector<int> flips;
    while (true) {
      if (++iters > opt_.max_iterations) return LpStatus::kIterLimit;
      if ((iters & 7) == 0 &&
          (deadline.expired() ||
           (opt_.stop && opt_.stop->load(std::memory_order_relaxed))))
        return LpStatus::kTimeLimit;
      const bool bland = degenerate_streak > kBlandAfterDegenerate;

      // ---- leaving row: worst weighted bound violation ----
      int p_row = -1;
      double sigma = 0.0;
      double best_score = 0.0;
      for (int p = 0; p < f_.m; ++p) {
        const int b = bs_.basic[uz(p)];
        const double v = bs_.xb[uz(p)];
        double viol;
        double sgn;
        if (v < f_.lo[uz(b)] - kFeasTol) {
          viol = f_.lo[uz(b)] - v;
          sgn = -1.0;
        } else if (v > f_.up[uz(b)] + kFeasTol) {
          viol = v - f_.up[uz(b)];
          sgn = 1.0;
        } else {
          continue;
        }
        if (bland) {  // deterministic lowest row under the anti-cycling rule
          p_row = p;
          sigma = sgn;
          break;
        }
        const double score = viol * viol / w_[uz(p)];
        if (p_row < 0 || score > best_score) {
          p_row = p;
          sigma = sgn;
          best_score = score;
        }
      }
      if (p_row < 0) return LpStatus::kOptimal;  // primal feasible
      const int leave = bs_.basic[uz(p_row)];

      // ---- pivot row + dual ratio candidates ----
      // Hyper-sparse BTRAN of e_p, then a CSR scatter over just the columns
      // that intersect rho's support — every other column has a zero
      // pivot-row entry and is neither a candidate nor touched by the dual
      // step update below. Replaces an O(nnz(A)) columnDot pass per pivot.
      rho_.clear();
      rho_.set(p_row, 1.0);
      bs_.lu.btranSparse(rho_);  // row p_row of B^-1
      if (btran_hist_)
        btran_hist_->record(1000.0 * static_cast<double>(rho_.idx.size()) /
                            static_cast<double>(f_.m));
      for (const int j : coltouch_) {
        arow_[uz(j)] = 0.0;
        colmark_[uz(j)] = 0;
      }
      coltouch_.clear();
      for (const int i : rho_.idx) {
        const double rv = rho_.val[uz(i)];
        if (rv == 0.0) continue;
        for (int k = f_.rptr[uz(i)]; k < f_.rptr[uz(i) + 1]; ++k) {
          const int j = f_.rcol[uz(k)];
          if (!colmark_[uz(j)]) {
            colmark_[uz(j)] = 1;
            coltouch_.push_back(j);
          }
          arow_[uz(j)] += f_.rval[uz(k)] * rv;
        }
        const int js = f_.n + i;  // slack column of row i is the unit e_i
        if (!colmark_[uz(js)]) {
          colmark_[uz(js)] = 1;
          coltouch_.push_back(js);
        }
        arow_[uz(js)] += rv;
      }
      cands.clear();
      for (const int j : coltouch_) {
        if (bs_.status[uz(j)] == VarStatus::kBasic || isFixed(j)) continue;
        const double atil = sigma * arow_[uz(j)];
        const VarStatus s = bs_.status[uz(j)];
        const bool eligible = (s == VarStatus::kAtLower && atil > kPivotTol) ||
                              (s == VarStatus::kAtUpper && atil < -kPivotTol) ||
                              (s == VarStatus::kFree && std::abs(atil) > kPivotTol);
        if (!eligible) continue;
        cands.push_back(Candidate{std::max(0.0, d_[uz(j)] / atil), atil, j});
      }
      if (cands.empty()) return LpStatus::kInfeasible;  // dual unbounded
      std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
        return a.ratio != b.ratio ? a.ratio < b.ratio : a.j < b.j;
      });

      // ---- bound-flip ratio test ----
      // Walk candidates in dual-step order; a boxed candidate whose flip
      // cannot yet restore the row's feasibility is flipped instead of
      // entering (its reduced cost changes sign at the chosen dual step, so
      // it must sit at the other bound afterwards anyway).
      double remaining = sigma > 0 ? bs_.xb[uz(p_row)] - f_.up[uz(leave)]
                                   : f_.lo[uz(leave)] - bs_.xb[uz(p_row)];
      flips.clear();
      int chosen = -1;
      for (std::size_t c = 0; c < cands.size(); ++c) {
        const int j = cands[c].j;
        const bool can_flip = !bland && isBoxed(j) && bs_.status[uz(j)] != VarStatus::kFree;
        const double absorb =
            can_flip ? std::abs(cands[c].atil) * (f_.up[uz(j)] - f_.lo[uz(j)]) : kInfinity;
        if (can_flip && absorb < remaining - kFeasTol) {
          flips.push_back(static_cast<int>(c));
          remaining -= absorb;
          continue;
        }
        chosen = static_cast<int>(c);
        // Harris-style tie-break: among candidates within a whisker of the
        // minimal ratio, prefer the largest pivot — small pivots are the
        // main source of drift and ping-pong pivoting under degeneracy.
        // Bland mode must keep the smallest index (the sort's order), or
        // the anti-cycling guarantee evaporates.
        if (!bland) {
          for (std::size_t k = c + 1; k < cands.size(); ++k) {
            if (cands[k].ratio > cands[uz(c)].ratio + 1e-9) break;
            if (std::abs(cands[k].atil) > std::abs(cands[uz(chosen)].atil))
              chosen = static_cast<int>(k);
          }
        }
        break;
      }
      if (chosen < 0) return LpStatus::kInfeasible;  // flips cannot close the row
      const Candidate cand = cands[uz(chosen)];
      const int e = cand.j;

      // ---- entering column + numerical cross-check ----
      f_.scatterColumn(e, alpha_);
      bs_.lu.ftranSparse(alpha_, &spike_);
      if (ftran_hist_)
        ftran_hist_->record(1000.0 * static_cast<double>(alpha_.idx.size()) /
                            static_cast<double>(f_.m));
      const double pivot_col = alpha_.val[uz(p_row)];
      if (std::abs(pivot_col - arow_[uz(e)]) > 1e-7 * (1.0 + std::abs(pivot_col)) ||
          std::abs(pivot_col) <= kPivotTol) {
        if (consecutive_recoveries++ < 2) {
          refactorizeTracked();
          bs_.computeXb(f_);
          computeDuals();
          continue;
        }
        // Keep going with the FTRAN value; the outer loop re-verifies. A
        // genuinely vanishing pivot would blow up the step — that is a
        // numerics failure, so give the node up to the primal engine.
        if (std::abs(pivot_col) <= kPivotTol) {
          stalled_ = true;
          return LpStatus::kIterLimit;
        }
      }
      consecutive_recoveries = 0;

      // ---- apply the flips (one FTRAN for all of them) ----
      if (!flips.empty()) {
        flip_col_.clear();
        for (const int c : flips) {
          const int j = cands[uz(c)].j;
          const double range = f_.up[uz(j)] - f_.lo[uz(j)];
          const double dirj = bs_.status[uz(j)] == VarStatus::kAtLower ? 1.0 : -1.0;
          addColumnSparse(j, dirj * range);
          bs_.status[uz(j)] = dirj > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
        }
        for (const int i : flip_col_.idx) rowmark_[uz(i)] = 0;
        bs_.lu.ftranSparse(flip_col_);
        for (const int p : flip_col_.idx) bs_.xb[uz(p)] -= flip_col_.val[uz(p)];
        counters_.bound_flips += static_cast<long>(flips.size());
      }

      // ---- pivot: leaving variable exits at its violated bound ----
      const double target = sigma > 0 ? f_.up[uz(leave)] : f_.lo[uz(leave)];
      const double t_p = (bs_.xb[uz(p_row)] - target) / pivot_col;
      const double enter_val = bs_.nonbasicValue(f_, e) + t_p;
      for (const int p : alpha_.idx) bs_.xb[uz(p)] -= t_p * alpha_.val[uz(p)];
      bs_.status[uz(leave)] = sigma > 0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
      bs_.basic[uz(p_row)] = e;
      bs_.status[uz(e)] = VarStatus::kBasic;
      bs_.xb[uz(p_row)] = enter_val;
      ++counters_.dual_pivots;
      if (telemetry::sampleHit(opt_.telemetry, static_cast<std::uint64_t>(counters_.dual_pivots)))
        opt_.telemetry->trace->instant("lp", "pivot", "ratio", cand.ratio, "kind", "dual");
      degenerate_streak = cand.ratio < 1e-10 ? degenerate_streak + 1 : 0;
      if (degenerate_streak > std::max(200, f_.m / 4)) {
        // A run this long means the perturbed problem is still cycling;
        // hand the node to the primal engine rather than burning the
        // iteration budget.
        stalled_ = true;
        return LpStatus::kIterLimit;
      }
      if (counters_.dual_pivots - base_.dual_pivots > effortLimit()) {
        // A warm reoptimization is supposed to take a handful of pivots; a
        // solve that wanders past this budget (hyper-degenerate instances
        // where row pricing loses its way) is cheaper to redo on the
        // primal engine than to finish here.
        stalled_ = true;
        return LpStatus::kIterLimit;
      }

      // ---- dual step: update reduced costs from the pivot row ----
      const double theta_d = sigma * cand.ratio;
      if (theta_d != 0.0) {
        for (const int j : coltouch_) {
          if (bs_.status[uz(j)] == VarStatus::kBasic || j == leave || isFixed(j)) continue;
          if (arow_[uz(j)] != 0.0) d_[uz(j)] -= theta_d * arow_[uz(j)];
        }
      }
      d_[uz(leave)] = -theta_d;  // pivot-row entry of the leaving variable is 1
      d_[uz(e)] = 0.0;

      // ---- row-weight update from the entering column ----
      const double are2 = pivot_col * pivot_col;
      const double wr = w_[uz(p_row)];
      // Forrest–Goldfarb exact steepest-edge recurrence: with
      // tau = B^-1 rho_r (through the *old* factors — the FT update has
      // not been applied yet),
      //   beta_p' = beta_p - 2 (alpha_pq / alpha_rq) tau_p
      //                    + (alpha_pq / alpha_rq)^2 beta_r.
      tau_.copyFrom(rho_);
      bs_.lu.ftranSparse(tau_);
      for (const int p : alpha_.idx) {
        if (p == p_row) continue;
        const double r = alpha_.val[uz(p)] / pivot_col;
        const double upd = w_[uz(p)] - 2.0 * r * tau_.val[uz(p)] + r * r * wr;
        // Cauchy–Schwarz safeguard: the new rows of B^-1 satisfy
        // beta_p' beta_r' >= (b_p' . b_r')^2 with b_p' . b_r' =
        // (tau_p - r beta_r) / alpha_rq, so beta_p' >= (tau_p - r beta_r)^2
        // / beta_r. Exact weights satisfy the bound identically; weights
        // carried from an inexact cold-adopt init (all ones on a non-slack
        // basis) would otherwise be driven through zero by the true tau
        // term, collapse to the floor, and make this row's pricing score
        // explode — the degenerate-wandering mode the floor alone cannot
        // prevent.
        const double cs = tau_.val[uz(p)] - r * wr;
        w_[uz(p)] = std::max({upd, cs * cs / wr, kDseWeightFloor});
      }
      w_[uz(p_row)] = std::max(wr / are2, kDseWeightFloor);
      ++counters_.dse_updates;

      // ---- Forrest–Tomlin update ----
      if (!bs_.lu.updateColumn(p_row, spike_)) {
        telemetry::instant(opt_.telemetry, "lp", "refactorize", nullptr, 0.0, "reason",
                           "unstable_update");
        refactorizeTracked();
        bs_.computeXb(f_);
        computeDuals();
      } else {
        ++counters_.ft_updates;
        if (bs_.lu.updateCount() >= kRefactorInterval || bs_.lu.shouldRefactorize()) {
          telemetry::instant(opt_.telemetry, "lp", "refactorize", nullptr, 0.0, "reason",
                             "interval");
          refactorizeTracked();
          bs_.computeXb(f_);
          computeDuals();
        }
      }
    }
  }

  /// Accumulates `t` times structural column `j` (slack j >= n: the unit
  /// row j - n) into flip_col_, growing its index set through rowmark_.
  void addColumnSparse(int j, double t) {
    const auto touch = [&](int i, double a) {
      if (!rowmark_[uz(i)]) {
        rowmark_[uz(i)] = 1;
        flip_col_.idx.push_back(i);
      }
      flip_col_.val[uz(i)] += a * t;
    };
    if (j < f_.n) {
      const CscMatrix& a = *f_.a;
      for (int k = a.ptr[uz(j)]; k < a.ptr[uz(j) + 1]; ++k)
        touch(a.idx[uz(k)], a.val[uz(k)]);
    } else {
      touch(j - f_.n, 1.0);
    }
  }

  LpSolver::Options opt_;
  StandardForm f_;
  BasisState bs_;
  LpCounters counters_;  ///< pivot-class counters (the factor side is in bs_)
  LpCounters base_;      ///< cumulative counters at the current solve's start

  std::vector<double> d_;     ///< reduced costs (nonbasic; basics hold 0)
  std::vector<double> pert_;  ///< applied cost perturbation per variable
  bool perturbed_ = false;
  bool stalled_ = false;  ///< degenerate cycling detected: give up to primal
  std::vector<double> arow_;    ///< current pivot row over touched columns
  std::vector<char> colmark_;   ///< arow_ occupancy (parallel to arow_)
  std::vector<int> coltouch_;   ///< columns with a live arow_ entry
  std::vector<char> rowmark_;   ///< flip_col_ index-set membership scratch
  std::vector<double> w_;       ///< row pricing weights (exact dual steepest edge)
  std::vector<double> cb_, dualy_;
  IndexedVector alpha_, rho_, tau_, flip_col_;
  BasisLu::Spike spike_;
  telemetry::Histogram* ftran_hist_ = nullptr;
  telemetry::Histogram* btran_hist_ = nullptr;
};

}  // namespace

// ---- DualReoptimizer --------------------------------------------------------

struct DualReoptimizer::Impl {
  const Model& model;
  const CscMatrix& csc;
  LpSolver::Options opt;
  std::optional<Worker> worker;  ///< constructed on the first reoptimize
  /// Basis snapshot the live worker state corresponds to; null whenever the
  /// live state is not a usable warm-start source (after fallbacks, limits
  /// or infeasible verdicts).
  std::shared_ptr<const Basis> live;
  /// Circuit breaker: consecutive give-ups. Some subtrees (hyper-degenerate
  /// instances at the largest scales) defeat dual row pricing on every
  /// node; after kBreakerStrikes consecutive failures the reoptimizer stops
  /// burning the effort budget and lets the primal engine carry the next
  /// kBreakerCooldown nodes. After the cool-down one probe attempt runs,
  /// and a probe that completes re-arms the warm path. (This state is
  /// single-owner, like the live factors: parallel B&B keeps one
  /// reoptimizer per worker, so strikes are per-worker too.)
  int strikes = 0;
  int cooldown_left = 0;  ///< tripped-breaker calls to decline before a probe

  Impl(const Model& m, const CscMatrix& c, LpSolver::Options o) : model(m), csc(c), opt(o) {}
};

DualReoptimizer::DualReoptimizer(const Model& model, const CscMatrix& csc,
                                 LpSolver::Options options)
    : impl_(std::make_unique<Impl>(model, csc, options)) {}

DualReoptimizer::~DualReoptimizer() = default;
DualReoptimizer::DualReoptimizer(DualReoptimizer&&) noexcept = default;
DualReoptimizer& DualReoptimizer::operator=(DualReoptimizer&&) noexcept = default;

std::optional<LpResult> DualReoptimizer::reoptimize(std::span<const double> lb,
                                                    std::span<const double> ub,
                                                    const Basis& warm, double time_limit_seconds,
                                                    LpResult* declined_attempt) {
  if (impl_->strikes >= kBreakerStrikes && impl_->cooldown_left > 0) {
    --impl_->cooldown_left;  // tripped: decline until the cool-down elapses
    return std::nullopt;
  }
  RFP_CHECK(static_cast<int>(lb.size()) == impl_->model.numVars());
  RFP_CHECK(static_cast<int>(ub.size()) == impl_->model.numVars());
  Stopwatch watch;
  Deadline deadline(time_limit_seconds);
  LpResult result;

  for (int j = 0; j < impl_->model.numVars(); ++j) {
    if (lb[uz(j)] > ub[uz(j)] + 1e-12) {
      countDualSolve(result, /*warm=*/false);
      result.status = LpStatus::kInfeasible;
      result.seconds = watch.seconds();
      return result;
    }
  }

  const bool hot = impl_->worker && impl_->live.get() == &warm;
  if (!impl_->worker) {
    impl_->worker.emplace(impl_->model, lb, ub, &impl_->csc, impl_->opt);
  } else {
    impl_->worker->setBounds(lb, ub);
  }
  impl_->live.reset();  // invalid until this solve ends in an optimum
  const std::optional<LpStatus> status = impl_->worker->reoptimize(warm, hot, result, deadline);
  if (!status) {
    ++impl_->strikes;
    // Reaching the strike limit (or failing the post-cool-down probe)
    // (re-)trips the breaker for another cool-down window.
    if (impl_->strikes >= kBreakerStrikes) impl_->cooldown_left = kBreakerCooldown;
    result.seconds = watch.seconds();
    if (declined_attempt) *declined_attempt = std::move(result);
    return std::nullopt;
  }
  // Any completed solve — the claim is verified through refactorized
  // factors before being reported — re-arms the warm path entirely.
  impl_->strikes = 0;
  countDualSolve(result, /*warm=*/true);
  result.status = *status;
  if (result.status == LpStatus::kOptimal) {
    result.objective = impl_->model.evalObjective(result.x);
    impl_->live = result.basis;  // the factors now match this snapshot
  }
  result.seconds = watch.seconds();
  return result;
}

}  // namespace rfp::lp::sparse
