#include "lp/sparse/lu.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>

#include "support/check.hpp"

namespace rfp::lp::sparse {

namespace {

[[nodiscard]] std::size_t zu(int v) noexcept { return static_cast<std::size_t>(v); }

}  // namespace

bool BasisLu::factorize(const CscMatrix& a, const std::vector<int>& basic) {
  m_ = a.rows;
  RFP_CHECK(static_cast<int>(basic.size()) == m_);
  const int m = m_;

  pivot_row_.clear();
  pivot_pos_.clear();
  diag_.clear();
  l_start_.clear();
  l_row_.clear();
  l_val_.clear();
  ft_tgt_.clear();
  ft_src_.clear();
  ft_mult_.clear();
  update_count_ = 0;
  deficient_pos_.clear();
  unpivoted_rows_.clear();
  work_.assign(zu(m), 0.0);
  work2_.assign(zu(m), 0.0);
  upd_val_.assign(zu(m), 0.0);
  upd_mark_.assign(zu(m), 0);

  FactorWorkspace& w = fw_;
  w.col_beg.resize(zu(m));
  w.col_len.assign(zu(m), 0);
  w.col_cap.resize(zu(m));
  w.row_beg.resize(zu(m));
  w.row_len.assign(zu(m), 0);
  w.row_cap.resize(zu(m));
  w.bucket.resize(zu(m) + 1);
  for (std::vector<int>& b : w.bucket) b.clear();
  w.live.resize(zu(m));
  w.rcount.assign(zu(m), 0);
  w.visit.assign(zu(m), -1);
  w.row_done.assign(zu(m), 0);
  w.col_done.assign(zu(m), 0);
  w.pristine.assign(zu(m), 1);
  w.tiny.assign(zu(m), 0);
  w.wval.assign(zu(m), 0.0);
  w.wstamp.assign(zu(m), -1);
  w.tu_start.clear();
  w.tu_pos.clear();
  w.tu_val.clear();

  // ---- working copy of the basis matrix ------------------------------------
  // One pass sizes the column and row-pattern segments, a second fills them.
  const auto forEachEntry = [&](int p, auto&& fn) {
    const int b = basic[zu(p)];
    if (b >= a.cols) {
      fn(b - a.cols, 1.0);
    } else {
      for (int k = a.ptr[zu(b)]; k < a.ptr[zu(b) + 1]; ++k) fn(a.idx[zu(k)], a.val[zu(k)]);
    }
  };
  int col_total = 0;
  for (int p = 0; p < m; ++p) {
    const int b = basic[zu(p)];
    RFP_CHECK_MSG(b >= 0, "basis position " << p << " is unset");
    RFP_CHECK_MSG(b < a.cols + m, "basis references slack of unknown row " << b - a.cols);
    w.col_beg[zu(p)] = col_total;
    forEachEntry(p, [&](int r, double) {
      ++w.rcount[zu(r)];
      ++col_total;
    });
    w.col_cap[zu(p)] = col_total - w.col_beg[zu(p)];
  }
  int row_total = 0;
  for (int r = 0; r < m; ++r) {
    w.row_beg[zu(r)] = row_total;
    w.row_cap[zu(r)] = w.rcount[zu(r)];
    row_total += w.rcount[zu(r)];
  }
  w.col_pool.resize(zu(col_total));
  w.row_pool.resize(zu(row_total));
  for (int p = 0; p < m; ++p) {
    forEachEntry(p, [&](int r, double v) {
      w.row_pool[zu(w.row_beg[zu(r)] + w.row_len[zu(r)]++)] = PatternEntry{p, w.col_len[zu(p)]};
      w.col_pool[zu(w.col_beg[zu(p)] + w.col_len[zu(p)]++)] = ActiveEntry{r, v};
      if (!(std::abs(v) > kDropTol)) w.tiny[zu(p)] = 1;
    });
    w.live[zu(p)] = w.col_len[zu(p)];
    w.bucket[zu(w.live[zu(p)])].push_back(p);
  }

  // A column's entries, dead ones included; invalidated by pool growth.
  const auto column = [&](int p) {
    return std::span<ActiveEntry>(w.col_pool.data() + w.col_beg[zu(p)], zu(w.col_len[zu(p)]));
  };
  const auto liveLen = [&](int p) { return zu(w.live[zu(p)]); };
  // Drops a column's dead entries, keeping the live ones in order.
  const auto compact = [&](int p) {
    if (w.col_len[zu(p)] == w.live[zu(p)]) return;
    const std::span<ActiveEntry> col = column(p);
    const auto kept = std::remove_if(col.begin(), col.end(), [&](const ActiveEntry& e) {
      return w.row_done[zu(e.row)] != 0;
    });
    w.col_len[zu(p)] = static_cast<int>(kept - col.begin());
    w.pristine[zu(p)] = 0;
  };
  // Appends to row r's pattern; a full segment moves to the pool's end.
  const auto pushPattern = [&](int r, PatternEntry e) {
    if (w.row_len[zu(r)] == w.row_cap[zu(r)]) {
      const int beg = static_cast<int>(w.row_pool.size());
      w.row_cap[zu(r)] = std::max(4, 2 * w.row_cap[zu(r)]);
      w.row_pool.resize(w.row_pool.size() + zu(w.row_cap[zu(r)]));
      std::copy_n(w.row_pool.begin() + w.row_beg[zu(r)], w.row_len[zu(r)],
                  w.row_pool.begin() + beg);
      w.row_beg[zu(r)] = beg;
    }
    w.row_pool[zu(w.row_beg[zu(r)] + w.row_len[zu(r)]++)] = e;
  };

  int steps = 0;
  int epoch = 0;
  while (steps < m) {
    // ---- Markowitz pivot selection ---------------------------------------
    int best_row = -1, best_pos = -1;
    double best_val = 0.0;
    long best_cost = -1;
    w.popped.clear();
    int examined = 0;
    bool relaxed = false;  // second pass with the relative threshold dropped
    for (std::size_t c = 0; c <= zu(m);) {
      if (w.bucket[c].empty()) {
        ++c;
        if (c > zu(m) && best_pos < 0 && !relaxed && !w.popped.empty()) {
          // Nothing met the stability threshold; retry the popped candidates
          // accepting any pivot above the absolute floor.
          relaxed = true;
          c = 0;
          for (const int p : w.popped) w.bucket[liveLen(p)].push_back(p);
          w.popped.clear();
        }
        continue;
      }
      const int p = w.bucket[c].back();
      w.bucket[c].pop_back();
      if (w.col_done[zu(p)] || liveLen(p) != c) continue;  // stale
      if (c == 0) continue;  // structurally empty: left for the deficiency report
      w.popped.push_back(p);
      compact(p);
      double colmax = 0.0;
      for (const ActiveEntry& e : column(p)) colmax = std::max(colmax, std::abs(e.val));
      const double floor =
          std::max(kAbsPivotTol, relaxed ? 0.0 : kRelPivotTol * colmax);
      int cand_row = -1;
      double cand_val = 0.0;
      long cand_cost = -1;
      for (const ActiveEntry& e : column(p)) {
        if (std::abs(e.val) < floor) continue;
        const long cost =
            (static_cast<long>(c) - 1) * (static_cast<long>(w.rcount[zu(e.row)]) - 1);
        if (cand_row < 0 || cost < cand_cost ||
            (cost == cand_cost && std::abs(e.val) > std::abs(cand_val))) {
          cand_row = e.row;
          cand_val = e.val;
          cand_cost = cost;
        }
      }
      if (cand_row >= 0) {
        ++examined;
        if (best_pos < 0 || cand_cost < best_cost ||
            (cand_cost == best_cost && std::abs(cand_val) > std::abs(best_val))) {
          best_pos = p;
          best_row = cand_row;
          best_val = cand_val;
          best_cost = cand_cost;
        }
        if (best_cost == 0 || examined >= kSearchColumns) break;
      }
    }
    // Unchosen candidates return to the queue for later steps.
    for (const int p : w.popped)
      if (p != best_pos) w.bucket[liveLen(p)].push_back(p);
    if (best_pos < 0) break;  // remaining submatrix is (numerically) singular

    // ---- elimination step -------------------------------------------------
    const int pi = best_row, pj = best_pos;
    const double pivval = best_val;
    w.row_done[zu(pi)] = 1;  // every entry of row pi is dead from here on
    w.col_done[zu(pj)] = 1;
    pivot_row_.push_back(pi);
    pivot_pos_.push_back(pj);
    diag_.push_back(pivval);

    // L multipliers from the pivot column's live entries.
    const int l_first = static_cast<int>(l_row_.size());
    l_start_.push_back(l_first);
    for (const ActiveEntry& e : column(pj)) {
      if (w.row_done[zu(e.row)]) continue;
      l_row_.push_back(e.row);
      l_val_.push_back(e.val / pivval);
      --w.rcount[zu(e.row)];
    }
    const int l_last = static_cast<int>(l_row_.size());

    // U row: the pivot row's entries in the other active columns. Without L
    // multipliers a column only loses its now-dead pivot-row entry; with
    // them it is rewritten as col - upv * L.
    w.tu_start.push_back(static_cast<int>(w.tu_pos.size()));
    const int pat_end = w.row_beg[zu(pi)] + w.row_len[zu(pi)];
    for (int t = w.row_beg[zu(pi)]; t < pat_end; ++t) {
      const PatternEntry pe = w.row_pool[zu(t)];
      const int jp = pe.pos;
      if (jp == pj || w.col_done[zu(jp)] || w.visit[zu(jp)] == steps) continue;
      w.visit[zu(jp)] = steps;  // a refilled entry lists its column twice
      const std::span<ActiveEntry> col = column(jp);
      int at = pe.at;
      if (!w.pristine[zu(jp)]) {
        at = -1;
        for (std::size_t k = 0; k < col.size() && at < 0; ++k)
          if (col[k].row == pi) at = static_cast<int>(k);
        if (at < 0) continue;  // cancelled by an earlier elimination
      }
      const double upv = col[zu(at)].val;
      w.tu_pos.push_back(jp);  // stores positions; remapped to slots below
      w.tu_val.push_back(upv);

      if (l_first == l_last && !w.tiny[zu(jp)]) {
        --w.live[zu(jp)];
      } else {
        // col := col - upv * (L multipliers), over the live entries.
        ++epoch;
        w.touched.clear();
        for (const ActiveEntry& e : col) {
          if (w.row_done[zu(e.row)]) continue;
          w.wval[zu(e.row)] = e.val;
          w.wstamp[zu(e.row)] = epoch;
          w.touched.push_back(e.row);
        }
        for (int l = l_first; l < l_last; ++l) {
          const int r = l_row_[zu(l)];
          const double delta = l_val_[zu(l)] * upv;
          if (w.wstamp[zu(r)] == epoch) {
            w.wval[zu(r)] -= delta;
          } else {
            w.wstamp[zu(r)] = epoch;
            w.wval[zu(r)] = -delta;
            w.touched.push_back(r);
            pushPattern(r, PatternEntry{jp, -1});
            ++w.rcount[zu(r)];
          }
        }
        if (w.touched.size() > zu(w.col_cap[zu(jp)])) {
          // Outgrows its segment: move to the pool's end.
          w.col_beg[zu(jp)] = static_cast<int>(w.col_pool.size());
          w.col_cap[zu(jp)] = static_cast<int>(w.touched.size());
          w.col_pool.resize(w.col_pool.size() + w.touched.size());
        }
        ActiveEntry* out = w.col_pool.data() + w.col_beg[zu(jp)];
        int len = 0;
        for (const int r : w.touched) {
          const double v = w.wval[zu(r)];
          if (std::abs(v) > kDropTol)
            out[len++] = ActiveEntry{r, v};
          else
            --w.rcount[zu(r)];  // cancelled out
        }
        w.col_len[zu(jp)] = len;
        w.live[zu(jp)] = len;
        w.pristine[zu(jp)] = 0;
        w.tiny[zu(jp)] = 0;
      }
      w.bucket[liveLen(jp)].push_back(jp);
    }
    ++steps;
  }

  if (steps < m) {
    for (int p = 0; p < m; ++p)
      if (!w.col_done[zu(p)]) deficient_pos_.push_back(p);
    for (int r = 0; r < m; ++r)
      if (!w.row_done[zu(r)]) unpivoted_rows_.push_back(r);
    return false;
  }
  l_start_.push_back(static_cast<int>(l_row_.size()));
  w.tu_start.push_back(static_cast<int>(w.tu_pos.size()));

  // ---- freeze the factorization into slot structures -----------------------
  // Slot k = elimination step k; the initial order is the identity.
  order_.resize(zu(m));
  order_pos_.resize(zu(m));
  pos_to_slot_.assign(zu(m), -1);
  for (int k = 0; k < m; ++k) {
    order_[zu(k)] = k;
    order_pos_[zu(k)] = k;
    pos_to_slot_[zu(pivot_pos_[zu(k)])] = k;
  }
  u_rows_.resize(zu(m));
  u_cols_.resize(zu(m));
  for (std::vector<UEntry>& row : u_rows_) row.clear();
  for (std::vector<UEntry>& col : u_cols_) col.clear();
  u_nnz_ = static_cast<long>(w.tu_pos.size());
  for (int k = 0; k < m; ++k) {
    u_rows_[zu(k)].reserve(zu(w.tu_start[zu(k) + 1] - w.tu_start[zu(k)]));
    for (int t = w.tu_start[zu(k)]; t < w.tu_start[zu(k) + 1]; ++t) {
      const int cslot = pos_to_slot_[zu(w.tu_pos[zu(t)])];
      const double v = w.tu_val[zu(t)];
      u_rows_[zu(k)].push_back(UEntry{cslot, v});
      u_cols_[zu(cslot)].push_back(UEntry{k, v});
    }
  }
  base_nnz_ = static_cast<long>(l_row_.size()) + u_nnz_ + m;

  // ---- hyper-sparse reachability structures --------------------------------
  // row_to_slot_ inverts pivot_row_ (a permutation once all m steps ran);
  // lt_start_/lt_slot_ transpose L's column pattern so btran can walk "which
  // elimination steps consume this row" without scanning all of L.
  row_to_slot_.assign(zu(m), -1);
  for (int k = 0; k < m; ++k) row_to_slot_[zu(pivot_row_[zu(k)])] = k;
  lt_start_.assign(zu(m) + 1, 0);
  for (const int r : l_row_) ++lt_start_[zu(r) + 1];
  for (int r = 0; r < m; ++r) lt_start_[zu(r) + 1] += lt_start_[zu(r)];
  lt_slot_.assign(l_row_.size(), 0);
  {
    std::vector<int> fill(lt_start_.begin(), lt_start_.end() - 1);
    for (int k = 0; k < m; ++k)
      for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
        lt_slot_[zu(fill[zu(l_row_[zu(t)])]++)] = k;
  }
  reach_.clear();
  reach_.reserve(zu(m));
  mark_.assign(zu(m), 0);
  ywork_.assign(zu(m), 0.0);
  return true;
}

bool BasisLu::hyperEligible(std::size_t input_nnz) const noexcept {
  return static_cast<double>(input_nnz) <=
         std::max(2.0, kHyperInputDensity * static_cast<double>(m_));
}

long BasisLu::reachCap() const noexcept {
  const long cap = static_cast<long>(kHyperReachDensity * static_cast<double>(m_));
  return cap < 8 ? 8 : cap;
}

void BasisLu::rebuildIndex(IndexedVector& v) const {
  v.idx.clear();
  for (int p = 0; p < m_; ++p)
    if (v.val[zu(p)] != 0.0) v.idx.push_back(p);
}

void BasisLu::ftran(std::vector<double>& v, Spike* spike) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.size()) == m);
  // L pass in elimination order (row space).
  for (int k = 0; k < m; ++k) {
    const double piv = v[zu(pivot_row_[zu(k)])];
    if (piv == 0.0) continue;
    for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
      v[zu(l_row_[zu(t)])] -= l_val_[zu(t)] * piv;
  }
  // Rows to slots.
  std::vector<double>& y = work_;
  for (int k = 0; k < m; ++k) y[zu(k)] = v[zu(pivot_row_[zu(k)])];
  // Forrest–Tomlin row operations, oldest first.
  const std::size_t etas = ft_tgt_.size();
  for (std::size_t e = 0; e < etas; ++e)
    y[zu(ft_tgt_[e])] -= ft_mult_[e] * y[zu(ft_src_[e])];
  if (spike) {
    spike->values = y;
    spike->idx.clear();
    spike->sparse = false;
  }
  // U back-substitution over the elimination order (in place: every row's
  // off-diagonals reference slots later in the order, already finalized).
  for (int k = m - 1; k >= 0; --k) {
    const int s = order_[zu(k)];
    double acc = y[zu(s)];
    for (const UEntry& e : u_rows_[zu(s)]) acc -= e.val * y[zu(e.slot)];
    y[zu(s)] = acc / diag_[zu(s)];
  }
  // Slots to basis positions.
  for (int k = 0; k < m; ++k) v[zu(pivot_pos_[zu(k)])] = y[zu(k)];
  ++stats_.ftran_dense;
}

void BasisLu::btran(std::vector<double>& v) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.size()) == m);
  // Positions to slots.
  std::vector<double>& y = work_;
  for (int k = 0; k < m; ++k) y[zu(k)] = v[zu(pivot_pos_[zu(k)])];
  // U^T forward substitution over the elimination order.
  for (int k = 0; k < m; ++k) {
    const int s = order_[zu(k)];
    double acc = y[zu(s)];
    for (const UEntry& e : u_cols_[zu(s)]) acc -= e.val * y[zu(e.slot)];
    y[zu(s)] = acc / diag_[zu(s)];
  }
  // Transposed Forrest–Tomlin row operations, newest first.
  for (std::size_t e = ft_tgt_.size(); e-- > 0;)
    y[zu(ft_src_[e])] -= ft_mult_[e] * y[zu(ft_tgt_[e])];
  // Slots to rows, then the transposed L ops newest-first.
  std::vector<double>& out = work2_;
  for (int k = 0; k < m; ++k) out[zu(pivot_row_[zu(k)])] = y[zu(k)];
  for (int k = m - 1; k >= 0; --k) {
    double s = 0.0;
    for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
      s += l_val_[zu(t)] * out[zu(l_row_[zu(t)])];
    out[zu(pivot_row_[zu(k)])] -= s;
  }
  v = out;
  ++stats_.btran_dense;
}

void BasisLu::ftranSparse(IndexedVector& v, Spike* spike) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.val.size()) == m);
  const long cap = reachCap();
  bool overflow = !hyperEligible(v.idx.size());
  const bool attempted = !overflow && !ftran_gate_.skip();
  overflow = overflow || !attempted;
  reach_.clear();

  // All three reachability stages run before any value moves, so an
  // overflow can still hand the untouched vector to the dense sweep.
  std::size_t n_l = 0, n_spike = 0;
  if (!overflow) {
    // Stage 1: slots reachable through L from the input rows. The result
    // support of the L pass is exactly the pivot rows of these slots.
    for (const int r : v.idx) {
      const int root = row_to_slot_[zu(r)];
      if (!mark_[zu(root)]) {
        mark_[zu(root)] = 1;
        reach_.push_back(root);
      }
    }
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int k = reach_[head++];
      for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t) {
        const int s = row_to_slot_[zu(l_row_[zu(t)])];
        if (!mark_[zu(s)]) {
          mark_[zu(s)] = 1;
          reach_.push_back(s);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
    n_l = reach_.size();
  }
  if (!overflow) {
    // Stage 2: Forrest–Tomlin fill, oldest first (structural only).
    for (std::size_t e = 0; e < ft_tgt_.size(); ++e) {
      if (!mark_[zu(ft_src_[e])]) continue;
      const int t = ft_tgt_[e];
      if (!mark_[zu(t)]) {
        mark_[zu(t)] = 1;
        reach_.push_back(t);
      }
    }
    n_spike = reach_.size();
    if (static_cast<long>(n_spike) > cap) overflow = true;
  }
  if (!overflow) {
    // Stage 3: U back-substitution closure over the column adjacency.
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int j = reach_[head++];
      for (const UEntry& e : u_cols_[zu(j)]) {
        if (!mark_[zu(e.slot)]) {
          mark_[zu(e.slot)] = 1;
          reach_.push_back(e.slot);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
  }
  if (overflow) {
    if (attempted) ftran_gate_.record(false);
    for (const int k : reach_) mark_[zu(k)] = 0;
    ftran(v.val, spike);  // counts itself as a dense solve
    rebuildIndex(v);
    return;
  }
  ftran_gate_.record(true);

  // L pass in elimination order (slot index = elimination step).
  std::sort(reach_.begin(), reach_.begin() + static_cast<std::ptrdiff_t>(n_l));
  for (std::size_t i = 0; i < n_l; ++i) {
    const int k = reach_[i];
    const double piv = v.val[zu(pivot_row_[zu(k)])];
    if (piv == 0.0) continue;
    for (int t = l_start_[zu(k)]; t < l_start_[zu(k) + 1]; ++t)
      v.val[zu(l_row_[zu(t)])] -= l_val_[zu(t)] * piv;
  }
  // Rows to slots, restoring v to all-zero (every row the L pass touched is
  // the pivot row of a reached slot).
  for (const int k : reach_) {
    const int r = pivot_row_[zu(k)];
    ywork_[zu(k)] = v.val[zu(r)];
    v.val[zu(r)] = 0.0;
  }
  v.idx.clear();
  // Forrest–Tomlin row operations, oldest first. Applied unconditionally:
  // sources outside the reach are exact zeros, so those are no-ops.
  for (std::size_t e = 0; e < ft_tgt_.size(); ++e)
    ywork_[zu(ft_tgt_[e])] -= ft_mult_[e] * ywork_[zu(ft_src_[e])];
  if (spike) {
    if (spike->values.size() != zu(m)) {
      spike->values.assign(zu(m), 0.0);
    } else if (spike->sparse) {
      for (const int k : spike->idx) spike->values[zu(k)] = 0.0;
    } else {
      std::fill(spike->values.begin(), spike->values.end(), 0.0);
    }
    spike->sparse = true;
    spike->idx.assign(reach_.begin(), reach_.begin() + static_cast<std::ptrdiff_t>(n_spike));
    for (const int k : spike->idx) spike->values[zu(k)] = ywork_[zu(k)];
  }
  // U back-substitution, descending elimination order over the reach.
  std::sort(reach_.begin(), reach_.end(), [this](int a, int b) {
    return order_pos_[zu(a)] > order_pos_[zu(b)];
  });
  for (const int s : reach_) {
    double acc = ywork_[zu(s)];
    for (const UEntry& e : u_rows_[zu(s)]) acc -= e.val * ywork_[zu(e.slot)];
    ywork_[zu(s)] = acc / diag_[zu(s)];
  }
  // Slots to basis positions; clear the slot workspace and marks.
  for (const int s : reach_) {
    mark_[zu(s)] = 0;
    const double x = ywork_[zu(s)];
    ywork_[zu(s)] = 0.0;
    if (x != 0.0) v.set(pivot_pos_[zu(s)], x);
  }
  ++stats_.ftran_sparse;
}

void BasisLu::btranSparse(IndexedVector& v) const {
  const int m = m_;
  RFP_CHECK(static_cast<int>(v.val.size()) == m);
  const long cap = reachCap();
  bool overflow = !hyperEligible(v.idx.size());
  const bool attempted = !overflow && !btran_gate_.skip();
  overflow = overflow || !attempted;
  reach_.clear();

  std::size_t n_u = 0;
  if (!overflow) {
    // Stage 1: U^T forward-substitution closure from the input slots.
    for (const int p : v.idx) {
      const int s = pos_to_slot_[zu(p)];
      if (!mark_[zu(s)]) {
        mark_[zu(s)] = 1;
        reach_.push_back(s);
      }
    }
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int r = reach_[head++];
      for (const UEntry& e : u_rows_[zu(r)]) {
        if (!mark_[zu(e.slot)]) {
          mark_[zu(e.slot)] = 1;
          reach_.push_back(e.slot);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
    n_u = reach_.size();
  }
  if (!overflow) {
    // Stage 2: transposed Forrest–Tomlin fill, newest first (structural).
    for (std::size_t e = ft_tgt_.size(); e-- > 0;) {
      if (!mark_[zu(ft_tgt_[e])]) continue;
      const int s = ft_src_[e];
      if (!mark_[zu(s)]) {
        mark_[zu(s)] = 1;
        reach_.push_back(s);
      }
    }
    if (static_cast<long>(reach_.size()) > cap) overflow = true;
  }
  if (!overflow) {
    // Stage 3: transposed-L closure — slot s's pivot row feeds the pivot
    // rows of the (earlier) steps whose L column contains it.
    std::size_t head = 0;
    while (head < reach_.size() && !overflow) {
      const int s = reach_[head++];
      const int r = pivot_row_[zu(s)];
      for (int t = lt_start_[zu(r)]; t < lt_start_[zu(r) + 1]; ++t) {
        const int k = lt_slot_[zu(t)];
        if (!mark_[zu(k)]) {
          mark_[zu(k)] = 1;
          reach_.push_back(k);
          if (static_cast<long>(reach_.size()) > cap) {
            overflow = true;
            break;
          }
        }
      }
    }
  }
  if (overflow) {
    if (attempted) btran_gate_.record(false);
    for (const int k : reach_) mark_[zu(k)] = 0;
    btran(v.val);  // counts itself as a dense solve
    rebuildIndex(v);
    return;
  }
  btran_gate_.record(true);

  // Positions to slots (+= so duplicate idx entries stay harmless).
  for (const int p : v.idx) {
    ywork_[zu(pos_to_slot_[zu(p)])] += v.val[zu(p)];
    v.val[zu(p)] = 0.0;
  }
  v.idx.clear();
  // U^T forward substitution, ascending elimination order over the closure.
  std::sort(reach_.begin(), reach_.begin() + static_cast<std::ptrdiff_t>(n_u),
            [this](int a, int b) { return order_pos_[zu(a)] < order_pos_[zu(b)]; });
  for (std::size_t i = 0; i < n_u; ++i) {
    const int s = reach_[i];
    double acc = ywork_[zu(s)];
    for (const UEntry& e : u_cols_[zu(s)]) acc -= e.val * ywork_[zu(e.slot)];
    ywork_[zu(s)] = acc / diag_[zu(s)];
  }
  // Transposed Forrest–Tomlin row operations, newest first.
  for (std::size_t e = ft_tgt_.size(); e-- > 0;)
    ywork_[zu(ft_src_[e])] -= ft_mult_[e] * ywork_[zu(ft_tgt_[e])];
  // Slots to rows, then the transposed L ops descending the elimination
  // steps (a step's L rows are pivoted later, so they are already final).
  std::sort(reach_.begin(), reach_.end(), std::greater<int>());
  for (const int s : reach_) {
    mark_[zu(s)] = 0;
    v.val[zu(pivot_row_[zu(s)])] = ywork_[zu(s)];
    ywork_[zu(s)] = 0.0;
  }
  for (const int s : reach_) {
    double acc = 0.0;
    for (int t = l_start_[zu(s)]; t < l_start_[zu(s) + 1]; ++t)
      acc += l_val_[zu(t)] * v.val[zu(l_row_[zu(t)])];
    v.val[zu(pivot_row_[zu(s)])] -= acc;
  }
  for (const int s : reach_) {
    const int r = pivot_row_[zu(s)];
    if (v.val[zu(r)] != 0.0) v.idx.push_back(r);
  }
  ++stats_.btran_sparse;
}

bool BasisLu::updateColumn(int position, const Spike& spike) {
  RFP_CHECK(position >= 0 && position < m_);
  RFP_CHECK(static_cast<int>(spike.values.size()) == m_);
  const std::vector<double>& w = spike.values;
  const int t = pos_to_slot_[zu(position)];

  // Drop the old column t of U (entries (r, t) live in rows before t).
  for (const UEntry& ce : u_cols_[zu(t)]) {
    std::vector<UEntry>& row = u_rows_[zu(ce.slot)];
    for (std::size_t i = 0; i < row.size(); ++i)
      if (row[i].slot == t) {
        row[i] = row.back();
        row.pop_back();
        --u_nnz_;
        break;
      }
  }
  u_cols_[zu(t)].clear();

  // The old row t becomes a row spike at the (new) last elimination
  // position; gather it into the scatter workspace and drop it from U.
  std::priority_queue<std::pair<int, int>, std::vector<std::pair<int, int>>,
                      std::greater<>>
      heap;  // (order position, col slot)
  for (const UEntry& re : u_rows_[zu(t)]) {
    upd_val_[zu(re.slot)] = re.val;
    upd_mark_[zu(re.slot)] = 1;
    heap.emplace(order_pos_[zu(re.slot)], re.slot);
    std::vector<UEntry>& col = u_cols_[zu(re.slot)];
    for (std::size_t i = 0; i < col.size(); ++i)
      if (col[i].slot == t) {
        col[i] = col.back();
        col.pop_back();
        --u_nnz_;
        break;
      }
  }
  u_rows_[zu(t)].clear();

  // Eliminate the row spike left to right; each elimination may fill
  // columns further right (pushed lazily) and folds the source row's spike-
  // column entry into the new diagonal. The operations are recorded and
  // replayed by every later ftran/btran.
  double d = w[zu(t)];
  while (!heap.empty()) {
    const int j = heap.top().second;
    heap.pop();
    if (!upd_mark_[zu(j)]) continue;  // duplicate heap entry
    upd_mark_[zu(j)] = 0;
    const double val = upd_val_[zu(j)];
    if (std::abs(val) <= kDropTol) continue;
    const double mult = val / diag_[zu(j)];
    ft_tgt_.push_back(t);
    ft_src_.push_back(j);
    ft_mult_.push_back(mult);
    d -= mult * w[zu(j)];
    for (const UEntry& e : u_rows_[zu(j)]) {
      if (upd_mark_[zu(e.slot)]) {
        upd_val_[zu(e.slot)] -= mult * e.val;
      } else {
        upd_mark_[zu(e.slot)] = 1;
        upd_val_[zu(e.slot)] = -mult * e.val;
        heap.emplace(order_pos_[zu(e.slot)], e.slot);
      }
    }
  }

  // Stability: the new diagonal must not be dwarfed by the spike it came
  // from, or subsequent solves lose the corresponding digits. A sparse
  // spike's support list bounds both this scan and the scatter below.
  double wmax = 0.0;
  if (spike.sparse) {
    for (const int k : spike.idx) wmax = std::max(wmax, std::abs(w[zu(k)]));
  } else {
    for (int k = 0; k < m_; ++k) wmax = std::max(wmax, std::abs(w[zu(k)]));
  }
  if (std::abs(d) < std::max(kAbsPivotTol, kFtStabilityTol * wmax))
    return false;  // factorization spoiled; caller refactorizes
  diag_[zu(t)] = d;

  // The spike becomes the new column t (all other slots precede t once it
  // moves to the end of the order, so every entry is above the diagonal).
  const auto scatterSpikeEntry = [&](int j) {
    if (j == t) return;
    const double v = w[zu(j)];
    if (std::abs(v) <= kDropTol) return;
    u_cols_[zu(t)].push_back(UEntry{j, v});
    u_rows_[zu(j)].push_back(UEntry{t, v});
    ++u_nnz_;
  };
  if (spike.sparse) {
    for (const int j : spike.idx) scatterSpikeEntry(j);
  } else {
    for (int j = 0; j < m_; ++j) scatterSpikeEntry(j);
  }

  // Cyclic permutation: slot t moves to the end of the elimination order.
  const int from = order_pos_[zu(t)];
  for (int k = from; k + 1 < m_; ++k) {
    order_[zu(k)] = order_[zu(k + 1)];
    order_pos_[zu(order_[zu(k)])] = k;
  }
  order_[zu(m_ - 1)] = t;
  order_pos_[zu(t)] = m_ - 1;

  ++update_count_;
  return true;
}

}  // namespace rfp::lp::sparse
