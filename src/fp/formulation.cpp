#include "fp/formulation.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace rfp::fp {

using lp::LinExpr;
using lp::Sense;
using lp::Var;
using lp::VarType;

namespace {
std::string tag(const char* base, int a, int b = -1, int c = -1) {
  std::string s = base;
  s += '_' + std::to_string(a);
  if (b >= 0) s += '_' + std::to_string(b);
  if (c >= 0) s += '_' + std::to_string(c);
  return s;
}
}  // namespace

MilpFormulation::MilpFormulation(const model::FloorplanProblem& problem,
                                 const partition::ColumnarPartition& part,
                                 FormulationOptions options)
    : problem_(problem), part_(part), opt_(options) {
  num_regions_ = problem.numRegions();
  W_ = problem.dev().width();
  R_ = problem.dev().height();
  P_ = static_cast<int>(part.portions.size());

  for (const model::RelocationRequest& req : problem.relocations())
    for (int i = 0; i < req.count; ++i)
      slots_.push_back(Slot{req.region, req.hard, req.weight});
  num_areas_ = num_regions_ + static_cast<int>(slots_.size());

  buildAreas();
  buildPortionLinkage();
  buildCoverageAndWaste();
  buildNonOverlap();
  buildForbidden();
  buildRelocation();
  buildObjective();
}

bool MilpFormulation::hasSoftSlots() const noexcept {
  return std::any_of(slots_.begin(), slots_.end(), [](const Slot& s) { return !s.hard; });
}

void MilpFormulation::buildAreas() {
  x_.resize(static_cast<std::size_t>(num_areas_));
  w_.resize(static_cast<std::size_t>(num_areas_));
  y_.resize(static_cast<std::size_t>(num_areas_));
  h_.resize(static_cast<std::size_t>(num_areas_));
  a_.resize(static_cast<std::size_t>(num_areas_));
  for (int i = 0; i < num_areas_; ++i) {
    x_[static_cast<std::size_t>(i)] = model_.addInteger(0, W_ - 1, tag("x", i));
    w_[static_cast<std::size_t>(i)] = model_.addInteger(1, W_, tag("w", i));
    y_[static_cast<std::size_t>(i)] = model_.addContinuous(0, R_ - 1, tag("y", i));
    h_[static_cast<std::size_t>(i)] = model_.addContinuous(1, R_, tag("h", i));
    // Fit on the device: x + w <= W.
    model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) + w_[static_cast<std::size_t>(i)],
                     Sense::kLessEqual, W_, tag("fit", i));

    auto& rows = a_[static_cast<std::size_t>(i)];
    rows.reserve(static_cast<std::size_t>(R_));
    LinExpr height_sum;
    for (int r = 0; r < R_; ++r) {
      rows.push_back(model_.addBinary(tag("a", i, r)));
      height_sum += rows.back();
    }
    // h = Σ_r a (h is declared real, as in the paper's variable list).
    model_.addConstr(height_sum - h_[static_cast<std::size_t>(i)], Sense::kEqual, 0,
                     tag("hdef", i));

    // Row contiguity: the number of 0→1 rises along the rows is at most one.
    LinExpr rise_sum;
    for (int r = 0; r < R_; ++r) {
      const Var rise = model_.addContinuous(0, 1, tag("rise", i, r));
      LinExpr lhs(rows[static_cast<std::size_t>(r)]);
      if (r > 0) lhs -= rows[static_cast<std::size_t>(r - 1)];
      model_.addConstr(lhs - rise, Sense::kLessEqual, 0, tag("risedef", i, r));
      rise_sum += rise;
    }
    model_.addConstr(rise_sum, Sense::kLessEqual, 1, tag("contig", i));

    // y = first occupied row (exact given contiguity):
    //   y <= r + R(1 - a_r)    for all r,
    //   y >= r(a_r - a_{r-1})  binding only at the start row.
    for (int r = 0; r < R_; ++r) {
      model_.addConstr(LinExpr(y_[static_cast<std::size_t>(i)]) -
                           LinExpr(r) - R_ * (1.0 - LinExpr(rows[static_cast<std::size_t>(r)])),
                       Sense::kLessEqual, 0, tag("ytop", i, r));
      LinExpr start(rows[static_cast<std::size_t>(r)]);
      if (r > 0) start -= rows[static_cast<std::size_t>(r - 1)];
      model_.addConstr(LinExpr(y_[static_cast<std::size_t>(i)]) - static_cast<double>(r) * start,
                       Sense::kGreaterEqual, 0, tag("ybot", i, r));
    }
  }
}

void MilpFormulation::buildPortionLinkage() {
  g_.resize(static_cast<std::size_t>(num_areas_));
  e_.resize(static_cast<std::size_t>(num_areas_));
  cw_.resize(static_cast<std::size_t>(num_areas_));
  l_.resize(static_cast<std::size_t>(num_areas_));
  if (opt_.offset == OffsetEncoding::kPaper) o_.resize(static_cast<std::size_t>(num_areas_));

  for (int i = 0; i < num_areas_; ++i) {
    auto& g = g_[static_cast<std::size_t>(i)];
    auto& e = e_[static_cast<std::size_t>(i)];
    for (int p = 0; p < P_; ++p) {
      g.push_back(model_.addBinary(tag("g", i, p)));
      e.push_back(model_.addBinary(tag("e", i, p)));
    }
    // Portion 0 starts at column 0, so both chains begin at 1.
    model_.setVarBounds(g[0].index, 1, 1);
    model_.setVarBounds(e[0].index, 1, 1);
    for (int p = 0; p < P_; ++p) {
      const double px1 = part_.portions[static_cast<std::size_t>(p)].x;
      // g_p = [x >= px1_p]:  x >= px1 - W(1-g),  x <= px1 - 1 + W*g.
      model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) - px1 +
                           static_cast<double>(W_) * (1.0 - LinExpr(g[static_cast<std::size_t>(p)])),
                       Sense::kGreaterEqual, 0, tag("glo", i, p));
      model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) - (px1 - 1) -
                           static_cast<double>(W_) * LinExpr(g[static_cast<std::size_t>(p)]),
                       Sense::kLessEqual, 0, tag("ghi", i, p));
      // e_p = [x + w - 1 >= px1_p].
      LinExpr end = LinExpr(x_[static_cast<std::size_t>(i)]) + w_[static_cast<std::size_t>(i)] - 1.0;
      model_.addConstr(end - px1 +
                           static_cast<double>(W_) * (1.0 - LinExpr(e[static_cast<std::size_t>(p)])),
                       Sense::kGreaterEqual, 0, tag("elo", i, p));
      model_.addConstr(end - (px1 - 1) -
                           static_cast<double>(W_) * LinExpr(e[static_cast<std::size_t>(p)]),
                       Sense::kLessEqual, 0, tag("ehi", i, p));
      // Monotonicity (portions ordered left to right, Property .4).
      if (p > 0) {
        model_.addConstr(LinExpr(g[static_cast<std::size_t>(p)]) - g[static_cast<std::size_t>(p - 1)],
                         Sense::kLessEqual, 0, tag("gmono", i, p));
        model_.addConstr(LinExpr(e[static_cast<std::size_t>(p)]) - e[static_cast<std::size_t>(p - 1)],
                         Sense::kLessEqual, 0, tag("emono", i, p));
      }
    }

    if (opt_.offset == OffsetEncoding::kPaper) {
      auto& o = o_[static_cast<std::size_t>(i)];
      LinExpr sum;
      for (int p = 0; p < P_; ++p) {
        o.push_back(model_.addContinuous(0, 1, tag("o", i, p)));
        sum += o.back();
      }
      // Eq. 4: Σ_p o_{n,p} = 1.
      model_.addConstr(sum, Sense::kEqual, 1, tag("eq4", i));
      // Eq. 5: o_1 = k_1; o_p >= k_p - k_{p-1}.
      model_.addConstr(LinExpr(o[0]) - kExpr(i, 0), Sense::kEqual, 0, tag("eq5a", i));
      for (int p = 1; p < P_; ++p)
        model_.addConstr(LinExpr(o[static_cast<std::size_t>(p)]) - kExpr(i, p) + kExpr(i, p - 1),
                         Sense::kGreaterEqual, 0, tag("eq5b", i, p));
    }

    // Intersection widths cw_{i,p} and the paper's l_{i,p,r} variables.
    auto& cw = cw_[static_cast<std::size_t>(i)];
    LinExpr cw_sum;
    for (int p = 0; p < P_; ++p) {
      const partition::Portion& portion = part_.portions[static_cast<std::size_t>(p)];
      const Var v = model_.addContinuous(0, portion.w, tag("cw", i, p));
      cw.push_back(v);
      cw_sum += v;
      const LinExpr k = kExpr(i, p);
      // cw <= (x + w) - px1 + W(1-k);  cw <= px2 + 1 - x + W(1-k);  cw <= pw·k.
      model_.addConstr(LinExpr(v) - (LinExpr(x_[static_cast<std::size_t>(i)]) +
                                     w_[static_cast<std::size_t>(i)] - portion.x) -
                           static_cast<double>(W_) * (1.0 - k),
                       Sense::kLessEqual, 0, tag("cwa", i, p));
      model_.addConstr(LinExpr(v) - (portion.x2() - LinExpr(x_[static_cast<std::size_t>(i)])) -
                           static_cast<double>(W_) * (1.0 - k),
                       Sense::kLessEqual, 0, tag("cwb", i, p));
      model_.addConstr(LinExpr(v) - static_cast<double>(portion.w) * k, Sense::kLessEqual, 0,
                       tag("cwc", i, p));
    }
    // Σ_p cw = w: forces every cw to its (exact) upper bound.
    model_.addConstr(cw_sum - w_[static_cast<std::size_t>(i)], Sense::kEqual, 0, tag("cwsum", i));

    auto& lv = l_[static_cast<std::size_t>(i)];
    lv.resize(static_cast<std::size_t>(P_));
    for (int p = 0; p < P_; ++p) {
      const partition::Portion& portion = part_.portions[static_cast<std::size_t>(p)];
      for (int r = 0; r < R_; ++r) {
        const Var v = model_.addContinuous(0, portion.w, tag("l", i, p, r));
        lv[static_cast<std::size_t>(p)].push_back(v);
        // l <= cw;  l <= pw·a_r.
        model_.addConstr(LinExpr(v) - cw[static_cast<std::size_t>(p)], Sense::kLessEqual, 0,
                         tag("la", i, p, r));
        model_.addConstr(LinExpr(v) -
                             static_cast<double>(portion.w) *
                                 LinExpr(a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]),
                         Sense::kLessEqual, 0, tag("lb", i, p, r));
      }
    }
    // Σ_p l_{i,p,r} >= w - W(1 - a_r): on occupied rows the row's tiles sum
    // to the full width, which (with the upper bounds) pins every l exactly.
    for (int r = 0; r < R_; ++r) {
      LinExpr row_sum;
      for (int p = 0; p < P_; ++p) row_sum += lv[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)];
      model_.addConstr(row_sum - w_[static_cast<std::size_t>(i)] +
                           static_cast<double>(W_) *
                               (1.0 - LinExpr(a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)])),
                       Sense::kGreaterEqual, 0, tag("lrow", i, r));
    }
  }
}

LinExpr MilpFormulation::kExpr(int area, int p) const {
  // k_{i,p} = e_{i,p} - g_{i,p+1}: intersects p iff the area's end reaches
  // p's left edge and the area does not start beyond p.
  LinExpr k(e_[static_cast<std::size_t>(area)][static_cast<std::size_t>(p)]);
  if (p + 1 < P_) k -= g_[static_cast<std::size_t>(area)][static_cast<std::size_t>(p + 1)];
  return k;
}

LinExpr MilpFormulation::oExpr(int area, int p) const {
  if (opt_.offset == OffsetEncoding::kPaper)
    return LinExpr(o_[static_cast<std::size_t>(area)][static_cast<std::size_t>(p)]);
  // Chain encoding: the first covered portion is where the g-chain steps.
  LinExpr o(g_[static_cast<std::size_t>(area)][static_cast<std::size_t>(p)]);
  if (p + 1 < P_) o -= g_[static_cast<std::size_t>(area)][static_cast<std::size_t>(p + 1)];
  return o;
}

LinExpr MilpFormulation::tilesInPortion(int area, int p) const {
  LinExpr sum;
  for (int r = 0; r < R_; ++r)
    sum += l_[static_cast<std::size_t>(area)][static_cast<std::size_t>(p)][static_cast<std::size_t>(r)];
  return sum;
}

void MilpFormulation::buildCoverageAndWaste() {
  const device::Device& dev = problem_.dev();
  waste_expr_ = LinExpr();
  for (int n = 0; n < num_regions_; ++n) {
    for (int t = 0; t < dev.numTileTypes(); ++t) {
      LinExpr covered;
      for (int p = 0; p < P_; ++p)
        if (part_.portions[static_cast<std::size_t>(p)].type == t) covered += tilesInPortion(n, p);
      const int need = problem_.region(n).required(t);
      if (need > 0)
        model_.addConstr(covered, Sense::kGreaterEqual, need, tag("cover", n, t));
      // Rcost contribution: frames(t) · (covered − required).
      waste_expr_ += static_cast<double>(dev.tileType(t).frames) * covered;
      waste_expr_ += LinExpr(-static_cast<double>(dev.tileType(t).frames) * need);
    }
  }
}

void MilpFormulation::buildNonOverlap() {
  lr_.assign(static_cast<std::size_t>(num_areas_),
             std::vector<Var>(static_cast<std::size_t>(num_areas_)));
  for (int i = 0; i < num_areas_; ++i)
    for (int j = 0; j < num_areas_; ++j)
      if (i != j) {
        lr_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            model_.addBinary(tag("lr", i, j));
        // lr_{i,j} = 1 ⇒ i entirely left of j.
        model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) + w_[static_cast<std::size_t>(i)] -
                             x_[static_cast<std::size_t>(j)] -
                             static_cast<double>(W_) *
                                 (1.0 - LinExpr(lr_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)])),
                         Sense::kLessEqual, 0, tag("lrdef", i, j));
      }
  for (int i = 0; i < num_areas_; ++i)
    for (int j = i + 1; j < num_areas_; ++j) {
      // Rows may be shared only when the areas are x-disjoint. Soft FC slots
      // relax this with their violation binary (Sec. V).
      LinExpr relax;
      if (i >= num_regions_ && !slots_[static_cast<std::size_t>(i - num_regions_)].hard)
        relax += v_slotExprHelper(i);
      if (j >= num_regions_ && !slots_[static_cast<std::size_t>(j - num_regions_)].hard)
        relax += v_slotExprHelper(j);
      for (int r = 0; r < R_; ++r)
        model_.addConstr(LinExpr(a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)]) +
                             a_[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] -
                             lr_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] -
                             lr_[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] - relax,
                         Sense::kLessEqual, 1, tag("noov", i, j, r));
    }
}

// v variables are created lazily here because buildNonOverlap runs before
// buildRelocation; both reference the same per-slot binary.
lp::LinExpr MilpFormulation::v_slotExprHelper(int area) {
  const int slot = area - num_regions_;
  if (v_.empty()) v_.assign(slots_.size(), Var{});
  if (!v_[static_cast<std::size_t>(slot)].valid())
    v_[static_cast<std::size_t>(slot)] = model_.addBinary(tag("v", slot));
  return LinExpr(v_[static_cast<std::size_t>(slot)]);
}

void MilpFormulation::buildForbidden() {
  const auto& forbidden = part_.forbidden;
  q_.assign(static_cast<std::size_t>(num_areas_),
            std::vector<Var>(forbidden.size()));
  for (int i = 0; i < num_areas_; ++i) {
    const bool soft =
        i >= num_regions_ && !slots_[static_cast<std::size_t>(i - num_regions_)].hard;
    for (std::size_t f = 0; f < forbidden.size(); ++f) {
      const device::Rect& fa = forbidden[f];
      const Var q = model_.addBinary(tag("q", i, static_cast<int>(f)));
      q_[static_cast<std::size_t>(i)][f] = q;
      // Eq. 1: x + w <= xa1 + q·maxW  (q forced to 1 unless i is left of f).
      model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) + w_[static_cast<std::size_t>(i)] -
                           static_cast<double>(W_) * LinExpr(q),
                       Sense::kLessEqual, fa.x, tag("eq1", i, static_cast<int>(f)));
      // Eq. 2: for every row the area lies on:
      //   x >= xa2 + 1 − (2 − q − a_r [+ v])·maxW.
      for (int r = fa.y; r < fa.y2(); ++r) {
        LinExpr slack = 2.0 - LinExpr(q) - a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(r)];
        if (soft) slack += v_slotExprHelper(i);
        model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) - (fa.x + fa.w) +
                             static_cast<double>(W_) * slack,
                         Sense::kGreaterEqual, 0, tag("eq2", i, static_cast<int>(f), r));
      }
    }
  }
}

void MilpFormulation::buildRelocation() {
  if (slots_.empty()) return;
  if (v_.empty()) v_.assign(slots_.size(), Var{});
  const double big_eq9 = static_cast<double>(W_) * R_;  // maxW·|R| (Eq. 9/11)

  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    const int c = num_regions_ + static_cast<int>(s);  // FC area index
    const int n = slot.region;
    const bool soft = !slot.hard;
    if (soft && !v_[s].valid()) v_[s] = model_.addBinary(tag("v", static_cast<int>(s)));
    const LinExpr vterm = soft ? LinExpr(v_[s]) : LinExpr(0.0);

    // Eq. 6: equal heights (hard in both modes; a violated soft area can
    // always mirror its region's geometry, as the paper argues).
    model_.addConstr(LinExpr(h_[static_cast<std::size_t>(c)]) - h_[static_cast<std::size_t>(n)],
                     Sense::kEqual, 0, tag("eq6", static_cast<int>(s)));
    // Eq. 7: equal number of covered portions.
    LinExpr kc, kn;
    for (int p = 0; p < P_; ++p) {
      kc += kExpr(c, p);
      kn += kExpr(n, p);
    }
    model_.addConstr(kc - kn, Sense::kEqual, 0, tag("eq7", static_cast<int>(s)));

    // Eqs. 8/10 and 9/11: iterate (pc, pn, i) with both indices in range.
    for (int pc = 0; pc < P_; ++pc)
      for (int pn = 0; pn < P_; ++pn)
        for (int i = -(P_ - 1); i <= P_ - 1; ++i) {
          if (pc + i < 0 || pc + i >= P_ || pn + i < 0 || pn + i >= P_) continue;
          const int tid_c = part_.portions[static_cast<std::size_t>(pc + i)].type;
          const int tid_n = part_.portions[static_cast<std::size_t>(pn + i)].type;
          const LinExpr act =
              3.0 - oExpr(c, pc) - oExpr(n, pn) - kExpr(n, pn + i) + vterm;

          if (opt_.type_match == TypeMatchEncoding::kTightened) {
            // Eq. 10 / Eq. 12: only rows with mismatching types are needed.
            if (tid_c != tid_n)
              model_.addConstr(oExpr(c, pc) + oExpr(n, pn) + kExpr(n, pn + i) - vterm,
                               Sense::kLessEqual, 2, tag("eq10", static_cast<int>(s), pc * P_ + pn, i + P_));
          } else {
            // Eq. 8: big-M form with the type ids as constants.
            const int n_types = std::max(1, part_.numTypes());
            model_.addConstr(static_cast<double>(n_types) * act,
                             Sense::kGreaterEqual, static_cast<double>(tid_c - tid_n),
                             tag("eq8a", static_cast<int>(s), pc * P_ + pn, i + P_));
            model_.addConstr(static_cast<double>(n_types) * act,
                             Sense::kGreaterEqual, static_cast<double>(tid_n - tid_c),
                             tag("eq8b", static_cast<int>(s), pc * P_ + pn, i + P_));
          }

          // Eq. 9 / Eq. 11: equal per-portion tile counts when active.
          const LinExpr diff = tilesInPortion(c, pc + i) - tilesInPortion(n, pn + i);
          model_.addConstr(diff - big_eq9 * act, Sense::kLessEqual, 0,
                           tag("eq9a", static_cast<int>(s), pc * P_ + pn, i + P_));
          model_.addConstr(diff + big_eq9 * act, Sense::kGreaterEqual, 0,
                           tag("eq9b", static_cast<int>(s), pc * P_ + pn, i + P_));
        }
  }
  rl_expr_ = LinExpr();
  for (std::size_t s = 0; s < slots_.size(); ++s)
    if (v_[s].valid()) rl_expr_ += slots_[s].weight * LinExpr(v_[s]);
}

void MilpFormulation::buildObjective() {
  // Wire length: bounding-box HPWL over region centers.
  wl_expr_ = LinExpr();
  for (std::size_t net_index = 0; net_index < problem_.nets().size(); ++net_index) {
    const model::Net& net = problem_.nets()[net_index];
    const Var bx1 = model_.addContinuous(0, W_, tag("bx1", static_cast<int>(net_index)));
    const Var bx2 = model_.addContinuous(0, W_, tag("bx2", static_cast<int>(net_index)));
    const Var by1 = model_.addContinuous(0, R_, tag("by1", static_cast<int>(net_index)));
    const Var by2 = model_.addContinuous(0, R_, tag("by2", static_cast<int>(net_index)));
    net_bbox_.push_back({bx1, bx2, by1, by2});
    for (const int n : net.regions) {
      const LinExpr cx = LinExpr(x_[static_cast<std::size_t>(n)]) +
                         0.5 * LinExpr(w_[static_cast<std::size_t>(n)]);
      const LinExpr cy = LinExpr(y_[static_cast<std::size_t>(n)]) +
                         0.5 * LinExpr(h_[static_cast<std::size_t>(n)]);
      model_.addConstr(LinExpr(bx2) - cx, Sense::kGreaterEqual, 0, tag("bb", static_cast<int>(net_index), n, 0));
      model_.addConstr(LinExpr(bx1) - cx, Sense::kLessEqual, 0, tag("bb", static_cast<int>(net_index), n, 1));
      model_.addConstr(LinExpr(by2) - cy, Sense::kGreaterEqual, 0, tag("bb", static_cast<int>(net_index), n, 2));
      model_.addConstr(LinExpr(by1) - cy, Sense::kLessEqual, 0, tag("bb", static_cast<int>(net_index), n, 3));
    }
    wl_expr_ += net.weight * (LinExpr(bx2) - bx1 + by2 - by1);
  }

  perimeter_expr_ = LinExpr();
  for (int n = 0; n < num_regions_; ++n)
    perimeter_expr_ += 2.0 * (LinExpr(w_[static_cast<std::size_t>(n)]) + h_[static_cast<std::size_t>(n)]);

  switch (opt_.objective) {
    case ObjectiveKind::kWastedFrames:
      model_.setObjective(waste_expr_, lp::ObjSense::kMinimize);
      break;
    case ObjectiveKind::kWireLength:
      model_.setObjective(wl_expr_, lp::ObjSense::kMinimize);
      break;
    case ObjectiveKind::kWeighted: {
      // Eq. 14 with the library-wide normalizers (as model::evaluate).
      const model::ObjectiveMaxima m = model::objectiveMaxima(problem_);
      const model::ObjectiveWeights& q = problem_.weights();
      LinExpr obj;
      obj += (q.q1_wirelength / m.wl) * wl_expr_;
      obj += (q.q2_perimeter / m.p) * perimeter_expr_;
      obj += (q.q3_wasted / m.r) * waste_expr_;
      obj += (q.q4_relocation / m.rl) * rl_expr_;
      model_.setObjective(obj, lp::ObjSense::kMinimize);
      break;
    }
  }
}

void MilpFormulation::addWasteCap(long cap) {
  model_.addConstr(waste_expr_, Sense::kLessEqual, static_cast<double>(cap), "waste_cap");
}

void MilpFormulation::addSequencePairConstraints(const std::vector<int>& s1,
                                                 const std::vector<int>& s2) {
  RFP_CHECK(static_cast<int>(s1.size()) == num_areas_ && static_cast<int>(s2.size()) == num_areas_);
  std::vector<int> pos1(static_cast<std::size_t>(num_areas_)), pos2(static_cast<std::size_t>(num_areas_));
  for (int idx = 0; idx < num_areas_; ++idx) {
    pos1[static_cast<std::size_t>(s1[static_cast<std::size_t>(idx)])] = idx;
    pos2[static_cast<std::size_t>(s2[static_cast<std::size_t>(idx)])] = idx;
  }
  for (int i = 0; i < num_areas_; ++i)
    for (int j = 0; j < num_areas_; ++j) {
      if (i == j) continue;
      const bool before1 = pos1[static_cast<std::size_t>(i)] < pos1[static_cast<std::size_t>(j)];
      const bool before2 = pos2[static_cast<std::size_t>(i)] < pos2[static_cast<std::size_t>(j)];
      if (before1 && before2) {
        // i left of j.
        model_.addConstr(LinExpr(x_[static_cast<std::size_t>(i)]) + w_[static_cast<std::size_t>(i)] -
                             x_[static_cast<std::size_t>(j)],
                         Sense::kLessEqual, 0, tag("sp_left", i, j));
      } else if (before1 && !before2) {
        // i above j: y_i + h_i <= y_j (rows are numbered top to bottom).
        model_.addConstr(LinExpr(y_[static_cast<std::size_t>(i)]) + h_[static_cast<std::size_t>(i)] -
                             y_[static_cast<std::size_t>(j)],
                         Sense::kLessEqual, 0, tag("sp_above", i, j));
      }
    }
}

model::Floorplan MilpFormulation::extract(const std::vector<double>& sol) const {
  const auto value = [&](Var v) { return sol[static_cast<std::size_t>(v.index)]; };
  const auto rectOf = [&](int i) {
    device::Rect r;
    r.x = static_cast<int>(std::lround(value(x_[static_cast<std::size_t>(i)])));
    r.w = static_cast<int>(std::lround(value(w_[static_cast<std::size_t>(i)])));
    int y0 = -1, h = 0;
    for (int row = 0; row < R_; ++row)
      if (value(a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(row)]) > 0.5) {
        if (y0 < 0) y0 = row;
        ++h;
      }
    r.y = std::max(0, y0);
    r.h = std::max(1, h);
    return r;
  };

  model::Floorplan fp;
  fp.regions.reserve(static_cast<std::size_t>(num_regions_));
  for (int n = 0; n < num_regions_; ++n) fp.regions.push_back(rectOf(n));
  fp.fc_areas = model::expandFcRequests(problem_);
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const bool violated = v_[s].valid() && value(v_[s]) > 0.5;
    fp.fc_areas[s].placed = !violated;
    if (!violated) fp.fc_areas[s].rect = rectOf(num_regions_ + static_cast<int>(s));
  }
  return fp;
}

std::vector<double> MilpFormulation::encode(const model::Floorplan& fp) const {
  RFP_CHECK(static_cast<int>(fp.regions.size()) == num_regions_);
  RFP_CHECK(fp.fc_areas.size() == slots_.size());
  std::vector<double> sol(static_cast<std::size_t>(model_.numVars()), 0.0);
  const auto set = [&](Var v, double val) { sol[static_cast<std::size_t>(v.index)] = val; };

  // Resolve every area to a rectangle; violated soft slots mirror their
  // region (always consistent with the hard Eqs. 4–8, see Sec. V).
  std::vector<device::Rect> rects(static_cast<std::size_t>(num_areas_));
  std::vector<bool> violated(static_cast<std::size_t>(num_areas_), false);
  for (int n = 0; n < num_regions_; ++n) rects[static_cast<std::size_t>(n)] = fp.regions[static_cast<std::size_t>(n)];
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const int c = num_regions_ + static_cast<int>(s);
    if (fp.fc_areas[s].placed) {
      rects[static_cast<std::size_t>(c)] = fp.fc_areas[s].rect;
    } else {
      rects[static_cast<std::size_t>(c)] = rects[static_cast<std::size_t>(slots_[s].region)];
      violated[static_cast<std::size_t>(c)] = true;
      RFP_CHECK_MSG(!slots_[s].hard, "cannot encode an unplaced hard FC area");
    }
  }

  for (int i = 0; i < num_areas_; ++i) {
    const device::Rect& r = rects[static_cast<std::size_t>(i)];
    set(x_[static_cast<std::size_t>(i)], r.x);
    set(w_[static_cast<std::size_t>(i)], r.w);
    set(y_[static_cast<std::size_t>(i)], r.y);
    set(h_[static_cast<std::size_t>(i)], r.h);
    for (int row = 0; row < R_; ++row)
      set(a_[static_cast<std::size_t>(i)][static_cast<std::size_t>(row)],
          (row >= r.y && row < r.y2()) ? 1.0 : 0.0);
    for (int p = 0; p < P_; ++p) {
      const partition::Portion& portion = part_.portions[static_cast<std::size_t>(p)];
      set(g_[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)], r.x >= portion.x ? 1 : 0);
      set(e_[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)],
          r.x + r.w - 1 >= portion.x ? 1 : 0);
      const int overlap = std::max(
          0, std::min(r.x2(), portion.x2()) - std::max(r.x, portion.x));
      set(cw_[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)], overlap);
      for (int row = 0; row < R_; ++row)
        set(l_[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)][static_cast<std::size_t>(row)],
            (row >= r.y && row < r.y2()) ? overlap : 0);
      if (opt_.offset == OffsetEncoding::kPaper) {
        const bool first = overlap > 0 && (r.x >= portion.x);
        set(o_[static_cast<std::size_t>(i)][static_cast<std::size_t>(p)], first ? 1 : 0);
      }
    }
    // rise variables: named rise_i_r right after a_i_r; recover via tag
    // lookup is avoided — rise vars were created in order, but we do not
    // keep handles. Instead locate by name through the model.
  }

  // Variables without stored handles (rise) and derived binaries (lr, q) are
  // filled by name-independent recomputation below.
  for (int i = 0; i < num_areas_; ++i)
    for (int j = 0; j < num_areas_; ++j) {
      if (i == j) continue;
      const Var lr = lr_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      const device::Rect& ri = rects[static_cast<std::size_t>(i)];
      const device::Rect& rj = rects[static_cast<std::size_t>(j)];
      const bool ignore = violated[static_cast<std::size_t>(i)] || violated[static_cast<std::size_t>(j)];
      set(lr, (!ignore && ri.x2() <= rj.x) ? 1.0 : 0.0);
    }
  for (int i = 0; i < num_areas_; ++i)
    for (std::size_t f = 0; f < part_.forbidden.size(); ++f) {
      const device::Rect& fa = part_.forbidden[f];
      const device::Rect& r = rects[static_cast<std::size_t>(i)];
      set(q_[static_cast<std::size_t>(i)][f], (r.x2() <= fa.x) ? 0.0 : 1.0);
    }
  for (std::size_t s = 0; s < slots_.size(); ++s)
    if (v_[s].valid())
      set(v_[s], violated[static_cast<std::size_t>(num_regions_ + static_cast<int>(s))] ? 1.0 : 0.0);

  // rise: recompute by scanning model variables by name prefix (cheap, done
  // once per encode) — rise_{i,r} = max(0, a_r - a_{r-1}).
  for (int var_index = 0; var_index < model_.numVars(); ++var_index) {
    const lp::VarInfo& info = model_.var(var_index);
    if (info.name.rfind("rise_", 0) != 0) continue;
    int i = 0, r = 0;
    if (std::sscanf(info.name.c_str(), "rise_%d_%d", &i, &r) != 2) continue;
    const device::Rect& rect = rects[static_cast<std::size_t>(i)];
    const bool cur = r >= rect.y && r < rect.y2();
    const bool prev = r > 0 && (r - 1) >= rect.y && (r - 1) < rect.y2();
    sol[static_cast<std::size_t>(var_index)] = (cur && !prev) ? 1.0 : 0.0;
  }

  // Net bounding boxes.
  for (std::size_t net_index = 0; net_index < problem_.nets().size(); ++net_index) {
    const model::Net& net = problem_.nets()[net_index];
    double min_x = 1e30, max_x = -1e30, min_y = 1e30, max_y = -1e30;
    for (const int n : net.regions) {
      const device::Rect& r = rects[static_cast<std::size_t>(n)];
      min_x = std::min(min_x, r.centerX());
      max_x = std::max(max_x, r.centerX());
      min_y = std::min(min_y, r.centerY());
      max_y = std::max(max_y, r.centerY());
    }
    set(net_bbox_[net_index][0], min_x);
    set(net_bbox_[net_index][1], max_x);
    set(net_bbox_[net_index][2], min_y);
    set(net_bbox_[net_index][3], max_y);
  }
  return sol;
}

}  // namespace rfp::fp
