#include "driver/cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "driver/backend_runner.hpp"
#include "driver/incumbent.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::driver {

namespace {

// Doubles are serialized with full round-trip precision: the key must
// distinguish every value the engines could behave differently on.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// The device is serialized fully (types, grid, forbidden areas) rather than
// by name: identity of structure, not of label, decides reuse. Tile-type
// *order* is kept as given — region requirement vectors index types by id,
// so permuting types is a genuinely different encoding, unlike permuting
// regions/nets below.
std::string serializeDevice(const device::Device& dev) {
  std::string s = "dev{";
  s += std::to_string(dev.width()) + "x" + std::to_string(dev.height()) + ";types[";
  for (int t = 0; t < dev.numTileTypes(); ++t) {
    const device::TileType& tt = dev.tileType(t);
    s += "t{f=" + std::to_string(tt.frames) + ";res[";
    for (const auto& [name, count] : tt.resources)  // std::map: already ordered
      s += name + "=" + std::to_string(count) + ",";
    s += "]};";
  }
  s += "];grid[";
  if (dev.isColumnar()) {
    s += "cols:";
    for (int x = 0; x < dev.width(); ++x) s += std::to_string(dev.columnType(x)) + ",";
  } else {
    s += "full:";
    for (int y = 0; y < dev.height(); ++y)
      for (int x = 0; x < dev.width(); ++x) s += std::to_string(dev.typeAt(x, y)) + ",";
  }
  s += "];forb[";
  std::vector<std::string> forb;
  forb.reserve(dev.forbidden().size());
  for (const device::Rect& r : dev.forbidden())
    forb.push_back(std::to_string(r.x) + "," + std::to_string(r.y) + "," + std::to_string(r.w) +
                   "," + std::to_string(r.h) + ";");
  std::sort(forb.begin(), forb.end());
  for (const std::string& f : forb) s += f;
  s += "]}";
  return s;
}

std::string tilesKey(const model::RegionSpec& r) {
  // Trailing zeros are implicit (required() pads with 0), so trim them: a
  // {6,1} region and a {6,1,0} region are the same requirement.
  std::size_t n = r.tiles.size();
  while (n > 0 && r.tiles[n - 1] == 0) --n;
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += std::to_string(r.tiles[i]) + ",";
  return s;
}

/// Permutation-invariant signature of one region: its requirement vector
/// plus the multisets of incident net and relocation descriptors. Regions
/// are canonically ranked by this signature; ties keep input order (two
/// regions tying here are structurally ambiguous at depth one — a permuted
/// twin may then produce a different canonical string, which is a safe miss).
std::string regionSignature(const model::FloorplanProblem& problem, int i) {
  std::string s = "t[" + tilesKey(problem.region(i)) + "]n[";
  std::vector<std::string> nets;
  for (const model::Net& net : problem.nets()) {
    int mult = 0;
    for (const int r : net.regions) mult += r == i ? 1 : 0;
    if (mult > 0)
      nets.push_back("w=" + fmt(net.weight) + ";a=" + std::to_string(net.regions.size()) +
                     ";m=" + std::to_string(mult) + "|");
  }
  std::sort(nets.begin(), nets.end());
  for (const std::string& n : nets) s += n;
  s += "]r[";
  std::vector<std::string> relocs;
  for (const model::RelocationRequest& rr : problem.relocations())
    if (rr.region == i)
      relocs.push_back("c=" + std::to_string(rr.count) + ";h=" + std::to_string(rr.hard ? 1 : 0) +
                       ";w=" + fmt(rr.weight) + "|");
  std::sort(relocs.begin(), relocs.end());
  for (const std::string& r : relocs) s += r;
  s += "]";
  return s;
}

/// FC-area block offset of each canonical relocation rank in a
/// canonical-order plan (prefix sums of the request counts by rank).
std::vector<int> canonicalFcOffsets(const Fingerprint& fp,
                                    const model::FloorplanProblem& problem) {
  const auto& relocs = problem.relocations();
  std::vector<int> count_by_rank(relocs.size(), 0);
  for (std::size_t j = 0; j < relocs.size(); ++j)
    count_by_rank[static_cast<std::size_t>(fp.reloc_rank[j])] = std::max(0, relocs[j].count);
  std::vector<int> offsets(relocs.size(), 0);
  int acc = 0;
  for (std::size_t r = 0; r < relocs.size(); ++r) {
    offsets[r] = acc;
    acc += count_by_rank[r];
  }
  return offsets;
}

std::vector<int> problemFcOffsets(const model::FloorplanProblem& problem) {
  const auto& relocs = problem.relocations();
  std::vector<int> offsets(relocs.size(), 0);
  int acc = 0;
  for (std::size_t j = 0; j < relocs.size(); ++j) {
    offsets[j] = acc;
    acc += std::max(0, relocs[j].count);
  }
  return offsets;
}

/// Remaps a plan in `problem` order into canonical order. False when the
/// plan's shape does not match the problem (such plans are not cacheable).
bool toCanonicalPlan(const Fingerprint& fp, const model::FloorplanProblem& problem,
                     const model::Floorplan& in, model::Floorplan* out) {
  const std::size_t regions = static_cast<std::size_t>(problem.numRegions());
  if (in.regions.size() != regions) return false;
  out->regions.assign(regions, device::Rect{});
  for (std::size_t i = 0; i < regions; ++i)
    out->regions[static_cast<std::size_t>(fp.region_rank[i])] = in.regions[i];

  const std::size_t fc_total = static_cast<std::size_t>(problem.totalFcAreas());
  if (in.fc_areas.size() != fc_total) return false;
  out->fc_areas.assign(fc_total, model::FcArea{});
  const std::vector<int> prob_off = problemFcOffsets(problem);
  const std::vector<int> can_off = canonicalFcOffsets(fp, problem);
  const auto& relocs = problem.relocations();
  for (std::size_t j = 0; j < relocs.size(); ++j)
    for (int k = 0; k < std::max(0, relocs[j].count); ++k) {
      model::FcArea a = in.fc_areas[static_cast<std::size_t>(prob_off[j] + k)];
      if (a.region >= 0 && a.region < problem.numRegions())
        a.region = fp.region_rank[static_cast<std::size_t>(a.region)];
      out->fc_areas[static_cast<std::size_t>(
          can_off[static_cast<std::size_t>(fp.reloc_rank[j])] + k)] = a;
    }
  return true;
}

/// Remaps a canonical-order plan into `problem` order. The FC areas are
/// rebuilt from the problem's own expansion (region ids and weights come
/// from the requester) with placements copied over, so the result is
/// exactly what a native solve of `problem` would have produced.
bool fromCanonicalPlan(const Fingerprint& fp, const model::FloorplanProblem& problem,
                       const model::Floorplan& canonical, model::Floorplan* out) {
  const std::size_t regions = static_cast<std::size_t>(problem.numRegions());
  if (canonical.regions.size() != regions) return false;
  out->regions.assign(regions, device::Rect{});
  for (std::size_t i = 0; i < regions; ++i)
    out->regions[i] = canonical.regions[static_cast<std::size_t>(fp.region_rank[i])];

  std::vector<model::FcArea> base = model::expandFcRequests(problem);
  if (canonical.fc_areas.size() != base.size()) return false;
  const std::vector<int> prob_off = problemFcOffsets(problem);
  const std::vector<int> can_off = canonicalFcOffsets(fp, problem);
  const auto& relocs = problem.relocations();
  for (std::size_t j = 0; j < relocs.size(); ++j)
    for (int k = 0; k < std::max(0, relocs[j].count); ++k) {
      const model::FcArea& src = canonical.fc_areas[static_cast<std::size_t>(
          can_off[static_cast<std::size_t>(fp.reloc_rank[j])] + k)];
      model::FcArea& dst = base[static_cast<std::size_t>(prob_off[j] + k)];
      dst.rect = src.rect;
      dst.placed = src.placed;
    }
  out->fc_areas = std::move(base);
  return true;
}

[[nodiscard]] bool isProofStatus(model::SolveStatus s) noexcept {
  return s == model::SolveStatus::kOptimal || s == model::SolveStatus::kInfeasible;
}

/// Flight-table key: the full cache key. The hash alone would let a
/// collision chain two unrelated solves together (a follower waiting on a
/// leader that will never answer its problem).
std::string flightKey(const Fingerprint& fp) {
  std::string key = fp.structural;
  key += '\x1f';
  key += fp.budget;
  return key;
}

}  // namespace

Fingerprint fingerprintProblem(const model::FloorplanProblem& problem,
                               const SolveRequest& request, Backend backend) {
  Fingerprint fp;
  const int regions = problem.numRegions();

  // Canonical region ranks: sort by structural signature, ties keep input
  // order (stable), so any permutation of distinguishable regions lands on
  // the same ranking.
  std::vector<int> order(static_cast<std::size_t>(regions));
  for (int i = 0; i < regions; ++i) order[static_cast<std::size_t>(i)] = i;
  std::vector<std::string> sig(static_cast<std::size_t>(regions));
  for (int i = 0; i < regions; ++i)
    sig[static_cast<std::size_t>(i)] = regionSignature(problem, i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return sig[static_cast<std::size_t>(a)] < sig[static_cast<std::size_t>(b)];
  });
  fp.region_rank.assign(static_cast<std::size_t>(regions), 0);
  for (int pos = 0; pos < regions; ++pos)
    fp.region_rank[static_cast<std::size_t>(order[static_cast<std::size_t>(pos)])] = pos;

  std::string s = serializeDevice(problem.dev());
  const model::ObjectiveWeights& q = problem.weights();
  s += "obj{lex=" + std::to_string(problem.lexicographic() ? 1 : 0) + ";q=" + fmt(q.q1_wirelength) +
       "," + fmt(q.q2_perimeter) + "," + fmt(q.q3_wasted) + "," + fmt(q.q4_relocation) + "}";

  s += "reg[";
  for (int pos = 0; pos < regions; ++pos)
    s += tilesKey(problem.region(order[static_cast<std::size_t>(pos)])) + ";";
  s += "]nets[";
  std::vector<std::string> nets;
  nets.reserve(problem.nets().size());
  for (const model::Net& net : problem.nets()) {
    std::vector<int> ends;
    ends.reserve(net.regions.size());
    for (const int r : net.regions)
      ends.push_back(r >= 0 && r < regions ? fp.region_rank[static_cast<std::size_t>(r)] : r);
    std::sort(ends.begin(), ends.end());
    std::string n = "n{";
    for (const int e : ends) n += std::to_string(e) + ",";
    n += ";w=" + fmt(net.weight) + "}";
    nets.push_back(std::move(n));
  }
  std::sort(nets.begin(), nets.end());
  for (const std::string& n : nets) s += n;
  s += "]rel[";
  const auto& relocs = problem.relocations();
  std::vector<int> rorder(relocs.size());
  for (std::size_t j = 0; j < relocs.size(); ++j) rorder[j] = static_cast<int>(j);
  std::vector<std::string> rsig(relocs.size());
  for (std::size_t j = 0; j < relocs.size(); ++j) {
    const model::RelocationRequest& rr = relocs[j];
    const int g = rr.region >= 0 && rr.region < regions
                      ? fp.region_rank[static_cast<std::size_t>(rr.region)]
                      : rr.region;
    rsig[j] = "r{g=" + std::to_string(g) + ";c=" + std::to_string(rr.count) +
              ";h=" + std::to_string(rr.hard ? 1 : 0) + ";w=" + fmt(rr.weight) + "}";
  }
  std::stable_sort(rorder.begin(), rorder.end(), [&](int a, int b) {
    return rsig[static_cast<std::size_t>(a)] < rsig[static_cast<std::size_t>(b)];
  });
  fp.reloc_rank.assign(relocs.size(), 0);
  for (std::size_t pos = 0; pos < rorder.size(); ++pos)
    fp.reloc_rank[static_cast<std::size_t>(rorder[pos])] = static_cast<int>(pos);
  for (std::size_t pos = 0; pos < rorder.size(); ++pos)
    s += rsig[static_cast<std::size_t>(rorder[pos])];
  s += "]";

  // Backend plus its answer-shaping knobs. Stop flags, incumbent channels
  // and thread counts are excluded: they change how fast a valid answer
  // arrives, never which answers are valid.
  s += "be=" + std::string(toString(backend)) + ";";
  switch (backend) {
    case Backend::kSearch:
      s += "search{fo=" + std::to_string(request.search.feasibility_only ? 1 : 0) +
           ";wb=" + std::to_string(request.search.waste_budget) +
           ";ow=" + std::to_string(request.search.optimize_wirelength ? 1 : 0) + "}";
      break;
    case Backend::kMilpO:
    case Backend::kMilpHO: {
      const fp::MilpFloorplannerOptions& m = request.milp;
      s += "milp{gib=" + fmt(m.max_lp_gib) +
           ";off=" + std::to_string(static_cast<int>(m.formulation.offset)) +
           ";tm=" + std::to_string(static_cast<int>(m.formulation.type_match)) +
           ";ob=" + std::to_string(static_cast<int>(m.formulation.objective)) + "}";
      if (backend == Backend::kMilpHO)
        s += "heur{r=" + std::to_string(m.heuristic.restarts) +
             ";s=" + std::to_string(m.heuristic.seed) +
             ";fc=" + std::to_string(m.heuristic.place_fc_areas ? 1 : 0) + "}";
      break;
    }
    case Backend::kHeuristic:
      s += "heur{r=" + std::to_string(request.heuristic.restarts) +
           ";s=" + std::to_string(request.heuristic.seed) +
           ";fc=" + std::to_string(request.heuristic.place_fc_areas ? 1 : 0) + "}";
      break;
    case Backend::kAnnealer:
      s += "sa{s=" + std::to_string(request.annealer.seed) +
           ";T=" + fmt(request.annealer.initial_temperature) +
           ";c=" + fmt(request.annealer.cooling) + ";ww=" + fmt(request.annealer.waste_weight) +
           ";wl=" + fmt(request.annealer.wirelength_weight) + "}";
      break;
  }
  fp.structural = std::move(s);
  fp.hash = fnv1a(fp.structural);

  // Budget tier: every knob that truncates work without redefining the
  // answer. Same structure + different budget = near miss (incumbent seed).
  std::string b = "d=" + fmt(request.deadline_seconds) + ";";
  switch (backend) {
    case Backend::kSearch:
      b += "tl=" + fmt(request.search.time_limit_seconds) +
           ";nl=" + std::to_string(request.search.node_limit);
      break;
    case Backend::kMilpO:
    case Backend::kMilpHO:
      b += "tl=" + fmt(request.milp.time_limit_seconds) +
           ";mtl=" + fmt(request.milp.milp.time_limit_seconds) +
           ";nl=" + std::to_string(request.milp.milp.node_limit) +
           ";htl=" + fmt(request.milp.heuristic.time_limit_seconds);
      break;
    case Backend::kHeuristic: b += "tl=" + fmt(request.heuristic.time_limit_seconds); break;
    case Backend::kAnnealer:
      b += "tl=" + fmt(request.annealer.time_limit_seconds) +
           ";it=" + std::to_string(request.annealer.iterations);
      break;
  }
  fp.budget = std::move(b);
  return fp;
}

// ---- ResultCache -----------------------------------------------------------

ResultCache::ResultCache(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

void ResultCache::touch(EntryList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);  // list iterators stay valid
}

CacheLookup ResultCache::lookup(const Fingerprint& fp, const model::FloorplanProblem& problem) {
  CacheLookup out;
  const sync::MutexLock lock(mutex_);
  // Full-key comparison: the hash only narrows the candidate set, equality
  // is decided on the stored structural/budget strings. A forged or
  // accidental hash collision therefore falls through to a miss.
  EntryList::iterator exact = lru_.end(), proof = lru_.end(), best = lru_.end();
  const auto range = index_.equal_range(fp.hash);
  for (auto it = range.first; it != range.second; ++it) {
    const EntryList::iterator e = it->second;
    if (e->structural != fp.structural) continue;
    if (e->budget == fp.budget && exact == lru_.end()) exact = e;
    if (isProofStatus(e->canonical.status)) {
      // Prefer an optimality proof over an infeasibility one (both are
      // budget-independent; only one carries a plan).
      if (proof == lru_.end() || e->canonical.status == model::SolveStatus::kOptimal) proof = e;
    } else if (e->canonical.hasSolution()) {
      if (best == lru_.end() ||
          model::strictlyBetter(problem, e->canonical.costs, best->canonical.costs))
        best = e;
    }
  }

  // A stored proof answers any budget; otherwise only the exact budget may
  // short-circuit. A remaining structural match seeds instead of serving.
  const EntryList::iterator hit = proof != lru_.end() ? proof : exact;
  if (hit != lru_.end()) {
    out.response = hit->canonical;
    bool ok = true;
    if (out.response.hasSolution()) {
      model::Floorplan remapped;
      ok = fromCanonicalPlan(fp, problem, out.response.plan, &remapped);
      if (ok) out.response.plan = std::move(remapped);
    }
    if (ok) {
      // A served hit performed no engine work: zero the work telemetry so
      // batch-level aggregation does not count the original solve's nodes
      // and pivots once per duplicate (status/plan/costs stay — they are
      // the answer, not the work).
      out.response.nodes = 0;
      out.response.lp = LpStats{};
      out.response.exchange = {};
      out.outcome = CacheOutcome::kHit;
      touch(hit);
      ++stats_.hits;
      return out;
    }
    out.response = SolveResponse{};  // shape mismatch: treat as a miss
  }
  if (best != lru_.end()) {
    model::Floorplan remapped;
    if (fromCanonicalPlan(fp, problem, best->canonical.plan, &remapped)) {
      out.outcome = CacheOutcome::kNearMiss;
      out.seed_plan = std::move(remapped);
      out.seed_costs = best->canonical.costs;
      touch(best);
      ++stats_.seeded_incumbents;
      return out;
    }
  }
  ++stats_.misses;
  return out;
}

bool ResultCache::insert(const Fingerprint& fp, const model::FloorplanProblem& problem,
                         const SolveResponse& response) {
  // Validation happens outside the lock: model::check walks the whole grid.
  Entry entry;
  entry.hash = fp.hash;
  entry.structural = fp.structural;
  entry.budget = fp.budget;
  entry.canonical = response;
  // Provenance flags describe the solve that produced the response, not
  // the lookups that will serve it — a later hit must not report the
  // original near-miss seeding as its own.
  entry.canonical.cache_hit = false;
  entry.canonical.cache_seeded = false;
  if (response.status == model::SolveStatus::kInfeasible) {
    // Only a proof may be cached as infeasibility; anything else could be a
    // truncation artifact.
    if (!isExhaustive(response.backend)) {
      const sync::MutexLock lock(mutex_);
      ++stats_.rejected;
      return false;
    }
    entry.canonical.plan = model::Floorplan{};
  } else if (response.hasSolution()) {
    model::Floorplan canonical;
    if (!model::check(problem, response.plan).empty() ||
        !toCanonicalPlan(fp, problem, response.plan, &canonical)) {
      const sync::MutexLock lock(mutex_);
      ++stats_.rejected;
      return false;
    }
    entry.canonical.plan = std::move(canonical);
  } else {
    // kNoSolution carries nothing worth remembering (and is budget-bound).
    const sync::MutexLock lock(mutex_);
    ++stats_.rejected;
    return false;
  }

  const sync::MutexLock lock(mutex_);
  // Replace an existing entry under the same full key (latest answer wins;
  // typically it is the same or strictly fresher).
  auto range = index_.equal_range(fp.hash);
  for (auto it = range.first; it != range.second; ++it) {
    const EntryList::iterator e = it->second;
    if (e->structural == fp.structural && e->budget == fp.budget) {
      lru_.erase(e);
      index_.erase(it);
      break;
    }
  }
  lru_.push_front(std::move(entry));
  index_.emplace(fp.hash, lru_.begin());
  ++stats_.insertions;
  while (lru_.size() > capacity_) {
    const EntryList::iterator victim = std::prev(lru_.end());
    auto vrange = index_.equal_range(victim->hash);
    for (auto it = vrange.first; it != vrange.second; ++it)
      if (it->second == victim) {
        index_.erase(it);
        break;
      }
    lru_.erase(victim);
    ++stats_.evictions;
  }
  return true;
}

ResultCache::FlightJoin ResultCache::joinFlight(const Fingerprint& fp, std::atomic<bool>* stop) {
  const std::string key = flightKey(fp);
  sync::UniqueLock lock(flight_mu_);
  for (;;) {
    if (flights_.insert(key).second) return FlightJoin::kLeader;
    // An identical solve is in flight. Check the stop flag *before* waiting:
    // a follower arriving with cancellation already raised must unwind
    // immediately, not sleep out a timeout first (its engines would only be
    // cancelled again anyway).
    if (stop && stop->load(std::memory_order_relaxed)) return FlightJoin::kCancelled;
    // Wait for the leader to land. The wait wakes on the leader's
    // finishFlight() broadcast; the timeout only bounds how stale a raised
    // stop flag can go unnoticed.
    flight_cv_.wait_for(lock, std::chrono::milliseconds(10));
    if (flights_.count(key) == 0) return FlightJoin::kLanded;
    if (stop && stop->load(std::memory_order_relaxed)) return FlightJoin::kCancelled;
  }
}

void ResultCache::finishFlight(const Fingerprint& fp) {
  {
    const sync::MutexLock lock(flight_mu_);
    flights_.erase(flightKey(fp));
    ++landings_;
  }
  flight_cv_.notify_all();
}

void ResultCache::noteCoalesced() {
  const sync::MutexLock lock(mutex_);
  ++stats_.coalesced;
}

CacheStats ResultCache::stats() const {
  const sync::MutexLock lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const sync::MutexLock lock(mutex_);
  return lru_.size();
}

// ---- cached dispatch --------------------------------------------------------

namespace detail {

namespace {

/// The incumbent channel the caller configured in the request's engine
/// options for `backend`, if any. The near-miss seed must go *there* —
/// replacing it with a cache-internal channel would hide publishes (and a
/// pre-published cutoff) from a caller who asked to observe them.
SharedIncumbent* requestChannel(const SolveRequest& request, Backend backend) noexcept {
  switch (backend) {
    case Backend::kSearch: return request.search.incumbent;
    case Backend::kMilpO:
    case Backend::kMilpHO: return request.milp.incumbent;
    case Backend::kHeuristic: return request.heuristic.incumbent;
    case Backend::kAnnealer: return request.annealer.incumbent;
  }
  return nullptr;
}

/// True when a stop flag that could have truncated this run is raised —
/// the portfolio/batch override *or* a flag the caller wired into the
/// request's engine options. A truncated result is cut at an arbitrary
/// point and must never be cached as this budget tier's answer.
bool stopRaised(const SolveRequest& request, Backend backend,
                std::atomic<bool>* external_stop) noexcept {
  if (external_stop && external_stop->load(std::memory_order_relaxed)) return true;
  const auto raised = [](const std::atomic<bool>* s) {
    return s && s->load(std::memory_order_relaxed);
  };
  switch (backend) {
    case Backend::kSearch: return raised(request.search.stop);
    case Backend::kMilpO:
    case Backend::kMilpHO:
      return raised(request.milp.milp.stop) || raised(request.milp.heuristic.stop);
    case Backend::kHeuristic: return raised(request.heuristic.stop);
    case Backend::kAnnealer: return raised(request.annealer.stop);
  }
  return false;
}

/// Cache-event observability: an instant on the trace and a counter bump in
/// the registry, both tolerant of a null/partial context.
void noteCacheEvent(const telemetry::Context* ctx, const char* name, const char* counter_name) {
  telemetry::instant(ctx, "cache", name);
  if (ctx != nullptr && ctx->metrics != nullptr) ctx->metrics->counter(counter_name).increment();
}

}  // namespace

SolveResponse solveThroughCache(ResultCache* cache, const model::FloorplanProblem& problem,
                                const SolveRequest& request, std::atomic<bool>* external_stop,
                                const SolveRequest* key_request, const char* budget_context) {
  if (cache == nullptr || !request.use_cache)
    return runBackend(problem, request, request.backend, external_stop);

  Stopwatch watch;
  Fingerprint fp =
      fingerprintProblem(problem, key_request ? *key_request : request, request.backend);
  if (budget_context) fp.budget += std::string(";ctx=") + budget_context;
  std::uint64_t landed = cache->landings();
  CacheLookup lk = cache->lookup(fp, problem);
  // In-flight duplicate coalescing: a miss or near miss is about to run an
  // engine, so announce the full key first (ResultCache::joinFlight). The
  // first announcer leads and solves; a caller that joined while an
  // identical solve was already running blocks until the leader lands and
  // re-looks-up — the leader's freshly stored answer turns the miss into a
  // hit, so each unique in-flight fingerprint runs its engine exactly once.
  // When the leader's result was refused by the insert policy the re-lookup
  // still misses and the follower takes over as the new leader. A leader
  // that landed between this caller's lookup and its join leaves no flight
  // to follow, so a caller that leads after some flight landed re-looks-up
  // once before solving.
  bool leading = false;
  bool coalesced = false;
  while (lk.outcome != CacheOutcome::kHit) {
    const ResultCache::FlightJoin join = cache->joinFlight(fp, external_stop);
    if (join == ResultCache::FlightJoin::kLeader) {
      if (cache->landings() != landed) {
        lk = cache->lookup(fp, problem);
        if (lk.outcome == CacheOutcome::kHit) {
          cache->finishFlight(fp);
          coalesced = true;
          break;
        }
      }
      leading = true;
      break;
    }
    if (join == ResultCache::FlightJoin::kCancelled)
      break;  // stop raised while waiting: solve uncoalesced, engines unwind fast
    coalesced = true;  // kLanded
    landed = cache->landings();
    lk = cache->lookup(fp, problem);
  }
  if (lk.outcome == CacheOutcome::kHit) {
    lk.response.cache_hit = true;
    if (coalesced) {
      lk.response.coalesced = true;
      lk.response.detail += " [coalesced]";
      cache->noteCoalesced();
      noteCacheEvent(request.telemetry, "flight_join", "cache.coalesced");
    } else {
      noteCacheEvent(request.telemetry, "hit", "cache.hits");
    }
    // Provenance: nobody ran an engine for this response, and the stored
    // copy's members/workers describe the *original* solve. Say so instead
    // of looking like an engine run with silently empty telemetry.
    lk.response.served_by = coalesced ? "flight-follower" : "cache";
    lk.response.detail += " [cache hit]";
    lk.response.seconds = watch.seconds();  // this call's cost, not the original solve's
    // Observer invariant: a caller watching the solve through its own
    // incumbent channel sees the answer whether an engine ran or not.
    if (lk.response.hasSolution())
      if (SharedIncumbent* caller = requestChannel(request, request.backend))
        caller->publish(lk.response.plan, lk.response.costs, "cache");
    return lk.response;
  }

  if (lk.outcome == CacheOutcome::kNearMiss) {
    // Same structure under another budget: do not short-circuit (the new
    // budget may buy a better answer) but seed the engines' incumbent
    // channel with the cached plan, so provers start with a cutoff and the
    // result can never be worse than what the cache already knew. A
    // caller-configured channel is seeded in place (and keeps receiving
    // the engine's publishes); only otherwise does the cache bring its own.
    SharedIncumbent local(problem);
    SharedIncumbent* caller = requestChannel(request, request.backend);
    (caller ? caller : &local)->publish(lk.seed_plan, lk.seed_costs, "cache");
    noteCacheEvent(request.telemetry, "near_miss_seed", "cache.seeded");
    SolveResponse res = runBackend(problem, request, request.backend, external_stop,
                                   caller ? nullptr : &local);
    res.cache_seeded = true;
    if (!res.hasSolution() && res.status != model::SolveStatus::kInfeasible) {
      res.status = model::SolveStatus::kFeasible;
      res.plan = lk.seed_plan;
      res.costs = lk.seed_costs;
      res.detail += " [cache seed returned]";
    } else if (res.hasSolution() && res.status != model::SolveStatus::kOptimal &&
               model::strictlyBetter(problem, lk.seed_costs, res.costs)) {
      // Engines that cannot consume the channel (annealer) may come back
      // worse than the seed; arbitration keeps the better plan.
      res.plan = lk.seed_plan;
      res.costs = lk.seed_costs;
      res.detail += " [cache seed kept: re-solve was worse]";
    }
    if (!stopRaised(request, request.backend, external_stop)) cache->insert(fp, problem, res);
    if (leading) cache->finishFlight(fp);  // after insert: followers re-lookup and hit
    return res;
  }

  noteCacheEvent(request.telemetry, "miss", "cache.misses");
  SolveResponse res = runBackend(problem, request, request.backend, external_stop);
  // A cancelled run is truncated at an arbitrary point — not a trustworthy
  // representative of this budget tier.
  if (!stopRaised(request, request.backend, external_stop)) cache->insert(fp, problem, res);
  if (leading) cache->finishFlight(fp);  // after insert: followers re-lookup and hit
  return res;
}

}  // namespace detail

}  // namespace rfp::driver
