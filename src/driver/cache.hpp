// Result cache for repeated floorplanning problems.
//
// Batch workloads (the paper's SDR design-space sweeps, re-solved under
// varying region/relocation budgets) repeat near-identical problems, yet
// every solve used to pay the full engine cost from scratch. The cache puts
// a canonical *problem fingerprint* in front of a thread-safe LRU store of
// checker-validated SolveResponses:
//
//  * The fingerprint (`fingerprintProblem`) is an order-independent
//    structural serialization of everything that determines the answer —
//    device (types, grid, forbidden areas), regions, nets, relocation
//    requests, objective mode/weights, the backend, and the answer-shaping
//    engine knobs (seeds, tolerances, restart counts). Permuting the
//    problem's region/net/relocation lists does not change the fingerprint:
//    regions are ranked by a structural signature and nets/relocations are
//    re-expressed over those ranks, so two constructions of the same problem
//    hit the same entry (ranks that tie on the signature keep their input
//    order, so a permutation among structurally ambiguous twins may miss —
//    a miss is always safe, a wrong hit never happens).
//  * Budget-style knobs (deadlines, time limits, node/iteration caps) go
//    into a separate *budget tier* of the key. An exact hit needs both tiers
//    to match; a structural-only match is a *near miss*: the store hands the
//    cached plan back as an incumbent seed instead of short-circuiting, so a
//    re-solve under a new budget starts from the old answer (cross-problem
//    incumbent reuse through the SharedIncumbent channel). Proof entries
//    (kOptimal / kInfeasible) are budget-independent truths and are served
//    as full hits whatever the requested budget.
//  * Lookups compare the full stored key (structural + budget strings), not
//    just the 64-bit hash — a hash collision can never return a wrong plan.
//  * Stored plans are remapped into canonical region/relocation order on
//    insert and back into the *requesting* problem's order on hit, so a hit
//    from a permuted twin still checker-validates against the requester.
//
// Only trustworthy responses are stored: a plan must pass model::check and
// an infeasibility verdict must be a proof (exhaustive backend); everything
// else — kNoSolution, cancelled runs, checker-rejected plans — is refused.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "driver/driver.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"
#include "support/sync.hpp"

namespace rfp::driver {

/// Canonical cache key of one (problem, backend, request-knobs) solve.
/// Fields are public so the collision-safety property tests can forge a
/// hash while keeping the full keys distinct.
struct Fingerprint {
  std::uint64_t hash = 0;     ///< 64-bit FNV-1a over `structural`
  std::string structural;     ///< order-independent structural serialization
  std::string budget;         ///< budget tier (deadlines / node / iter caps)
  /// Problem region index -> canonical rank (plan remap on insert/hit).
  std::vector<int> region_rank;
  /// Problem relocation index -> canonical rank (FC-area block remap).
  std::vector<int> reloc_rank;
};

/// Builds the fingerprint of solving `problem` with `backend` under
/// `request`. Engine stop flags / incumbent pointers and pure-performance
/// knobs (thread counts) are excluded — they never change what a valid
/// answer looks like.
[[nodiscard]] Fingerprint fingerprintProblem(const model::FloorplanProblem& problem,
                                             const SolveRequest& request, Backend backend);

/// Running totals of one cache instance. `seeded_incumbents` counts
/// near-miss lookups that handed a plan back as an incumbent seed.
struct CacheStats {
  long hits = 0;              ///< full hits served from the store
  long misses = 0;            ///< no structural match at all
  long seeded_incumbents = 0; ///< near misses that seeded a re-solve
  long insertions = 0;        ///< entries stored (including replacements)
  long evictions = 0;         ///< LRU evictions under capacity pressure
  long rejected = 0;          ///< responses refused (checker/proof policy)
  /// Concurrent duplicate solves answered by a flight leader's result
  /// instead of running their own engine (see ResultCache::joinFlight).
  long coalesced = 0;
};

enum class CacheOutcome {
  kMiss,      ///< nothing structurally matching stored
  kHit,       ///< full answer served (exact budget, or a stored proof)
  kNearMiss,  ///< structural match under another budget: seed, then re-solve
};

struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::kMiss;
  /// kHit: the stored response, plan remapped into the caller's problem
  /// order (checker-valid for the caller by construction).
  SolveResponse response;
  /// kNearMiss: the best structurally-matching stored plan and its costs,
  /// remapped likewise — publish into a SharedIncumbent before re-solving.
  model::Floorplan seed_plan;
  model::FloorplanCosts seed_costs;
};

/// Thread-safe LRU map fingerprint -> checker-validated SolveResponse.
/// All operations take one internal lock; entries are returned by copy so
/// callers never hold references into the store.
class ResultCache {
 public:
  /// `capacity` caps the entry count (>= 1; responses are a few KiB each —
  /// a plan is one rect per region plus the FC areas).
  explicit ResultCache(std::size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Looks `fp` up for `problem` (the problem the caller wants answered —
  /// used to remap stored plans into its region/relocation order).
  [[nodiscard]] CacheLookup lookup(const Fingerprint& fp, const model::FloorplanProblem& problem);

  /// Offers a solve result for storage under `fp`. Returns false (and
  /// counts `rejected`) for results the store refuses to vouch for: no
  /// solution, a checker-rejected plan, a plan whose FC expansion does not
  /// match the problem, or an infeasibility verdict from a non-exhaustive
  /// backend. An existing entry under the same full key is replaced.
  bool insert(const Fingerprint& fp, const model::FloorplanProblem& problem,
              const SolveResponse& response);

  /// In-flight duplicate coalescing. A caller about to solve a cache miss
  /// announces the full key (structural + budget) here; the first announcer
  /// becomes the flight *leader* and must call finishFlight() once its
  /// result has been offered to insert() — leaders that skip this leave
  /// followers blocked for the flight's lifetime. Later announcers of the
  /// same key are *followers*: they block until the leader lands (kLanded)
  /// and should then re-run lookup(), which serves the leader's freshly
  /// stored answer; when the leader's result was refused by the insert
  /// policy the re-lookup misses and the follower re-announces, becoming
  /// the new leader. A raised stop flag aborts the wait (kCancelled): the
  /// caller solves uncoalesced — its engines unwind immediately — and must
  /// NOT call finishFlight().
  enum class FlightJoin { kLeader, kLanded, kCancelled };
  [[nodiscard]] FlightJoin joinFlight(const Fingerprint& fp, std::atomic<bool>* stop);
  void finishFlight(const Fingerprint& fp);
  /// Flights landed so far (finishFlight calls). A caller reads it before
  /// its lookup; when it has changed by the time the caller leads a
  /// flight, a leader may have stored the key in between, so the caller
  /// re-looks-up before solving.
  [[nodiscard]] std::uint64_t landings() const noexcept { return landings_.load(); }
  /// Counts one follower served from a leader's result (CacheStats::coalesced).
  void noteCoalesced();

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string structural;
    std::string budget;
    SolveResponse canonical;  ///< plan in canonical region/relocation order
  };
  using EntryList = std::list<Entry>;

  void touch(EntryList::iterator it) RFP_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable sync::Mutex mutex_;
  EntryList lru_ RFP_GUARDED_BY(mutex_);  ///< front = most recently used
  std::unordered_multimap<std::uint64_t, EntryList::iterator> index_ RFP_GUARDED_BY(mutex_);
  CacheStats stats_ RFP_GUARDED_BY(mutex_);
  // Flight table (joinFlight/finishFlight). Guarded by its own mutex so
  // followers waiting on a leader never hold up store lookups; the two
  // locks are never nested (and must stay that way — `flight` sits above
  // `cache` in the lock-ordering hierarchy, see CONTRIBUTING.md).
  sync::Mutex flight_mu_;
  sync::CondVar flight_cv_;
  /// Full keys currently solving.
  std::unordered_set<std::string> flights_ RFP_GUARDED_BY(flight_mu_);
  /// Incremented with each erase from flights_, under flight_mu_.
  std::atomic<std::uint64_t> landings_{0};
};

}  // namespace rfp::driver
