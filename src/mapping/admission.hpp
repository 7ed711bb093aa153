// Online admission control: serve a churn of applications on ONE live
// shared platform.
//
// mapping::mapWorkload is batch-only — it maps a fixed workload once.
// The serving story of the paper's runtime (many throughput-constrained
// streams sharing one MPSoC, each arriving and departing independently,
// in the shape of a per-client streaming server) needs the online
// counterpart: AdmissionController holds the platform's live
// platform::ResourceBudget and, per arriving client, runs the complete
// mapping step (mapping::mapOntoBudget) as a trial on a copy. A client
// is *admitted* only when it maps AND meets its own throughput
// constraint on the residual — then the copy becomes the live budget —
// and *rejected* otherwise, leaving the live budget untouched. A
// departing client is torn down exactly through the budget's per-client
// provenance (platform::ResourceBudget::release), so admissions and
// departures can interleave forever without leaking a tile, wire, or
// FSL link: after full teardown the budget is bit-identical to pristine.
//
// Guarantees compose under churn for the same reason they compose in a
// batch workload: every commitment is exclusive, so no admission or
// departure can perturb a resident client's analyzed schedule — a
// resident's guarantee is exactly as valid the day it departs as the
// moment it was admitted (pinned by tests/admission_test.cpp).
//
// Decision latency: admissions are dominated by the mapping step
// (binding + scheduling + buffer growth + MCR analysis — milliseconds
// for the scenario-suite applications). Under churn the same residual
// states recur, so the controller memoizes each decision in a *plan
// cache* keyed by (application, options, canonical residual signature):
// a hit replays the recorded mapping by committing its reservations
// directly (microseconds), bypassing re-binding and re-analysis. The
// signature covers every budget field the mapping step reads, so a
// replayed decision is bit-identical to recomputing it
// (tests/admission_test.cpp pins this); bench/bench_admission.cpp
// reports the resulting p50/p99 decision latency. The cache is
// LRU-bounded (AdmissionOptions::planCacheCapacity) and keyed by a
// *fault epoch* so a plan recorded on a healthy platform can never
// replay onto a failed one.
//
// Fault tolerance: the platform can fail underneath the residents.
// injectFault applies one platform::FaultState transition to the live
// budget, *evacuates* every stranded client (exact teardown through
// its ledger), and immediately tries to re-admit each one — same
// client id, same application, same options — onto the healthy
// residual, in admission (oldest-first) order. Each resident gets a
// verdict: Recovered (re-admitted with a fresh composable guarantee),
// Degraded (evacuated but rejected by the residual — the client is
// gone), or Untouched (its reservations never referenced the failed
// resource). A RecoveryPolicy headroom of spare tiles keeps normal
// admissions from filling the platform so full that recovery has no
// room to work; recovery re-admissions themselves bypass the headroom.
// repair() undoes a fault; after every fault is repaired and every
// client departs, the budget is bit-identical to pristine (nothing
// about a fail/repair cycle leaks).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "mapping/workload.hpp"
#include "platform/fault.hpp"
#include "platform/resource_budget.hpp"
#include "support/thread_annotations.hpp"

namespace mamps::mapping {

/// Identifies one admitted client (stream instance) of the controller.
using ClientId = std::uint32_t;

/// Spare-capacity headroom for fault recovery: normal admissions are
/// rejected when committing them would leave the platform with fewer
/// spare tiles than this, so evacuated clients have room to land.
/// Recovery re-admissions bypass the headroom (using the reserve is
/// their purpose). The default zero disables the check.
struct RecoveryPolicy {
  /// Admit only while at least this many healthy, completely unreserved
  /// tiles (no TDM slot held by any client) would remain.
  std::uint32_t spareTiles = 0;

  /// Does the policy enforce anything?
  /// @return true when spareTiles is nonzero
  [[nodiscard]] bool active() const { return spareTiles > 0; }
};

/// Tuning knobs for AdmissionController. An application that maps but
/// misses its own throughput constraint is always rejected: a guarantee
/// that does not compose is not a guarantee.
struct AdmissionOptions {
  /// Memoize decisions per (application, options, residual signature)
  /// and replay them on repeat states. Replayed decisions are
  /// bit-identical to recomputed ones; disabling exists for the cold
  /// baseline of bench/bench_admission.cpp.
  bool planCache = true;
  /// Maximum plan-cache entries; least-recently-used decisions are
  /// evicted beyond it. 0 = unbounded. Any cap yields decisions
  /// bit-identical to cache-off (an eviction only costs a recompute).
  std::size_t planCacheCapacity = 0;
  /// Spare-capacity headroom reserved for fault recovery.
  RecoveryPolicy recovery{};
};

/// Outcome of one admission attempt.
struct AdmissionDecision {
  /// The admitted client's id (release it with depart()); nullopt when
  /// the application was rejected.
  std::optional<ClientId> client;
  /// The admitted mapping and its throughput guarantee; nullopt when
  /// rejected.
  std::optional<MappingResult> result;
  /// Wall time of this decision, in seconds.
  double seconds = 0.0;
  /// True when the decision was replayed from the plan cache.
  bool planCacheHit = false;
  /// Why the application was rejected (empty when admitted).
  std::string reason;

  /// Was the application admitted?
  /// @return true when `client` is set
  [[nodiscard]] bool admitted() const { return client.has_value(); }
};

/// One platform fault (or its repair target): exactly one resource.
struct FaultEvent {
  /// Which resource kind failed.
  enum class Kind {
    TileFail,     ///< a processor/IP tile went down
    NocLinkFail,  ///< a directed NoC mesh link went down
    FslLinkFail,  ///< an FSL point-to-point link went down
    TdmDegrade,   ///< a tile came back with a degraded TDM wheel
  };

  Kind kind = Kind::TileFail;   ///< the resource kind
  platform::TileId tile = 0;    ///< TileFail / TdmDegrade: the tile
  platform::LinkId link = 0;    ///< NocLinkFail: the directed link
  std::uint32_t fslIndex = 0;   ///< FslLinkFail: the link index
  platform::TdmConfig wheel{};  ///< TdmDegrade: the degraded wheel

  /// A failed tile.
  /// @param t the tile
  /// @return the event
  [[nodiscard]] static FaultEvent tileFailure(platform::TileId t) {
    FaultEvent e;
    e.kind = Kind::TileFail;
    e.tile = t;
    return e;
  }
  /// A failed directed NoC link.
  /// @param l the link
  /// @return the event
  [[nodiscard]] static FaultEvent nocLinkFailure(platform::LinkId l) {
    FaultEvent e;
    e.kind = Kind::NocLinkFail;
    e.link = l;
    return e;
  }
  /// A failed FSL link index.
  /// @param index the index
  /// @return the event
  [[nodiscard]] static FaultEvent fslLinkFailure(std::uint32_t index) {
    FaultEvent e;
    e.kind = Kind::FslLinkFail;
    e.fslIndex = index;
    return e;
  }
  /// A degraded TDM wheel on a tile.
  /// @param t the tile
  /// @param degraded the effective wheel
  /// @return the event
  [[nodiscard]] static FaultEvent tdmDegrade(platform::TileId t,
                                             const platform::TdmConfig& degraded) {
    FaultEvent e;
    e.kind = Kind::TdmDegrade;
    e.tile = t;
    e.wheel = degraded;
    return e;
  }
};

/// Per-client verdict of one fault injection.
enum class RecoveryOutcome {
  Recovered,  ///< evacuated and re-admitted (fresh guarantee, same id)
  Degraded,   ///< evacuated but rejected by the residual; client is gone
  Untouched,  ///< never referenced the failed resource
};

/// What one injectFault did to the residents.
struct RecoveryReport {
  /// Every client that was resident at injection time, with its verdict.
  std::map<ClientId, RecoveryOutcome> verdicts;
  /// The evacuated (stranded) clients, ascending.
  std::vector<ClientId> stranded;
  /// The re-admitted subset of `stranded`, ascending.
  std::vector<ClientId> recovered;
  /// The rejected subset of `stranded` (no longer resident), ascending.
  std::vector<ClientId> degraded;
  /// Wall time of the complete evacuate + re-admit pass, in seconds.
  double seconds = 0.0;
};

/// Lifetime counters of one controller.
struct AdmissionStats {
  std::size_t arrivals = 0;           ///< admit() calls
  std::size_t admitted = 0;           ///< arrivals that were admitted
  std::size_t rejected = 0;           ///< arrivals that were rejected
  std::size_t departures = 0;         ///< depart() calls
  std::size_t planCacheHits = 0;      ///< decisions replayed from the cache
  std::size_t planCacheMisses = 0;    ///< cache-enabled decisions computed cold
  std::size_t planCacheEvictions = 0; ///< LRU evictions (capacity pressure)
  std::size_t faultsInjected = 0;     ///< injectFault() calls
  std::size_t repairs = 0;            ///< repair() calls
  std::size_t evacuated = 0;          ///< clients stranded by faults
  std::size_t recovered = 0;          ///< stranded clients re-admitted
  std::size_t degradedClients = 0;    ///< stranded clients lost (rejected)
};

/// Online admission control against one live shared platform. See the
/// header comment for semantics. Internally synchronized: every public
/// member function takes the controller's mutex, so concurrent arrival
/// streams may share one controller. The reference-returning accessors
/// (budget(), pristineBudget(), resident(), faults(), stats()) read the
/// referenced state under the lock but hand the reference out unlocked
/// — dereference them only while no other thread is mutating the
/// controller, or copy under your own quiescence point. The shared
/// state is MAMPS_GUARDED_BY(mu_), so the clang CI leg verifies with
/// -Wthread-safety that no path touches it without the lock.
class AdmissionController {
 public:
  /// Start a controller over `arch` with the MAMPS runtime layer
  /// committed as the platform baseline on every software tile.
  /// @param arch the shared platform; must outlive the controller
  /// @param options admission knobs
  explicit AdmissionController(const platform::Architecture& arch,
                               const AdmissionOptions& options = {});

  /// Try to admit one application instance onto the live residual.
  /// Trial-on-copy: the live budget advances only when the decision is
  /// an admission. The cache (and its application model) must outlive
  /// every decision that may be replayed from the plan cache — and
  /// survive until the client departs, since fault recovery re-maps
  /// residents from their recorded application.
  /// @param app the prepared application (see prepareApplication)
  /// @param options mapping knobs for this instance
  /// @return the decision (client id + mapping when admitted)
  [[nodiscard]] AdmissionDecision admit(const AppAnalysisCache& app,
                                        const MappingOptions& options = {}) MAMPS_EXCLUDES(mu_);

  /// Tear down a resident client: every tile, SDM wire, and FSL link it
  /// holds returns to the residual exactly.
  /// @param client the departing client (from an admitted decision)
  /// @throws Error when `client` is not resident (double-depart or
  ///   unknown id)
  void depart(ClientId client) MAMPS_EXCLUDES(mu_);

  /// Apply one platform fault to the live budget, evacuate every
  /// stranded resident, and try to re-admit each onto the residual
  /// (trial-on-copy, admission order, same client id, headroom
  /// bypassed). Bumps the fault epoch so no stale plan can replay.
  /// @param fault the failing resource
  /// @return the per-client verdicts plus the recovery wall time
  /// @throws Error when the resource is already failed or out of range
  RecoveryReport injectFault(const FaultEvent& fault) MAMPS_EXCLUDES(mu_);

  /// Undo one fault: the resource's capacity returns bit-identically
  /// (repair never touches reservations). Bumps the fault epoch.
  /// Residents are not re-shuffled — the freed capacity simply serves
  /// future admissions.
  /// @param fault the resource to repair (matched by kind + identity;
  ///   the wheel payload of a TdmDegrade is ignored)
  /// @throws Error when the resource is not currently failed
  void repair(const FaultEvent& fault) MAMPS_EXCLUDES(mu_);

  /// The live platform fault state (empty = healthy).
  /// @return the budget's faults
  [[nodiscard]] const platform::FaultState& faults() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return budget_.faults();
  }

  /// Monotone counter bumped on every injectFault and repair; prefixed
  /// to every plan-cache key, so within one controller a cached plan
  /// can only ever replay against the exact fault state it was
  /// recorded under.
  /// @return the current epoch (0 = never faulted)
  [[nodiscard]] std::uint64_t faultEpoch() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return faultEpoch_;
  }

  /// The live shared budget (capacity minus every resident's
  /// reservations).
  /// @return the budget
  [[nodiscard]] const platform::ResourceBudget& budget() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return budget_;
  }

  /// The pristine reference: the budget as constructed (baseline only,
  /// no clients, no faults). After every resident departs and every
  /// fault is repaired, budget() == this, field for field.
  /// @return the pristine budget
  [[nodiscard]] const platform::ResourceBudget& pristineBudget() const { return pristine_; }

  /// Has the live budget returned to pristine (no residents, no
  /// outstanding faults, nothing leaked)?
  /// @return budget() == pristineBudget()
  [[nodiscard]] bool pristine() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return budget_ == pristine_;
  }

  /// Number of currently resident clients.
  /// @return the resident count
  [[nodiscard]] std::size_t residentCount() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return residents_.size();
  }

  /// The resident clients, in ascending id order.
  /// @return the ids of every resident
  [[nodiscard]] std::vector<ClientId> residentIds() const MAMPS_EXCLUDES(mu_);

  /// A resident client's admitted mapping (the guarantee it was
  /// admitted with — refreshed when the client was recovered after a
  /// fault).
  /// @param client the resident to look up
  /// @return the mapping result recorded at (re-)admission
  /// @throws Error when `client` is not resident
  [[nodiscard]] const MappingResult& resident(ClientId client) const MAMPS_EXCLUDES(mu_);

  /// Lifetime counters.
  /// @return the stats
  [[nodiscard]] const AdmissionStats& stats() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return stats_;
  }

  /// Current plan-cache entry count (bounded by planCacheCapacity).
  /// @return the number of memoized decisions
  [[nodiscard]] std::size_t planCacheSize() const MAMPS_EXCLUDES(mu_) {
    support::MutexLock lock(mu_);
    return plans_.size();
  }

 private:
  /// One resident client: its admitted mapping plus everything needed
  /// to re-admit it after a fault (the prepared application and the
  /// mapping knobs it was admitted with).
  struct Resident {
    MappingResult result;
    const AppAnalysisCache* app = nullptr;
    MappingOptions options;
  };

  /// One memoized decision: the full admitted mapping, or the rejection.
  struct CachedDecision {
    bool admitted = false;
    MappingResult plan;  ///< meaningful only when admitted
    std::string reason;  ///< meaningful only when rejected
    /// This entry's position in lru_ (front = most recently used).
    std::list<std::string>::iterator lruPosition;
  };

  /// Canonical signature of everything the mapping step reads from the
  /// live budget, plus the application, options, fault-epoch, and
  /// headroom-enforcement identities.
  [[nodiscard]] std::string decisionKey(const AppAnalysisCache& app,
                                        const MappingOptions& options,
                                        bool enforceHeadroom) const MAMPS_REQUIRES(mu_);
  /// Replay a memoized admission by committing its reservations against
  /// the live budget. Returns false when the replayed commitments fail
  /// validation (the caller then falls back to the cold path).
  [[nodiscard]] bool replayAdmission(const CachedDecision& cached, const AppAnalysisCache& app,
                                     const MappingOptions& options, ClientId client,
                                     AdmissionDecision& out) MAMPS_REQUIRES(mu_);
  /// The complete decision path (cache lookup, replay or cold mapping,
  /// memoization, commitment) for one client id. Recovery re-admissions
  /// pass enforceHeadroom = false.
  [[nodiscard]] AdmissionDecision decide(const AppAnalysisCache& app,
                                         const MappingOptions& options, ClientId client,
                                         bool enforceHeadroom) MAMPS_REQUIRES(mu_);
  /// Would the post-admission residual `work` violate the recovery
  /// headroom policy?
  [[nodiscard]] bool violatesHeadroom(const platform::ResourceBudget& work) const;
  /// Move a cache entry to the LRU front.
  void touchCacheEntry(CachedDecision& entry) MAMPS_REQUIRES(mu_);
  /// Insert a decision into the cache, evicting the LRU tail past the
  /// capacity.
  void storeCacheEntry(std::string key, CachedDecision memo) MAMPS_REQUIRES(mu_);

  /// Serializes every public entry point. The private helpers above
  /// are MAMPS_REQUIRES(mu_): they are only reachable with the lock
  /// held, and never take it themselves (the mutex is non-recursive).
  mutable support::Mutex mu_;

  const platform::Architecture* arch_ = nullptr;  ///< immutable after construction
  AdmissionOptions options_{};                    ///< immutable after construction
  platform::ResourceBudget budget_ MAMPS_GUARDED_BY(mu_);
  platform::ResourceBudget pristine_;  ///< immutable after construction
  ClientId nextClient_ MAMPS_GUARDED_BY(mu_) = 0;
  std::map<ClientId, Resident> residents_ MAMPS_GUARDED_BY(mu_);
  /// Ordered map: plan-cache bookkeeping (size, eviction scans) must
  /// never depend on hash-bucket layout.
  std::map<std::string, CachedDecision> plans_ MAMPS_GUARDED_BY(mu_);
  /// Keys ordered by recency, front = most recent (LRU eviction order).
  std::list<std::string> lru_ MAMPS_GUARDED_BY(mu_);
  std::uint64_t faultEpoch_ MAMPS_GUARDED_BY(mu_) = 0;
  AdmissionStats stats_ MAMPS_GUARDED_BY(mu_) = {};
};

}  // namespace mamps::mapping
