/// \file session_registry.hpp
/// The sharded session registry: maps (tenant, patient, device) to the
/// live state of that sensor deployment so repeated requests from the same
/// virtual patient reuse warm state instead of rebuilding it per request.
///
/// What "warm state" means here is chosen for determinism: a Session
/// caches things that are *pure functions of the session identity and the
/// service configuration* -- most importantly the per-(channel, epoch)
/// recalibration campaigns, which cost a full blank + sweep campaign to
/// build -- plus commutative counters (requests served, warm hits). It
/// deliberately does NOT cache order-dependent state like probe chemistry
/// or front-end noise streams: those would make a response depend on which
/// requests ran before it, breaking the replay guarantee. Each
/// (channel, epoch) entry is built once: concurrent requests for it wait
/// for the first builder (util::SingleFlightMap, as in
/// quant::CalibrationStore), so the campaigns run are a function of the
/// entries requested, not of the schedule.
///
/// Sharding: sessions are distributed over independently locked shards by
/// hash_of(key), so thousands of concurrent sessions do not contend on one
/// mutex. Session objects have stable addresses for their lifetime (the
/// registry never evicts).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "quant/calibration_store.hpp"
#include "serve/request.hpp"
#include "util/single_flight.hpp"

namespace idp::serve {

/// Live state of one (tenant, patient, device) sensor deployment.
class Session {
 public:
  Session(const SessionKey& key, std::uint64_t site)
      : key_(key), site_(site) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionKey& key() const { return key_; }

  /// Stable site id (hash of the key): seeds the degradation model and
  /// owns the session's recalibration run-id slots.
  std::uint64_t site_id() const { return site_; }

  /// Requests that have touched this session (commutative counter).
  std::uint64_t requests_served() const { return requests_; }
  void note_request() { requests_.fetch_add(1, std::memory_order_relaxed); }

  /// The warm per-(channel, epoch) recalibration cache. Returns the cached
  /// calibration, building it via `build` outside the session lock when
  /// missing; concurrent callers of an entry under construction wait for it
  /// and count as warm hits. `build` must be a pure function of (session,
  /// channel, epoch). A build that throws leaves the entry unbuilt for the
  /// next caller. The entry's address is stable afterwards.
  const quant::Calibration& epoch_calibration(
      std::uint32_t channel, std::uint32_t epoch,
      const std::function<quant::Calibration()>& build);

  /// Warm-state accounting: cache hits vs campaigns actually built.
  std::uint64_t warm_hits() const { return hits_; }
  std::uint64_t calibrations_built() const { return built_; }

 private:
  SessionKey key_;
  std::uint64_t site_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> built_{0};
  util::SingleFlightMap<std::pair<std::uint32_t, std::uint32_t>,
                        quant::Calibration>
      calibrations_;
};

/// Aggregated registry statistics (one locked sweep over all shards).
struct RegistryStats {
  std::size_t sessions = 0;
  std::uint64_t requests = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t calibrations_built = 0;
};

/// Sharded (tenant, patient, device) -> Session map.
class SessionRegistry {
 public:
  /// \param shards  independently locked shards; must be > 0.
  explicit SessionRegistry(std::size_t shards = 16);

  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  std::size_t shard_count() const { return shards_.size(); }

  /// The session for a key, created on first sight. Thread-safe; the
  /// returned reference is stable for the registry's lifetime.
  Session& get_or_create(const SessionKey& key);

  /// The session for a key, or nullptr when it has never been seen.
  Session* find(const SessionKey& key);

  /// Live sessions across all shards.
  std::size_t size() const;

  /// One consistent-enough snapshot of the registry counters.
  RegistryStats stats() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::map<SessionKey, std::unique_ptr<Session>> sessions;
  };

  Shard& shard_for(std::uint64_t hash) {
    return shards_[hash % shards_.size()];
  }

  std::vector<Shard> shards_;
};

}  // namespace idp::serve
