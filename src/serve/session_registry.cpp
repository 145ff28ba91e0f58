/// \file session_registry.cpp
/// Sharded session registry implementation: per-shard locking, stable
/// session addresses and the single-flight warm calibration cache.

#include "serve/session_registry.hpp"

#include "util/error.hpp"

namespace idp::serve {

const quant::Calibration& Session::epoch_calibration(
    std::uint32_t channel, std::uint32_t epoch,
    const std::function<quant::Calibration()>& build) {
  // A recalibration campaign is seconds of simulated chemistry: the first
  // caller builds it outside the lock, later callers wait for that build.
  const auto [calibration, built] =
      calibrations_.get(std::pair{channel, epoch}, build);
  (built ? built_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return calibration;
}

SessionRegistry::SessionRegistry(std::size_t shards) : shards_(shards) {
  util::require(shards > 0, "registry needs at least one shard");
}

Session& SessionRegistry::get_or_create(const SessionKey& key) {
  const std::uint64_t hash = hash_of(key);
  Shard& shard = shard_for(hash);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(key);
  if (it != shard.sessions.end()) return *it->second;
  const auto [inserted, _] =
      shard.sessions.try_emplace(key, std::make_unique<Session>(key, hash));
  return *inserted->second;
}

Session* SessionRegistry::find(const SessionKey& key) {
  Shard& shard = shard_for(hash_of(key));
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(key);
  return it == shard.sessions.end() ? nullptr : it->second.get();
}

std::size_t SessionRegistry::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    n += shard.sessions.size();
  }
  return n;
}

RegistryStats SessionRegistry::stats() const {
  RegistryStats stats;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    stats.sessions += shard.sessions.size();
    for (const auto& [key, session] : shard.sessions) {
      stats.requests += session->requests_served();
      stats.warm_hits += session->warm_hits();
      stats.calibrations_built += session->calibrations_built();
    }
  }
  return stats;
}

}  // namespace idp::serve
