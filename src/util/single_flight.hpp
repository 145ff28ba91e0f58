/// \file single_flight.hpp
/// A build-once map for expensive cached values (calibration campaigns,
/// calibrated prototype probes): the first caller of a key builds its value
/// outside the lock, and later callers of the same key wait for that build
/// instead of running a duplicate. So the work done, and every counter of
/// it, is a function of the keys requested, not of the thread schedule.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace idp::util {

/// Key -> value map whose values are built at most once per successful
/// build. Thread-safe; values have stable addresses for the map's lifetime
/// (nothing is ever evicted).
template <typename Key, typename Value>
class SingleFlightMap {
 public:
  /// The value of `key`, built by `build()` (returning a Value) if no
  /// caller has built it yet. Returns the value and whether this call built
  /// it. A build that throws leaves the key unbuilt and rethrows; the next
  /// caller (including one that was waiting) builds it afresh. `build` must
  /// not request the same key from this map.
  template <typename Build>
  std::pair<const Value&, bool> get(const Key& key, Build&& build) {
    std::unique_lock<std::mutex> lock(mutex_);
    Slot& slot = slots_[key];  // map nodes are stable across unlocks
    while (!slot.value && slot.building) ready_.wait(lock);
    if (slot.value) return {*slot.value, false};
    slot.building = true;
    lock.unlock();
    std::unique_ptr<Value> built;
    try {
      built = std::make_unique<Value>(build());
    } catch (...) {
      lock.lock();
      slot.building = false;
      ready_.notify_all();
      throw;
    }
    lock.lock();
    slot.value = std::move(built);
    slot.building = false;
    ready_.notify_all();
    return {*slot.value, true};
  }

  /// Number of built values.
  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& entry : slots_) n += entry.second.value ? 1 : 0;
    return n;
  }

 private:
  struct Slot {
    std::unique_ptr<Value> value;
    bool building = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::map<Key, Slot> slots_;
};

}  // namespace idp::util
