#include "grid/world_cache.hpp"

#include <algorithm>
#include <bit>

#include "rng/splitmix64.hpp"
#include "rng/random_stream.hpp"

namespace dg::grid {

namespace {

std::uint64_t mix_double(std::uint64_t h, double value) noexcept {
  return rng::mix_seed(h, std::bit_cast<std::uint64_t>(value));
}

/// Model/machine-count signature: the stable hash that keys cache slots.
std::uint64_t signature(const AvailabilityModel& availability, std::size_t num_machines) noexcept {
  std::uint64_t h = rng::fnv1a64("world.realization");
  h = mix_double(h, availability.time_to_failure.shape);
  h = mix_double(h, availability.time_to_failure.scale);
  h = mix_double(h, availability.time_to_repair.mu);
  h = mix_double(h, availability.time_to_repair.sigma);
  h = mix_double(h, availability.time_to_repair.lo);
  h = mix_double(h, availability.time_to_repair.hi);
  h = rng::mix_seed(h, availability.failures_enabled ? 1 : 0);
  h = rng::mix_seed(h, num_machines);
  return h;
}

}  // namespace

bool WorldCache::matches(const WorldRealization& world, const AvailabilityModel& availability,
                         std::size_t num_machines) noexcept {
  return world.num_machines == num_machines &&
         world.availability.failures_enabled == availability.failures_enabled &&
         world.availability.time_to_failure.shape == availability.time_to_failure.shape &&
         world.availability.time_to_failure.scale == availability.time_to_failure.scale &&
         world.availability.time_to_repair.mu == availability.time_to_repair.mu &&
         world.availability.time_to_repair.sigma == availability.time_to_repair.sigma &&
         world.availability.time_to_repair.lo == availability.time_to_repair.lo &&
         world.availability.time_to_repair.hi == availability.time_to_repair.hi;
}

std::shared_ptr<const WorldRealization> WorldCache::acquire(const AvailabilityModel& availability,
                                                            std::size_t num_machines,
                                                            double horizon, std::uint64_t seed) {
  const Key key{seed, signature(availability, num_machines)};

  std::shared_ptr<Slot> slot;
  {
    std::lock_guard lock(mutex_);
    std::shared_ptr<Slot>& entry = slots_[key];
    if (!entry) entry = std::make_shared<Slot>();
    entry->last_use = ++tick_;
    slot = entry;
  }

  // Per-entry build lock: concurrent workers wanting the same world
  // synthesize it once; workers wanting different worlds don't serialize.
  std::lock_guard build_lock(slot->build);
  bool was_resident = false;
  {
    std::lock_guard lock(mutex_);
    if (slot->world != nullptr && slot->world->covers(horizon) &&
        matches(*slot->world, availability, num_machines)) {
      ++stats_.hits;
      return slot->world;
    }
    was_resident = slot->world != nullptr;
  }

  // One scratch per worker thread: synthesis runs outside the cache mutex
  // (possibly concurrently for different keys), and a warmed scratch lets
  // repeat synthesis draw without allocations.
  static thread_local SynthesisScratch scratch;
  auto world = std::make_shared<const WorldRealization>(
      WorldRealization::synthesize(availability, num_machines, horizon * kHorizonMargin, seed,
                                   scratch));

  std::lock_guard lock(mutex_);
  if (was_resident) {
    ++stats_.extensions;
  } else {
    ++stats_.misses;
  }
  auto it = slots_.find(key);
  if (it != slots_.end() && it->second == slot) {
    // Replacing an undersized realization hands back its old bytes first.
    stats_.bytes -= slot->bytes;
    slot->world = world;
    slot->bytes = world->byte_size();
    stats_.bytes += slot->bytes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes);
    evict_locked(key);
  }
  return world;
}

void WorldCache::evict_locked(const Key& keep) {
  while (stats_.bytes > budget_bytes_ && slots_.size() > 1) {
    auto victim = slots_.end();
    for (auto it = slots_.begin(); it != slots_.end(); ++it) {
      if (it->first == keep || it->second->world == nullptr) continue;
      if (victim == slots_.end() || it->second->last_use < victim->second->last_use) victim = it;
    }
    if (victim == slots_.end()) return;  // only the protected entry is resident
    stats_.bytes -= victim->second->bytes;
    ++stats_.evictions;
    slots_.erase(victim);
  }
}

WorldCacheStats WorldCache::stats() const {
  std::lock_guard lock(mutex_);
  WorldCacheStats snapshot = stats_;
  snapshot.entries = slots_.size();
  return snapshot;
}

}  // namespace dg::grid
