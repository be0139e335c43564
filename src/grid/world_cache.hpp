// Shared world-realization cache.
//
// exp::ExperimentRunner compares policies under common random numbers: every
// policy cell of a figure panel re-runs the same replication seeds, so the
// machine availability of one replication is recomputed once per cell. This
// cache synthesizes each replication's WorldRealization once — keyed by
// (seed, availability model, machine count) — and hands the same immutable
// realization to every cell sharing it; cells replay it through the cursor
// driver in grid/realization.hpp, bit-identically to the live processes.
// Only thread lanes share a cache: process lanes refuse it (see
// exp::RunOptions::world_cache_bytes).
//
// Memory is bounded by a byte budget (DGSCHED_WORLD_CACHE): when the resident
// realizations exceed it, least-recently-used entries are evicted — since the
// key includes the replication seed, this retires old replications' worlds as
// a sweep advances. Entries are handed out as shared_ptr, so an evicted
// realization stays valid for runs still replaying it.
//
// Thread-safety: acquire() is safe from concurrent runner workers. Lookup,
// accounting, and eviction are guarded by one mutex; synthesis itself runs
// outside it (serialized per entry), so workers needing *different* worlds
// synthesize in parallel and workers needing the *same* world build it once.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "grid/realization.hpp"

namespace dg::grid {

struct WorldCacheStats {
  std::uint64_t hits = 0;        ///< Served from a resident realization.
  std::uint64_t misses = 0;      ///< Synthesized fresh (absent in memory).
  std::uint64_t extensions = 0;  ///< Resident but too short; re-synthesized longer.
  std::uint64_t evictions = 0;   ///< Entries dropped to stay within budget.
  std::size_t entries = 0;       ///< Resident entries at sampling time.
  std::size_t bytes = 0;         ///< Resident bytes at sampling time.
  std::size_t peak_bytes = 0;    ///< High-water resident bytes.

  /// Total acquire() calls, however they were served.
  [[nodiscard]] std::uint64_t lookups() const noexcept { return hits + misses + extensions; }
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t n = lookups();
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
  /// Always 0: no world is shared between processes. Kept only because
  /// benchmark/trace/trace_driver.cpp reports it; remove with the next
  /// benchmark change (ROADMAP item 4).
  [[nodiscard]] double pool_hit_rate() const noexcept { return 0.0; }
};

class WorldCache {
 public:
  /// Default byte budget (256 MiB) — far above what a paper-scale sweep
  /// resident set needs, small next to the simulations themselves.
  static constexpr std::size_t kDefaultBudgetBytes = std::size_t{256} << 20;
  /// Synthesis margin over the requested horizon, so cells of one panel whose
  /// horizons differ slightly (arrival draws vary with granularity) share one
  /// realization instead of forcing per-cell extensions.
  static constexpr double kHorizonMargin = 1.25;

  explicit WorldCache(std::size_t budget_bytes = kDefaultBudgetBytes)
      : budget_bytes_(budget_bytes) {}

  WorldCache(const WorldCache&) = delete;
  WorldCache& operator=(const WorldCache&) = delete;

  /// A realization of (model, machine count, seed) covering at least
  /// [0, horizon]. Served from cache when resident; synthesized (with
  /// kHorizonMargin headroom) and cached otherwise. The returned realization
  /// is immutable and remains valid after eviction.
  [[nodiscard]] std::shared_ptr<const WorldRealization> acquire(
      const AvailabilityModel& availability, std::size_t num_machines, double horizon,
      std::uint64_t seed);

  [[nodiscard]] WorldCacheStats stats() const;
  [[nodiscard]] std::size_t budget_bytes() const noexcept { return budget_bytes_; }

 private:
  /// (replication seed, model/machine-count signature).
  using Key = std::pair<std::uint64_t, std::uint64_t>;

  struct Slot {
    std::shared_ptr<const WorldRealization> world;  // guarded by WorldCache::mutex_
    std::size_t bytes = 0;                          // guarded by WorldCache::mutex_
    std::uint64_t last_use = 0;                     // guarded by WorldCache::mutex_
    std::mutex build;  ///< Serializes synthesis for this key only.
  };

  [[nodiscard]] static bool matches(const WorldRealization& world,
                                    const AvailabilityModel& availability,
                                    std::size_t num_machines) noexcept;
  /// Drops LRU entries (never `keep`) until within budget. Requires mutex_.
  void evict_locked(const Key& keep);

  mutable std::mutex mutex_;
  std::size_t budget_bytes_;
  std::map<Key, std::shared_ptr<Slot>> slots_;
  std::uint64_t tick_ = 0;
  WorldCacheStats stats_;
};

}  // namespace dg::grid
