// Compile shim for the deleted world-realization cache.
//
// Every replication samples its machine availability live, and nothing in
// the library reads the two types below. benchmark/trace/trace_driver.cpp
// still names them, so they stay as inert declarations: a cache that holds
// nothing and statistics that are always zero. Remove with the next
// benchmark change (ROADMAP item 4).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dg::grid {

/// Always zero: no world is cached. Remove with the next benchmark change.
struct WorldCacheStats {
  std::size_t peak_bytes = 0;

  [[nodiscard]] std::uint64_t lookups() const noexcept { return 0; }
  [[nodiscard]] double hit_rate() const noexcept { return 0.0; }
  [[nodiscard]] double pool_hit_rate() const noexcept { return 0.0; }
};

/// Holds nothing; the byte budget is ignored. Remove with the next
/// benchmark change.
class WorldCache {
 public:
  explicit WorldCache(std::size_t /*budget_bytes*/ = 0) noexcept {}

  [[nodiscard]] WorldCacheStats stats() const noexcept { return {}; }
};

}  // namespace dg::grid
