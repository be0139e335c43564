// SimulationConfig <-> INI files.
//
// Lets whole experiments live as small text files:
//
//   [grid]
//   heterogeneity = Het          ; Hom | Het
//   availability = low           ; high | med | low | always, or a number in (0,1)
//   outages = true               ; optional correlated-outage block
//   outage_fraction = 0.25
//   outage_interarrival = 5000
//   outage_duration_lo = 1800    ; outage length ~ U[lo, hi] seconds
//   outage_duration_hi = 7200
//
//   [workload]
//   granularity = 25000          ; or "granularities = 1000, 25000" for a mix
//   bag_size = 2.5e6
//   num_bots = 100
//   utilization = 0.5            ; or an explicit arrival_rate
//   arrivals = Poisson           ; Poisson | UniformJitter | Bursty
//
//   [scheduler]
//   policy = LongIdle
//   individual = WQR-FT
//   replication_threshold = 2    ; 0 = scheduler default
//   dynamic_replication = false
//
//   [run]
//   seed = 1
//   warmup_bots = 10
//
// Unknown keys are an error (typo protection); every section is optional and
// defaults match SimulationConfig's defaults. A number must span its whole
// value and be finite; integer keys (counts, seeds, thresholds) are decimal
// digits only; out-of-range values are refused.
#pragma once

#include <iosfwd>

#include "sim/simulation.hpp"

namespace dg::sim {

/// Parses an INI experiment description; throws std::runtime_error naming
/// the key on unknown keys, malformed or out-of-range values, or
/// inconsistent combinations.
[[nodiscard]] SimulationConfig load_simulation_config(std::istream& is);

/// Serializes a config back to INI (lossless for everything the format
/// covers; traces are not serialized).
void save_simulation_config(std::ostream& os, const SimulationConfig& config);

}  // namespace dg::sim
