// Shared driver for the figure-reproduction benches (fig1_high_avail,
// fig2_low_avail, unreported_configs): applies env overrides, builds the
// figure's cell matrix, runs it through one ExperimentRunner — so runner
// features like speculation and the opt-in world cache land in every
// figure binary at once — prints the panel tables plus runner/cache
// statistics, and writes a CSV next to the binary's working directory.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "exp/paper.hpp"
#include "exp/runner.hpp"

namespace dg::bench {

inline int run_figure_main(exp::FigureSpec spec, const std::string& csv_name) {
  exp::RunOptions options = exp::RunOptions::from_env();
  if (auto bots = exp::env_num_bots()) spec.num_bots = *bots;

  // Banner and cache statistics go to stderr: they describe the run shape
  // (cache budget, hand-out mode), which legitimately differs between runs
  // whose *results* are bit-identical — and the CI world-cache job diffs
  // captured stdout across exactly such runs.
  std::cerr << "dgsched figure reproduction\n"
            << "  bags/cell: " << spec.num_bots << " (warmup " << spec.warmup_bots << ")"
            << ", replications: " << options.min_replications << ".."
            << options.max_replications << ", CI target: "
            << options.target_relative_error * 100.0 << "%\n"
            << "  runner: speculate=" << options.speculate
            << ", world_cache=" << (options.world_cache_bytes >> 20) << " MiB\n"
            << "  (env: DGSCHED_BOTS, DGSCHED_MIN_REPS, DGSCHED_MAX_REPS, DGSCHED_TRE,"
            << " DGSCHED_THREADS, DGSCHED_SEED, DGSCHED_WORLD_CACHE, DGSCHED_SPECULATE;"
            << " paper fidelity: DGSCHED_TRE=0.025)\n\n";

  exp::ExperimentRunner runner(options);
  const std::vector<exp::CellResult> results = runner.run(exp::figure_cells(spec));

  std::ofstream csv(csv_name);
  exp::render_figure(spec, results, std::cout, csv ? &csv : nullptr);
  if (csv) std::cout << "CSV written to " << csv_name << "\n";

  if (options.world_cache_bytes > 0) {
    const grid::WorldCacheStats& stats = runner.cache_stats();
    std::fprintf(
        stderr,
        "world cache: %.1f%% hit rate (%llu hits, %llu misses, %llu extensions, "
        "%llu evictions), %zu entries / %.1f MiB resident (peak %.1f MiB)\n",
        stats.hit_rate() * 100.0, static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.extensions),
        static_cast<unsigned long long>(stats.evictions), stats.entries,
        static_cast<double>(stats.bytes) / (1024.0 * 1024.0),
        static_cast<double>(stats.peak_bytes) / (1024.0 * 1024.0));
  }
  return 0;
}

}  // namespace dg::bench
