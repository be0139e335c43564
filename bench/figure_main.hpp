// Shared driver for the figure-reproduction benches (fig1_high_avail,
// fig2_low_avail, unreported_configs): applies env overrides, builds the
// figure's cell matrix, runs it through one ExperimentRunner — so runner
// features like speculation land in every figure binary at once — prints
// the panel tables and where each cell's precision loop stopped, and writes
// `<name>.csv` in the working directory. Any error — a malformed knob, a CSV
// that cannot be written — prints "<name>: <what>" to stderr and exits with
// status 1, with no "CSV written" line.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "exp/paper.hpp"
#include "exp/runner.hpp"

#include "guarded_main.hpp"

namespace dg::bench {

inline int run_figure(exp::FigureSpec spec, const std::string& csv_name) {
  exp::RunOptions options = exp::RunOptions::from_env();
  if (auto bots = exp::env_num_bots()) spec.num_bots = *bots;

  // The banner goes to stderr: it describes the run shape, which may differ
  // between runs whose results are bit-identical, so stdout stays diffable.
  std::cerr << "dgsched figure reproduction\n"
            << "  bags/cell: " << spec.num_bots << " (warmup " << spec.warmup_bots << ")"
            << ", replications: " << options.min_replications << ".."
            << options.max_replications << ", CI target: "
            << options.target_relative_error * 100.0 << "%\n"
            << "  runner: speculate=" << options.speculate << "\n"
            << "  (env: DGSCHED_BOTS, DGSCHED_MIN_REPS, DGSCHED_MAX_REPS, DGSCHED_TRE,"
            << " DGSCHED_THREADS, DGSCHED_SEED, DGSCHED_SPECULATE;"
            << " the paper's 2.5% CI needs DGSCHED_TRE=0.025 and a DGSCHED_MAX_REPS"
            << " no unsaturated cell reaches)\n\n";

  // Opened before the run, so an unwritable CSV fails at once instead of
  // after the whole sweep.
  std::ofstream csv(csv_name);
  if (!csv) throw std::runtime_error("cannot write " + csv_name);

  exp::ExperimentRunner runner(options);
  const std::vector<exp::CellResult> results = runner.run(exp::figure_cells(spec));

  exp::render_figure(spec, results, std::cout, &csv);
  csv.close();
  if (!csv) throw std::runtime_error("cannot write " + csv_name);
  std::cout << "CSV written to " << csv_name << "\n";

  // Where each cell's precision loop stopped: only the first count reached
  // the CI target; a capped cell's interval is wider than asked for.
  std::size_t met = 0;
  std::size_t capped = 0;
  std::size_t saturated = 0;
  for (const exp::CellResult& cell : results) {
    if (cell.saturated()) {
      ++saturated;
    } else if (cell.turnaround.precise_enough()) {
      ++met;
    } else {
      ++capped;
    }
  }
  std::fprintf(stderr,
               "precision: %zu of %zu cells met the %g%% CI target, %zu stopped at the "
               "replication cap (%zu), %zu saturated\n",
               met, results.size(), options.target_relative_error * 100.0, capped,
               options.max_replications, saturated);
  return 0;
}

/// The whole main() of figure binary `name`: run_figure into `<name>.csv`,
/// with any exception reported as "<name>: <what>" and exit status 1.
inline int run_figure_main(exp::FigureSpec spec, const std::string& name) {
  return guarded_main(name, [&] { return run_figure(std::move(spec), name + ".csv"); });
}

}  // namespace dg::bench
