#include "grid/outage.hpp"

#include <algorithm>
#include <utility>

#include "grid/desktop_grid.hpp"
#include "util/assert.hpp"

namespace dg::grid {

std::size_t victim_count(double fraction, std::size_t machines) noexcept {
  const auto count = static_cast<std::size_t>(fraction * static_cast<double>(machines));
  return std::clamp<std::size_t>(count, 1, machines);
}

void sample_victims(std::span<MachineId> ids, std::size_t count, rng::RandomStream& stream) {
  const std::size_t total = ids.size();
  DG_ASSERT(count <= total);
  for (std::size_t i = 0; i < total; ++i) ids[i] = static_cast<MachineId>(i);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(stream.uniform_int(0, total - 1 - i));
    std::swap(ids[i], ids[j]);
  }
}

OutageProcess::OutageProcess(des::Simulator& sim, DesktopGrid& grid, OutageModel model,
                             rng::RandomStream stream)
    : sim_(sim), grid_(grid), model_(model), stream_(stream), ids_(grid.memory_resource()) {
  DG_ASSERT(model.mean_interarrival > 0.0);
  DG_ASSERT(model.fraction > 0.0 && model.fraction <= 1.0);
}

void OutageProcess::start(TransitionCallback on_failure, TransitionCallback on_repair) {
  if (!model_.enabled) return;
  on_failure_ = on_failure;
  on_repair_ = on_repair;
  ids_.resize(grid_.size());
  sim_.schedule_after(stream_.exponential_mean(model_.mean_interarrival), [this] { strike(); });
}

void OutageProcess::strike() {
  ++outages_;
  const std::size_t count = victim_count(model_.fraction, ids_.size());
  sample_victims(ids_, count, stream_);

  const double duration = std::max(1.0, model_.duration.sample(stream_));
  for (std::size_t i = 0; i < count; ++i) {
    Machine& machine = grid_.machine(ids_[i]);
    ++machines_hit_;
    if (machine.force_down(sim_.now())) {
      if (on_failure_) on_failure_(machine);
    }
    // All hit machines come back together; each releases its own cause.
    sim_.schedule_after(duration, [this, &machine] {
      if (machine.release_down(sim_.now())) {
        if (on_repair_) on_repair_(machine);
      }
    });
  }

  sim_.schedule_after(stream_.exponential_mean(model_.mean_interarrival), [this] { strike(); });
}

ScheduledOutageProcess::ScheduledOutageProcess(des::Simulator& sim, DesktopGrid& grid,
                                               std::vector<StressWindow> windows, double fraction,
                                               rng::RandomStream stream)
    : sim_(sim), grid_(grid), windows_(std::move(windows)), fraction_(fraction),
      stream_(stream), ids_(grid.memory_resource()) {
  DG_ASSERT_MSG(fraction_ > 0.0 && fraction_ <= 1.0,
                "ScheduledOutageProcess: fraction must be in (0, 1]");
  for (std::size_t i = 0; i < windows_.size(); ++i) {
    DG_ASSERT_MSG(windows_[i].end > windows_[i].start,
                  "ScheduledOutageProcess: window end must exceed its start");
    DG_ASSERT_MSG(i == 0 || windows_[i].start >= windows_[i - 1].start,
                  "ScheduledOutageProcess: windows must be sorted by start");
  }
}

void ScheduledOutageProcess::start(TransitionCallback on_failure, TransitionCallback on_repair) {
  on_failure_ = on_failure;
  on_repair_ = on_repair;
  ids_.resize(grid_.size());
  // One strike event per window, scheduled in window order — strikes fire in
  // ascending start time (ties resolve by this scheduling order), so victim
  // sampling consumes the stream in a deterministic sequence.
  for (std::size_t w = 0; w < windows_.size(); ++w) {
    sim_.schedule_at(windows_[w].start, [this, w] { strike(w); });
  }
}

void ScheduledOutageProcess::strike(std::size_t window_index) {
  ++outages_;
  const StressWindow window = windows_[window_index];
  // The same draw as OutageProcess::strike(), from this process's own stream.
  const std::size_t count = victim_count(fraction_, ids_.size());
  sample_victims(ids_, count, stream_);

  for (std::size_t i = 0; i < count; ++i) {
    Machine& machine = grid_.machine(ids_[i]);
    ++machines_hit_;
    if (machine.force_down(sim_.now())) {
      if (on_failure_) on_failure_(machine);
    }
    // All hit machines come back at the window's end; each releases its own
    // down-cause (composition with overlapping failure sources).
    sim_.schedule_at(window.end, [this, &machine] {
      if (machine.release_down(sim_.now())) {
        if (on_repair_) on_repair_(machine);
      }
    });
  }
}

}  // namespace dg::grid
