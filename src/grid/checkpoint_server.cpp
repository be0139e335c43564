#include "grid/checkpoint_server.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace dg::grid {

CheckpointServerFaultProcess::CheckpointServerFaultProcess(des::Simulator& sim,
                                                           CheckpointServer& server,
                                                           CheckpointServerFaultModel model,
                                                           rng::RandomStream stream)
    : sim_(sim), server_(server), model_(model), stream_(stream) {}

void CheckpointServerFaultProcess::start(Callback on_down, Callback on_up) {
  on_down_ = on_down;
  on_up_ = on_up;
  if (!model_.enabled) return;
  DG_ASSERT_MSG(model_.mtbf > 0.0 && model_.mttr > 0.0,
                "CheckpointServerFaultProcess: MTBF and MTTR must be positive");
  sim_.schedule_after(stream_.exponential_mean(model_.mtbf), [this] { crash(); });
}

void CheckpointServerFaultProcess::crash() {
  // Only a real up -> down edge notifies the engine; the server may already
  // be down for another cause (an adversarial stress window).
  if (server_.force_down(sim_.now())) {
    if (on_down_) on_down_();
  }
  sim_.schedule_after(stream_.exponential_mean(model_.mttr), [this] { repair(); });
}

void CheckpointServerFaultProcess::repair() {
  if (server_.release_down(sim_.now())) {
    if (on_up_) on_up_();
  }
  sim_.schedule_after(stream_.exponential_mean(model_.mtbf), [this] { crash(); });
}

double young_checkpoint_interval(double mean_checkpoint_cost, double mttf) noexcept {
  return std::sqrt(2.0 * mean_checkpoint_cost * mttf);
}

}  // namespace dg::grid
