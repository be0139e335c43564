// Checkpoint Server model.
//
// The paper assumes one or more checkpoint servers storing task checkpoints;
// transferring a checkpoint to or from the server takes Uniform[240, 720]
// seconds. Checkpoint frequency follows Young's first-order formula
// tau = sqrt(2 * C * MTBF) with C the mean checkpoint save cost.
//
// Beyond the paper, the server optionally models *contention*: with a finite
// number of transfer slots, concurrent checkpoint traffic queues FIFO and
// transfers stretch accordingly. capacity == 0 (default) reproduces the
// paper's pure-delay behaviour. Each transfer returns a Transfer ticket;
// when the requesting machine dies mid-transfer the execution engine cancels
// the ticket, which releases the unused tail of the slot reservation.
//
// The server itself can also *fail* (CheckpointServerFaultModel): exponential
// MTBF/MTTR outages, optional mid-transfer aborts, optional loss of all
// stored checkpoints on a crash. The server only tracks its own up/down
// state and downtime; recovery semantics (retry, backoff, degradation) live
// in sim::ExecutionEngine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "des/simulator.hpp"
#include "rng/distributions.hpp"
#include "rng/random_stream.hpp"
#include "util/assert.hpp"
#include "util/inline_function.hpp"

namespace dg::grid {

/// Failure model for the checkpoint server itself. Disabled by default: the
/// server is the paper's perfectly-reliable pure-delay component.
struct CheckpointServerFaultModel {
  bool enabled = false;
  /// Mean time between server failures (exponential). Must be positive when
  /// enabled.
  double mtbf = 86400.0;
  /// Mean repair duration (exponential). Must be positive when enabled.
  double mttr = 3600.0;
  /// A crash aborts every in-flight transfer (the client retries). When
  /// false, transfers survive outages (a resumable transfer protocol).
  bool abort_transfers = true;
  /// A crash wipes every stored checkpoint: tasks restart from scratch on
  /// their next retrieve. Implies transfer aborts (the wiped bytes cannot
  /// complete a transfer).
  bool lose_data = false;

  /// Long-run server availability implied by the means: MTBF/(MTBF+MTTR).
  [[nodiscard]] double availability() const noexcept {
    return enabled ? mtbf / (mtbf + mttr) : 1.0;
  }
};

class CheckpointServer {
 public:
  /// Sentinel slot id for unlimited-capacity transfers (nothing to release).
  static constexpr std::uint32_t kNullSlot = ~std::uint32_t{0};

  /// Handle to one scheduled transfer, used to release its slot reservation
  /// if the client dies before `completion`.
  struct Transfer {
    double completion = 0.0;  ///< Absolute completion time (incl. queueing).
    double start = 0.0;       ///< When the transfer occupies its slot.
    std::uint32_t slot = kNullSlot;
  };

  /// Slots are created as transfers first need them, from `mem` (default:
  /// global heap), so `capacity` bounds them without sizing an allocation.
  explicit CheckpointServer(rng::UniformDist transfer_time = rng::UniformDist{240.0, 720.0},
                            std::size_t capacity = 0,
                            std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : transfer_time_(transfer_time), capacity_(capacity), slot_ends_(mem) {}

  /// Schedules a checkpoint save starting no earlier than `now`; the returned
  /// ticket's `completion` includes any queueing for a transfer slot.
  [[nodiscard]] Transfer begin_save(double now, rng::RandomStream& stream) {
    ++saves_;
    return schedule_transfer(now, transfer_time_.sample(stream));
  }

  /// Schedules a checkpoint retrieval; same contract as begin_save().
  [[nodiscard]] Transfer begin_retrieve(double now, rng::RandomStream& stream) {
    ++retrievals_;
    return schedule_transfer(now, transfer_time_.sample(stream));
  }

  /// Releases the unused tail of a transfer whose client died (or timed out)
  /// at `now`: the slot frees that much earlier for later requests. No-op
  /// for unlimited capacity.
  void cancel_transfer(const Transfer& transfer, double now) {
    if (transfer.slot == kNullSlot) return;
    const double unused = transfer.completion - std::max(now, transfer.start);
    if (unused <= 0.0) return;
    slot_ends_[transfer.slot] -= unused;
    ++slots_released_;
  }

  // --- server availability (driven by CheckpointServerFaultProcess or tests) ---

  [[nodiscard]] bool up() const noexcept { return up_; }

  /// Marks the server down at `now`. Precondition: up.
  void set_down(double now) noexcept {
    DG_ASSERT_MSG(up_, "checkpoint server failed while already down");
    up_ = false;
    down_since_ = now;
    ++outage_count_;
  }

  /// Marks the server repaired at `now`. Precondition: down.
  void set_up(double now) noexcept {
    DG_ASSERT_MSG(!up_, "checkpoint server repaired while up");
    up_ = true;
    total_downtime_ += now - down_since_;
  }

  // --- overlapping down-causes (mirrors grid::Machine) ---
  //
  // The server can be down for several reasons at once: a stochastic
  // MTBF/MTTR fault AND an adversarial stress window. Down-ness is a cause
  // count; only edge crossings flip the up/down state (and should fire
  // engine callbacks). A single driver using force_down/release_down behaves
  // exactly like set_down/set_up.

  /// Adds a down-cause at `now`. Returns true iff the server just
  /// transitioned up -> down (callers fire on_server_down only then).
  bool force_down(double now) noexcept {
    ++down_causes_;
    if (down_causes_ == 1) {
      set_down(now);
      return true;
    }
    return false;
  }

  /// Removes one down-cause at `now`. Returns true iff the server just
  /// transitioned down -> up (callers fire on_server_up only then).
  bool release_down(double now) noexcept {
    DG_ASSERT_MSG(down_causes_ > 0, "release_down on an up checkpoint server");
    --down_causes_;
    if (down_causes_ == 0) {
      set_up(now);
      return true;
    }
    return false;
  }

  [[nodiscard]] int down_causes() const noexcept { return down_causes_; }

  [[nodiscard]] std::uint64_t outage_count() const noexcept { return outage_count_; }
  /// Cumulative downtime up to `now` (open outage included).
  [[nodiscard]] double total_downtime(double now) const noexcept {
    return total_downtime_ + (up_ ? 0.0 : now - down_since_);
  }

  // --- statistics ---

  [[nodiscard]] double mean_transfer_time() const noexcept { return transfer_time_.mean(); }
  /// Transfer slots (0 = unlimited, the paper's model).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t saves() const noexcept { return saves_; }
  [[nodiscard]] std::uint64_t retrievals() const noexcept { return retrievals_; }
  /// Total time transfers spent queued for a slot.
  [[nodiscard]] double total_queueing_time() const noexcept { return total_queueing_; }
  /// Reservations whose unused tail was released by cancel_transfer().
  [[nodiscard]] std::uint64_t slots_released() const noexcept { return slots_released_; }

 private:
  /// Core contention model: with finite capacity, a transfer starts when the
  /// earliest slot frees. Slot end times are kept per slot (not a heap) so a
  /// cancelled reservation can hand back its unused tail.
  [[nodiscard]] Transfer schedule_transfer(double now, double duration) {
    Transfer transfer;
    if (capacity_ == 0) {
      transfer.start = now;
      transfer.completion = now + duration;
      return transfer;
    }
    if (slot_ends_.size() < capacity_) {
      transfer.slot = static_cast<std::uint32_t>(slot_ends_.size());
      transfer.start = now;
      transfer.completion = now + duration;
      slot_ends_.push_back(transfer.completion);
      return transfer;
    }
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < slot_ends_.size(); ++i) {
      if (slot_ends_[i] < slot_ends_[best]) best = i;
    }
    double start = slot_ends_[best];
    if (start < now) start = now;
    total_queueing_ += start - now;
    transfer.slot = best;
    transfer.start = start;
    transfer.completion = start + duration;
    slot_ends_[best] = transfer.completion;
    return transfer;
  }

  rng::UniformDist transfer_time_;
  std::size_t capacity_;
  bool up_ = true;
  int down_causes_ = 0;
  double down_since_ = 0.0;
  double total_downtime_ = 0.0;
  std::uint64_t outage_count_ = 0;
  std::uint64_t saves_ = 0;
  std::uint64_t retrievals_ = 0;
  std::uint64_t slots_released_ = 0;
  double total_queueing_ = 0.0;
  // Per-slot end-of-reservation-chain times (only used when capacity_ > 0).
  std::pmr::vector<double> slot_ends_;
};

/// Drives the checkpoint server through alternating UP (exponential MTBF)
/// and DOWN (exponential MTTR) periods, mirroring grid::AvailabilityProcess
/// for machines. The process flips the server's state itself, then fires the
/// callback — callers (the execution engine) react to the new state. Draws
/// from its own RandomStream so enabling it perturbs no other stream.
class CheckpointServerFaultProcess {
 public:
  using Callback = util::InlineFunction<void()>;

  CheckpointServerFaultProcess(des::Simulator& sim, CheckpointServer& server,
                               CheckpointServerFaultModel model, rng::RandomStream stream);

  /// Schedules the first crash (the server starts up). No-op when disabled.
  void start(Callback on_down, Callback on_up);

 private:
  void crash();
  void repair();

  des::Simulator& sim_;
  CheckpointServer& server_;
  CheckpointServerFaultModel model_;
  rng::RandomStream stream_;
  Callback on_down_;
  Callback on_up_;
};

/// Young's first-order optimal checkpoint interval: sqrt(2 * C * MTBF).
/// `mean_checkpoint_cost` is the mean save time, `mttf` the machine MTTF.
[[nodiscard]] double young_checkpoint_interval(double mean_checkpoint_cost, double mttf) noexcept;

}  // namespace dg::grid
