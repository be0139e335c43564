#include "grid/desktop_grid.hpp"

#include <bit>
#include <utility>

#include "util/assert.hpp"

namespace dg::grid {

std::string to_string(Heterogeneity het) {
  return het == Heterogeneity::kHom ? "Hom" : "Het";
}

GridConfig GridConfig::preset(Heterogeneity het, AvailabilityLevel level) {
  GridConfig config;
  config.heterogeneity = het;
  config.availability = AvailabilityModel::for_level(level);
  return config;
}

std::string GridConfig::name() const {
  std::string avail;
  if (!availability.failures_enabled) {
    avail = "AlwaysAvail";
  } else {
    const double a = availability.availability();
    if (a >= 0.90) avail = "HighAvail";
    else if (a >= 0.65) avail = "MedAvail";
    else avail = "LowAvail";
  }
  return to_string(heterogeneity) + "-" + avail;
}

DesktopGrid::DesktopGrid(const GridConfig& config, des::Simulator& sim, std::uint64_t seed,
                         std::pmr::memory_resource* mem)
    : config_(config), sim_(sim), machines_(mem), processes_(mem),
      checkpoint_server_(config.checkpoint_transfer, config.checkpoint_server_capacity, mem),
      available_bits_(mem) {
  DG_ASSERT(config.total_power > 0.0);
  rng::RandomStream power_stream = rng::RandomStream::derive(seed, "grid.machine_power");
  MachineId next_id = 0;
  while (total_power_ < config_.total_power) {
    const double power = config_.heterogeneity == Heterogeneity::kHom
                             ? config_.hom_power
                             : power_stream.uniform(config_.het_power_lo, config_.het_power_hi);
    machines_.emplace_back(next_id, power);
    total_power_ += power;
    ++next_id;
  }
  for (Machine& machine : machines_) {
    processes_.emplace_back(sim_, machine, config_.availability,
                            rng::RandomStream::derive(seed, "grid.availability", machine.id()));
  }
  outages_ = std::make_unique<OutageProcess>(sim_, *this, config_.outages,
                                             rng::RandomStream::derive(seed, "grid.outages"));

  // All machines start up and idle; seed the free-machine bitmap accordingly
  // and subscribe to every machine's availability edges.
  available_bits_.assign((machines_.size() + 63) / 64, 0);
  for (Machine& machine : machines_) {
    available_bits_[machine.id() / 64] |= std::uint64_t{1} << (machine.id() % 64);
    machine.set_availability_listener(this);
  }
  available_count_ = machines_.size();
}

void DesktopGrid::on_machine_availability(Machine& machine, bool available) {
  std::uint64_t& word = available_bits_[machine.id() / 64];
  const std::uint64_t bit = std::uint64_t{1} << (machine.id() % 64);
  // Edge-triggered by contract, so the bit always actually flips.
  DG_ASSERT(((word & bit) != 0) != available);
  word ^= bit;
  if (available) {
    ++available_count_;
  } else {
    --available_count_;
  }
}

MachineId DesktopGrid::first_available() const noexcept {
  for (std::size_t w = 0; w < available_bits_.size(); ++w) {
    if (available_bits_[w] != 0) {
      return static_cast<MachineId>(w * 64 +
                                    static_cast<std::size_t>(std::countr_zero(available_bits_[w])));
    }
  }
  return kNoMachine;
}

MachineId DesktopGrid::next_available(MachineId after) const noexcept {
  std::size_t w = (static_cast<std::size_t>(after) + 1) / 64;
  if (w >= available_bits_.size()) return kNoMachine;
  std::uint64_t word = available_bits_[w] &
                       ~((std::uint64_t{1} << ((static_cast<std::size_t>(after) + 1) % 64)) - 1);
  for (;;) {
    if (word != 0) {
      return static_cast<MachineId>(w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
    if (++w >= available_bits_.size()) return kNoMachine;
    word = available_bits_[w];
  }
}

void DesktopGrid::start(TransitionCallback on_failure, TransitionCallback on_repair) {
  for (AvailabilityProcess& process : processes_) {
    process.start(on_failure, on_repair);
  }
  start_outages(on_failure, on_repair);
}

void DesktopGrid::start_outages(TransitionCallback on_failure, TransitionCallback on_repair) {
  outages_->start(on_failure, on_repair);
}

std::vector<Machine*> DesktopGrid::available_machines() {
  std::vector<Machine*> result;
  result.reserve(available_count_);
  for (MachineId id = first_available(); id != kNoMachine; id = next_available(id)) {
    result.push_back(&machines_[id]);
  }
  return result;
}

std::size_t DesktopGrid::up_count() const noexcept {
  std::size_t count = 0;
  for (const Machine& machine : machines_) {
    if (machine.up()) ++count;
  }
  return count;
}

std::uint64_t DesktopGrid::total_failures() const noexcept {
  // Summed from the machines themselves so it also covers trace-driven
  // failures that bypass the stochastic availability processes.
  std::uint64_t count = 0;
  for (const Machine& machine : machines_) count += machine.failures();
  return count;
}

double DesktopGrid::measured_availability(des::SimTime now) const noexcept {
  double weighted = 0.0;
  for (const Machine& machine : machines_) {
    weighted += machine.power() * machine.measured_availability(now);
  }
  return total_power_ > 0.0 ? weighted / total_power_ : 1.0;
}

}  // namespace dg::grid
