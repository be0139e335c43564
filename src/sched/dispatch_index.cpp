#include "sched/dispatch_index.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "sched/bot_state.hpp"
#include "sched/individual.hpp"
#include "sched/sched_stats.hpp"
#include "util/assert.hpp"

namespace dg::sched {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Lowest set bit at or after `from`, or kNone.
std::size_t find_set(const std::pmr::vector<std::uint64_t>& bits, std::size_t from) noexcept {
  std::size_t w = from / 64;
  if (w >= bits.size()) return kNone;
  std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++w == bits.size()) return kNone;
    word = bits[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
}

void assign(std::pmr::vector<std::uint64_t>& bits, std::size_t id, bool member) noexcept {
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  bits[id / 64] = member ? bits[id / 64] | bit : bits[id / 64] & ~bit;
}

}  // namespace

bool DispatchIndex::is_dispatchable(const BotState& bot) const {
  // Mirrors SchedulerContext::pick_from(): a pending task always qualifies;
  // otherwise replication needs threshold > 1 and a task strictly below it.
  return bot.has_pending() || (threshold_ > 1 && bot.min_replicated_count() < threshold_);
}

void DispatchIndex::set_threshold(int threshold) {
  if (threshold == threshold_) return;
  threshold_ = threshold;
  if (stats_ != nullptr) ++stats_->index_rebuilds;
  std::fill(dispatchable_.begin(), dispatchable_.end(), std::uint64_t{0});
  for (BotState* bot : bots_) {
    if (is_dispatchable(*bot)) assign(dispatchable_, bot->id(), true);
  }
}

void DispatchIndex::reserve(std::size_t bags) {
  if (bags <= slots_.size()) return;
  slots_.resize(bags, nullptr);
  const std::size_t words = (bags + 63) / 64;
  for (Bitmap* set : {&dispatchable_, &no_running_, &stale_}) set->resize(words, 0);
}

void DispatchIndex::register_bot(BotState& bot) {
  DG_ASSERT_MSG(bot.dispatch_index_ == nullptr, "bot already registered in a dispatch index");
  const std::size_t id = bot.id();
  DG_ASSERT_MSG(id <= slots_.size(),
                "bag id more than one past the highest registered or reserved so far");
  if (id == slots_.size()) reserve(id + 1);
  DG_ASSERT_MSG(slots_[id] == nullptr, "bag id already registered");
  slots_[id] = &bot;
  bot.dispatch_index_ = this;
  refresh(bot);
}

void DispatchIndex::unregister_bot(BotState& bot) {
  DG_ASSERT_MSG(bot.dispatch_index_ == this, "bot not registered in this dispatch index");
  bot.dispatch_index_ = nullptr;
  const std::size_t id = bot.id();
  slots_[id] = nullptr;
  for (Bitmap* set : {&dispatchable_, &no_running_, &stale_}) assign(*set, id, false);
}

void DispatchIndex::refresh(BotState& bot) {
  if (stats_ != nullptr) ++stats_->index_updates;
  const std::size_t id = bot.id();
  assign(dispatchable_, id, is_dispatchable(bot));
  assign(no_running_, id, bot.total_running() == 0);
  assign(stale_, id, bot.has_stale_queue_entries());
}

BotState* DispatchIndex::first_from(const Bitmap& set, std::size_t from) const noexcept {
  const std::size_t id = find_set(set, from);
  return id == kNone ? nullptr : slots_[id];
}

BotState* DispatchIndex::first_dispatchable() const noexcept {
  return first_from(dispatchable_, 0);
}

BotState* DispatchIndex::next_dispatchable_after(std::uint64_t after) const noexcept {
  if (after >= std::numeric_limits<workload::BotId>::max()) return first_dispatchable();
  BotState* next = first_from(dispatchable_, static_cast<std::size_t>(after) + 1);
  return next != nullptr ? next : first_dispatchable();
}

BotState* DispatchIndex::first_no_running() const noexcept { return first_from(no_running_, 0); }

void DispatchIndex::drain_range(const IndividualScheduler& individual, std::size_t from,
                                std::size_t to) {
  // A stale bag has no dispatchable pool entry and, at every drain site, is
  // known not to be dispatchable at all (it precedes the first dispatchable
  // bag in the relevant scan order) — so the probe's only effect is popping
  // the stale entries the positional scan would have popped. Probes touch
  // no index state, so the walk may clear each bit as it goes.
  for (std::size_t id = find_set(stale_, from); id < to; id = find_set(stale_, id + 1)) {
    TaskState* task = individual.pick(*slots_[id], threshold_);
    DG_ASSERT_MSG(task == nullptr, "stale bag unexpectedly yielded a task");
    assign(stale_, id, false);
  }
}

void DispatchIndex::drain_stale_below(const IndividualScheduler& individual,
                                      workload::BotId limit) {
  drain_range(individual, 0, limit);
}

void DispatchIndex::drain_stale_ring(const IndividualScheduler& individual, std::uint64_t after,
                                     workload::BotId until) {
  if (static_cast<std::uint64_t>(until) > after) {
    // No wrap: the scan visited ids in (after, until).
    drain_range(individual, static_cast<std::size_t>(after) + 1, until);
    return;
  }
  // Wrapped scan: ids > after, then ids < until from the front.
  if (after < std::numeric_limits<workload::BotId>::max()) {
    drain_range(individual, static_cast<std::size_t>(after) + 1, kNone);
  }
  drain_range(individual, 0, until);
}

void DispatchIndex::drain_stale_all(const IndividualScheduler& individual) {
  drain_range(individual, 0, kNone);
}

}  // namespace dg::sched
