#include "sched/dispatch_index.hpp"

#include <limits>

#include "sched/bot_state.hpp"
#include "sched/individual.hpp"
#include "sched/sched_stats.hpp"
#include "util/assert.hpp"

namespace dg::sched {

bool DispatchIndex::is_dispatchable(const BotState& bot) const {
  // Mirrors SchedulerContext::pick_from(): a pending task always qualifies;
  // otherwise replication needs threshold > 1 and a task strictly below it.
  return bot.has_pending() || (threshold_ > 1 && bot.min_replicated_count() < threshold_);
}

void DispatchIndex::set_threshold(int threshold) {
  if (threshold == threshold_) return;
  threshold_ = threshold;
  if (stats_ != nullptr) ++stats_->index_rebuilds;
  dispatchable_.clear();
  for (BotState* bot : bots_) {
    if (is_dispatchable(*bot)) dispatchable_.emplace(bot->id(), bot);
  }
}

void DispatchIndex::register_bot(BotState& bot) {
  DG_ASSERT_MSG(bot.dispatch_index_ == nullptr, "bot already registered in a dispatch index");
  bot.dispatch_index_ = this;
  refresh(bot);
}

void DispatchIndex::unregister_bot(BotState& bot) {
  DG_ASSERT_MSG(bot.dispatch_index_ == this, "bot not registered in this dispatch index");
  bot.dispatch_index_ = nullptr;
  dispatchable_.erase(bot.id());
  no_running_.erase(bot.id());
  stale_.erase(bot.id());
}

void DispatchIndex::refresh(BotState& bot) {
  if (stats_ != nullptr) ++stats_->index_updates;
  // try_emplace, not emplace: libstdc++'s emplace builds (and frees) a node
  // before finding the key, so refreshing a member would still allocate.
  const auto update = [&](std::pmr::map<workload::BotId, BotState*>& set, bool member) {
    if (member) {
      set.try_emplace(bot.id(), &bot);
    } else {
      set.erase(bot.id());
    }
  };
  update(dispatchable_, is_dispatchable(bot));
  update(no_running_, bot.total_running() == 0);
  update(stale_, bot.has_stale_queue_entries());
}

BotState* DispatchIndex::first_dispatchable() const noexcept {
  return dispatchable_.empty() ? nullptr : dispatchable_.begin()->second;
}

BotState* DispatchIndex::next_dispatchable_after(std::uint64_t after) const noexcept {
  if (dispatchable_.empty()) return nullptr;
  if (after >= std::numeric_limits<workload::BotId>::max()) {
    return dispatchable_.begin()->second;
  }
  auto it = dispatchable_.upper_bound(static_cast<workload::BotId>(after));
  if (it == dispatchable_.end()) it = dispatchable_.begin();
  return it->second;
}

BotState* DispatchIndex::first_no_running() const noexcept {
  return no_running_.empty() ? nullptr : no_running_.begin()->second;
}

void DispatchIndex::probe_stale(BotState& bot, const IndividualScheduler& individual) {
  // A stale bag has no dispatchable pool entry and, at every drain site, is
  // known not to be dispatchable at all (it precedes the first dispatchable
  // bag in the relevant scan order) — so the probe's only effect is popping
  // the stale entries the positional scan would have popped.
  TaskState* task = individual.pick(bot, threshold_);
  DG_ASSERT_MSG(task == nullptr, "stale bag unexpectedly yielded a task");
}

void DispatchIndex::drain_stale_below(const IndividualScheduler& individual,
                                      workload::BotId limit) {
  auto it = stale_.begin();
  while (it != stale_.end() && it->first < limit) {
    probe_stale(*it->second, individual);
    it = stale_.erase(it);
  }
}

void DispatchIndex::drain_stale_ring(const IndividualScheduler& individual, std::uint64_t after,
                                     workload::BotId until) {
  if (static_cast<std::uint64_t>(until) > after) {
    // No wrap: the scan visited ids in (after, until).
    auto it = stale_.upper_bound(static_cast<workload::BotId>(after));
    while (it != stale_.end() && it->first < until) {
      probe_stale(*it->second, individual);
      it = stale_.erase(it);
    }
    return;
  }
  // Wrapped scan: ids > after, then ids < until from the front.
  if (after < std::numeric_limits<workload::BotId>::max()) {
    auto it = stale_.upper_bound(static_cast<workload::BotId>(after));
    while (it != stale_.end()) {
      probe_stale(*it->second, individual);
      it = stale_.erase(it);
    }
  }
  auto it = stale_.begin();
  while (it != stale_.end() && it->first < until) {
    probe_stale(*it->second, individual);
    it = stale_.erase(it);
  }
}

void DispatchIndex::drain_stale_all(const IndividualScheduler& individual) {
  for (auto& [id, bot] : stale_) probe_stale(*bot, individual);
  stale_.clear();
}

}  // namespace dg::sched
