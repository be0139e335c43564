// Incremental dispatch-eligibility index over the active bags.
//
// The bag-selection policies used to answer "which bags can accept a machine
// right now?" by probing every active bag on every dispatch — O(B) per
// machine even when the answer is the same bag as last time. This index
// maintains the memberships the policies actually query, keyed by bag id
// (== arrival order, since bag ids are assigned monotonically):
//
//   dispatchable : the bag can produce a task under the current replication
//                  threshold R, i.e. has_pending() || (R > 1 &&
//                  min_replicated_count() < R). Exactly the condition under
//                  which SchedulerContext::pick_from() returns non-null.
//   no_running   : total_running() == 0. Every incomplete bag with no
//                  running replica necessarily has a pending task, so
//                  no_running is a subset of dispatchable.
//   stale        : a resubmission/requeue pool is non-empty but holds no
//                  dispatchable entry (see drain_stale_* below).
//
// BotState calls refresh() from its own mutators (replica start/stop, task
// completion, pool pushes), so the index is current by the time a policy
// runs — including after sibling-replica stops of completed tasks, which
// never reach the policy observer hooks. The threshold is pushed in by the
// scheduler at the top of each trigger; a change rebuilds dispatchable_ from
// the scheduler's ActiveBotList in O(B) (rare: only
// dynamic-replication runs ever change it). The index keeps no bag list of
// its own: a bag is registered exactly while it is in that list, and only a
// registered bag holds the index pointer that reaches refresh().
//
// Stale bags and the drain_stale_* calls: the per-bag resubmission queues
// are pruned lazily — a probe (IndividualScheduler::pick) pops invalid
// front entries at probe time, and an entry that was stale while no probe
// happened to look REVALIDATES, keeping its original priority position, if
// its task fails again. Which entries survive therefore depends on exactly
// which bags each select probed. The positional scans probed every
// non-dispatchable bag on the way to the winner; the index-based policies
// jump straight to the winner, so they must replay those probes on the bags
// the scan would have visited — that is the drain_stale_* family. Only bags
// whose pools hold stale entries are tracked (probing a bag with empty or
// all-valid pools pops nothing), which keeps the replay amortized O(1):
// every pop is paid for by an earlier push.
//
// Each set is a bitmap over bag id, so every query is a find-first-set from
// a position and iteration order is bag-id order, which is arrival order (a
// bag's id is its arrival index; sim::Simulation rejects trace bags numbered
// otherwise); a slot table maps an id back to its bag. The tables grow in
// register_bot, one id at a time (bags may arrive on the fly), or up front
// through reserve().
#pragma once

#include <cstdint>
#include <memory_resource>
#include <vector>

#include "workload/bot.hpp"

namespace dg::sched {

class ActiveBotList;
class BotState;
class IndividualScheduler;
struct SchedStats;

class DispatchIndex {
 public:
  /// Indexes the bags registered out of `bots` (the scheduler's active
  /// list, which must outlive the index). The bitmaps and the slot table
  /// allocate from `mem` (default: global heap); pass a per-replication pool
  /// to recycle their memory across runs.
  explicit DispatchIndex(const ActiveBotList& bots,
                         std::pmr::memory_resource* mem = std::pmr::get_default_resource())
      : bots_(bots), slots_(mem), dispatchable_(mem), no_running_(mem), stale_(mem) {}
  DispatchIndex(const DispatchIndex&) = delete;
  DispatchIndex& operator=(const DispatchIndex&) = delete;

  /// Optional stats sink for index_updates / index_rebuilds counters.
  void set_stats(SchedStats* stats) noexcept { stats_ = stats; }

  /// Sets the replication threshold the dispatchable set is computed
  /// against. A change recomputes every bag's dispatchable membership.
  void set_threshold(int threshold);
  [[nodiscard]] int threshold() const noexcept { return threshold_; }

  /// Sizes the tables for bag ids below `bags`, which may then register in
  /// any order.
  void reserve(std::size_t bags);

  /// Starts tracking `bot` (already in the active list): points the bag at
  /// this index and computes its memberships. Precondition: the id is below
  /// the reserved size or at most one past the highest registered so far,
  /// so no id value can size an allocation.
  void register_bot(BotState& bot);
  /// Stops tracking `bot` (call at bag completion, before it leaves the
  /// active list): drops its memberships and detaches the bag, so mutators
  /// firing during the completion teardown no longer reach the index.
  void unregister_bot(BotState& bot);

  /// Recomputes a registered `bot`'s memberships from its current state.
  void refresh(BotState& bot);

  // --- queries (find-first-set over B/64 words; arrival order throughout) ---

  /// Earliest-arrived dispatchable bag, or nullptr.
  [[nodiscard]] BotState* first_dispatchable() const noexcept;
  /// Earliest-arrived dispatchable bag with id > `after`, wrapping to the
  /// front — the round-robin successor. nullptr iff no bag is dispatchable.
  [[nodiscard]] BotState* next_dispatchable_after(std::uint64_t after) const noexcept;
  /// Earliest-arrived bag with no running replica, or nullptr.
  [[nodiscard]] BotState* first_no_running() const noexcept;

  // --- stale-queue replay (see file comment) ---

  /// Probes every stale bag with id < `limit`, replaying the arrival-order
  /// scan up to (excluding) the selected bag.
  void drain_stale_below(const IndividualScheduler& individual, workload::BotId limit);
  /// Probes every stale bag the round-robin scan visits between the cursor
  /// and the selected bag: ids in (after, until), wrapping past the end.
  void drain_stale_ring(const IndividualScheduler& individual, std::uint64_t after,
                        workload::BotId until);
  /// Probes every stale bag — what a scan that found nothing dispatchable
  /// did on the way to returning null.
  void drain_stale_all(const IndividualScheduler& individual);

 private:
  using Bitmap = std::pmr::vector<std::uint64_t>;

  [[nodiscard]] bool is_dispatchable(const BotState& bot) const;
  /// Registered bag with the lowest id >= `from` in `set`, or nullptr.
  [[nodiscard]] BotState* first_from(const Bitmap& set, std::size_t from) const noexcept;
  /// Probes and removes every stale bag with id in [from, to).
  void drain_range(const IndividualScheduler& individual, std::size_t from, std::size_t to);

  const ActiveBotList& bots_;                // registered bags
  std::pmr::vector<BotState*> slots_;        // bag id -> registered bag, or nullptr
  Bitmap dispatchable_;                      // can accept a machine
  Bitmap no_running_;                        // total_running() == 0
  Bitmap stale_;                             // has_stale_queue_entries()
  int threshold_ = 0;
  SchedStats* stats_ = nullptr;
};

}  // namespace dg::sched
