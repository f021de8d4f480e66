// Dynamic multicast group service with incremental plan patching.
//
// Long-lived multicast groups — a video channel's subscriber set, a
// collective's member list — evolve one endpoint at a time, while the
// underlying connection pattern persists across millions of routed
// cells. GroupManager is the registry for that shape: groups are keyed
// by caller-chosen ids, each holding an evolving MulticastAssignment
// mutated through join()/leave() and routed by id.
//
// The payoff is incremental recompilation. Each group keeps one plan
// slot per implementation: the plan last compiled or patched for it,
// with the assignment and version it was built from. route() replays the
// slot when the assignment has not changed since, and otherwise hands
// the slot's plan to planner::patch_route (core/route_plan.hpp), which
// recompiles only the levels whose entry tag planes the delta actually
// perturbed — a single-member join or leave on a group with fanout f
// typically dirties only the deep levels — and adopts the rest verbatim.
// The patched plan is bit-identical to a cold compile of the new
// assignment (exhaustively verified by tests/test_group_manager.cpp) and
// replaces the slot's plan, becoming the base for the next delta; the
// superseded plan is freed, except for the levels the new one shares. A
// patch that would recompile more than max_dirty_fraction of the levels
// is abandoned in favor of a cold compile; a patch that trips the online
// self-check (a corrupt or stale base) drops the slot and falls back
// cold — detection never mis-delivers. A group's plans live in its slot
// only, never in the shared api::PlanCache, so the memory they hold is
// one plan per live group and implementation (NOX keeps one tree per
// multicast source and replaces it in place the same way).
//
// Thread safety: the registry is sharded by group id, each shard behind
// its own mutex; join/leave/snapshot/route on different groups proceed
// concurrently, and route() copies the assignment and the slot's plan
// pointer out under the lock so routing itself never holds it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/route_plan.hpp"

namespace brsmn::obs {
class Counter;
class Gauge;
class MetricRegistry;
}  // namespace brsmn::obs

namespace brsmn::api {

/// Caller-chosen multicast group identifier.
using GroupId = std::uint64_t;

struct GroupManagerConfig {
  /// Abandon a plan patch when more than this fraction of switch levels
  /// would recompile; the route cold-compiles instead. Patching every
  /// level still replays faster than the full configuration pipeline,
  /// but past this point the patch walk's plane comparisons stop paying
  /// for themselves.
  double max_dirty_fraction = 0.75;
  /// Registry shards; join/leave/route on groups in different shards
  /// never contend.
  std::size_t shards = 8;
};

/// A group's registry state, copied out under the shard lock.
struct GroupSnapshot {
  MulticastAssignment assignment;
  /// Monotonic mutation counter: bumped by every join/leave.
  std::uint64_t version = 0;
};

/// How route() obtained its result, for callers and tests.
enum class GroupRouteMode : std::uint8_t {
  /// No plan cache configured, or faults armed and nothing replayed:
  /// routed cold, nothing compiled.
  Uncached,
  /// The group's plan slot already held a plan for the exact current
  /// assignment.
  Replayed,
  /// The slot's plan for an earlier assignment was patched incrementally.
  Patched,
  /// Compiled cold (empty slot, patch abandoned, or patch detected a
  /// fault) into the slot.
  Compiled,
};

std::string_view group_route_mode_name(GroupRouteMode mode);

struct GroupRouteReport {
  RouteResult result;
  GroupRouteMode mode = GroupRouteMode::Uncached;
  /// Patch accounting (zero unless mode == Patched): switch levels
  /// adopted verbatim from the base plan vs recompiled.
  std::size_t levels_reused = 0;
  std::size_t levels_recompiled = 0;
  /// The registry version of the assignment that was routed.
  std::uint64_t version = 0;
  /// The plan the route replayed, patched or compiled; null when
  /// mode == Uncached.
  std::shared_ptr<const RoutePlan> plan;
};

class GroupManager {
 public:
  /// A manager for groups on an n x n network (n a power of two >= 2).
  explicit GroupManager(std::size_t n, GroupManagerConfig config = {});

  GroupManager(const GroupManager&) = delete;
  GroupManager& operator=(const GroupManager&) = delete;

  std::size_t network_size() const noexcept { return n_; }

  /// Add output `dst` to input `src`'s destination set in `group`,
  /// creating the group on first use. Throws if `dst` is already
  /// claimed inside the group (destination sets are pairwise disjoint).
  /// Returns the group's new version.
  std::uint64_t join(GroupId group, std::size_t src, std::size_t dst);

  /// Remove output `dst` from input `src`'s destination set. Throws if
  /// the group or the connection does not exist. Returns the group's
  /// new version.
  std::uint64_t leave(GroupId group, std::size_t src, std::size_t dst);

  /// Copy of the group's current assignment and version. Throws if the
  /// group does not exist.
  GroupSnapshot snapshot(GroupId group) const;

  bool contains(GroupId group) const;

  /// Drop the group from the registry, freeing its plan slots (outside
  /// the shard lock). No-op when absent; returns whether it existed.
  bool erase(GroupId group);

  /// Live groups.
  std::size_t group_count() const;

  /// Route `group`'s current assignment on `net`. A non-null
  /// options.plan_cache opts the group into planning: the route is
  /// served from the group's plan slot replay-first / patch-second /
  /// cold-last as described above. The shared cache itself is neither
  /// read nor written, so groups never share plans through it. With an
  /// injector armed a route replays the slot if it can (a detection
  /// drops the slot and propagates) and otherwise routes cold,
  /// compiling nothing. options.capture_levels routes cold and leaves
  /// the slot alone. Throws if the group does not exist; fault::FaultDetected
  /// propagates exactly as from Brsmn::route with the same options.
  GroupRouteReport route(GroupId group, Brsmn& net,
                         const RouteOptions& options = {});
  GroupRouteReport route(GroupId group, FeedbackBrsmn& net,
                         const RouteOptions& options = {});

  /// Lifetime counters, mirrored into <prefix>.* / plan_patch.* metrics
  /// once attach_metrics is called.
  std::uint64_t joins() const noexcept;
  std::uint64_t leaves() const noexcept;
  std::uint64_t routes() const noexcept;
  std::uint64_t plans_patched() const noexcept;
  std::uint64_t plans_compiled() const noexcept;
  std::uint64_t plans_replayed() const noexcept;
  std::uint64_t patches_abandoned() const noexcept;
  std::uint64_t patches_faulted() const noexcept;

  /// Mirror the registry counters into `registry` from now on:
  /// <prefix>.{joins,leaves,routes} and <prefix>.live (gauge), plus the
  /// patch family plan_patch.{patched,compiled,replayed,abandoned,
  /// faulted,levels_reused,levels_recompiled}.
  void attach_metrics(obs::MetricRegistry& registry,
                      std::string_view prefix = "group");

 private:
  /// A group's plan slot: the plan last compiled or patched for it, with
  /// the assignment and registry version it was built from — the replay
  /// target while the assignment is unchanged, the patch base after.
  struct PlannedBase {
    std::shared_ptr<const RoutePlan> plan;  ///< null: empty slot
    std::optional<MulticastAssignment> assignment;
    std::uint64_t version = 0;
  };
  struct Group {
    MulticastAssignment assignment;
    std::uint64_t version = 0;
    /// Per implementation (fault::ImplKind), the plan slot.
    PlannedBase planned[2];
    explicit Group(std::size_t n) : assignment(n) {}
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<GroupId, Group> groups;
  };

  Shard& shard_for(GroupId group) {
    return shards_[static_cast<std::size_t>(group) % shards_.size()];
  }
  const Shard& shard_for(GroupId group) const {
    return shards_[static_cast<std::size_t>(group) % shards_.size()];
  }

  template <fault::ImplKind IMPL, typename Net>
  GroupRouteReport route_impl(GroupId group, Net& net,
                              const RouteOptions& options);

  /// Store `plan`, built from (assignment, version), in `group`'s slot
  /// for `impl_index`; an update older than the slot's version is
  /// ignored, so concurrent routes can finish out of order. The
  /// superseded plan is freed after the shard lock is released.
  void update_planned(GroupId group, std::size_t impl_index,
                      MulticastAssignment assignment, std::uint64_t version,
                      std::shared_ptr<const RoutePlan> plan);
  /// Empty `group`'s slot for `impl_index` if it still holds `plan` (a
  /// plan whose replay or patch detected a fault).
  void drop_planned(GroupId group, std::size_t impl_index,
                    const std::shared_ptr<const RoutePlan>& plan);

  void bump(std::atomic<std::uint64_t>& raw, obs::Counter* counter,
            std::uint64_t by = 1);

  std::size_t n_;
  GroupManagerConfig config_;
  std::vector<Shard> shards_;

  std::atomic<std::uint64_t> joins_{0};
  std::atomic<std::uint64_t> leaves_{0};
  std::atomic<std::uint64_t> routes_{0};
  std::atomic<std::uint64_t> patched_{0};
  std::atomic<std::uint64_t> compiled_{0};
  std::atomic<std::uint64_t> replayed_{0};
  std::atomic<std::uint64_t> abandoned_{0};
  std::atomic<std::uint64_t> faulted_{0};
  std::atomic<std::uint64_t> levels_reused_{0};
  std::atomic<std::uint64_t> levels_recompiled_{0};
  obs::Counter* joins_counter_ = nullptr;
  obs::Counter* leaves_counter_ = nullptr;
  obs::Counter* routes_counter_ = nullptr;
  obs::Gauge* live_gauge_ = nullptr;
  obs::Counter* patched_counter_ = nullptr;
  obs::Counter* compiled_counter_ = nullptr;
  obs::Counter* replayed_counter_ = nullptr;
  obs::Counter* abandoned_counter_ = nullptr;
  obs::Counter* faulted_counter_ = nullptr;
  obs::Counter* levels_reused_counter_ = nullptr;
  obs::Counter* levels_recompiled_counter_ = nullptr;
};

}  // namespace brsmn::api
