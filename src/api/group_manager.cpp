#include "api/group_manager.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "fault/fault_report.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {

std::string_view group_route_mode_name(GroupRouteMode mode) {
  switch (mode) {
    case GroupRouteMode::Uncached: return "uncached";
    case GroupRouteMode::Replayed: return "replayed";
    case GroupRouteMode::Patched: return "patched";
    case GroupRouteMode::Compiled: return "compiled";
  }
  return "?";
}

GroupManager::GroupManager(std::size_t n, GroupManagerConfig config)
    : n_(n),
      config_(config),
      shards_(std::max<std::size_t>(1, config.shards)) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
  BRSMN_EXPECTS(config.max_dirty_fraction >= 0.0 &&
                config.max_dirty_fraction <= 1.0);
}

void GroupManager::bump(std::atomic<std::uint64_t>& raw, obs::Counter* counter,
                        std::uint64_t by) {
  if (by == 0) return;
  raw.fetch_add(by, std::memory_order_relaxed);
  if (counter != nullptr) counter->add(by);
}

std::uint64_t GroupManager::join(GroupId group, std::size_t src,
                                 std::size_t dst) {
  BRSMN_EXPECTS(src < n_ && dst < n_);
  Shard& shard = shard_for(group);
  bool created = false;
  std::uint64_t version = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.groups.try_emplace(group, n_);
    try {
      it->second.assignment.connect(src, dst);
    } catch (...) {
      // A failed first join must not leave an empty phantom group.
      if (inserted) shard.groups.erase(it);
      throw;
    }
    created = inserted;
    version = ++it->second.version;
  }
  bump(joins_, joins_counter_);
  if (created && live_gauge_ != nullptr) {
    live_gauge_->set(static_cast<double>(group_count()));
  }
  return version;
}

std::uint64_t GroupManager::leave(GroupId group, std::size_t src,
                                  std::size_t dst) {
  BRSMN_EXPECTS(src < n_ && dst < n_);
  Shard& shard = shard_for(group);
  std::uint64_t version = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.groups.find(group);
    BRSMN_EXPECTS_MSG(it != shard.groups.end(), "leave of an unknown group");
    it->second.assignment.disconnect(src, dst);
    version = ++it->second.version;
  }
  bump(leaves_, leaves_counter_);
  return version;
}

GroupSnapshot GroupManager::snapshot(GroupId group) const {
  const Shard& shard = shard_for(group);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.groups.find(group);
  BRSMN_EXPECTS_MSG(it != shard.groups.end(), "snapshot of an unknown group");
  return GroupSnapshot{it->second.assignment, it->second.version};
}

bool GroupManager::contains(GroupId group) const {
  const Shard& shard = shard_for(group);
  const std::lock_guard<std::mutex> lock(shard.mu);
  return shard.groups.find(group) != shard.groups.end();
}

bool GroupManager::erase(GroupId group) {
  Shard& shard = shard_for(group);
  decltype(shard.groups)::node_type erased;  // freed after the unlock
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    erased = shard.groups.extract(group);
  }
  const bool existed = !erased.empty();
  if (existed && live_gauge_ != nullptr) {
    live_gauge_->set(static_cast<double>(group_count()));
  }
  return existed;
}

std::size_t GroupManager::group_count() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.groups.size();
  }
  return total;
}

void GroupManager::update_planned(GroupId group, std::size_t impl_index,
                                  MulticastAssignment assignment,
                                  std::uint64_t version,
                                  std::shared_ptr<const RoutePlan> plan) {
  Shard& shard = shard_for(group);
  // Declared before the lock: the superseded plan (or `plan` itself, when
  // it is stale) is freed after the unlock.
  std::shared_ptr<const RoutePlan> released = std::move(plan);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.groups.find(group);
  if (it == shard.groups.end()) return;  // erased while routing
  PlannedBase& planned = it->second.planned[impl_index];
  // Concurrent routes of one group may finish out of order; the slot
  // only ever advances, so it holds the newest assignment this manager
  // planned.
  if (planned.plan != nullptr && planned.version > version) return;
  std::swap(planned.plan, released);
  planned.assignment = std::move(assignment);
  planned.version = version;
}

void GroupManager::drop_planned(GroupId group, std::size_t impl_index,
                                const std::shared_ptr<const RoutePlan>& plan) {
  Shard& shard = shard_for(group);
  std::shared_ptr<const RoutePlan> released;  // freed after the unlock
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.groups.find(group);
  if (it == shard.groups.end()) return;
  PlannedBase& planned = it->second.planned[impl_index];
  if (planned.plan != plan) return;  // a newer route already replaced it
  std::swap(planned.plan, released);
  planned.assignment.reset();
}

template <fault::ImplKind IMPL, typename Net>
GroupRouteReport GroupManager::route_impl(GroupId group, Net& net,
                                          const RouteOptions& options) {
  BRSMN_EXPECTS_MSG(net.size() == n_,
                    "network width does not match the group manager");
  const auto impl_index = static_cast<std::size_t>(IMPL);

  GroupRouteReport report;
  std::optional<MulticastAssignment> assignment;
  std::shared_ptr<const RoutePlan> base;
  bool unchanged = false;  // the slot's plan is for the current assignment
  {
    Shard& shard = shard_for(group);
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.groups.find(group);
    BRSMN_EXPECTS_MSG(it != shard.groups.end(), "route of an unknown group");
    const Group& g = it->second;
    assignment.emplace(g.assignment);
    report.version = g.version;
    const PlannedBase& planned = g.planned[impl_index];
    base = planned.plan;
    unchanged = base != nullptr && *planned.assignment == g.assignment;
  }
  bump(routes_, routes_counter_);

  // No planning requested, or a capture request a replay cannot serve:
  // route as-is.
  if (options.plan_cache == nullptr || options.capture_levels) {
    report.result = net.route(*assignment, options);
    report.mode = GroupRouteMode::Uncached;
    return report;
  }

  RouteOptions inner = options;
  inner.plan_cache = nullptr;
  // An explain route needs a plan with provenance; a slot compiled
  // without it serves neither replay nor patch.
  if (base != nullptr && options.explain && !base->explanation.has_value()) {
    base = nullptr;
  }

  // 1. The slot holds the plan for the current assignment: replay.
  if (base != nullptr && unchanged) {
    try {
      report.result = net.route_replay(*base, inner);
      report.mode = GroupRouteMode::Replayed;
      report.plan = std::move(base);
      bump(replayed_, replayed_counter_);
      return report;
    } catch (const fault::FaultDetected&) {
      drop_planned(group, impl_index, base);
      // With an injector armed the detection is the contract: surface it
      // (the next clean route compiles). Without one, the plan itself
      // must be stale — compile cold below.
      if (options.faults != nullptr) throw;
      base = nullptr;
    }
  }

  // With faults armed, never compile or patch (a plan built through a
  // fault would freeze corrupted checkpoints): route cold.
  if (options.faults != nullptr) {
    report.result = net.route(*assignment, inner);
    report.mode = GroupRouteMode::Uncached;
    return report;
  }

  // 2. Patch from the slot's plan for an earlier assignment.
  if (base != nullptr && !unchanged) {
    auto patched = std::make_shared<RoutePlan>();
    try {
      planner::PatchOutcome outcome = planner::patch_route(
          net, *assignment, *base, inner, *patched,
          planner::PatchConfig{config_.max_dirty_fraction});
      if (outcome.patched) {
        report.result = std::move(outcome.result);
        report.mode = GroupRouteMode::Patched;
        report.plan = patched;
        report.levels_reused = outcome.levels_reused;
        report.levels_recompiled = outcome.levels_recompiled;
        update_planned(group, impl_index, std::move(*assignment),
                       report.version, std::move(patched));
        bump(patched_, patched_counter_);
        bump(levels_reused_, levels_reused_counter_, outcome.levels_reused);
        bump(levels_recompiled_, levels_recompiled_counter_,
             outcome.levels_recompiled);
        return report;
      }
      bump(abandoned_, abandoned_counter_);
    } catch (const fault::FaultDetected&) {
      // The base plan's checkpoints are inconsistent with what its
      // reused levels produce — a stale or corrupt slot. Drop it and
      // compile cold below.
      bump(faulted_, faulted_counter_);
      drop_planned(group, impl_index, base);
    }
  }

  // 3. Cold compile into the slot; this plan is the next delta's base.
  auto fresh = std::make_shared<RoutePlan>();
  report.result = planner::compile_route(net, *assignment, inner, *fresh);
  report.mode = GroupRouteMode::Compiled;
  report.plan = fresh;
  update_planned(group, impl_index, std::move(*assignment), report.version,
                 std::move(fresh));
  bump(compiled_, compiled_counter_);
  return report;
}

GroupRouteReport GroupManager::route(GroupId group, Brsmn& net,
                                     const RouteOptions& options) {
  return route_impl<fault::ImplKind::Unrolled>(group, net, options);
}

GroupRouteReport GroupManager::route(GroupId group, FeedbackBrsmn& net,
                                     const RouteOptions& options) {
  return route_impl<fault::ImplKind::Feedback>(group, net, options);
}

std::uint64_t GroupManager::joins() const noexcept {
  return joins_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::leaves() const noexcept {
  return leaves_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::routes() const noexcept {
  return routes_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::plans_patched() const noexcept {
  return patched_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::plans_compiled() const noexcept {
  return compiled_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::plans_replayed() const noexcept {
  return replayed_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::patches_abandoned() const noexcept {
  return abandoned_.load(std::memory_order_relaxed);
}
std::uint64_t GroupManager::patches_faulted() const noexcept {
  return faulted_.load(std::memory_order_relaxed);
}

void GroupManager::attach_metrics(obs::MetricRegistry& registry,
                                  std::string_view prefix) {
  const std::string base(prefix);
  joins_counter_ = &registry.counter(base + ".joins");
  leaves_counter_ = &registry.counter(base + ".leaves");
  routes_counter_ = &registry.counter(base + ".routes");
  live_gauge_ = &registry.gauge(base + ".live");
  live_gauge_->set(static_cast<double>(group_count()));
  patched_counter_ = &registry.counter("plan_patch.patched");
  compiled_counter_ = &registry.counter("plan_patch.compiled");
  replayed_counter_ = &registry.counter("plan_patch.replayed");
  abandoned_counter_ = &registry.counter("plan_patch.abandoned");
  faulted_counter_ = &registry.counter("plan_patch.faulted");
  levels_reused_counter_ = &registry.counter("plan_patch.levels_reused");
  levels_recompiled_counter_ =
      &registry.counter("plan_patch.levels_recompiled");
}

}  // namespace brsmn::api
