#include "api/group_manager.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "api/plan_cache.hpp"
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
  bool existed = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    existed = shard.groups.erase(group) != 0;
  }
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
                                  const MulticastAssignment& assignment,
                                  std::uint64_t version) {
  Shard& shard = shard_for(group);
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.groups.find(group);
  if (it == shard.groups.end()) return;  // erased while routing
  PlannedBase& planned = it->second.planned[impl_index];
  // Concurrent routes of one group may finish out of order; the base
  // pointer only ever advances, so the cache entry it names is the
  // newest assignment this manager planned.
  if (planned.assignment.has_value() && planned.version > version) return;
  planned.assignment = assignment;
  planned.version = version;
}

template <fault::ImplKind IMPL, typename Net>
GroupRouteReport GroupManager::route_impl(GroupId group, Net& net,
                                          const RouteOptions& options) {
  BRSMN_EXPECTS_MSG(net.size() == n_,
                    "network width does not match the group manager");
  const auto impl_index = static_cast<std::size_t>(IMPL);

  GroupRouteReport report;
  std::optional<MulticastAssignment> assignment;
  std::optional<MulticastAssignment> base;
  {
    Shard& shard = shard_for(group);
    const std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.groups.find(group);
    BRSMN_EXPECTS_MSG(it != shard.groups.end(), "route of an unknown group");
    assignment.emplace(it->second.assignment);
    report.version = it->second.version;
    base = it->second.planned[impl_index].assignment;
  }
  bump(routes_, routes_counter_);

  // No cache, or a capture request a replay cannot serve: route as-is
  // (Brsmn::route itself skips the cache when capture_levels is set).
  if (options.plan_cache == nullptr || options.capture_levels) {
    report.result = net.route(*assignment, options);
    report.mode = GroupRouteMode::Uncached;
    return report;
  }

  // 1. Exact hit for the current assignment: replay — or, with faults
  //    armed, route cold without compiling or patching (a plan built
  //    through a fault would freeze corrupted checkpoints).
  switch (serve_cached(net, *assignment, options, report.result)) {
    case CachedStep::Replayed:
      report.mode = GroupRouteMode::Replayed;
      bump(replayed_, replayed_counter_);
      update_planned(group, impl_index, *assignment, report.version);
      return report;
    case CachedStep::Cold:
      report.mode = GroupRouteMode::Uncached;
      return report;
    case CachedStep::Compile:
      break;
  }

  PlanCache& cache = *options.plan_cache;
  RouteOptions inner = options;
  inner.plan_cache = nullptr;

  // 2. Patch from the plan compiled for this group's previous
  //    assignment, if the cache still holds it.
  if (base.has_value() && *base != *assignment) {
    if (PlanCache::PlanPtr base_plan =
            cache.lookup(*base, IMPL, options.explain)) {
      auto patched = std::make_shared<RoutePlan>();
      bool base_faulted = false;
      try {
        planner::PatchOutcome outcome = planner::patch_route(
            net, *assignment, *base_plan, inner, *patched,
            planner::PatchConfig{config_.max_dirty_fraction});
        if (outcome.patched) {
          cache.insert(*assignment, IMPL, std::move(patched));
          update_planned(group, impl_index, *assignment, report.version);
          report.result = std::move(outcome.result);
          report.mode = GroupRouteMode::Patched;
          report.levels_reused = outcome.levels_reused;
          report.levels_recompiled = outcome.levels_recompiled;
          bump(patched_, patched_counter_);
          bump(levels_reused_, levels_reused_counter_, outcome.levels_reused);
          bump(levels_recompiled_, levels_recompiled_counter_,
               outcome.levels_recompiled);
          return report;
        }
        bump(abandoned_, abandoned_counter_);
      } catch (const fault::FaultDetected&) {
        // The base plan's checkpoints are inconsistent with what its
        // reused levels produce — a stale or corrupt entry. Invalidate
        // exactly that entry and compile cold below.
        base_faulted = true;
        bump(faulted_, faulted_counter_);
      }
      if (base_faulted) cache.invalidate(*base, IMPL);
    }
  }

  // 3. Cold compile and insert; this plan is the next delta's base.
  auto fresh = std::make_shared<RoutePlan>();
  report.result = planner::compile_route(net, *assignment, inner, *fresh);
  cache.insert(*assignment, IMPL, std::move(fresh));
  update_planned(group, impl_index, *assignment, report.version);
  report.mode = GroupRouteMode::Compiled;
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
