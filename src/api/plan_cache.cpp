#include "api/plan_cache.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "fault/fault_report.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {

namespace {

/// Exact comparison of a stored key against (assignment, impl) — the
/// collision guard behind the hash index.
bool key_matches(const std::vector<std::uint32_t>& key,
                 fault::ImplKind key_impl,
                 const MulticastAssignment& assignment, fault::ImplKind impl) {
  const auto src_of = assignment.src_of();
  return key_impl == impl && key.size() == src_of.size() &&
         std::memcmp(key.data(), src_of.data(),
                     key.size() * sizeof(std::uint32_t)) == 0;
}

void bump(std::atomic<std::uint64_t>& raw, obs::Counter* counter) {
  raw.fetch_add(1, std::memory_order_relaxed);
  if (counter != nullptr) counter->add(1);
}

}  // namespace

PlanCache::PlanCache(PlanCacheConfig config)
    : shards_(std::max<std::size_t>(1, config.shards)),
      per_shard_cap_(std::max<std::size_t>(
          1, std::max<std::size_t>(1, config.capacity) /
                 std::max<std::size_t>(1, config.shards))),
      force_hash_collisions_(config.force_hash_collisions) {}

std::uint64_t PlanCache::key_hash(const MulticastAssignment& assignment,
                                  fault::ImplKind impl) const {
  if (force_hash_collisions_) return 0x9e3779b97f4a7c15ull;
  return assignment.tagged_fingerprint(static_cast<std::size_t>(impl));
}

PlanCache::PlanPtr PlanCache::lookup(const MulticastAssignment& assignment,
                                     fault::ImplKind impl,
                                     bool require_explanation) {
  const std::uint64_t h = key_hash(assignment, impl);
  Shard& shard = shard_for(h);
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, end] = shard.index.equal_range(h);
    for (; it != end; ++it) {
      Entry& entry = *it->second;
      if (!key_matches(entry.key, entry.impl, assignment, impl)) continue;
      if (require_explanation && !entry.plan->explanation.has_value()) break;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      bump(hits_, hits_counter_);
      return entry.plan;
    }
  }
  bump(misses_, misses_counter_);
  return nullptr;
}

bool PlanCache::erase_locked(Shard& shard, std::uint64_t hash,
                             const MulticastAssignment& assignment,
                             fault::ImplKind impl,
                             std::list<Entry>& released) {
  auto [it, end] = shard.index.equal_range(hash);
  for (; it != end; ++it) {
    const Entry& entry = *it->second;
    if (!key_matches(entry.key, entry.impl, assignment, impl)) continue;
    released.splice(released.end(), shard.lru, it->second);
    shard.index.erase(it);
    return true;
  }
  return false;
}

void PlanCache::insert(const MulticastAssignment& assignment,
                       fault::ImplKind impl, PlanPtr plan) {
  BRSMN_EXPECTS(plan != nullptr);
  const std::uint64_t h = key_hash(assignment, impl);
  Shard& shard = shard_for(h);
  // The new entry is built, and the replaced and evicted ones are freed,
  // outside the shard mutex: freeing one n = 1024 plan takes ~14 us.
  const auto src_of = assignment.src_of();
  std::list<Entry> released;
  released.push_back(Entry{h, impl, {src_of.begin(), src_of.end()},
                           std::move(plan)});
  std::size_t evicted = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    erase_locked(shard, h, assignment, impl, released);
    shard.lru.splice(shard.lru.begin(), released, released.begin());
    shard.index.emplace(h, shard.lru.begin());
    while (shard.lru.size() > per_shard_cap_) {
      const auto victim = std::prev(shard.lru.end());
      auto [it, end] = shard.index.equal_range(victim->hash);
      for (; it != end; ++it) {
        if (it->second == victim) {
          shard.index.erase(it);
          break;
        }
      }
      released.splice(released.end(), shard.lru, victim);
      ++evicted;
    }
  }
  for (std::size_t i = 0; i < evicted; ++i) {
    bump(evictions_, evictions_counter_);
  }
}

void PlanCache::invalidate(const MulticastAssignment& assignment,
                           fault::ImplKind impl) {
  const std::uint64_t h = key_hash(assignment, impl);
  Shard& shard = shard_for(h);
  std::list<Entry> released;
  bool erased = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    erased = erase_locked(shard, h, assignment, impl, released);
  }
  if (erased) bump(invalidations_, invalidations_counter_);
}

void PlanCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.lru.size();
  }
  return total;
}

void PlanCache::attach_metrics(obs::MetricRegistry& registry,
                               std::string_view prefix) {
  const std::string base(prefix);
  hits_counter_ = &registry.counter(base + ".hits");
  misses_counter_ = &registry.counter(base + ".misses");
  evictions_counter_ = &registry.counter(base + ".evictions");
  invalidations_counter_ = &registry.counter(base + ".invalidations");
}

namespace {

template <fault::ImplKind IMPL, typename Net>
CachedStep serve_cached_impl(Net& net, const MulticastAssignment& assignment,
                             const RouteOptions& options, RouteResult& out) {
  PlanCache& cache = *options.plan_cache;
  RouteOptions inner = options;
  inner.plan_cache = nullptr;
  if (PlanCache::PlanPtr plan =
          cache.lookup(assignment, IMPL, options.explain)) {
    try {
      out = net.route_replay(*plan, inner);
      return CachedStep::Replayed;
    } catch (const fault::FaultDetected&) {
      cache.invalidate(assignment, IMPL);
      // With an injector armed the detection is the contract: surface it
      // (the next route recompiles). Without one, the cached plan itself
      // must be stale — fall through to a cold recompile.
      if (options.faults != nullptr) throw;
    }
  }
  if (options.faults != nullptr) {
    // Never compile a plan while faults are armed; route cold without
    // inserting.
    out = net.route(assignment, inner);
    return CachedStep::Cold;
  }
  return CachedStep::Compile;
}

template <fault::ImplKind IMPL, typename Net>
RouteResult route_via_cache_impl(Net& net,
                                 const MulticastAssignment& assignment,
                                 const RouteOptions& options) {
  RouteResult result;
  if (serve_cached_impl<IMPL>(net, assignment, options, result) !=
      CachedStep::Compile) {
    return result;
  }
  RouteOptions inner = options;
  inner.plan_cache = nullptr;
  auto fresh = std::make_shared<RoutePlan>();
  result = planner::compile_route(net, assignment, inner, *fresh);
  options.plan_cache->insert(assignment, IMPL, std::move(fresh));
  return result;
}

}  // namespace

RouteResult route_via_cache(Brsmn& net, const MulticastAssignment& assignment,
                            const RouteOptions& options) {
  return route_via_cache_impl<fault::ImplKind::Unrolled>(net, assignment,
                                                         options);
}

RouteResult route_via_cache(FeedbackBrsmn& net,
                            const MulticastAssignment& assignment,
                            const RouteOptions& options) {
  return route_via_cache_impl<fault::ImplKind::Feedback>(net, assignment,
                                                         options);
}

CachedStep serve_cached(Brsmn& net, const MulticastAssignment& assignment,
                        const RouteOptions& options, RouteResult& out) {
  return serve_cached_impl<fault::ImplKind::Unrolled>(net, assignment,
                                                      options, out);
}

CachedStep serve_cached(FeedbackBrsmn& net,
                        const MulticastAssignment& assignment,
                        const RouteOptions& options, RouteResult& out) {
  return serve_cached_impl<fault::ImplKind::Feedback>(net, assignment,
                                                      options, out);
}

}  // namespace brsmn::api
