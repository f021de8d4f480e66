#include "api/plan_cache.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "fault/fault_report.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {

namespace {

/// Stream the canonical key of (assignment, impl) — [n, impl, per input:
/// destination count, destinations...] — through `fn` without
/// materializing it. Destination lists are stored sorted, so equal
/// assignments stream equal sequences.
template <typename Fn>
void for_each_key_word(const MulticastAssignment& assignment,
                       fault::ImplKind impl, Fn&& fn) {
  if (!fn(static_cast<std::uint64_t>(assignment.size()))) return;
  if (!fn(static_cast<std::uint64_t>(impl))) return;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const auto& dests = assignment.destinations(i);
    if (!fn(static_cast<std::uint64_t>(dests.size()))) return;
    for (const std::size_t d : dests) {
      if (!fn(static_cast<std::uint64_t>(d))) return;
    }
  }
}

/// Exact comparison of the streamed key against a stored flattened key —
/// the collision guard behind the hash index.
bool key_matches(const MulticastAssignment& assignment, fault::ImplKind impl,
                 const std::vector<std::uint64_t>& key) {
  std::size_t pos = 0;
  bool equal = true;
  for_each_key_word(assignment, impl, [&](std::uint64_t v) {
    if (pos >= key.size() || key[pos] != v) {
      equal = false;
      return false;
    }
    ++pos;
    return true;
  });
  return equal && pos == key.size();
}

std::vector<std::uint64_t> flatten_key(const MulticastAssignment& assignment,
                                       fault::ImplKind impl) {
  std::size_t words = 2;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    words += 1 + assignment.destinations(i).size();
  }
  std::vector<std::uint64_t> key;
  key.reserve(words);
  for_each_key_word(assignment, impl, [&](std::uint64_t v) {
    key.push_back(v);
    return true;
  });
  return key;
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
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for_each_key_word(assignment, impl, [&](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
    return true;
  });
  return h;
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
      if (!key_matches(assignment, impl, entry.key)) continue;
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
                             fault::ImplKind impl) {
  auto [it, end] = shard.index.equal_range(hash);
  for (; it != end; ++it) {
    if (!key_matches(assignment, impl, it->second->key)) continue;
    shard.lru.erase(it->second);
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
  std::size_t evicted = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    erase_locked(shard, h, assignment, impl);
    shard.lru.push_front(Entry{h, flatten_key(assignment, impl),
                               std::move(plan)});
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
      shard.lru.pop_back();
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
  bool erased = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    erased = erase_locked(shard, h, assignment, impl);
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
