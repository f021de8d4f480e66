#include "api/plan_cache.hpp"

#include <algorithm>
#include <bit>
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

constexpr unsigned kCounterBits = 4;
constexpr unsigned kCountersPerWord = 64 / kCounterBits;
constexpr std::uint64_t kCounterMax = (1u << kCounterBits) - 1;
/// Each counter's high bit cleared: (word >> 1) & kHalveMask halves all
/// sixteen counters of a word at once.
constexpr std::uint64_t kHalveMask = 0x7777777777777777ull;

}  // namespace

PlanCache::PlanCache(PlanCacheConfig config)
    : shards_(std::max<std::size_t>(1, config.shards)),
      per_shard_cap_(std::max<std::size_t>(
          1, std::max<std::size_t>(1, config.capacity) /
                 std::max<std::size_t>(1, config.shards))),
      force_hash_collisions_(config.force_hash_collisions),
      // log2 of the next power of two >= 8x the bound.
      sketch_bits_(
          static_cast<unsigned>(std::bit_width(8 * per_shard_cap_ - 1))),
      sketch_row_words_(std::max<std::size_t>(
          1, (std::size_t{1} << sketch_bits_) / kCountersPerWord)),
      aging_period_(10 * per_shard_cap_) {
  for (Shard& shard : shards_) shard.sketch.assign(2 * sketch_row_words_, 0);
}

std::uint64_t PlanCache::key_hash(const MulticastAssignment& assignment,
                                  fault::ImplKind impl) const {
  if (force_hash_collisions_) return 0x9e3779b97f4a7c15ull;
  return assignment.tagged_fingerprint(static_cast<std::size_t>(impl));
}

std::pair<std::size_t, unsigned> PlanCache::counter_at(std::uint64_t hash,
                                                       unsigned row) const {
  // Row 0 reads the hash's top bits (the shard was chosen from bits
  // 32..), row 1 a multiplicative remix of all of them.
  const std::uint64_t mixed = row == 0 ? hash : hash * 0x9e3779b97f4a7c15ull;
  const auto i = static_cast<std::size_t>(mixed >> (64 - sketch_bits_));
  return {row * sketch_row_words_ + i / kCountersPerWord,
          static_cast<unsigned>(i % kCountersPerWord) * kCounterBits};
}

void PlanCache::record_locked(Shard& shard, std::uint64_t hash) const {
  for (unsigned row = 0; row < 2; ++row) {
    const auto [word, shift] = counter_at(hash, row);
    if (((shard.sketch[word] >> shift) & kCounterMax) != kCounterMax) {
      shard.sketch[word] += std::uint64_t{1} << shift;
    }
  }
  if (++shard.recorded >= aging_period_) {
    for (std::uint64_t& w : shard.sketch) w = (w >> 1) & kHalveMask;
    shard.recorded = 0;
  }
}

unsigned PlanCache::estimate_locked(const Shard& shard,
                                    std::uint64_t hash) const {
  unsigned least = kCounterMax;
  for (unsigned row = 0; row < 2; ++row) {
    const auto [word, shift] = counter_at(hash, row);
    least = std::min(
        least, static_cast<unsigned>((shard.sketch[word] >> shift) &
                                     kCounterMax));
  }
  return least;
}

PlanCache::PlanPtr PlanCache::lookup(const MulticastAssignment& assignment,
                                     fault::ImplKind impl,
                                     bool require_explanation) {
  const std::uint64_t h = key_hash(assignment, impl);
  Shard& shard = shard_for(h);
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    record_locked(shard, h);
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
  // The new entry is built, and the replaced, evicted or rejected one is
  // freed, outside the shard mutex: freeing one n = 1024 plan takes
  // ~14 us.
  const auto src_of = assignment.src_of();
  std::list<Entry> released;
  released.push_back(Entry{h, impl, {src_of.begin(), src_of.end()},
                           std::move(plan)});
  bool admitted = true;
  bool evicted = false;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const bool replaced = erase_locked(shard, h, assignment, impl, released);
    if (!replaced && shard.lru.size() >= per_shard_cap_) {
      const auto victim = std::prev(shard.lru.end());
      admitted =
          estimate_locked(shard, h) > estimate_locked(shard, victim->hash);
      if (admitted) {
        auto [it, end] = shard.index.equal_range(victim->hash);
        for (; it != end; ++it) {
          if (it->second == victim) {
            shard.index.erase(it);
            break;
          }
        }
        released.splice(released.end(), shard.lru, victim);
        evicted = true;
      }
    }
    if (admitted) {
      shard.lru.splice(shard.lru.begin(), released, released.begin());
      shard.index.emplace(h, shard.lru.begin());
    }
  }
  if (evicted) bump(evictions_, evictions_counter_);
  if (!admitted) bump(rejections_, rejections_counter_);
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
  rejections_counter_ = &registry.counter(base + ".rejections");
}

namespace {

template <fault::ImplKind IMPL, typename Net>
RouteResult route_via_cache_impl(Net& net,
                                 const MulticastAssignment& assignment,
                                 const RouteOptions& options) {
  PlanCache& cache = *options.plan_cache;
  RouteOptions inner = options;
  inner.plan_cache = nullptr;
  if (PlanCache::PlanPtr plan =
          cache.lookup(assignment, IMPL, options.explain)) {
    try {
      return net.route_replay(*plan, inner);
    } catch (const fault::FaultDetected&) {
      cache.invalidate(assignment, IMPL);
      // With an injector armed the detection is the contract: surface it
      // (the next route recompiles). Without one, the cached plan itself
      // must be stale — fall through to a cold recompile.
      if (options.faults != nullptr) throw;
    }
  }
  // Never compile a plan while faults are armed; route cold without
  // inserting.
  if (options.faults != nullptr) return net.route(assignment, inner);
  auto fresh = std::make_shared<RoutePlan>();
  RouteResult result = planner::compile_route(net, assignment, inner, *fresh);
  cache.insert(assignment, IMPL, std::move(fresh));
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

}  // namespace brsmn::api
