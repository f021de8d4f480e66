// Assignment-keyed cache of compiled route plans (core/route_plan.hpp).
//
// Routing the same MulticastAssignment repeatedly — the common shape of
// multicast workloads, where a connection pattern persists across many
// cells — re-runs the full configuration pipeline every time. The cache
// keys compiled plans by the exact (assignment, implementation) pair, so
// a repeat route degenerates to route_replay: install the stored
// settings and drive the datapath.
//
// Keys are canonical: the assignment's memoized fingerprint with the
// implementation hashed in (MulticastAssignment::tagged_fingerprint,
// computed in the same pass as the placement fingerprint) selects the
// shard and bucket, and the key itself is the flat src_of array
// (core/multicast_assignment.hpp), compared with one memcmp to guard
// against collisions — two distinct assignments never share an entry,
// no matter how their hashes land (exercised by the
// force_hash_collisions test hook).
//
// Thread safety: the cache is sharded, each shard holding its own mutex,
// bounded LRU list, and hash index — ParallelRouter workers hit it
// concurrently. Hit/miss/eviction/invalidation counts are kept in
// atomics and optionally mirrored into plan_cache.* registry counters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/route_plan.hpp"

namespace brsmn::obs {
class Counter;
class MetricRegistry;
}  // namespace brsmn::obs

namespace brsmn::api {

struct PlanCacheConfig {
  /// Total plan capacity across all shards; the per-shard bound is
  /// max(1, capacity / shards), evicting least-recently-used past it.
  std::size_t capacity = 256;
  std::size_t shards = 8;
  /// Test hook: collapse every key to one hash value, forcing all
  /// entries through the exact-key comparison path of a single bucket.
  bool force_hash_collisions = false;
};

class PlanCache {
 public:
  using PlanPtr = std::shared_ptr<const RoutePlan>;

  explicit PlanCache(PlanCacheConfig config = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Find the plan compiled for exactly (assignment, impl), refreshing
  /// its LRU position. When `require_explanation`, an entry compiled
  /// without provenance counts as a miss (the caller needs a plan whose
  /// replay can produce RouteResult::explanation). Returns nullptr on a
  /// miss.
  PlanPtr lookup(const MulticastAssignment& assignment, fault::ImplKind impl,
                 bool require_explanation = false);

  /// Insert (or replace) the plan for (assignment, impl), evicting the
  /// shard's least-recently-used entries past its bound.
  void insert(const MulticastAssignment& assignment, fault::ImplKind impl,
              PlanPtr plan);

  /// Drop the entry for (assignment, impl), if present — called when a
  /// replay raises fault::FaultDetected, so the next route recompiles.
  void invalidate(const MulticastAssignment& assignment, fault::ImplKind impl);

  void clear();

  std::size_t size() const;
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  std::uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

  /// Mirror the counts into <prefix>.{hits,misses,evictions,
  /// invalidations} counters of `registry` from now on.
  void attach_metrics(obs::MetricRegistry& registry,
                      std::string_view prefix = "plan_cache");

 private:
  struct Entry {
    std::uint64_t hash = 0;
    fault::ImplKind impl = fault::ImplKind::Unrolled;
    std::vector<std::uint32_t> key;  ///< the assignment's src_of array
    PlanPtr plan;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< most recently used at the front
    std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator> index;
  };

  Shard& shard_for(std::uint64_t hash) {
    return shards_[static_cast<std::size_t>(hash >> 32) % shards_.size()];
  }
  std::uint64_t key_hash(const MulticastAssignment& assignment,
                         fault::ImplKind impl) const;
  /// Move the (hash, exact key) entry of `shard`, if present, to the end
  /// of `released`, so the caller frees it after unlocking; returns
  /// whether one was found. Caller holds the shard mutex.
  bool erase_locked(Shard& shard, std::uint64_t hash,
                    const MulticastAssignment& assignment,
                    fault::ImplKind impl, std::list<Entry>& released);

  std::vector<Shard> shards_;  ///< sized once; mutexes never move
  std::size_t per_shard_cap_;
  bool force_hash_collisions_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
};

/// The cache-aware route path Brsmn::route / FeedbackBrsmn::route
/// delegate to when RouteOptions::plan_cache is set: a hit replays (a
/// replay that raises FaultDetected invalidates the entry first — and
/// recompiles cold when no injector is armed), a clean miss compiles and
/// inserts, and a miss under an armed injector cold-routes without
/// inserting (a plan compiled through a fault would freeze corrupted
/// checkpoints).
RouteResult route_via_cache(Brsmn& net, const MulticastAssignment& assignment,
                            const RouteOptions& options);
RouteResult route_via_cache(FeedbackBrsmn& net,
                            const MulticastAssignment& assignment,
                            const RouteOptions& options);

/// How serve_cached settled a route.
enum class CachedStep {
  Replayed,  ///< a cached plan replayed cleanly
  Cold,      ///< faults armed and no clean replay: routed cold, uncached
  Compile,   ///< nothing served: the caller compiles (or patches) and inserts
};

/// The steps every cached route takes before it compiles, shared by
/// route_via_cache and GroupManager::route: replay a hit; a replay that
/// raises FaultDetected invalidates its entry and is rethrown when an
/// injector is armed (the next route recompiles); with an injector armed
/// and no hit, route cold without inserting. `options.plan_cache` must be
/// set; the result of a Replayed or Cold step is written to `out`.
CachedStep serve_cached(Brsmn& net, const MulticastAssignment& assignment,
                        const RouteOptions& options, RouteResult& out);
CachedStep serve_cached(FeedbackBrsmn& net,
                        const MulticastAssignment& assignment,
                        const RouteOptions& options, RouteResult& out);

}  // namespace brsmn::api
