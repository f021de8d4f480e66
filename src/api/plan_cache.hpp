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
// Admission is frequency-gated (TinyLFU: Einziger, Friedman and Manes,
// ACM TOS 2017). Each shard keeps a count-min sketch of how often each
// key hash was looked up: two rows of 4-bit saturating counters, each
// row the next power of two >= 8x the shard's entry bound, every counter
// halved after 10x the bound recorded lookups. An insert into a full
// shard evicts the least-recently-used entry only when the candidate's
// estimate is strictly greater than that entry's; otherwise the
// candidate is rejected. So a cyclic scan over more keys than the shard
// holds keeps a stable resident set (about half the lookups hit when the
// scan is twice the bound) where plain LRU would evict every plan just
// before its next use, and a working set that fits is served exactly as
// by LRU. Replacing a key, or inserting below the bound, always admits.
//
// Thread safety: the cache is sharded, each shard holding its own mutex,
// bounded recency list, hash index and sketch — the workers of one
// cluster shard hit it concurrently. Hit/miss/eviction/rejection/
// invalidation counts are kept in atomics and optionally mirrored into
// plan_cache.* registry counters.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
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
  /// max(1, capacity / shards). A full shard admits a new plan only by
  /// evicting its least-recently-used entry, and only when the new key
  /// was looked up more often than that entry (see the header comment).
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
  /// its recency, and count the lookup in the shard's frequency sketch
  /// (hit or miss). When `require_explanation`, an entry compiled
  /// without provenance counts as a miss (the caller needs a plan whose
  /// replay can produce RouteResult::explanation). Returns nullptr on a
  /// miss.
  PlanPtr lookup(const MulticastAssignment& assignment, fault::ImplKind impl,
                 bool require_explanation = false);

  /// Insert (or replace) the plan for (assignment, impl). Into a full
  /// shard the plan is admitted, evicting the least-recently-used entry,
  /// only when its key's sketch estimate is strictly greater than that
  /// entry's; otherwise it is rejected and freed. Evicted, replaced and
  /// rejected plans are all freed outside the shard mutex.
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
  /// Inserts into a full shard turned away by the admission rule.
  std::uint64_t rejections() const {
    return rejections_.load(std::memory_order_relaxed);
  }

  /// Mirror the counts into <prefix>.{hits,misses,evictions,rejections,
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
    /// Count-min frequency sketch: two rows of sketch_width_ 4-bit
    /// saturating counters, 16 to a word, row 0 first.
    std::vector<std::uint64_t> sketch;
    std::size_t recorded = 0;  ///< lookups since the counters were halved
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
  /// Count one lookup of `hash` in the shard's sketch, halving every
  /// counter once aging_period_ lookups have been counted. Caller holds
  /// the shard mutex.
  void record_locked(Shard& shard, std::uint64_t hash) const;
  /// The sketch's frequency estimate for `hash` (the lesser of its two
  /// counters). Caller holds the shard mutex.
  unsigned estimate_locked(const Shard& shard, std::uint64_t hash) const;
  /// Word index and bit shift of `hash`'s counter in sketch row `row`.
  std::pair<std::size_t, unsigned> counter_at(std::uint64_t hash,
                                              unsigned row) const;

  std::vector<Shard> shards_;  ///< sized once; mutexes never move
  std::size_t per_shard_cap_;
  bool force_hash_collisions_;
  unsigned sketch_bits_;            ///< log2 of the sketch row width
  std::size_t sketch_row_words_;    ///< words per sketch row
  std::size_t aging_period_;        ///< lookups between halvings

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
  std::atomic<std::uint64_t> rejections_{0};
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Counter* invalidations_counter_ = nullptr;
  obs::Counter* rejections_counter_ = nullptr;
};

/// The cache-aware route path Brsmn::route / FeedbackBrsmn::route
/// delegate to when RouteOptions::plan_cache is set: a hit replays (a
/// replay that raises FaultDetected invalidates the entry first, and is
/// rethrown when an injector is armed or recompiled cold when none is), a
/// clean miss compiles and offers the plan to the cache, and a miss
/// under an armed injector cold-routes without inserting (a plan
/// compiled through a fault would freeze corrupted checkpoints).
RouteResult route_via_cache(Brsmn& net, const MulticastAssignment& assignment,
                            const RouteOptions& options);
RouteResult route_via_cache(FeedbackBrsmn& net,
                            const MulticastAssignment& assignment,
                            const RouteOptions& options);

}  // namespace brsmn::api
