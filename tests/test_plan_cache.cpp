// Tests for the assignment-keyed plan cache (api/plan_cache.hpp): the
// bound, recency and frequency-gated admission (cyclic scans, working
// sets that fit, working-set shifts), exact-key matching under forced
// hash collisions,
// fault-triggered invalidation (an n=16 stuck-switch and dead-link sweep
// — every cached replay under an active fault must either raise
// fault::FaultDetected and evict its entry or deliver exactly the clean
// expectation, never a plausible-but-wrong result), the never-insert-
// under-faults policy, explanation-aware lookups, metric mirroring, and
// cross-thread use (plans one thread compiled replayed by its peers;
// admission and eviction raced). The cross-thread tests double as the
// TSan workload.
#include "api/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_report.hpp"
#include "obs/metrics.hpp"

// --- allocation counter ---------------------------------------------------
//
// Global operator new/delete overrides counting every heap allocation in
// this binary (same machinery as tests/test_route_plan.cpp), used by the
// cross-backend zero-allocation replay tests below.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc demands it
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace brsmn {
namespace {

/// A fixed multicast mixing unicast, fan-out and idle inputs.
MulticastAssignment mixed_assignment(std::size_t n) {
  MulticastAssignment a(n);
  a.connect(0, 0);
  a.connect(0, n - 1);
  a.connect(1, n / 2);
  a.connect(2, 1);
  a.connect(2, 2);
  a.connect(2, 3);
  a.connect(n - 1, n / 4);
  return a;
}

/// A distinct unicast assignment per `salt`, for filling the cache with
/// unequal keys.
MulticastAssignment salted_assignment(std::size_t n, std::size_t salt) {
  MulticastAssignment a(n);
  a.connect(salt % n, salt % n);
  a.connect((salt + 1) % n, (salt + n / 2) % n);
  return a;
}

RouteOptions cached_options(api::PlanCache& cache) {
  RouteOptions options;
  options.plan_cache = &cache;
  return options;
}

/// Look `a` up and, on a miss, insert a placeholder plan: the cache
/// traffic of one cached route, without the compile. Returns whether the
/// lookup hit.
bool touch(api::PlanCache& cache, const MulticastAssignment& a) {
  if (cache.lookup(a, fault::ImplKind::Unrolled) != nullptr) return true;
  cache.insert(a, fault::ImplKind::Unrolled, std::make_shared<RoutePlan>());
  return false;
}

/// `count` distinct keys on a 256-wide network.
std::vector<MulticastAssignment> distinct_keys(std::size_t first,
                                               std::size_t count) {
  std::vector<MulticastAssignment> keys;
  for (std::size_t s = first; s < first + count; ++s) {
    keys.push_back(salted_assignment(256, s));
  }
  return keys;
}

// --- bound, recency and admission ------------------------------------------

TEST(PlanCacheLru, BoundsEntriesAndEvictsLeastRecentlyUsed) {
  // A full shard admits a new plan only when its key was looked up
  // strictly more often than the shard's least-recently-used entry, and
  // then evicts exactly that entry; a tie rejects the newcomer.
  const std::size_t n = 16;
  api::PlanCache cache({.capacity = 2, .shards = 1});
  Brsmn net(n);
  const auto a1 = salted_assignment(n, 1);
  const auto a2 = salted_assignment(n, 2);
  const auto a3 = salted_assignment(n, 3);

  net.route(a1, cached_options(cache));
  net.route(a2, cached_options(cache));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Refresh a1 (seen twice): a2 (seen once) is the least recently used.
  net.route(a1, cached_options(cache));
  EXPECT_EQ(cache.hits(), 1u);
  // a3 seen once, no more than a2: rejected, a2 stays.
  net.route(a3, cached_options(cache));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.rejections(), 1u);
  // a3 seen twice, more than a2: admitted, evicting a2.
  net.route(a3, cached_options(cache));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  // a1 survived; a2 did not, and seen twice it ties a3, now the least
  // recently used, so it is rejected in turn.
  net.route(a1, cached_options(cache));
  EXPECT_EQ(cache.hits(), 2u);
  net.route(a2, cached_options(cache));
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.rejections(), 2u);
}

TEST(PlanCacheAdmission, CyclicScanKeepsAStableResidentHalf) {
  // 64 keys cycled in order through a 32-entry shard. Plain LRU would
  // hit 0 times here: each plan is the least recently used exactly when
  // the 32 other keys since its last visit have pushed it out, one
  // lookup before its next use. Admission instead keeps about half
  // resident: every key is looked up once per cycle, so a newcomer only
  // ties the tail and is rejected, except where a sketch collision
  // inflates its estimate (16 evictions over the run).
  api::PlanCache cache({.capacity = 32, .shards = 1});
  const auto keys = distinct_keys(0, 64);
  const int kCycles = 12;  // spans three halvings of the sketch
  std::size_t hits_after_first = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (const auto& k : keys) {
      if (touch(cache, k) && cycle > 0) ++hits_after_first;
    }
  }
  const double lookups = static_cast<double>((kCycles - 1) * keys.size());
  EXPECT_GE(static_cast<double>(hits_after_first) / lookups, 0.45);
  EXPECT_EQ(hits_after_first, 338u);  // of 704 lookups: 0.48
  EXPECT_EQ(cache.size(), 32u);
  EXPECT_EQ(cache.evictions(), 16u);
}

TEST(PlanCacheAdmission, WorkingSetThatFitsHitsExactlyAsUnderLru) {
  // With every key resident after its first touch, LRU misses each key
  // once and hits every other lookup; admission never turns a key away
  // below the bound, so it must do exactly the same.
  for (const std::size_t set : {24u, 32u}) {
    SCOPED_TRACE("working set " + std::to_string(set));
    api::PlanCache cache({.capacity = 32, .shards = 1});
    const auto keys = distinct_keys(0, set);
    Rng rng(test_seed(9100));
    const std::size_t kLookups = 2000;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < kLookups; ++i) {
      hits += touch(cache, keys[rng.uniform(0, set - 1)]) ? 1 : 0;
    }
    const std::size_t touched = cache.size();
    EXPECT_EQ(touched, set);  // 2000 uniform draws reach every key
    EXPECT_EQ(hits, kLookups - touched);
    EXPECT_EQ(cache.misses(), touched);
    EXPECT_EQ(cache.evictions(), 0u);
    EXPECT_EQ(cache.rejections(), 0u);
  }
}

TEST(PlanCacheAdmission, ShiftedWorkingSetIsResidentWithinPinnedPasses) {
  // Set A fills the shard and is seen 8 times each; then the traffic
  // moves to set B. B's keys are turned away until their counts pass
  // A's: the sketch halves every counter each 10 x 32 lookups, so A's 8
  // become 4 early in B's life, and most of B is admitted on its 6th
  // pass. Only the tail is compared, so one A key whose estimate a
  // sketch collision inflated holds the rest of B off until pass 9. The
  // lag is documented in docs/PERFORMANCE.md ("The plan cache").
  api::PlanCache cache({.capacity = 32, .shards = 1});
  const auto a = distinct_keys(0, 32);
  const auto b = distinct_keys(32, 32);
  for (int pass = 0; pass < 8; ++pass) {
    for (const auto& k : a) touch(cache, k);
  }
  int resident_at = -1;
  for (int pass = 1; pass <= 20 && resident_at < 0; ++pass) {
    std::size_t hits = 0;
    for (const auto& k : b) hits += touch(cache, k) ? 1 : 0;
    if (hits == b.size()) resident_at = pass;
  }
  EXPECT_EQ(resident_at, 10);  // the last of B admitted on pass 9
  for (const auto& k : a) {
    EXPECT_EQ(cache.lookup(k, fault::ImplKind::Unrolled), nullptr);
  }
}

TEST(PlanCacheLru, ReinsertReplacesInsteadOfDuplicating) {
  const std::size_t n = 16;
  api::PlanCache cache({.capacity = 8, .shards = 1});
  Brsmn net(n);
  const auto a = mixed_assignment(n);

  net.route(a, cached_options(cache));
  EXPECT_EQ(cache.size(), 1u);
  // An explain route misses (the cached plan has no provenance) and the
  // recompiled plan replaces the entry rather than adding a second one.
  RouteOptions explain = cached_options(cache);
  explain.explain = true;
  const RouteResult recompiled = net.route(a, explain);
  ASSERT_TRUE(recompiled.explanation.has_value());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  // Now both plain and explain routes hit the explain-compiled plan.
  const RouteResult hit = net.route(a, explain);
  ASSERT_TRUE(hit.explanation.has_value());
  EXPECT_EQ(*hit.explanation, *recompiled.explanation);
  net.route(a, cached_options(cache));
  EXPECT_EQ(cache.hits(), 2u);
}

/// What a lock-probing plan's destructor saw.
struct LockProbe {
  std::thread prober;              ///< joined by the test
  std::atomic<bool> through{false};  ///< the prober got every shard lock
  bool free_at_destruction = false;
};

/// A plan whose destructor checks that the cache's shard mutex is free:
/// it starts a thread that takes every shard lock (PlanCache::size) and
/// waits up to two seconds for it. Freed under the lock, the probe would
/// still be blocked when the wait ends.
api::PlanCache::PlanPtr lock_probing_plan(api::PlanCache& cache,
                                          LockProbe& probe) {
  return {new RoutePlan, [&cache, &probe](const RoutePlan* p) {
            delete p;
            probe.prober = std::thread([&cache, &probe] {
              cache.size();
              probe.through = true;
            });
            for (int i = 0; i < 200 && !probe.through; ++i) {
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
            }
            probe.free_at_destruction = probe.through;
          }};
}

TEST(PlanCacheLru, EvictedAndReplacedPlansAreFreedOutsideTheShardLock) {
  const std::size_t n = 16;
  const auto k1 = salted_assignment(n, 1);
  const auto k2 = salted_assignment(n, 2);
  const auto plain = [] { return std::make_shared<RoutePlan>(); };
  for (const char* how : {"evicted", "replaced", "rejected"}) {
    SCOPED_TRACE(how);
    api::PlanCache cache({.capacity = 1, .shards = 1});
    LockProbe probe;
    const std::string_view c(how);
    if (c == "rejected") {
      // The resident k1 and the candidate k2 were both looked up as
      // often (never): the candidate's probing plan is turned away.
      cache.insert(k1, fault::ImplKind::Unrolled, plain());
      cache.insert(k2, fault::ImplKind::Unrolled,
                   lock_probing_plan(cache, probe));
      EXPECT_EQ(cache.rejections(), 1u);
    } else {
      cache.insert(k1, fault::ImplKind::Unrolled,
                   lock_probing_plan(cache, probe));
      // A looked-up k2 outranks k1 and evicts it; k1 again replaces.
      const auto& next = c == "evicted" ? k2 : k1;
      cache.lookup(next, fault::ImplKind::Unrolled);
      cache.insert(next, fault::ImplKind::Unrolled, plain());
      EXPECT_EQ(cache.evictions(), c == "evicted" ? 1u : 0u);
    }
    ASSERT_TRUE(probe.prober.joinable());
    probe.prober.join();
    EXPECT_TRUE(probe.free_at_destruction);
    EXPECT_EQ(cache.size(), 1u);
  }
}

// --- exact keys under collisions -------------------------------------------

TEST(PlanCacheKeys, ForcedHashCollisionsFallBackToExactComparison) {
  const std::size_t n = 16;
  // One shard: the forced collisions funnel every entry into a single
  // shard anyway, and the per-shard bound must hold all six.
  api::PlanCache cache({.capacity = 16, .shards = 1,
                        .force_hash_collisions = true});
  Brsmn net(n);
  std::vector<MulticastAssignment> as;
  for (std::size_t s = 0; s < 6; ++s) as.push_back(salted_assignment(n, s));

  std::vector<std::vector<std::optional<std::size_t>>> cold;
  for (const auto& a : as) cold.push_back(Brsmn(n).route(a).delivered);

  for (const auto& a : as) net.route(a, cached_options(cache));
  EXPECT_EQ(cache.size(), as.size());
  EXPECT_EQ(cache.misses(), as.size());

  // Every repeat is a hit and returns the plan of exactly its own
  // assignment, collisions notwithstanding.
  for (std::size_t i = 0; i < as.size(); ++i) {
    const RouteResult r = net.route(as[i], cached_options(cache));
    EXPECT_EQ(r.delivered, cold[i]) << "collision mixed up assignment " << i;
  }
  EXPECT_EQ(cache.hits(), as.size());
}

TEST(PlanCacheKeys, AdmissionUnderCollisionsNeverServesAnotherKeysPlan) {
  // With every key on one hash, the sketch cannot tell keys apart: all
  // estimates tie, so a full shard admits nothing new. The first four
  // keys stay resident and every other key is compiled afresh each
  // time; no route is ever served a plan compiled for another key.
  const std::size_t n = 16;
  api::PlanCache cache({.capacity = 4, .shards = 1,
                        .force_hash_collisions = true});
  Brsmn net(n);
  std::vector<MulticastAssignment> as;
  std::vector<std::vector<std::optional<std::size_t>>> cold;
  for (std::size_t s = 0; s < 12; ++s) {
    as.push_back(salted_assignment(n, s));
    cold.push_back(Brsmn(n).route(as.back()).delivered);
  }
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < as.size(); ++i) {
      const RouteResult r = net.route(as[i], cached_options(cache));
      EXPECT_EQ(r.delivered, cold[i]) << "pass " << pass << " key " << i;
    }
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.hits(), 8u);
  EXPECT_EQ(cache.misses(), 28u);
  EXPECT_EQ(cache.rejections(), 24u);
  EXPECT_EQ(cache.evictions(), 0u);
  for (std::size_t i = 0; i < as.size(); ++i) {
    const api::PlanCache::PlanPtr plan =
        cache.lookup(as[i], fault::ImplKind::Unrolled);
    EXPECT_EQ(plan != nullptr, i < 4) << "key " << i;
    if (plan != nullptr) {
      EXPECT_EQ(plan->delivered, cold[i]);
    }
  }
}

TEST(PlanCacheKeys, ImplementationsGetSeparateEntries) {
  const std::size_t n = 16;
  api::PlanCache cache;
  Brsmn unrolled(n);
  FeedbackBrsmn feedback(n);
  const auto a = mixed_assignment(n);

  const RouteResult ur = unrolled.route(a, cached_options(cache));
  const RouteResult fr = feedback.route(a, cached_options(cache));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(ur.delivered, fr.delivered);

  unrolled.route(a, cached_options(cache));
  feedback.route(a, cached_options(cache));
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(PlanCacheKeys, ScalarAndPackedEnginesShareOnePlan) {
  const std::size_t n = 32;
  api::PlanCache cache;
  Brsmn net(n);
  Rng rng(test_seed(8700));
  const auto a = random_multicast(n, 0.5, rng);
  const auto expected = Brsmn(n).route(a).delivered;

  RouteOptions scalar = cached_options(cache);
  scalar.engine = RouteEngine::Scalar;
  RouteOptions packed = cached_options(cache);
  packed.engine = RouteEngine::Packed;

  EXPECT_EQ(net.route(a, scalar).delivered, expected);
  EXPECT_EQ(net.route(a, packed).delivered, expected);
  EXPECT_EQ(net.route(a, scalar).delivered, expected);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
}

// --- fault interaction ----------------------------------------------------

TEST(PlanCacheFaults, MissUnderArmedInjectorRoutesColdWithoutInserting) {
  const std::size_t n = 16;
  api::PlanCache cache;
  Brsmn net(n);
  fault::FaultPlan fplan;
  fplan.n = n;  // armed injector, no faults: routes succeed
  fault::FaultInjector injector(fplan);

  RouteOptions options = cached_options(cache);
  options.faults = &injector;
  const auto a = mixed_assignment(n);
  const RouteResult r = net.route(a, options);
  EXPECT_EQ(r.delivered, Brsmn(n).route(a).delivered);
  EXPECT_EQ(cache.size(), 0u);  // never compiled under an armed injector
  EXPECT_EQ(cache.misses(), 1u);
}

/// Sweep a single always-active fault over every site; for each, cache a
/// clean plan, then route with the injector armed. The cached replay
/// must either raise FaultDetected — invalidating the entry so the next
/// clean route recompiles — or deliver exactly the clean expectation.
struct SweepTally {
  int detected = 0;
  int masked = 0;
};

SweepTally run_fault_sweep(const std::vector<fault::FaultSpec>& specs,
                           std::size_t n) {
  SweepTally tally;
  const MulticastAssignment a = mixed_assignment(n);
  const auto expected = Brsmn(n).route(a).delivered;
  for (const fault::FaultSpec& spec : specs) {
    fault::FaultPlan fplan;
    fplan.n = n;
    fplan.faults = {spec};
    api::PlanCache cache({.capacity = 4, .shards = 1});
    Brsmn net(n);

    net.route(a, cached_options(cache));  // compile + insert, fault-free
    EXPECT_EQ(cache.size(), 1u);

    fault::FaultInjector injector(fplan);
    RouteOptions armed = cached_options(cache);
    armed.faults = &injector;
    try {
      const RouteResult r = net.route(a, armed);
      ++tally.masked;
      EXPECT_EQ(r.delivered, expected)
          << "masked replay must match the clean delivery: "
          << fault::describe(spec);
      EXPECT_EQ(cache.size(), 1u);
    } catch (const fault::FaultDetected&) {
      ++tally.detected;
      EXPECT_EQ(cache.invalidations(), 1u)
          << "detection must invalidate: " << fault::describe(spec);
      EXPECT_EQ(cache.size(), 0u);
      // The next clean route recompiles and repopulates the cache.
      const RouteResult again = net.route(a, cached_options(cache));
      EXPECT_EQ(again.delivered, expected);
      EXPECT_EQ(cache.size(), 1u);
    }
  }
  return tally;
}

TEST(PlanCacheFaults, StuckSwitchSweepDetectsOrMasksNeverWrong) {
  const std::size_t n = 16;  // m = 4: levels 1..3 carry fabric settings
  std::vector<fault::FaultSpec> specs;
  for (int level = 1; level <= 3; ++level) {
    const int stages = 4 - (level - 1);
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= stages; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          fault::FaultSpec s;
          s.kind = fault::FaultKind::StuckSetting;
          s.level = level;
          s.pass = pass;
          s.stage = stage;
          s.index = sw;
          s.stuck = SwitchSetting::Cross;
          specs.push_back(s);
        }
      }
    }
  }
  const SweepTally tally = run_fault_sweep(specs, n);
  EXPECT_GT(tally.detected, 0);
  EXPECT_GT(tally.masked, 0);
}

TEST(PlanCacheFaults, DeadLinkSweepDetectsOrMasksNeverWrong) {
  const std::size_t n = 16;
  std::vector<fault::FaultSpec> specs;
  for (int level = 1; level <= 4; ++level) {
    for (std::size_t line = 0; line < n; ++line) {
      fault::FaultSpec s;
      s.kind = fault::FaultKind::DeadLink;
      s.level = level;
      s.index = line;
      specs.push_back(s);
    }
  }
  const SweepTally tally = run_fault_sweep(specs, n);
  EXPECT_GT(tally.detected, 0);
  EXPECT_GT(tally.masked, 0);
}

TEST(PlanCacheFaults, FeedbackReplayDetectsAndInvalidatesToo) {
  const std::size_t n = 16;
  const MulticastAssignment a = mixed_assignment(n);
  api::PlanCache cache;
  FeedbackBrsmn net(n);
  net.route(a, cached_options(cache));
  EXPECT_EQ(cache.size(), 1u);

  // Kill the line carrying input 0 at level 1: always detected.
  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultSpec s;
  s.kind = fault::FaultKind::DeadLink;
  s.level = 1;
  s.index = 0;
  fplan.faults = {s};
  fault::FaultInjector injector(fplan);
  RouteOptions armed = cached_options(cache);
  armed.faults = &injector;
  EXPECT_THROW(net.route(a, armed), fault::FaultDetected);
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// --- metrics ---------------------------------------------------------------

TEST(PlanCacheMetrics, CountersMirrorIntoRegistry) {
  const std::size_t n = 16;
  obs::MetricRegistry registry;
  api::PlanCache cache({.capacity = 1, .shards = 1});
  cache.attach_metrics(registry);
  Brsmn net(n);
  const auto a1 = salted_assignment(n, 1);
  const auto a2 = salted_assignment(n, 2);

  net.route(a1, cached_options(cache));  // miss
  net.route(a1, cached_options(cache));  // hit: a1 seen twice
  // a2 seen once, then twice: no more often than a1, so rejected twice.
  net.route(a2, cached_options(cache));
  EXPECT_EQ(cache.rejections(), 1u);
  net.route(a2, cached_options(cache));
  EXPECT_EQ(cache.rejections(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  // Seen a third time, a2 outranks a1: admitted, evicting a1.
  net.route(a2, cached_options(cache));
  net.route(a2, cached_options(cache));  // hit

  EXPECT_EQ(registry.counter("plan_cache.hits").value(), cache.hits());
  EXPECT_EQ(registry.counter("plan_cache.misses").value(), cache.misses());
  EXPECT_EQ(registry.counter("plan_cache.evictions").value(),
            cache.evictions());
  EXPECT_EQ(registry.counter("plan_cache.rejections").value(),
            cache.rejections());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.rejections(), 2u);
}

TEST(PlanCacheMetrics, ReplayRecordsPhaseHistogram) {
  if constexpr (!obs::kEnabled) {
    GTEST_SKIP() << "phase histograms compile to nothing with BRSMN_OBS=OFF";
  }
  const std::size_t n = 16;
  obs::MetricRegistry registry;
  api::PlanCache cache;
  Brsmn net(n);
  RouteOptions options = cached_options(cache);
  options.metrics = &registry;
  const auto a = mixed_assignment(n);
  net.route(a, options);  // cold compile: no replay sample
  net.route(a, options);  // hit: one replay sample
  net.route(a, options);
  EXPECT_EQ(registry.histogram("route.phase.replay_ns").count(), 2u);
}

// --- cross-backend plan reuse ----------------------------------------------
//
// Plans are SIMD-backend-portable (core/simd_backend.hpp): a plan the
// cache captured under one backend's word loops must replay bit-
// identically — and still allocation-free — under any other. Every
// ordered (compile, replay) backend pair available on this host is
// exercised.

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

TEST(PlanCacheSimd, PlanCompiledUnderOneBackendHitsUnderEveryOther) {
  const std::size_t n = 64;
  Rng rng(test_seed(9050));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  const auto expected = Brsmn(n).route(a).delivered;

  const auto avail = simd::available_backends();
  for (const simd::Backend compile_b : avail) {
    for (const simd::Backend replay_b : avail) {
      SCOPED_TRACE(std::string("compile ") + simd::to_string(compile_b) +
                   " replay " + simd::to_string(replay_b));
      api::PlanCache cache;
      Brsmn net(n);

      RouteOptions copts = cached_options(cache);
      copts.engine = RouteEngine::Packed;
      copts.simd_backend = compile_b;
      const RouteResult cold = net.route(a, copts);  // miss: compile + insert
      EXPECT_EQ(cache.misses(), 1u);
      EXPECT_EQ(cold.delivered, expected);

      RouteOptions ropts = cached_options(cache);
      ropts.engine = RouteEngine::Packed;
      ropts.simd_backend = replay_b;
      const RouteResult hit = net.route(a, ropts);  // hit: replay
      EXPECT_EQ(cache.hits(), 1u);
      EXPECT_EQ(hit.delivered, cold.delivered);
      expect_stats_eq(hit.stats, cold.stats);
      EXPECT_EQ(hit.broadcasts_per_level, cold.broadcasts_per_level);
    }
  }
}

TEST(PlanCacheSimd, SteadyStateCachedReplayIsAllocationFreeOnEveryBackend) {
  // Fill the cache under the first backend, fetch the shared plan, and
  // drive the zero-allocation replay path under every backend: after two
  // warmups, a steady-state replay must not allocate regardless of which
  // backend's loops run — including a backend other than the compiling
  // one (the workspace is sized by the plan, not by the backend).
  const std::size_t n = 64;
  Rng rng(test_seed(9060));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);

  const auto avail = simd::available_backends();
  api::PlanCache cache;
  Brsmn net(n);
  RouteOptions copts = cached_options(cache);
  copts.engine = RouteEngine::Packed;
  copts.simd_backend = avail.front();
  const RouteResult cold = net.route(a, copts);

  const api::PlanCache::PlanPtr plan =
      cache.lookup(a, fault::ImplKind::Unrolled);
  ASSERT_NE(plan, nullptr);

  for (const simd::Backend replay_b : avail) {
    SCOPED_TRACE(std::string("replay ") + simd::to_string(replay_b));
    RouteOptions ropts;  // self-check on; no metrics/tracer/explain/faults
    ropts.simd_backend = replay_b;
    RouteResult out;
    net.route_replay_into(*plan, ropts, out);  // warmup: workspace sizing
    net.route_replay_into(*plan, ropts, out);
    const std::uint64_t before =
        g_heap_allocs.load(std::memory_order_relaxed);
    net.route_replay_into(*plan, ropts, out);
    EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0u);
    EXPECT_EQ(out.delivered, cold.delivered);
  }
}

// --- cross-thread use ------------------------------------------------------

TEST(PlanCacheParallel, CrossThreadHitsOnRepeatedBatches) {
  // Four threads, each with its own engine, share one cache. First each
  // compiles one distinct assignment; then each routes all four, so
  // every lookup replays a plan that some thread compiled — three of the
  // four on a peer thread.
  const std::size_t n = 32;
  constexpr unsigned kThreads = 4;
  Rng rng(test_seed(8800));
  std::vector<MulticastAssignment> unique;
  for (unsigned i = 0; i < kThreads; ++i) {
    unique.push_back(random_multicast(n, 0.5, rng));
  }

  api::PlanCache cache;
  RouteOptions options;
  options.engine = RouteEngine::Packed;
  options.plan_cache = &cache;
  std::vector<std::vector<RouteResult>> routed(kThreads);
  const auto run = [&](bool all) {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
      pool.emplace_back([&, t] {
        Brsmn net(n);
        for (unsigned i = 0; i < kThreads; ++i) {
          if (!all && i != t) continue;
          routed[t].push_back(api::route_via_cache(net, unique[i], options));
        }
      });
    }
    for (auto& th : pool) th.join();
  };

  run(false);
  EXPECT_EQ(cache.misses(), unique.size());
  EXPECT_EQ(cache.hits(), 0u);
  run(true);
  EXPECT_EQ(cache.hits(), kThreads * unique.size());
  EXPECT_EQ(cache.misses(), unique.size());

  Brsmn serial(n);
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_EQ(routed[t].size(), 1 + unique.size());
    EXPECT_EQ(routed[t][0].delivered, serial.route(unique[t]).delivered);
    for (unsigned i = 0; i < kThreads; ++i) {
      EXPECT_EQ(routed[t][1 + i].delivered, serial.route(unique[i]).delivered)
          << "thread " << t << " assignment " << i;
    }
  }
}

TEST(PlanCacheParallel, ConcurrentScansRaceSketchAdmissionAndEviction) {
  // Four threads look up and insert over 64 keys through a 16-entry
  // cache, so the sketch updates, admission decisions, evictions and
  // rejections of one shard interleave across threads (the TSan
  // workload for the admission path). Each placeholder plan carries its
  // key's salt in `delivered`: a hit must return the plan of its key.
  api::PlanCache cache({.capacity = 16, .shards = 2});
  const auto keys = distinct_keys(0, 64);
  const unsigned kThreads = 4;
  const std::size_t kOps = 3000;
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(test_seed(9200 + t));
      for (std::size_t op = 0; op < kOps; ++op) {
        // Skewed toward the low keys, so frequencies differ.
        const std::size_t s =
            std::min(rng.uniform(0, 63), rng.uniform(0, 63));
        const auto plan = cache.lookup(keys[s], fault::ImplKind::Unrolled);
        if (plan != nullptr) {
          if (plan->delivered.size() != 1 || plan->delivered[0] != s) ++wrong;
          continue;
        }
        auto fresh = std::make_shared<RoutePlan>();
        fresh->delivered.assign(1, s);
        cache.insert(keys[s], fault::ImplKind::Unrolled, std::move(fresh));
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kOps);
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_GT(cache.rejections(), 0u);
}

}  // namespace
}  // namespace brsmn
