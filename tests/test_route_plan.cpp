// Differential tests of compiled route plans (core/route_plan.hpp):
// route_replay() must be bit-identical to a cold route() — delivered
// outputs, routing stats, per-level broadcast counts, the full
// RouteExplanation grids, and the switch settings left in the physical
// fabrics — across both implementations (unrolled Brsmn and
// FeedbackBrsmn) and with either engine selected in the replay options.
// The fabric is deliberately scrambled by routing a decoy assignment
// between compile and replay, so grid equality proves the replay
// actually reinstalls every setting rather than inheriting it.
//
// Also here: the zero-allocation contract of route_replay_into — after
// two warmup replays, a steady-state replay performs no heap
// allocations (counted by overriding global operator new in this test
// binary) — the heap-footprint guard of a warm compile_route, whose
// bytes must grow like the O(n log^2 n) plan, not O(n^2), and the
// structural sharing of a patch, which allocates only its dirty levels.
#include "core/route_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "api/plan_cache.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"

// --- allocation counter ---------------------------------------------------
//
// Global operator new/delete overrides counting every heap allocation
// made by this binary. Counting is unconditional (the counter is a
// relaxed atomic, negligible next to malloc itself); tests read the
// counter around a region and assert on the delta.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
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

// --- equality helpers -----------------------------------------------------

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& cold, const RouteResult& replay) {
  EXPECT_EQ(cold.delivered, replay.delivered);
  expect_stats_eq(cold.stats, replay.stats);
  EXPECT_EQ(cold.broadcasts_per_level, replay.broadcasts_per_level);
  EXPECT_TRUE(replay.level_inputs.empty());
  ASSERT_EQ(cold.explanation.has_value(), replay.explanation.has_value());
  if (cold.explanation) {
    EXPECT_EQ(*cold.explanation, *replay.explanation);
  }
}

/// Every switch setting of one Rbn, stage-major.
std::vector<SwitchSetting> fabric_grid(const Rbn& rbn) {
  std::vector<SwitchSetting> grid;
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < rbn.size() / 2; ++sw) {
      grid.push_back(rbn.setting(stage, sw));
    }
  }
  return grid;
}

/// The settings grids of every fabric of an unrolled network, in level /
/// BSN / pass order.
std::vector<std::vector<SwitchSetting>> unrolled_grids(const Brsmn& net) {
  std::vector<std::vector<SwitchSetting>> grids;
  for (int k = 1; k < net.levels(); ++k) {
    for (const Bsn& bsn : net.level_bsns(k)) {
      grids.push_back(fabric_grid(bsn.scatter_fabric()));
      grids.push_back(fabric_grid(bsn.quasisort_fabric()));
    }
  }
  return grids;
}

/// An assignment guaranteed to differ from typical test assignments:
/// routed between compile and replay so the fabric no longer holds the
/// plan's settings when the replay runs.
MulticastAssignment decoy_assignment(std::size_t n) {
  MulticastAssignment a(n);
  for (std::size_t i = 0; i < n; ++i) a.connect(i, n - 1 - i);
  return a;
}

/// Compile a plan for `a` on a fresh unrolled network, scramble the
/// fabric with a decoy route, then replay under both engine selections
/// and require full bit-identity with the cold route.
void check_unrolled_replay(std::size_t n, const MulticastAssignment& a) {
  Brsmn net(n);
  RoutePlan plan;
  RouteOptions copts;
  copts.explain = true;
  const RouteResult cold = planner::compile_route(net, a, copts, plan);
  const auto cold_grids = unrolled_grids(net);

  for (const RouteEngine engine :
       {RouteEngine::Scalar, RouteEngine::Packed}) {
    net.route(decoy_assignment(n));  // scramble the fabric
    RouteOptions ropts;
    ropts.explain = true;
    ropts.engine = engine;
    const RouteResult replay = net.route_replay(plan, ropts);
    expect_results_eq(cold, replay);
    EXPECT_EQ(unrolled_grids(net), cold_grids);
  }
}

/// Feedback-implementation version of check_unrolled_replay.
void check_feedback_replay(std::size_t n, const MulticastAssignment& a) {
  FeedbackBrsmn net(n);
  RoutePlan plan;
  RouteOptions copts;
  copts.explain = true;
  const RouteResult cold = planner::compile_route(net, a, copts, plan);
  const auto cold_grid = fabric_grid(net.fabric());
  EXPECT_EQ(plan.impl, fault::ImplKind::Feedback);

  for (const RouteEngine engine :
       {RouteEngine::Scalar, RouteEngine::Packed}) {
    net.route(decoy_assignment(n));
    RouteOptions ropts;
    ropts.explain = true;
    ropts.engine = engine;
    const RouteResult replay = net.route_replay(plan, ropts);
    expect_results_eq(cold, replay);
    EXPECT_EQ(fabric_grid(net.fabric()), cold_grid);
  }
}

void check_replay(std::size_t n, const MulticastAssignment& a) {
  check_unrolled_replay(n, a);
  check_feedback_replay(n, a);
}

// --- differential sweeps --------------------------------------------------

class RoutePlanDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoutePlanDifferential, SeededMulticastSweep) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(8100 + n));
  const int trials = n <= 64 ? 6 : 3;
  for (int t = 0; t < trials; ++t) {
    check_replay(n, random_multicast(n, 0.5, rng));
  }
}

TEST_P(RoutePlanDifferential, SeededDenseMulticast) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(8200 + n));
  const int trials = n <= 64 ? 4 : 2;
  for (int t = 0; t < trials; ++t) {
    check_replay(n, random_multicast(n, 0.9, rng));
  }
}

TEST_P(RoutePlanDifferential, SeededPermutations) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(8300 + n));
  for (int t = 0; t < 3; ++t) {
    check_replay(n, random_permutation(n, 1.0, rng));
  }
}

TEST_P(RoutePlanDifferential, BroadcastPatterns) {
  const std::size_t n = GetParam();
  check_replay(n, full_broadcast(n));
  check_replay(n, broadcast_assignment(n, 2));
  check_replay(n, MulticastAssignment(n));  // empty assignment
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoutePlanDifferential,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

TEST(RoutePlanEdge, SmallestNetwork) {
  // n = 2 has no BSN levels — the plan holds only the final-level planes
  // and the output mapping.
  MulticastAssignment swap2(2);
  swap2.connect(0, 1);
  swap2.connect(1, 0);
  check_replay(2, swap2);
  check_replay(2, full_broadcast(2));
}

TEST(RoutePlanEdge, PaperExample) {
  check_replay(8, paper_example_assignment());
}

// --- replay contract checks -----------------------------------------------

TEST(RoutePlanContracts, ImplementationMismatchIsRejected) {
  const std::size_t n = 8;
  Brsmn unrolled(n);
  FeedbackBrsmn feedback(n);
  RoutePlan plan;
  planner::compile_route(unrolled, paper_example_assignment(), {}, plan);
  EXPECT_THROW(feedback.route_replay(plan), ContractViolation);
}

TEST(RoutePlanContracts, SizeMismatchIsRejected) {
  Brsmn small(8);
  Brsmn big(16);
  RoutePlan plan;
  planner::compile_route(small, paper_example_assignment(), {}, plan);
  EXPECT_THROW(big.route_replay(plan), ContractViolation);
}

TEST(RoutePlanContracts, ExplainReplayNeedsExplainCompiledPlan) {
  const std::size_t n = 8;
  Brsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, paper_example_assignment(), {}, plan);
  ASSERT_FALSE(plan.explanation.has_value());
  RouteOptions ropts;
  ropts.explain = true;
  EXPECT_THROW(net.route_replay(plan, ropts), ContractViolation);
}

TEST(RoutePlanContracts, CaptureLevelsIsRejected) {
  const std::size_t n = 8;
  Brsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, paper_example_assignment(), {}, plan);
  RouteOptions ropts;
  ropts.capture_levels = true;
  EXPECT_THROW(net.route_replay(plan, ropts), ContractViolation);
}

TEST(RoutePlanContracts, CompileUnderFaultInjectionIsRejected) {
  const std::size_t n = 8;
  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultInjector injector(fplan);
  Brsmn net(n);
  RoutePlan plan;
  RouteOptions opts;
  opts.faults = &injector;
  EXPECT_THROW(
      planner::compile_route(net, paper_example_assignment(), opts, plan),
      ContractViolation);
}

// --- fingerprint ----------------------------------------------------------

TEST(AssignmentFingerprint, DistinguishesAssignments) {
  const std::size_t n = 16;
  Rng rng(test_seed(8400));
  MulticastAssignment a = random_multicast(n, 0.5, rng);
  MulticastAssignment b = a;  // identical copy
  EXPECT_EQ(assignment_fingerprint(a), assignment_fingerprint(b));

  // Any extra connection must move the fingerprint.
  MulticastAssignment c = a;
  std::size_t free_out = 0;
  while (c.output_claimed(free_out)) ++free_out;
  c.connect(0, free_out);
  EXPECT_NE(assignment_fingerprint(a), assignment_fingerprint(c));

  // Size is part of the fingerprint.
  EXPECT_NE(assignment_fingerprint(MulticastAssignment(8)),
            assignment_fingerprint(MulticastAssignment(16)));
}

// The fingerprint's values are pinned: shard placement, the chaos
// simulator's counters and the cluster benchmark's input digest all
// derive from them, so a change of representation must not move them.
TEST(AssignmentFingerprint, GoldenValues) {
  EXPECT_EQ(assignment_fingerprint(paper_example_assignment()),
            0xba473d4591b7d90dULL);
  EXPECT_EQ(assignment_fingerprint(MulticastAssignment(8)),
            0x81572d26c967da57ULL);
  Rng rng(1009);  // fixed, not test_seed: the literal depends on it
  const MulticastAssignment dense = random_multicast(1024, 0.6, rng);
  ASSERT_EQ(dense.total_connections(), 625u);
  EXPECT_EQ(assignment_fingerprint(dense), 0xd37982ec69732eb6ULL);
}

// --- zero-allocation steady state -----------------------------------------

TEST(RoutePlanZeroAlloc, SteadyStateUnrolledReplayDoesNotAllocate) {
  const std::size_t n = 64;
  Rng rng(test_seed(8500));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  Brsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, a, {}, plan);

  const RouteOptions ropts;  // self-check on; no metrics/tracer/explain/faults
  RouteResult out;
  net.route_replay_into(plan, ropts, out);  // warmup: workspace + capacities
  net.route_replay_into(plan, ropts, out);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  net.route_replay_into(plan, ropts, out);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(out.delivered, plan.delivered);
}

TEST(RoutePlanZeroAlloc, SteadyStateFeedbackReplayDoesNotAllocate) {
  const std::size_t n = 64;
  Rng rng(test_seed(8600));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  FeedbackBrsmn net(n);
  RoutePlan plan;
  planner::compile_route(net, a, {}, plan);

  const RouteOptions ropts;
  RouteResult out;
  net.route_replay_into(plan, ropts, out);
  net.route_replay_into(plan, ropts, out);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  net.route_replay_into(plan, ropts, out);
  EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before, 0u);
  EXPECT_EQ(out.delivered, plan.delivered);
}

/// Heap allocations made by one warm route of `Net` on the packed engine
/// with no plan (the network's compile workspace sized by earlier routes).
template <typename Net>
std::uint64_t warm_packed_route_allocs(std::size_t n, std::uint64_t seed) {
  Rng rng(test_seed(seed));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  Net net(n);
  RouteOptions opts;  // self-check on; no metrics/tracer/explain/faults
  opts.engine = RouteEngine::Packed;
  net.route(a, opts);
  net.route(a, opts);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const RouteResult r = net.route(a, opts);
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(r.delivered, expected_delivery(a));
  return allocs;
}

// A warm packed route allocates only its per-route result and checks,
// nothing per level: the count is the same at every n.
TEST(RoutePlanZeroAlloc, WarmPackedRouteAllocationsDoNotGrowWithLevels) {
  const std::uint64_t at256 = warm_packed_route_allocs<Brsmn>(256, 8700);
  EXPECT_EQ(warm_packed_route_allocs<Brsmn>(1024, 8701), at256);
  EXPECT_EQ(warm_packed_route_allocs<Brsmn>(4096, 8702), at256);
}

TEST(RoutePlanZeroAlloc,
     WarmPackedFeedbackRouteAllocationsDoNotGrowWithLevels) {
  const std::uint64_t at256 =
      warm_packed_route_allocs<FeedbackBrsmn>(256, 8800);
  EXPECT_EQ(warm_packed_route_allocs<FeedbackBrsmn>(1024, 8801), at256);
  EXPECT_EQ(warm_packed_route_allocs<FeedbackBrsmn>(4096, 8802), at256);
}

// --- allocations of the request path around the compile --------------------

struct RequestPathAllocs {
  std::uint64_t copy = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t memoized_fingerprint = 0;
  std::uint64_t cold_lookup_miss = 0;  ///< fingerprint not yet memoized
  std::uint64_t lookup_miss = 0;
};

/// Heap allocations of copying `a`, fingerprinting the copy (first and
/// again) and missing a plan cache with `a` itself (first call computes
/// its fingerprint, the second reuses it). `a` must not have been
/// fingerprinted yet.
RequestPathAllocs request_path_allocs(const MulticastAssignment& a) {
  api::PlanCache cache;
  RequestPathAllocs out;
  const auto allocs = [] {
    return g_heap_allocs.load(std::memory_order_relaxed);
  };
  std::uint64_t before = allocs();
  const MulticastAssignment copy = a;
  out.copy = allocs() - before;
  before = allocs();
  EXPECT_EQ(copy.fingerprint(), assignment_fingerprint(copy));
  out.fingerprint = allocs() - before;  // computed once, then memoized
  before = allocs();
  copy.fingerprint();
  out.memoized_fingerprint = allocs() - before;
  before = allocs();
  EXPECT_EQ(cache.lookup(a, fault::ImplKind::Unrolled), nullptr);
  out.cold_lookup_miss = allocs() - before;
  before = allocs();
  EXPECT_EQ(cache.lookup(a, fault::ImplKind::Feedback), nullptr);
  out.lookup_miss = allocs() - before;
  return out;
}

// Copying, fingerprinting and a cache miss allocate the same fixed count
// at every n and connection count: the assignment is one flat array, its
// fingerprint a counting sort into two buffers, kept after first use.
TEST(RequestPathAllocations, FixedCountAtEverySizeAndDensity) {
  Rng rng(test_seed(8900));
  for (const std::size_t n : {64u, 1024u}) {
    for (const double density : {0.1, 0.6, 1.0, -1.0}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " density=" << density);
      // density -1 stands for a full broadcast from one input.
      const RequestPathAllocs got = request_path_allocs(
          density < 0 ? full_broadcast(n) : random_multicast(n, density, rng));
      EXPECT_EQ(got.copy, 1u);
      EXPECT_EQ(got.fingerprint, 2u);
      EXPECT_EQ(got.memoized_fingerprint, 0u);
      EXPECT_EQ(got.cold_lookup_miss, 2u);
      EXPECT_EQ(got.lookup_miss, 0u);
    }
  }
}

// --- heap footprint of a warm compile --------------------------------------

/// Heap bytes requested by one warm planner::compile_route of `a` (the
/// network's compile workspace already sized by an earlier compile),
/// plan storage included.
std::uint64_t warm_compile_bytes(const MulticastAssignment& a) {
  Brsmn net(a.size());
  {
    RoutePlan warmup;
    planner::compile_route(net, a, {}, warmup);
  }
  const std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  RoutePlan plan;
  planner::compile_route(net, a, {}, plan);
  return g_heap_bytes.load(std::memory_order_relaxed) - before;
}

TEST(RoutePlanFootprint, WarmCompileBytesGrowLikeThePlan) {
  // A compiled plan holds O(log n) levels of O(n log n) switch state, so
  // from n = 1024 to n = 4096 its bytes grow about 5.4x. Carrying each
  // line's O(n) header stream through every level makes a compile
  // allocate O(n^2) instead (12-14x over the same step); 8x separates
  // the two without timing anything.
  Rng rng(test_seed(8700));
  const MulticastAssignment perm_small = random_permutation(1024, 1.0, rng);
  const MulticastAssignment perm_large = random_permutation(4096, 1.0, rng);
  const MulticastAssignment dense_small = random_multicast(1024, 0.6, rng);
  const MulticastAssignment dense_large = random_multicast(4096, 0.6, rng);
  for (const auto& [name, small, large] :
       {std::tuple{"permutation", &perm_small, &perm_large},
        std::tuple{"density 0.6", &dense_small, &dense_large}}) {
    SCOPED_TRACE(name);
    const std::uint64_t bytes_small = warm_compile_bytes(*small);
    const std::uint64_t bytes_large = warm_compile_bytes(*large);
    const double growth =
        static_cast<double>(bytes_large) / static_cast<double>(bytes_small);
    RecordProperty(std::string(name) + " bytes n=1024",
                   std::to_string(bytes_small));
    RecordProperty(std::string(name) + " bytes n=4096",
                   std::to_string(bytes_large));
    EXPECT_LE(growth, 8.0) << bytes_small << " -> " << bytes_large
                           << " bytes";
  }
}

/// Heap bytes one warm compile_route spends on its plan: the bytes of a
/// warm compile_route of `a` less those of a warm cold route of `a` on
/// the same network with no plan (both counted exactly, in one process).
template <typename Net>
std::uint64_t warm_plan_bytes(const MulticastAssignment& a) {
  Net net(a.size());
  RouteOptions opts;
  opts.engine = RouteEngine::Packed;
  {
    RoutePlan warmup;
    planner::compile_route(net, a, opts, warmup);
    net.route(a, opts);
  }
  std::uint64_t before = g_heap_bytes.load(std::memory_order_relaxed);
  net.route(a, opts);
  const std::uint64_t route_bytes =
      g_heap_bytes.load(std::memory_order_relaxed) - before;
  before = g_heap_bytes.load(std::memory_order_relaxed);
  RoutePlan plan;
  planner::compile_route(net, a, opts, plan);
  return g_heap_bytes.load(std::memory_order_relaxed) - before - route_bytes;
}

TEST(RoutePlanFootprint, WarmCompileStoresEachDecisionOnce) {
  // A plan keeps each switch decision once, as its two datapath mask
  // bits. Storing one SwitchSetting byte per switch beside the masks, as
  // plans did before, cost this many plan bytes on the same compiles;
  // dropping the byte rows must save at least 35% of them.
  constexpr std::uint64_t kUnrolledBytesWithRows = 153568;
  constexpr std::uint64_t kFeedbackBytesWithRows = 153568;
  Rng rng(8710);  // fixed, not test_seed(): the counts above are exact
  const MulticastAssignment a = random_multicast(1024, 0.6, rng);
  const std::uint64_t unrolled = warm_plan_bytes<Brsmn>(a);
  const std::uint64_t feedback = warm_plan_bytes<FeedbackBrsmn>(a);
  RecordProperty("unrolled plan bytes n=1024", std::to_string(unrolled));
  RecordProperty("feedback plan bytes n=1024", std::to_string(feedback));
  EXPECT_LE(unrolled, kUnrolledBytesWithRows * 65 / 100) << unrolled;
  EXPECT_LE(feedback, kFeedbackBytesWithRows * 65 / 100) << feedback;
}

// --- structural sharing of a patch ----------------------------------------

// Stored levels are immutable and shared: a patch adopts a clean level by
// reference, so no path can write a level another plan still reads.
static_assert(std::is_same_v<decltype(RoutePlan::levels),
                             std::vector<std::shared_ptr<const PlanLevel>>>);

TEST(RoutePlanFootprint, PatchAllocatesOnlyItsDirtyLevels) {
  // Patch one base to single-delta neighbours. Each adopted level must be
  // the base's own object, each recompiled one a new object, and the
  // patch's heap bytes must fall as it adopts more levels. (When a patch
  // deep-copied its adopted levels, every patch allocated as many bytes
  // as a cold compile.)
  const std::size_t n = 1024;
  Rng rng(8720);  // fixed, not test_seed(): the byte counts are exact
  const MulticastAssignment base = random_multicast(n, 0.6, rng);
  Brsmn net(n);
  RoutePlan base_plan;
  planner::compile_route(net, base, {}, base_plan);
  const auto bytes = [] {
    return g_heap_bytes.load(std::memory_order_relaxed);
  };

  // Patch bytes over cold-compile bytes of the same assignment, by the
  // number of levels the patch adopted.
  std::map<std::size_t, std::vector<double>> ratio_by_reuse;
  for (int d = 0; d < 64; ++d) {
    MulticastAssignment after = base;
    const std::size_t out = rng.uniform(0, n - 1);
    if (after.output_claimed(out)) {
      after.disconnect(after.src_of()[out], out);
    } else {
      after.connect(rng.uniform(0, n - 1), out);
    }
    SCOPED_TRACE("delta at output " + std::to_string(out));
    std::uint64_t before = bytes();
    {
      RoutePlan cold;
      planner::compile_route(net, after, {}, cold);
    }
    const std::uint64_t cold_bytes = bytes() - before;

    RoutePlan patched;
    before = bytes();
    const planner::PatchOutcome outcome =
        planner::patch_route(net, after, base_plan, {}, patched);
    const std::uint64_t patch_bytes = bytes() - before;
    ASSERT_TRUE(outcome.patched);
    ASSERT_EQ(patched.levels.size(), base_plan.levels.size());

    std::size_t shared = 0;
    for (std::size_t k = 0; k < patched.levels.size(); ++k) {
      const PlanLevel& lv = *patched.levels[k];
      const PlanLevel& old = *base_plan.levels[k];
      const bool clean = lv.entry_t0 == old.entry_t0 &&
                         lv.entry_t1 == old.entry_t1 &&
                         lv.entry_t2 == old.entry_t2;
      EXPECT_EQ(patched.levels[k] == base_plan.levels[k], clean) << k;
      if (clean) {
        ++shared;
      } else {
        EXPECT_EQ(std::find(base_plan.levels.begin(), base_plan.levels.end(),
                            patched.levels[k]),
                  base_plan.levels.end())
            << k;
      }
    }
    EXPECT_EQ(shared, outcome.levels_reused);
    ratio_by_reuse[shared].push_back(static_cast<double>(patch_bytes) /
                                     static_cast<double>(cold_bytes));
  }

  // Each adopted level saves its own bytes. The levels a delta leaves
  // clean are the shallow, wide ones, each more than 5% of a cold
  // compile's bytes here. Adopting more levels never costs more bytes.
  ASSERT_GE(ratio_by_reuse.size(), 3u);
  double below = 1.0;  // the smallest ratio at the last lower reuse count
  for (const auto& [reused, ratios] : ratio_by_reuse) {
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    RecordProperty("patch/cold bytes, " + std::to_string(reused) +
                       " levels reused",
                   std::to_string(*lo) + ".." + std::to_string(*hi));
    if (reused == 0) continue;
    EXPECT_LE(*hi, 1.0 - 0.05 * static_cast<double>(reused)) << reused;
    EXPECT_LT(*hi, below) << reused << " levels reused";
    below = *lo;
  }
}

}  // namespace
}  // namespace brsmn
