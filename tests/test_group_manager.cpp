// Dynamic multicast groups and incremental plan patching.
//
// The load-bearing property is the exhaustive churn differential: for
// every single join/leave delta from seeded base assignments (n = 4 ..
// 64), planner::patch_route must produce a plan that is bit-identical
// to a cold compile of the post-delta assignment — the stored level
// checkpoints, the delivered outputs, the routing stats, the full
// explanation grids, the switch settings left in the physical fabrics,
// and the replay behavior under both engines (Scalar/Packed) on both
// implementations (unrolled/feedback). Patching is an optimization; it
// is never allowed to be an approximation.
//
// Also here: the GroupManager registry semantics (join/leave/snapshot/
// erase, replay-first/patch-second/cold-last routing from each group's
// plan slot, the slot dropped on a detection), a multi-threaded churn
// soak against a shadow reference map (run under TSan in CI), a
// fault-injection sweep over replays of a patched plan (detect-or-mask,
// never mis-deliver), and the group routing entry points of Cluster,
// ResilientRouter and QueuedMulticastSwitch.
#include "api/group_manager.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/cluster.hpp"
#include "api/plan_cache.hpp"
#include "api/resilient_router.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_report.hpp"
#include "obs/metrics.hpp"
#include "traffic/queued_switch.hpp"

namespace brsmn {
namespace {

using api::GroupId;
using api::GroupManager;
using api::GroupManagerConfig;
using api::GroupRouteMode;
using api::PlanCache;

// --- equality helpers (mirroring test_route_plan.cpp) ---------------------

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& cold, const RouteResult& other) {
  EXPECT_EQ(cold.delivered, other.delivered);
  expect_stats_eq(cold.stats, other.stats);
  EXPECT_EQ(cold.broadcasts_per_level, other.broadcasts_per_level);
  ASSERT_EQ(cold.explanation.has_value(), other.explanation.has_value());
  if (cold.explanation) {
    EXPECT_EQ(*cold.explanation, *other.explanation);
  }
}

/// Deep equality of a patched plan against a cold-compiled one: every
/// checkpoint a replay validates against, plus the bookkeeping a future
/// patch reuses (entry planes, event counts, parent codes, stats
/// deltas).
void expect_plans_eq(const RoutePlan& patched, const RoutePlan& cold) {
  EXPECT_EQ(patched.n, cold.n);
  EXPECT_EQ(patched.m, cold.m);
  EXPECT_EQ(patched.impl, cold.impl);
  EXPECT_EQ(patched.wcode, cold.wcode);
  EXPECT_EQ(patched.final_t0, cold.final_t0);
  EXPECT_EQ(patched.final_t1, cold.final_t1);
  EXPECT_EQ(patched.final_t2, cold.final_t2);
  EXPECT_EQ(patched.delivered, cold.delivered);
  expect_stats_eq(patched.stats, cold.stats);
  EXPECT_EQ(patched.broadcasts_per_level, cold.broadcasts_per_level);
  ASSERT_EQ(patched.explanation.has_value(), cold.explanation.has_value());
  if (cold.explanation) {
    EXPECT_EQ(*patched.explanation, *cold.explanation);
  }
  ASSERT_EQ(patched.levels.size(), cold.levels.size());
  for (std::size_t k = 0; k < cold.levels.size(); ++k) {
    SCOPED_TRACE("level " + std::to_string(k + 1));
    const PlanLevel& p = *patched.levels[k];
    const PlanLevel& c = *cold.levels[k];
    EXPECT_EQ(p.stages, c.stages);
    EXPECT_EQ(p.entry_t0, c.entry_t0);
    EXPECT_EQ(p.entry_t1, c.entry_t1);
    EXPECT_EQ(p.entry_t2, c.entry_t2);
    EXPECT_EQ(p.num_events, c.num_events);
    EXPECT_EQ(p.parent_codes, c.parent_codes);
    EXPECT_EQ(p.post_scatter, c.post_scatter);
    EXPECT_EQ(p.divided_t2, c.divided_t2);
    EXPECT_EQ(p.post_quasisort, c.post_quasisort);
    expect_stats_eq(p.stats_delta, c.stats_delta);
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

std::vector<std::vector<SwitchSetting>> net_grids(const Brsmn& net) {
  std::vector<std::vector<SwitchSetting>> grids;
  for (int k = 1; k < net.levels(); ++k) {
    for (const Bsn& bsn : net.level_bsns(k)) {
      grids.push_back(fabric_grid(bsn.scatter_fabric()));
      grids.push_back(fabric_grid(bsn.quasisort_fabric()));
    }
  }
  return grids;
}

std::vector<std::vector<SwitchSetting>> net_grids(const FeedbackBrsmn& net) {
  return {fabric_grid(net.fabric())};
}

MulticastAssignment decoy_assignment(std::size_t n) {
  MulticastAssignment a(n);
  for (std::size_t i = 0; i < n; ++i) a.connect(i, n - 1 - i);
  return a;
}

// --- the exhaustive patch-vs-cold differential ----------------------------

/// One registered membership delta.
struct Delta {
  bool join = false;
  std::size_t src = 0;
  std::size_t dst = 0;
};

/// Every single-connection delta reachable from `base`: one leave per
/// existing connection, one join per (input, unclaimed output) pair.
std::vector<Delta> every_delta(const MulticastAssignment& base) {
  std::vector<Delta> deltas;
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (const std::size_t d : base.destinations(i)) {
      deltas.push_back({false, i, d});
    }
  }
  for (std::size_t d = 0; d < base.size(); ++d) {
    if (base.output_claimed(d)) continue;
    for (std::size_t i = 0; i < base.size(); ++i) {
      deltas.push_back({true, i, d});
    }
  }
  return deltas;
}

/// Patch `base_plan` (compiled for `base`) to every single delta of
/// `base` and require bit-identity with a cold compile of the mutated
/// assignment: results, plans, physical fabric grids, and replays of
/// the patched plan under both engines. Accumulates the levels adopted
/// verbatim into `total_reused`, so callers can assert patching
/// actually reuses.
template <typename Net>
void check_every_delta(std::size_t n, const MulticastAssignment& base,
                       std::size_t& total_reused) {
  Net net_cold(n);
  Net net_patch(n);
  RouteOptions copts;
  copts.explain = true;
  RoutePlan base_plan;
  planner::compile_route(net_patch, base, copts, base_plan);

  for (const Delta& delta : every_delta(base)) {
    SCOPED_TRACE(std::string(delta.join ? "join " : "leave ") +
                 std::to_string(delta.src) + " -> " +
                 std::to_string(delta.dst));
    MulticastAssignment after = base;
    if (delta.join) {
      after.connect(delta.src, delta.dst);
    } else {
      after.disconnect(delta.src, delta.dst);
    }

    RoutePlan cold_plan;
    const RouteResult cold =
        planner::compile_route(net_cold, after, copts, cold_plan);
    const auto cold_grids = net_grids(net_cold);

    RoutePlan patched_plan;
    const planner::PatchOutcome outcome = planner::patch_route(
        net_patch, after, base_plan, copts, patched_plan, {});
    ASSERT_TRUE(outcome.patched);
    EXPECT_EQ(outcome.levels_reused + outcome.levels_recompiled,
              cold_plan.levels.size());
    total_reused += outcome.levels_reused;

    expect_results_eq(cold, outcome.result);
    expect_plans_eq(patched_plan, cold_plan);
    // The patch driver installed its settings into net_patch's fabrics;
    // reused levels must leave the same physical grids a cold compile
    // does, not stale decoys.
    EXPECT_EQ(net_grids(net_patch), cold_grids);

    // The patched plan must replay exactly like the cold plan, on a
    // scrambled fabric, under either engine.
    for (const RouteEngine engine :
         {RouteEngine::Scalar, RouteEngine::Packed}) {
      net_cold.route(decoy_assignment(n));
      RouteOptions ropts;
      ropts.explain = true;
      ropts.engine = engine;
      const RouteResult replay = net_cold.route_replay(patched_plan, ropts);
      expect_results_eq(cold, replay);
      EXPECT_EQ(net_grids(net_cold), cold_grids);
    }
  }
}

class GroupPatchDifferential : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Denser bases at large n keep the exhaustive join enumeration
  /// (inputs x unclaimed outputs) tractable without sampling it.
  MulticastAssignment seeded_base(std::size_t n, std::uint64_t salt) {
    Rng rng(test_seed(9100 + salt + n));
    return random_multicast(n, n <= 16 ? 0.5 : 0.8, rng);
  }
};

TEST_P(GroupPatchDifferential, EverySingleDeltaUnrolled) {
  const std::size_t n = GetParam();
  std::size_t reused = 0;
  check_every_delta<Brsmn>(n, seeded_base(n, 0), reused);
  // A broadcast-heavy base: joins/leaves on high-fanout trees are the
  // workload patching exists for, and every output is claimed so this
  // base exercises pure leave churn.
  check_every_delta<Brsmn>(n, broadcast_assignment(n, 4), reused);
  if (n >= 32) {
    EXPECT_GT(reused, 0u);
  }
}

TEST_P(GroupPatchDifferential, EverySingleDeltaFeedback) {
  const std::size_t n = GetParam();
  std::size_t reused = 0;
  check_every_delta<FeedbackBrsmn>(n, seeded_base(n, 7), reused);
  check_every_delta<FeedbackBrsmn>(n, broadcast_assignment(n, 4), reused);
  if (n >= 32) {
    EXPECT_GT(reused, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GroupPatchDifferential,
                         ::testing::Values(4, 8, 16, 32, 64),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

TEST(GroupPatchEdge, SmallestNetworkHasNoSwitchLevels) {
  // n = 2: the plan holds no BSN levels, so a patch recompiles nothing
  // and reuses nothing — it must still be exact.
  std::size_t reused = 0;
  check_every_delta<Brsmn>(2, MulticastAssignment(2), reused);
  check_every_delta<FeedbackBrsmn>(2, MulticastAssignment(2), reused);
  EXPECT_EQ(reused, 0u);
}

TEST(GroupPatchEdge, PaperExample) {
  std::size_t reused = 0;
  check_every_delta<Brsmn>(8, paper_example_assignment(), reused);
  check_every_delta<FeedbackBrsmn>(8, paper_example_assignment(), reused);
}

TEST(GroupPatchEdge, AbandonsPastDirtyFraction) {
  // Every membership delta perturbs the planes of at least one level
  // (the delivery changed, and the final level is not counted), so with
  // max_dirty_fraction = 0 every patch abandons at its first dirty
  // level — which need not be level 1: a delta preserving the coarse
  // half-splits leaves shallow levels clean.
  const std::size_t n = 16;
  Brsmn net(n);
  RoutePlan base_plan;
  const MulticastAssignment base = broadcast_assignment(n, 4);
  planner::compile_route(net, base, {}, base_plan);
  MulticastAssignment after = base;
  after.disconnect(1, 1);
  RoutePlan out;
  planner::PatchConfig config;
  config.max_dirty_fraction = 0.0;
  const planner::PatchOutcome outcome =
      planner::patch_route(net, after, base_plan, {}, out, config);
  EXPECT_FALSE(outcome.patched);
  EXPECT_GT(outcome.first_dirty_level, 0);
}

/// Patch from a base that shares no level with `target`: the empty
/// assignment enters every level all-ε, so any target that routes one
/// packet dirties every level. With max_dirty_fraction = 1.0 the walk
/// then recompiles everything, and must equal a cold compile exactly:
/// result, plan, explanation and the grids left in the fabric.
template <typename Net>
void check_all_dirty_patch(std::size_t n, const MulticastAssignment& target) {
  Net net_cold(n);
  Net net_patch(n);
  RouteOptions opts;
  opts.explain = true;
  RoutePlan base_plan;
  planner::compile_route(net_patch, MulticastAssignment(n), opts, base_plan);
  RoutePlan cold_plan;
  const RouteResult cold =
      planner::compile_route(net_cold, target, opts, cold_plan);
  RoutePlan patched_plan;
  planner::PatchConfig config;
  config.max_dirty_fraction = 1.0;
  const planner::PatchOutcome outcome = planner::patch_route(
      net_patch, target, base_plan, opts, patched_plan, config);
  ASSERT_TRUE(outcome.patched);
  EXPECT_EQ(outcome.levels_reused, 0u);
  EXPECT_EQ(outcome.levels_recompiled, cold_plan.levels.size());
  expect_results_eq(cold, outcome.result);
  expect_plans_eq(patched_plan, cold_plan);
  EXPECT_EQ(net_grids(net_patch), net_grids(net_cold));
}

TEST(GroupPatchEdge, AllDirtyPatchEqualsColdCompile) {
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Rng rng(test_seed(9300 + n));
    MulticastAssignment sparse = random_multicast(n, 0.5, rng);
    if (!sparse.output_claimed(0)) sparse.connect(0, 0);  // never empty
    for (const MulticastAssignment& target :
         {sparse, broadcast_assignment(n, 4), decoy_assignment(n)}) {
      check_all_dirty_patch<Brsmn>(n, target);
      check_all_dirty_patch<FeedbackBrsmn>(n, target);
    }
  }
}

TEST(GroupPatchEdge, ExplainPatchNeedsExplainBase) {
  const std::size_t n = 8;
  Brsmn net(n);
  RoutePlan base_plan;
  const MulticastAssignment base = broadcast_assignment(n, 2);
  planner::compile_route(net, base, {}, base_plan);  // no explanation
  MulticastAssignment after = base;
  after.disconnect(0, 2);
  RoutePlan out;
  RouteOptions opts;
  opts.explain = true;
  const planner::PatchOutcome outcome =
      planner::patch_route(net, after, base_plan, opts, out, {});
  EXPECT_FALSE(outcome.patched);
}

TEST(GroupPatchEdge, PatchUnderFaultInjectionIsRejected) {
  const std::size_t n = 8;
  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultInjector injector(fplan);
  Brsmn net(n);
  RoutePlan base_plan;
  planner::compile_route(net, broadcast_assignment(n, 2), {}, base_plan);
  RoutePlan out;
  RouteOptions opts;
  opts.faults = &injector;
  EXPECT_THROW(planner::patch_route(net, broadcast_assignment(n, 1),
                                    base_plan, opts, out, {}),
               ContractViolation);
}

// --- lifetime of shared levels --------------------------------------------

/// A patched plan shares the levels it adopts with its base, so it must
/// outlive that base. Compile a base into a cache, patch from it, then
/// invalidate the base's entry and drop every other reference to it: the
/// patch must still equal a cold compile of its assignment — checkpoints,
/// delivery, stats, explanation — and replay like one, grids included.
template <typename Net>
void check_patch_outlives_base(std::size_t n) {
  const MulticastAssignment base = broadcast_assignment(n, 4);
  MulticastAssignment after = base;
  after.disconnect((n - 1) % 4, n - 1);
  Net net_cold(n);
  Net net_patch(n);
  RouteOptions opts;
  opts.explain = true;

  PlanCache cache;
  auto compiled = std::make_shared<RoutePlan>();
  planner::compile_route(net_patch, base, opts, *compiled);
  const fault::ImplKind impl = compiled->impl;
  cache.insert(base, impl, std::move(compiled));

  RoutePlan patched;
  std::weak_ptr<const RoutePlan> base_alive;
  {
    const PlanCache::PlanPtr base_plan = cache.lookup(base, impl, true);
    ASSERT_NE(base_plan, nullptr);
    base_alive = base_plan;
    const planner::PatchOutcome outcome =
        planner::patch_route(net_patch, after, *base_plan, opts, patched, {});
    ASSERT_TRUE(outcome.patched);
    ASSERT_GT(outcome.levels_reused, 0u);
    cache.invalidate(base, impl);
  }
  ASSERT_TRUE(base_alive.expired());
  // The patch is now the only owner of every level, adopted ones included.
  for (const auto& level : patched.levels) EXPECT_EQ(level.use_count(), 1);

  RoutePlan cold_plan;
  const RouteResult cold =
      planner::compile_route(net_cold, after, opts, cold_plan);
  const auto cold_grids = net_grids(net_cold);
  expect_plans_eq(patched, cold_plan);
  for (const RouteEngine engine :
       {RouteEngine::Scalar, RouteEngine::Packed}) {
    net_patch.route(decoy_assignment(n));
    RouteOptions ropts;
    ropts.explain = true;
    ropts.engine = engine;
    expect_results_eq(cold, net_patch.route_replay(patched, ropts));
    EXPECT_EQ(net_grids(net_patch), cold_grids);
  }
}

TEST(GroupPatchLifetime, PatchedPlanOutlivesItsBase) {
  for (const std::size_t n : {16u, 64u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    check_patch_outlives_base<Brsmn>(n);
    check_patch_outlives_base<FeedbackBrsmn>(n);
  }
}

// --- GroupManager registry semantics --------------------------------------

TEST(GroupManagerRegistry, JoinLeaveSnapshotVersioning) {
  GroupManager groups(16);
  EXPECT_FALSE(groups.contains(3));
  EXPECT_EQ(groups.join(3, 1, 5), 1u);
  EXPECT_EQ(groups.join(3, 1, 6), 2u);
  EXPECT_EQ(groups.join(3, 2, 7), 3u);
  EXPECT_TRUE(groups.contains(3));
  EXPECT_EQ(groups.group_count(), 1u);

  api::GroupSnapshot snap = groups.snapshot(3);
  EXPECT_EQ(snap.version, 3u);
  EXPECT_EQ(snap.assignment.destinations(1),
            (std::vector<std::size_t>{5, 6}));
  EXPECT_EQ(snap.assignment.destinations(2), (std::vector<std::size_t>{7}));

  EXPECT_EQ(groups.leave(3, 1, 5), 4u);
  snap = groups.snapshot(3);
  EXPECT_EQ(snap.assignment.destinations(1), (std::vector<std::size_t>{6}));
  EXPECT_FALSE(snap.assignment.output_claimed(5));

  EXPECT_EQ(groups.joins(), 3u);
  EXPECT_EQ(groups.leaves(), 1u);

  EXPECT_TRUE(groups.erase(3));
  EXPECT_FALSE(groups.erase(3));
  EXPECT_FALSE(groups.contains(3));
  EXPECT_EQ(groups.group_count(), 0u);
}

TEST(GroupManagerRegistry, RejectsConflictsAndUnknownGroups) {
  GroupManager groups(8);
  groups.join(1, 0, 4);
  // Disjointness within a group is enforced; a failed first join must
  // not leave a phantom group behind.
  EXPECT_THROW(groups.join(1, 2, 4), ContractViolation);
  EXPECT_THROW(groups.join(9, 8, 0), ContractViolation);
  EXPECT_FALSE(groups.contains(9));
  EXPECT_THROW(groups.leave(1, 0, 5), ContractViolation);
  EXPECT_THROW(groups.leave(2, 0, 4), ContractViolation);
  EXPECT_THROW(groups.snapshot(2), ContractViolation);
  // The same output in two *different* groups is fine.
  EXPECT_EQ(groups.join(2, 3, 4), 1u);
}

TEST(GroupManagerRouting, ColdThenReplayThenPatch) {
  const std::size_t n = 64;
  PlanCache cache;
  GroupManager groups(n);
  Brsmn net(n);
  RouteOptions opts;
  opts.engine = RouteEngine::Packed;
  opts.plan_cache = &cache;

  const GroupId id = 42;
  for (std::size_t out = 0; out < n; ++out) groups.join(id, out % 8, out);

  auto r1 = groups.route(id, net, opts);
  EXPECT_EQ(r1.mode, GroupRouteMode::Compiled);
  EXPECT_EQ(r1.result.delivered,
            expected_delivery(groups.snapshot(id).assignment));

  auto r2 = groups.route(id, net, opts);
  EXPECT_EQ(r2.mode, GroupRouteMode::Replayed);
  expect_results_eq(r1.result, r2.result);

  // One leave + one join, then the route must patch, reusing the deep
  // levels the delta cannot have touched.
  groups.leave(id, 5, 13);
  groups.join(id, 0, 13);
  auto r3 = groups.route(id, net, opts);
  EXPECT_EQ(r3.mode, GroupRouteMode::Patched);
  EXPECT_GT(r3.levels_reused, 0u);
  EXPECT_EQ(r3.result.delivered,
            expected_delivery(groups.snapshot(id).assignment));

  // The patched plan now fills the group's slot for the new assignment.
  auto r4 = groups.route(id, net, opts);
  EXPECT_EQ(r4.mode, GroupRouteMode::Replayed);
  expect_results_eq(r3.result, r4.result);

  EXPECT_EQ(groups.plans_compiled(), 1u);
  EXPECT_EQ(groups.plans_patched(), 1u);
  EXPECT_EQ(groups.plans_replayed(), 2u);
  EXPECT_EQ(groups.routes(), 4u);

  // Feedback plans have a slot of their own and patch independently.
  FeedbackBrsmn fb(n);
  EXPECT_EQ(groups.route(id, fb, opts).mode, GroupRouteMode::Compiled);
  EXPECT_EQ(groups.route(id, fb, opts).mode, GroupRouteMode::Replayed);
  groups.leave(id, 0, 13);
  EXPECT_EQ(groups.route(id, fb, opts).mode, GroupRouteMode::Patched);
  // ... and the unrolled side patches from *its* previous base.
  EXPECT_EQ(groups.route(id, net, opts).mode, GroupRouteMode::Patched);
}

TEST(GroupManagerRouting, ExplainIsServedOnEveryMode) {
  const std::size_t n = 16;
  PlanCache cache;
  GroupManager groups(n);
  Brsmn net(n);
  RouteOptions opts;
  opts.plan_cache = &cache;
  opts.explain = true;

  const GroupId id = 1;
  for (std::size_t out = 0; out < n; ++out) groups.join(id, out % 4, out);
  auto r1 = groups.route(id, net, opts);
  EXPECT_EQ(r1.mode, GroupRouteMode::Compiled);
  ASSERT_TRUE(r1.result.explanation.has_value());
  auto r2 = groups.route(id, net, opts);
  EXPECT_EQ(r2.mode, GroupRouteMode::Replayed);
  ASSERT_TRUE(r2.result.explanation.has_value());
  groups.leave(id, 1, 5);
  auto r3 = groups.route(id, net, opts);
  EXPECT_EQ(r3.mode, GroupRouteMode::Patched);
  ASSERT_TRUE(r3.result.explanation.has_value());

  // A cold route of the same assignment must agree with the patched
  // explanation exactly.
  Brsmn fresh(n);
  RouteOptions cold_opts;
  cold_opts.explain = true;
  const RouteResult cold =
      fresh.route(groups.snapshot(id).assignment, cold_opts);
  EXPECT_EQ(*r3.result.explanation, *cold.explanation);
}

TEST(GroupManagerRouting, AbandonedPatchCompilesCold) {
  const std::size_t n = 16;
  PlanCache cache;
  GroupManagerConfig config;
  config.max_dirty_fraction = 0.0;  // abandon on any dirty level
  GroupManager groups(n, config);
  Brsmn net(n);
  RouteOptions opts;
  opts.plan_cache = &cache;

  const GroupId id = 5;
  for (std::size_t out = 0; out < n; ++out) groups.join(id, out % 4, out);
  EXPECT_EQ(groups.route(id, net, opts).mode, GroupRouteMode::Compiled);
  groups.leave(id, 2, 6);
  EXPECT_EQ(groups.route(id, net, opts).mode, GroupRouteMode::Compiled);
  EXPECT_EQ(groups.patches_abandoned(), 1u);
  EXPECT_EQ(groups.plans_patched(), 0u);
}

TEST(GroupManagerRouting, ArmedInjectorRoutesColdWithoutCaching) {
  const std::size_t n = 16;
  PlanCache cache;
  GroupManager groups(n);
  Brsmn net(n);
  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultInjector injector(fplan);  // armed, no faults scheduled
  RouteOptions opts;
  opts.plan_cache = &cache;
  opts.faults = &injector;

  groups.join(7, 0, 3);
  auto r = groups.route(7, net, opts);
  EXPECT_EQ(r.mode, GroupRouteMode::Uncached);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(GroupManagerRouting, UncachedWithoutPlanCache) {
  GroupManager groups(8);
  Brsmn net(8);
  groups.join(0, 1, 2);
  auto r = groups.route(0, net, {});
  EXPECT_EQ(r.mode, GroupRouteMode::Uncached);
  EXPECT_EQ(r.result.delivered[2], std::optional<std::size_t>(1));
  EXPECT_THROW(groups.route(99, net, {}), ContractViolation);
}

TEST(GroupManagerRouting, MetricsFamiliesAreRecorded) {
  const std::size_t n = 16;
  obs::MetricRegistry registry;
  PlanCache cache;
  GroupManager groups(n);
  groups.attach_metrics(registry);
  Brsmn net(n);
  RouteOptions opts;
  opts.plan_cache = &cache;
  opts.metrics = &registry;

  for (std::size_t out = 0; out < n; ++out) groups.join(11, out % 4, out);
  groups.route(11, net, opts);
  groups.route(11, net, opts);
  groups.leave(11, 3, 7);
  groups.route(11, net, opts);

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("group.joins").value(), 16u);
    EXPECT_EQ(registry.counter("group.leaves").value(), 1u);
    EXPECT_EQ(registry.counter("group.routes").value(), 3u);
    EXPECT_EQ(registry.gauge("group.live").value(), 1.0);
    EXPECT_EQ(registry.counter("plan_patch.compiled").value(), 1u);
    EXPECT_EQ(registry.counter("plan_patch.replayed").value(), 1u);
    EXPECT_EQ(registry.counter("plan_patch.patched").value(), 1u);
    EXPECT_GT(registry.counter("plan_patch.levels_reused").value(), 0u);
    // The patch phase records its own wall-clock histogram.
    EXPECT_EQ(registry.histogram("route.phase.patch_ns").count(), 1u);
  }
}

// --- multi-threaded churn soak (TSan target) ------------------------------

/// Four threads churn and route their own groups through one group
/// manager, each against a shadow reference map; every delivery must
/// match the shadow, during the churn and after it. A join draws its
/// source from inputs [0, sources). Returns the plans every route
/// reported, as weak references.
std::vector<std::weak_ptr<const RoutePlan>> run_churn_soak(
    PlanCache& cache, GroupManager& groups, std::size_t sources) {
  const std::size_t n = groups.network_size();
  const unsigned kThreads = 4;
  const GroupId kGroupsPerThread = 8;
  const int kOpsPerThread = 240;

  // Thread t owns ids [t*K, (t+1)*K): registry mutation per group is
  // single-threaded (matching the shadow), while the shard mutexes that
  // guard the plan slots are contended across threads.
  using Shadow = std::map<GroupId, std::map<std::size_t, std::size_t>>;
  std::vector<Shadow> shadows(kThreads);
  std::vector<std::vector<std::weak_ptr<const RoutePlan>>> plans(kThreads);

  auto shadow_assignment = [n](const std::map<std::size_t, std::size_t>&
                                   members) {
    MulticastAssignment a(n);
    for (const auto& [dst, src] : members) a.connect(src, dst);
    return a;
  };

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(test_seed(9900 + t));
      Brsmn engine(n);
      RouteOptions opts;
      opts.engine = RouteEngine::Packed;
      opts.plan_cache = &cache;
      Shadow& shadow = shadows[t];
      for (int op = 0; op < kOpsPerThread; ++op) {
        const GroupId id =
            t * kGroupsPerThread + rng.uniform(0, kGroupsPerThread - 1);
        auto& members = shadow[id];
        const bool want_join = members.empty() || rng.chance(0.6);
        if (want_join && members.size() < n) {
          std::size_t dst = rng.uniform(0, n - 1);
          while (members.count(dst) != 0) dst = (dst + 1) % n;
          const std::size_t src = rng.uniform(0, sources - 1);
          groups.join(id, src, dst);
          members[dst] = src;
        } else if (!members.empty()) {
          auto it = members.begin();
          std::advance(it, static_cast<long>(
                               rng.uniform(0, members.size() - 1)));
          groups.leave(id, it->second, it->first);
          members.erase(it);
        }
        if (op % 4 == 3) {
          // The delivered vector must match this thread's shadow — a
          // stale plan served after a patch would mis-deliver here.
          const MulticastAssignment expected_a = shadow_assignment(members);
          const auto report = groups.route(id, engine, opts);
          ASSERT_EQ(report.result.delivered, expected_delivery(expected_a));
          plans[t].push_back(report.plan);
        }
        if (op % 16 == 15) {
          const api::GroupSnapshot snap = groups.snapshot(id);
          const MulticastAssignment expected_a = shadow_assignment(members);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(snap.assignment.destinations(i),
                      expected_a.destinations(i));
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  // Final audit: every group equals its shadow, and a fresh route of
  // every group (served from whatever its slot now holds) delivers
  // exactly the shadow's expectation.
  Brsmn engine(n);
  RouteOptions opts;
  opts.engine = RouteEngine::Packed;
  opts.plan_cache = &cache;
  for (unsigned t = 0; t < kThreads; ++t) {
    for (const auto& [id, members] : shadows[t]) {
      const MulticastAssignment expected_a = shadow_assignment(members);
      const api::GroupSnapshot snap = groups.snapshot(id);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(snap.assignment.destinations(i),
                  expected_a.destinations(i));
      }
      const auto report = groups.route(id, engine, opts);
      EXPECT_EQ(report.result.delivered, expected_delivery(expected_a));
      plans[t].push_back(report.plan);
    }
  }
  EXPECT_EQ(groups.joins(), groups.leaves() + [&] {
    std::size_t live = 0;
    for (const auto& shadow : shadows) {
      for (const auto& [id, members] : shadow) live += members.size();
    }
    return live;
  }());
  std::vector<std::weak_ptr<const RoutePlan>> all;
  for (auto& p : plans) all.insert(all.end(), p.begin(), p.end());
  return all;
}

TEST(GroupChurnSoak, ConcurrentChurnMatchesShadowAndNeverServesStale) {
  PlanCache cache(api::PlanCacheConfig{1024, 8, false});
  GroupManagerConfig config;
  config.shards = 4;  // ids from different threads share shards
  GroupManager groups(32, config);
  run_churn_soak(cache, groups, 32);
}

TEST(GroupChurnSoak, SlotReplacementSharesLevelsAcrossThreads) {
  // Each route replaces its group's slot, so every superseded plan is
  // freed, on whichever thread replaced it, while the patched plans made
  // from it still share its levels. Two sources make high-fanout trees,
  // whose deltas leave the shallow levels clean, and patches never
  // abandon here, so most patches share levels with their base. Every
  // delivery must match, and the shared cache is never touched.
  PlanCache cache(api::PlanCacheConfig{16, 4, false});
  GroupManagerConfig config;
  config.shards = 4;
  config.max_dirty_fraction = 1.0;
  GroupManager groups(32, config);
  obs::MetricRegistry registry;
  groups.attach_metrics(registry);
  const auto plans = run_churn_soak(cache, groups, 2);

  // At most one live plan per group: every other plan a route produced
  // was freed when its successor took the slot.
  std::set<const RoutePlan*> live;
  for (const auto& weak : plans) {
    if (const auto plan = weak.lock()) live.insert(plan.get());
  }
  EXPECT_LE(live.size(), groups.group_count());
  EXPECT_GT(groups.plans_patched() + groups.plans_compiled(),
            groups.group_count());
  EXPECT_GT(groups.plans_patched(), 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_GT(registry.counter("plan_patch.levels_reused").value(), 0u);
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

// --- fault injection over patched-plan replays ----------------------------

TEST(GroupPatchUnderFault, StuckSwitchSweepDetectsOrMasksNeverMisdelivers) {
  // Build a patched plan through the group manager, then replay it with
  // every single stuck-switch fault armed: each replay must either be
  // masked (delivered exactly the expected vector) or detected
  // (FaultDetected) — a patched plan never launders a fault into a
  // plausible-but-wrong delivery.
  const std::size_t n = 16;
  const int m = 4;
  PlanCache cache;
  GroupManager groups(n);
  Brsmn net(n);
  RouteOptions opts;
  opts.engine = RouteEngine::Packed;
  opts.plan_cache = &cache;

  const GroupId id = 3;
  for (std::size_t out = 0; out < n; ++out) groups.join(id, out % 4, out);
  ASSERT_EQ(groups.route(id, net, opts).mode, GroupRouteMode::Compiled);
  groups.leave(id, 3, 3);
  groups.join(id, 0, 3);
  const auto patched = groups.route(id, net, opts);
  ASSERT_EQ(patched.mode, GroupRouteMode::Patched);

  const api::GroupSnapshot snap = groups.snapshot(id);
  const auto plan = patched.plan;
  ASSERT_NE(plan, nullptr);
  const auto expected = expected_delivery(snap.assignment);

  std::size_t masked = 0, detected = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          fault::FaultPlan fplan;
          fplan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::StuckSetting;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          f.stuck = SwitchSetting::Cross;
          fplan.faults.push_back(f);
          fault::FaultInjector injector(fplan);

          std::optional<std::vector<std::optional<std::size_t>>> scalar;
          std::optional<std::vector<std::optional<std::size_t>>> packed;
          for (const RouteEngine engine :
               {RouteEngine::Scalar, RouteEngine::Packed}) {
            RouteOptions ropts;
            ropts.engine = engine;
            ropts.faults = &injector;
            auto& out =
                engine == RouteEngine::Scalar ? scalar : packed;
            try {
              out = net.route_replay(*plan, ropts).delivered;
            } catch (const fault::FaultDetected&) {
              out = std::nullopt;
            }
          }
          ASSERT_EQ(scalar.has_value(), packed.has_value());
          if (scalar.has_value()) {
            ++masked;
            EXPECT_EQ(*scalar, expected);
            EXPECT_EQ(*scalar, *packed);
          } else {
            ++detected;
          }
        }
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
}

TEST(GroupPatchUnderFault, DeadLinkSweepDetectsOrMasks) {
  const std::size_t n = 16;
  const int m = 4;
  PlanCache cache;
  GroupManager groups(n);
  Brsmn net(n);
  RouteOptions opts;
  opts.engine = RouteEngine::Packed;
  opts.plan_cache = &cache;

  const GroupId id = 8;
  for (std::size_t out = 0; out < n; ++out) groups.join(id, out % 4, out);
  ASSERT_EQ(groups.route(id, net, opts).mode, GroupRouteMode::Compiled);
  groups.leave(id, 1, 5);
  const auto patched = groups.route(id, net, opts);
  ASSERT_EQ(patched.mode, GroupRouteMode::Patched);

  const api::GroupSnapshot snap = groups.snapshot(id);
  const auto plan = patched.plan;
  ASSERT_NE(plan, nullptr);
  const auto expected = expected_delivery(snap.assignment);

  std::size_t masked = 0, detected = 0;
  for (int level = 1; level <= m; ++level) {
    for (std::size_t line = 0; line < n; ++line) {
      SCOPED_TRACE("level " + std::to_string(level) + " line " +
                   std::to_string(line));
      fault::FaultPlan fplan;
      fplan.n = n;
      fault::FaultSpec f;
      f.kind = fault::FaultKind::DeadLink;
      f.level = level;
      f.index = line;
      fplan.faults.push_back(f);
      fault::FaultInjector injector(fplan);
      RouteOptions ropts;
      ropts.engine = RouteEngine::Packed;
      ropts.faults = &injector;
      try {
        const RouteResult r = net.route_replay(*plan, ropts);
        ++masked;  // the dead line carried nothing this route
        EXPECT_EQ(r.delivered, expected);
      } catch (const fault::FaultDetected&) {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
}

TEST(GroupManagerRouting, ReplayFaultInvalidatesAndRecompiles) {
  // A slot plan whose replay trips the self-check (fault armed for one
  // route) is dropped from the group's slot; with no injector armed on
  // the next route, the group recompiles cold instead of serving the bad
  // plan. The shared cache is never read or written by group routes.
  const std::size_t n = 16;
  PlanCache cache;
  GroupManager groups(n);
  Brsmn net(n);
  RouteOptions opts;
  opts.engine = RouteEngine::Packed;
  opts.plan_cache = &cache;

  for (std::size_t out = 0; out < n; ++out) groups.join(2, out % 4, out);
  const auto compiled = groups.route(2, net, opts);
  ASSERT_EQ(compiled.mode, GroupRouteMode::Compiled);

  // Arm stuck switches until one disagrees with the slot's settings (a
  // stuck setting that matches the plan is legitimately masked): the
  // replay must surface the detection (injector armed) and drop the slot.
  bool tripped = false;
  for (std::size_t sw = 0; sw < n / 2 && !tripped; ++sw) {
    fault::FaultPlan fplan;
    fplan.n = n;
    fault::FaultSpec f;
    f.kind = fault::FaultKind::StuckSetting;
    f.level = 1;
    f.pass = PassKind::Scatter;
    f.stage = 1;
    f.index = sw;
    f.stuck = SwitchSetting::Cross;
    fplan.faults.push_back(f);
    fault::FaultInjector injector(fplan);
    RouteOptions faulty = opts;
    faulty.faults = &injector;
    try {
      const auto masked = groups.route(2, net, faulty);
      // Masked replays serve the slot's plan and leave it in place.
      EXPECT_EQ(masked.mode, GroupRouteMode::Replayed);
      EXPECT_EQ(masked.plan, compiled.plan);
    } catch (const fault::FaultDetected&) {
      tripped = true;
    }
  }
  ASSERT_TRUE(tripped);

  // Clean again: the dropped slot forces a cold compile.
  const auto recompiled = groups.route(2, net, opts);
  EXPECT_EQ(recompiled.mode, GroupRouteMode::Compiled);
  EXPECT_NE(recompiled.plan, compiled.plan);
  EXPECT_EQ(groups.route(2, net, opts).mode, GroupRouteMode::Replayed);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  EXPECT_EQ(cache.invalidations(), 0u);
}

// --- front-end integration ------------------------------------------------

TEST(GroupFrontEnds, ClusterRoutesGroupsById) {
  const std::size_t n = 32;
  GroupManager groups(n);
  api::ClusterConfig config;
  config.shards = 2;
  config.workers_per_shard = 2;
  config.seed = test_seed(2027);
  api::Cluster cluster(n, config);
  const auto route_all = [&](const std::vector<GroupId>& ids) {
    std::vector<std::future<api::ClusterOutcome>> futures;
    for (const GroupId id : ids) {
      futures.push_back(cluster.submit_group(groups, id));
    }
    std::vector<RouteResult> results;
    for (auto& f : futures) {
      const api::ClusterOutcome out = f.get();
      EXPECT_EQ(out.request.outcome, api::RouteOutcome::Delivered);
      results.push_back(out.request.result.value_or(RouteResult{}));
    }
    return results;
  };

  // Each group's sole source is its own id, so the 24 assignments are
  // pairwise distinct; each group compiles into its own plan slot on the
  // first pass.
  std::vector<GroupId> ids;
  for (GroupId id = 0; id < 24; ++id) {
    ids.push_back(id);
    const std::size_t fan = 1 + id % 5;
    for (std::size_t c = 0; c < fan; ++c) {
      groups.join(id, id, (id * 5 + c * 3) % n);
    }
  }

  const std::vector<RouteResult> results = route_all(ids);
  ASSERT_EQ(results.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(results[i].delivered,
              expected_delivery(groups.snapshot(ids[i]).assignment));
  }
  EXPECT_EQ(groups.plans_compiled(), ids.size());

  // Second pass replays; churn a few groups and the third pass patches
  // them while the rest still replay.
  route_all(ids);
  EXPECT_EQ(groups.plans_replayed(), ids.size());
  // Churn groups with fanout >= 2 only, so no group is drained empty.
  for (const GroupId id : {1, 2, 3, 4, 6, 7}) {
    const auto snap = groups.snapshot(id);
    for (std::size_t i = 0; i < n; ++i) {
      if (!snap.assignment.destinations(i).empty()) {
        groups.leave(id, i, snap.assignment.destinations(i).front());
        break;
      }
    }
  }
  const std::vector<RouteResult> churned = route_all(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(churned[i].delivered,
              expected_delivery(groups.snapshot(ids[i]).assignment));
  }
  EXPECT_EQ(groups.plans_patched() + groups.plans_compiled(),
            ids.size() + 6u);
  // An unknown group fails its own future; the cluster serves on.
  EXPECT_THROW(cluster.submit_group(groups, 999).get(), ContractViolation);
  EXPECT_EQ(route_all({0}).size(), 1u);
  cluster.stop();
}

TEST(GroupFrontEnds, ResilientRouterWalksLadderForGroups) {
  const std::size_t n = 16;
  PlanCache cache;
  GroupManager groups(n);
  api::ResilientOptions options;
  options.plan_cache = &cache;
  api::ResilientRouter router(n, options);

  for (std::size_t out = 0; out < n; ++out) groups.join(4, out % 2, out);
  const api::RequestOutcome clean = router.route_group(4, groups);
  EXPECT_EQ(clean.outcome, api::RouteOutcome::Delivered);
  ASSERT_TRUE(clean.result.has_value());
  EXPECT_EQ(clean.result->delivered,
            expected_delivery(groups.snapshot(4).assignment));
  // Membership changed: the resilient path patches underneath.
  groups.leave(4, 1, 3);
  EXPECT_EQ(router.route_group(4, groups).outcome,
            api::RouteOutcome::Delivered);
  EXPECT_EQ(groups.plans_patched(), 1u);
}

TEST(GroupFrontEnds, ResilientRouterRecoversGroupRouteFromFaults) {
  // A permanent stuck switch scoped to the unrolled implementation:
  // the group route falls back to the feedback fabric and reports
  // DeliveredDegraded with the correct delivery.
  const std::size_t n = 16;
  GroupManager groups(n);
  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultSpec f;
  f.kind = fault::FaultKind::StuckSetting;
  f.level = 1;
  f.pass = PassKind::Scatter;
  f.stage = 1;
  f.index = 1;
  f.stuck = SwitchSetting::Cross;
  f.impl = fault::ImplKind::Unrolled;
  fplan.faults.push_back(f);
  fault::FaultInjector injector(fplan);
  api::ResilientOptions options;
  options.faults = &injector;
  api::ResilientRouter router(n, options);

  for (std::size_t out = 0; out < n; ++out) groups.join(1, 0, out);
  const api::RequestOutcome outcome = router.route_group(1, groups);
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_EQ(outcome.result->delivered,
            expected_delivery(groups.snapshot(1).assignment));
  if (outcome.outcome == api::RouteOutcome::DeliveredDegraded) {
    EXPECT_TRUE(outcome.path.feedback);
  }
}

TEST(GroupFrontEnds, QueuedSwitchServesGroupsBesideCellTraffic) {
  const std::size_t n = 16;
  PlanCache cache;
  GroupManager groups(n);
  traffic::QueuedMulticastSwitch::Config config;
  config.ports = n;
  config.plan_cache = &cache;
  config.groups = &groups;
  traffic::QueuedMulticastSwitch sw(config);

  for (std::size_t out = 0; out < n; ++out) groups.join(6, out % 4, out);

  // Interleave cell traffic with group control-plane routes; the cell
  // conservation invariant (checked inside step()) must be untouched
  // by group service, and the epoch clock must not advance.
  sw.offer(traffic::Offer{2, {1, 5, 9}});
  const auto cells = sw.step();
  EXPECT_EQ(cells.delivered_copies, 3u);

  const std::size_t epoch_before = sw.now();
  auto group_report = sw.route_group(6);
  EXPECT_FALSE(group_report.aborted);
  EXPECT_EQ(group_report.delivered_copies, n);
  EXPECT_EQ(sw.now(), epoch_before);
  EXPECT_EQ(sw.group_routes(), 1u);
  EXPECT_EQ(sw.offered_cells(), 1u);

  groups.leave(6, 2, 6);
  group_report = sw.route_group(6);
  EXPECT_EQ(group_report.delivered_copies, n - 1);
  EXPECT_GE(groups.plans_patched(), 1u);

  // Without a registry configured, route_group is a contract error.
  traffic::QueuedMulticastSwitch::Config bare;
  bare.ports = n;
  traffic::QueuedMulticastSwitch no_groups(bare);
  EXPECT_THROW(no_groups.route_group(6), ContractViolation);
}

}  // namespace
}  // namespace brsmn
