// Metrics-vs-model consistency: the numbers the observability layer
// reports must agree with the analytic gate-delay model and with the
// engines' own RoutingStats — and survive a JSON export/parse round
// trip. Property-tested across network sizes n in {4 .. 256}.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/route_plan.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/gate_model.hpp"

namespace brsmn {
namespace {

class ObsConsistencyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ObsConsistencyTest, BroadcastCountersMatchPerLevelBreakdown) {
  const std::size_t n = GetParam();
  Brsmn net(n);
  Rng rng(test_seed(n * 13 + 1));
  for (int trial = 0; trial < 8; ++trial) {
    const auto a = random_multicast(n, 0.8, rng);
    const auto result = net.route(a);
    const std::size_t per_level_sum =
        std::accumulate(result.broadcasts_per_level.begin(),
                        result.broadcasts_per_level.end(), std::size_t{0});
    EXPECT_EQ(per_level_sum, result.stats.broadcast_ops)
        << "n=" << n << " trial=" << trial;
  }
}

TEST_P(ObsConsistencyTest, GateDelayMatchesAnalyticModel) {
  // The simulator charges delay per phase as it routes; the model gives
  // the closed form. They must agree exactly, for every assignment —
  // routing time is data-independent (Section 7.2).
  const std::size_t n = GetParam();
  Brsmn net(n);
  FeedbackBrsmn fnet(n);
  Rng rng(test_seed(n * 17 + 3));
  for (int trial = 0; trial < 4; ++trial) {
    const auto a = random_multicast(n, 0.7, rng);
    EXPECT_EQ(net.route(a).stats.gate_delay, model::brsmn_routing_delay(n))
        << "n=" << n;
    EXPECT_EQ(fnet.route(a).stats.gate_delay,
              model::feedback_routing_delay(n))
        << "n=" << n;
  }
}

TEST_P(ObsConsistencyTest, RegistryMirrorsRoutingStats) {
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  RouteOptions options;
  options.metrics = &registry;

  Brsmn net(n);
  Rng rng(test_seed(n * 19 + 7));
  RoutingStats accumulated;
  constexpr int kRoutes = 6;
  for (int trial = 0; trial < kRoutes; ++trial) {
    accumulated += net.route(random_multicast(n, 0.75, rng), options).stats;
  }

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("route.routes").value(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_EQ(registry.counter("route.broadcast_ops").value(),
              accumulated.broadcast_ops);
    EXPECT_EQ(registry.counter("route.switch_traversals").value(),
              accumulated.switch_traversals);
    EXPECT_EQ(registry.counter("route.tree_fwd_ops").value(),
              accumulated.tree_fwd_ops);
    EXPECT_EQ(registry.counter("route.tree_bwd_ops").value(),
              accumulated.tree_bwd_ops);
    EXPECT_EQ(registry.counter("route.fabric_passes").value(),
              accumulated.fabric_passes);
    EXPECT_EQ(registry.counter("route.gate_delay").value(),
              accumulated.gate_delay);
    EXPECT_EQ(registry.counter("route.gate_delay").value(),
              kRoutes * model::brsmn_routing_delay(n));
    // One total-latency sample per route; per-phase timers fire at least
    // once per route (scatter/quasisort run per BSN level).
    EXPECT_EQ(registry.histogram("route.phase.total_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_GE(registry.histogram("route.phase.scatter_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_GE(registry.histogram("route.phase.quasisort_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
    EXPECT_GE(registry.histogram("route.phase.datapath_ns").count(),
              static_cast<std::uint64_t>(kRoutes));
  } else {
    // Disabled builds must ignore the registry entirely.
    EXPECT_TRUE(registry.snapshot().counters.empty());
  }
}

TEST_P(ObsConsistencyTest, ExportedJsonRoundTripsLosslessly) {
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  RouteOptions options;
  options.metrics = &registry;
  // Seed the registry regardless of build flavour so the round trip is
  // always exercised on non-trivial content.
  registry.counter("test.seed").add(n);
  registry.gauge("test.gauge").set(0.5 * static_cast<double>(n));

  Brsmn net(n);
  Rng rng(test_seed(n * 23 + 11));
  for (int trial = 0; trial < 3; ++trial) {
    net.route(random_multicast(n, 0.8, rng), options);
  }

  const obs::RegistrySnapshot snap = registry.snapshot();
  const obs::JsonValue doc = obs::parse_json(obs::to_json(registry));

  const obs::JsonObject& counters = doc.at("counters").as_object();
  ASSERT_EQ(counters.size(), snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(doc.at("counters").at(name).as_number(),
              static_cast<double>(value))
        << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_DOUBLE_EQ(doc.at("gauges").at(name).as_number(), value) << name;
  }
  const obs::JsonObject& histograms = doc.at("histograms").as_object();
  ASSERT_EQ(histograms.size(), snap.histograms.size());
  for (const auto& [name, h] : snap.histograms) {
    const obs::JsonValue& j = doc.at("histograms").at(name);
    EXPECT_EQ(j.at("count").as_number(), static_cast<double>(h.count))
        << name;
    EXPECT_DOUBLE_EQ(j.at("sum").as_number(), h.sum) << name;
    EXPECT_DOUBLE_EQ(j.at("p50").as_number(), h.p50) << name;
    EXPECT_DOUBLE_EQ(j.at("p99").as_number(), h.p99) << name;
    ASSERT_EQ(j.at("buckets").as_array().size(), h.buckets.size()) << name;
  }
}

TEST_P(ObsConsistencyTest, FeedbackRegistryMatchesItsOwnStats) {
  const std::size_t n = GetParam();
  obs::MetricRegistry registry;
  RouteOptions options;
  options.metrics = &registry;

  FeedbackBrsmn net(n);
  Rng rng(test_seed(n * 29 + 5));
  const auto result = net.route(random_multicast(n, 0.8, rng), options);

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("route.routes").value(), 1u);
    EXPECT_EQ(registry.counter("route.gate_delay").value(),
              result.stats.gate_delay);
    EXPECT_EQ(registry.counter("route.fabric_passes").value(),
              result.stats.fabric_passes);
    EXPECT_EQ(registry.histogram("route.phase.total_ns").count(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ObsConsistencyTest,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u, 128u,
                                           256u));

TEST(ObsConsistency, NullMetricsLeavesResultsUnchanged) {
  // Instrumentation must be an observer: attaching a registry cannot
  // change a single routing decision or statistic.
  const std::size_t n = 64;
  Brsmn instrumented(n), plain(n);
  obs::MetricRegistry registry;
  RouteOptions with_metrics;
  with_metrics.metrics = &registry;
  Rng rng1(99), rng2(99);
  for (int trial = 0; trial < 5; ++trial) {
    const auto a = random_multicast(n, 0.8, rng1);
    const auto b = random_multicast(n, 0.8, rng2);
    const auto r1 = instrumented.route(a, with_metrics);
    const auto r2 = plain.route(b);
    EXPECT_EQ(r1.delivered, r2.delivered);
    EXPECT_EQ(r1.broadcasts_per_level, r2.broadcasts_per_level);
    EXPECT_EQ(r1.stats.gate_delay, r2.stats.gate_delay);
    EXPECT_EQ(r1.stats.switch_traversals, r2.stats.switch_traversals);
    EXPECT_EQ(r1.stats.broadcast_ops, r2.stats.broadcast_ops);
  }
}

// --- the packed drivers' observable surface ------------------------------
//
// A cold compile, an incremental patch and a plan replay on each
// implementation at n = 32, with a registry and a tracer attached: the
// histogram names with their sample counts, the counter values and the
// span nesting paths are pinned to literals, so a change to the packed
// driver frame cannot silently move, drop or duplicate an observation.

/// Every span's nesting path ("outer/inner"), with how often it opened.
std::map<std::string, int> span_paths(const obs::Tracer& tracer) {
  std::map<std::string, int> paths;
  std::vector<std::string> stack;
  for (const obs::CollectedEvent& e : tracer.collect()) {
    if (e.kind == obs::TraceEventKind::Begin) {
      stack.push_back(stack.empty() ? e.name : stack.back() + "/" + e.name);
      ++paths[stack.back()];
    } else if (e.kind == obs::TraceEventKind::End && !stack.empty()) {
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unbalanced spans";
  return paths;
}

struct PackedSurface {
  std::map<std::string, std::uint64_t> histogram_counts;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, int> spans;
};

/// Cold-compile broadcast_assignment(32, 4), patch it to a one-member
/// delta deep enough to leave the shallow levels clean, and replay the
/// patched plan; return what the registry and the tracer saw.
template <typename Net>
PackedSurface packed_surface() {
  constexpr std::size_t n = 32;
  obs::MetricRegistry registry;
  obs::Tracer tracer;
  RouteOptions options;
  options.metrics = &registry;
  options.tracer = &tracer;

  Net net(n);
  const MulticastAssignment base = broadcast_assignment(n, 4);
  MulticastAssignment after = base;
  after.disconnect(1, 1);
  after.connect(0, 1);
  RoutePlan base_plan;
  planner::compile_route(net, base, options, base_plan);
  RoutePlan patched;
  const planner::PatchOutcome outcome =
      planner::patch_route(net, after, base_plan, options, patched);
  EXPECT_TRUE(outcome.patched);
  EXPECT_GE(outcome.levels_reused, 1u);
  EXPECT_GE(outcome.levels_recompiled, 1u);
  const RouteResult replay = net.route_replay(patched, options);
  EXPECT_EQ(replay.delivered, outcome.result.delivered);

  PackedSurface surface;
  const obs::RegistrySnapshot snap = registry.snapshot();
  for (const auto& [name, h] : snap.histograms) {
    surface.histogram_counts[name] = h.count;
  }
  for (const auto& [name, value] : snap.counters) {
    surface.counters[name] = value;
  }
  surface.spans = span_paths(tracer);
  return surface;
}

/// The histograms (with sample counts) the three routes record: one
/// total per route, scatter / ε-divide / quasisort configuration per
/// compiled level (4 cold + 2 recompiled), datapath twice per routed
/// level plus the final level (9 cold + 5 patch + 8 replay), and one
/// patch and one replay.
const std::map<std::string, std::uint64_t> kSurfaceHistograms = {
    {"route.phase.datapath_ns", 22}, {"route.phase.eps_divide_ns", 6},
    {"route.phase.patch_ns", 1},     {"route.phase.quasisort_ns", 6},
    {"route.phase.replay_ns", 1},    {"route.phase.scatter_ns", 6},
    {"route.phase.total_ns", 3},
};

void expect_surface(const PackedSurface& got,
                    const std::map<std::string, std::uint64_t>& counters,
                    const std::vector<std::string>& spans) {
  if constexpr (!obs::kEnabled) {
    EXPECT_TRUE(got.histogram_counts.empty());
    EXPECT_TRUE(got.counters.empty());
    EXPECT_TRUE(got.spans.empty());
    return;
  }
  EXPECT_EQ(got.histogram_counts, kSurfaceHistograms);
  EXPECT_EQ(got.counters, counters);
  std::map<std::string, int> expected_spans;
  for (const std::string& path : spans) expected_spans[path] = 1;
  EXPECT_EQ(got.spans, expected_spans);
}

TEST(PackedDriverSurface, UnrolledColdPatchReplay) {
  // The patch reuses levels 1-2 (bare level spans) and recompiles 3-4;
  // the replay opens only its own span.
  expect_surface(
      packed_surface<Brsmn>(),
      {{"route.broadcast_ops", 84},
       {"route.fabric_passes", 0},
       {"route.gate_delay", 750},
       {"route.routes", 3},
       {"route.switch_traversals", 1392},
       {"route.tree_bwd_ops", 1017},
       {"route.tree_fwd_ops", 1017}},
      {
      "brsmn.route",
      "brsmn.route/level.1",
      "brsmn.route/level.1/bsn.scatter.config",
      "brsmn.route/level.1/bsn.scatter.datapath",
      "brsmn.route/level.1/bsn.eps_divide",
      "brsmn.route/level.1/bsn.quasisort.config",
      "brsmn.route/level.1/bsn.quasisort.datapath",
      "brsmn.route/level.2",
      "brsmn.route/level.2/bsn.scatter.config",
      "brsmn.route/level.2/bsn.scatter.datapath",
      "brsmn.route/level.2/bsn.eps_divide",
      "brsmn.route/level.2/bsn.quasisort.config",
      "brsmn.route/level.2/bsn.quasisort.datapath",
      "brsmn.route/level.3",
      "brsmn.route/level.3/bsn.scatter.config",
      "brsmn.route/level.3/bsn.scatter.datapath",
      "brsmn.route/level.3/bsn.eps_divide",
      "brsmn.route/level.3/bsn.quasisort.config",
      "brsmn.route/level.3/bsn.quasisort.datapath",
      "brsmn.route/level.4",
      "brsmn.route/level.4/bsn.scatter.config",
      "brsmn.route/level.4/bsn.scatter.datapath",
      "brsmn.route/level.4/bsn.eps_divide",
      "brsmn.route/level.4/bsn.quasisort.config",
      "brsmn.route/level.4/bsn.quasisort.datapath",
      "brsmn.route/level.final",
      "plan.patch",
      "plan.patch/level.1",
      "plan.patch/level.2",
      "plan.patch/level.3",
      "plan.patch/level.3/bsn.scatter.config",
      "plan.patch/level.3/bsn.scatter.datapath",
      "plan.patch/level.3/bsn.eps_divide",
      "plan.patch/level.3/bsn.quasisort.config",
      "plan.patch/level.3/bsn.quasisort.datapath",
      "plan.patch/level.4",
      "plan.patch/level.4/bsn.scatter.config",
      "plan.patch/level.4/bsn.scatter.datapath",
      "plan.patch/level.4/bsn.eps_divide",
      "plan.patch/level.4/bsn.quasisort.config",
      "plan.patch/level.4/bsn.quasisort.datapath",
      "plan.patch/level.final",
      "plan.replay",
      });
}

TEST(PackedDriverSurface, FeedbackColdPatchReplay) {
  // Same shape; the feedback ε-divide nests inside its quasisort config.
  expect_surface(
      packed_surface<FeedbackBrsmn>(),
      {{"route.broadcast_ops", 84},
       {"route.fabric_passes", 27},
       {"route.gate_delay", 822},
       {"route.routes", 3},
       {"route.switch_traversals", 1968},
       {"route.tree_bwd_ops", 1017},
       {"route.tree_fwd_ops", 1017}},
      {
      "feedback.route",
      "feedback.route/level.1",
      "feedback.route/level.1/fb.scatter.config",
      "feedback.route/level.1/fb.scatter.datapath",
      "feedback.route/level.1/fb.quasisort.config",
      "feedback.route/level.1/fb.quasisort.config/fb.eps_divide",
      "feedback.route/level.1/fb.quasisort.datapath",
      "feedback.route/level.2",
      "feedback.route/level.2/fb.scatter.config",
      "feedback.route/level.2/fb.scatter.datapath",
      "feedback.route/level.2/fb.quasisort.config",
      "feedback.route/level.2/fb.quasisort.config/fb.eps_divide",
      "feedback.route/level.2/fb.quasisort.datapath",
      "feedback.route/level.3",
      "feedback.route/level.3/fb.scatter.config",
      "feedback.route/level.3/fb.scatter.datapath",
      "feedback.route/level.3/fb.quasisort.config",
      "feedback.route/level.3/fb.quasisort.config/fb.eps_divide",
      "feedback.route/level.3/fb.quasisort.datapath",
      "feedback.route/level.4",
      "feedback.route/level.4/fb.scatter.config",
      "feedback.route/level.4/fb.scatter.datapath",
      "feedback.route/level.4/fb.quasisort.config",
      "feedback.route/level.4/fb.quasisort.config/fb.eps_divide",
      "feedback.route/level.4/fb.quasisort.datapath",
      "feedback.route/level.final",
      "plan.patch",
      "plan.patch/level.1",
      "plan.patch/level.2",
      "plan.patch/level.3",
      "plan.patch/level.3/fb.scatter.config",
      "plan.patch/level.3/fb.scatter.datapath",
      "plan.patch/level.3/fb.quasisort.config",
      "plan.patch/level.3/fb.quasisort.config/fb.eps_divide",
      "plan.patch/level.3/fb.quasisort.datapath",
      "plan.patch/level.4",
      "plan.patch/level.4/fb.scatter.config",
      "plan.patch/level.4/fb.scatter.datapath",
      "plan.patch/level.4/fb.quasisort.config",
      "plan.patch/level.4/fb.quasisort.config/fb.eps_divide",
      "plan.patch/level.4/fb.quasisort.datapath",
      "plan.patch/level.final",
      "plan.replay",
      });
}

}  // namespace
}  // namespace brsmn
