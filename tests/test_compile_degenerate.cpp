// Degenerate-input coverage for the packed compile path's quasisort and
// ε-division sweeps (core/packed_kernel.cpp), across every SIMD backend
// available on this host.
//
// The branch-free mask arithmetic and SoA tag censuses of the compile
// hot path replace per-line branches whose edge behaviour was previously
// explicit; these tests pin the cases where the census counts collapse
// or saturate:
//   - all-equal keys: every destination inside one minimal block, so
//     every quasisort decision bit agrees and one side of each census
//     split is empty;
//   - a single active line: n-1 empty lines, one tag stream threading
//     the whole fabric (census totals of 1);
//   - maximum fanout: one source broadcasting to all n outputs — every
//     level splits every line, the ε-division selects exactly half of a
//     full ε population at each level;
//   - non-power-of-two active counts: census block totals that never
//     align with the 2^j block structure the counts are stored under.
// Every case must be bit-identical to the scalar reference engine on
// both fabrics (outputs, stats, explanations, captured levels), must
// deliver exactly the assignment, and the full-broadcast case must
// survive a compiled-plan replay round trip.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "core/simd_backend.hpp"

namespace brsmn {
namespace {

std::vector<simd::Backend> backends() { return simd::available_backends(); }

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  expect_stats_eq(a.stats, b.stats);
  EXPECT_EQ(a.broadcasts_per_level, b.broadcasts_per_level);
  ASSERT_EQ(a.level_inputs.size(), b.level_inputs.size());
  for (std::size_t L = 0; L < a.level_inputs.size(); ++L) {
    EXPECT_EQ(a.level_inputs[L], b.level_inputs[L])
        << "level_inputs differ at level " << L;
  }
  ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
  if (a.explanation) {
    EXPECT_EQ(*a.explanation, *b.explanation);
  }
}

RouteOptions full_options(RouteEngine engine, simd::Backend backend) {
  RouteOptions options;
  options.capture_levels = true;
  options.explain = true;
  options.engine = engine;
  options.simd_backend = backend;
  return options;
}

/// Route `a` under the scalar reference and under the packed engine on
/// every available backend (both fabrics), requiring full bit-identity
/// and exact delivery of the assignment.
void check_degenerate(std::size_t n, const MulticastAssignment& a) {
  const auto expected = expected_delivery(a);
  Brsmn net(n);
  const RouteResult scalar =
      net.route(a, full_options(RouteEngine::Scalar, simd::Backend::Auto));
  EXPECT_EQ(scalar.delivered, expected);
  FeedbackBrsmn fb(n);
  const RouteResult fb_scalar =
      fb.route(a, full_options(RouteEngine::Scalar, simd::Backend::Auto));
  EXPECT_EQ(fb_scalar.delivered, expected);

  for (const simd::Backend b : backends()) {
    SCOPED_TRACE(std::string("backend ") + simd::to_string(b));
    const RouteResult packed =
        net.route(a, full_options(RouteEngine::Packed, b));
    expect_results_eq(scalar, packed);
    const RouteResult fb_packed =
        fb.route(a, full_options(RouteEngine::Packed, b));
    expect_results_eq(fb_scalar, fb_packed);
  }
}

TEST(CompileDegenerate, AllEqualKeysOneMinimalBlock) {
  // Every destination inside outputs [0, 4): the level-k sort keys agree
  // on every decision bit until the last two levels, so the quasisort
  // censuses are maximally lopsided (one empty side per split).
  for (const std::size_t n : {8u, 64u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    MulticastAssignment clustered(n);
    for (std::size_t i = 0; i < 4; ++i) clustered.connect(i, i);
    check_degenerate(n, clustered);

    // The same block fed from one source: equal keys *and* fanout.
    MulticastAssignment fan(n);
    for (std::size_t o = 0; o < 4; ++o) fan.connect(n - 1, o);
    check_degenerate(n, fan);
  }
}

TEST(CompileDegenerate, SingleActiveLine) {
  for (const std::size_t n : {8u, 64u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (const auto& [input, output] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 0}, {n - 1, 0}, {n / 2, n - 1}, {0, n - 1}}) {
      SCOPED_TRACE("input=" + std::to_string(input) +
                   " output=" + std::to_string(output));
      MulticastAssignment a(n);
      a.connect(input, output);
      check_degenerate(n, a);
    }
  }
}

TEST(CompileDegenerate, MaximumFanoutFullBroadcast) {
  for (const std::size_t n : {8u, 64u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // One source claims every output: every level splits every carried
    // copy and the ε-division runs at its saturation point.
    MulticastAssignment broadcast(n);
    for (std::size_t o = 0; o < n; ++o) broadcast.connect(0, o);
    check_degenerate(n, broadcast);

    // Two sources at n/2 fanout each — the widest split that still
    // leaves both census halves populated.
    MulticastAssignment halves(n);
    for (std::size_t o = 0; o < n / 2; ++o) halves.connect(0, o);
    for (std::size_t o = n / 2; o < n; ++o) halves.connect(n - 1, o);
    check_degenerate(n, halves);
  }
}

TEST(CompileDegenerate, NonPowerOfTwoActiveCounts) {
  // Active-input counts that never align with the census's 2^j block
  // structure, over randomized disjoint destination sets.
  Rng rng(test_seed(9700));
  for (const std::size_t n : {64u, 256u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (const std::size_t active : {3u, 5u, 7u, 13u, 37u}) {
      SCOPED_TRACE("active=" + std::to_string(active));
      MulticastAssignment a(n);
      std::vector<std::size_t> outputs(n);
      for (std::size_t o = 0; o < n; ++o) outputs[o] = o;
      // Fisher-Yates prefix: `active` distinct inputs, each claiming
      // 1-3 distinct outputs from the shuffled pool.
      std::vector<std::size_t> inputs(n);
      for (std::size_t i = 0; i < n; ++i) inputs[i] = i;
      for (std::size_t i = 0; i < active; ++i) {
        const auto j =
            i + static_cast<std::size_t>(
                    rng.uniform(0, static_cast<std::uint32_t>(n - i - 1)));
        std::swap(inputs[i], inputs[j]);
      }
      std::size_t next_output = 0;
      for (std::size_t o = 0; o < n; ++o) {
        const auto j =
            o + static_cast<std::size_t>(
                    rng.uniform(0, static_cast<std::uint32_t>(n - o - 1)));
        std::swap(outputs[o], outputs[j]);
      }
      for (std::size_t i = 0; i < active; ++i) {
        const std::size_t fanout =
            1 + static_cast<std::size_t>(rng.uniform(0, 2));
        for (std::size_t f = 0; f < fanout && next_output < n; ++f) {
          a.connect(inputs[i], outputs[next_output++]);
        }
      }
      check_degenerate(n, a);
    }
  }
}

TEST(CompileDegenerate, FullBroadcastPlanReplaysOnEveryBackend) {
  // The maximum-fanout plan round trip: compile under each backend,
  // replay under the same backend, and require the replay to deliver
  // identically to the cold route (the self-check validates every
  // datapath checkpoint against the plan along the way).
  const std::size_t n = 64;
  MulticastAssignment broadcast(n);
  for (std::size_t o = 0; o < n; ++o) broadcast.connect(0, o);
  const auto expected = expected_delivery(broadcast);
  for (const simd::Backend b : backends()) {
    SCOPED_TRACE(std::string("backend ") + simd::to_string(b));
    Brsmn net(n);
    RouteOptions options;
    options.engine = RouteEngine::Packed;
    options.simd_backend = b;
    RoutePlan plan;
    const RouteResult cold = packed_route(net, broadcast, options, &plan);
    EXPECT_EQ(cold.delivered, expected);
    const RouteResult replayed = net.route_replay(plan, options);
    EXPECT_EQ(replayed.delivered, expected);
  }
}

}  // namespace
}  // namespace brsmn
