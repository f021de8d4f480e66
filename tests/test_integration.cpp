// Cross-module integration scenarios: the application patterns from the
// paper's introduction (video distribution, barrier synchronization,
// FFT-style butterflies) routed end-to-end through both implementations
// and checked against the oracle, and cell switching as
// examples/cell_switch does it (wire headers in, payloads out).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "api/header_codec.hpp"
#include "baselines/crossbar_multicast.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "sim/trace.hpp"

namespace brsmn {
namespace {

void check_all_engines(std::size_t n, const MulticastAssignment& a) {
  Brsmn unrolled(n);
  FeedbackBrsmn feedback(n);
  const baselines::CrossbarMulticast oracle(n);
  const auto want = oracle.route(a);
  ASSERT_EQ(unrolled.route(a).delivered, want);
  ASSERT_EQ(feedback.route(a).delivered, want);
}

TEST(Integration, VideoDistributionFewSourcesManyViewers) {
  // A handful of video sources streaming to disjoint viewer groups.
  const std::size_t n = 256;
  Rng rng(test_seed(1));
  MulticastAssignment a(n);
  const auto sources = rng.subset(n, 5);
  for (std::size_t out = 0; out < n; ++out) {
    if (rng.chance(0.85)) {
      a.connect(sources[out % sources.size()], out);
    }
  }
  check_all_engines(n, a);
}

TEST(Integration, BarrierSynchronizationRootBroadcast) {
  // Barrier release: one coordinator notifies every participant.
  for (std::size_t n : {16u, 128u, 1024u}) {
    MulticastAssignment a(n);
    for (std::size_t out = 0; out < n; ++out) a.connect(n / 2, out);
    check_all_engines(n, a);
  }
}

TEST(Integration, FftButterflyExchangePattern) {
  // Stage-k FFT butterflies: input i sends to i XOR 2^k — a (partial)
  // permutation workload, one per stage.
  const std::size_t n = 128;
  for (std::size_t k = 1; k < n; k <<= 1) {
    MulticastAssignment a(n);
    for (std::size_t i = 0; i < n; ++i) a.connect(i, i ^ k);
    check_all_engines(n, a);
  }
}

TEST(Integration, MatrixMultiplyRowBroadcasts) {
  // Row-broadcast in a sqrt(n) x sqrt(n) processor grid: processor (r, 0)
  // multicasts to its whole row.
  const std::size_t side = 16, n = side * side;
  MulticastAssignment a(n);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      a.connect(r * side, r * side + c);
    }
  }
  check_all_engines(n, a);
}

TEST(Integration, SkewedMulticastOneGiantOneTinyGroup) {
  const std::size_t n = 64;
  MulticastAssignment a(n);
  for (std::size_t out = 0; out < n - 1; ++out) a.connect(7, out);
  a.connect(8, n - 1);
  check_all_engines(n, a);
}

TEST(Integration, StressLargeRandom) {
  const std::size_t n = 1024;
  Brsmn net(n);
  const baselines::CrossbarMulticast oracle(n);
  Rng rng(test_seed(99));
  for (int trial = 0; trial < 3; ++trial) {
    const auto a = random_multicast(n, 0.95, rng);
    ASSERT_EQ(net.route(a).delivered, oracle.route(a));
  }
}

TEST(Integration, TreePropertiesOnMixedWorkload) {
  const std::size_t n = 64;
  Rng rng(test_seed(123));
  Brsmn net(n);
  for (int trial = 0; trial < 10; ++trial) {
    const auto a = random_multicast(n, 0.7, rng);
    const auto result = net.route(a, RouteOptions{.capture_levels = true});
    EXPECT_TRUE(trace::levels_disjoint(result));
    EXPECT_TRUE(trace::copies_monotone(result));
  }
}

TEST(Integration, RepeatedRoutingReusesFabrics) {
  // A Brsmn instance is reusable: route many assignments back to back and
  // verify no state leaks between them.
  const std::size_t n = 32;
  Brsmn net(n);
  const baselines::CrossbarMulticast oracle(n);
  Rng rng(test_seed(321));
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = random_multicast(n, rng.chance(0.5) ? 0.2 : 1.0, rng);
    ASSERT_EQ(net.route(a).delivered, oracle.route(a));
  }
}

TEST(Integration, PermutationModeAgreesWithMulticastEngine) {
  // A full permutation is a multicast assignment with singleton sets; the
  // BRSMN must route it exactly like any multicast.
  const std::size_t n = 64;
  Rng rng(test_seed(77));
  Brsmn net(n);
  const auto perm = rng.permutation(n);
  MulticastAssignment a(n);
  for (std::size_t i = 0; i < n; ++i) a.connect(i, perm[i]);
  const auto result = net.route(a);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(result.delivered[perm[i]].has_value());
    EXPECT_EQ(*result.delivered[perm[i]], i);
  }
}

TEST(Integration, SoakLargestLaptopScale) {
  // One dense assignment at n = 4096: the full pipeline at the largest
  // size the benches sweep, against the oracle.
  const std::size_t n = 4096;
  Brsmn net(n);
  const baselines::CrossbarMulticast oracle(n);
  Rng rng(test_seed(2029));
  const auto a = random_multicast(n, 0.9, rng);
  const auto result = net.route(a);
  ASSERT_EQ(result.delivered, oracle.route(a));
  EXPECT_EQ(result.stats.broadcast_ops,
            a.total_connections() - a.active_inputs());
}

TEST(Integration, GateDelayIndependentOfWorkloadShape) {
  // Self-routing is oblivious: every workload family at one size pays
  // the same routing time (the Table 2 claim, end to end).
  const std::size_t n = 256;
  Brsmn net(n);
  Rng rng(test_seed(31));
  const std::uint64_t d1 = net.route(full_broadcast(n)).stats.gate_delay;
  const std::uint64_t d2 =
      net.route(random_permutation(n, 1.0, rng)).stats.gate_delay;
  const std::uint64_t d3 =
      net.route(random_multicast(n, 0.3, rng)).stats.gate_delay;
  const std::uint64_t d4 =
      net.route(MulticastAssignment(n)).stats.gate_delay;
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d2, d3);
  EXPECT_EQ(d3, d4);
}

// --- cell switching -------------------------------------------------------
//
// One epoch of a cell switch, as examples/cell_switch runs it: each
// cell's destination set crosses the wire as a Table 1 header, the
// decoded sets form the epoch's assignment, the packed engine routes it
// on one fabric kept across epochs, and each delivered output receives a
// copy of its source's payload.

enum class Fabric { kUnrolled, kFeedback };

struct Delivery {
  std::size_t output = 0;
  std::size_t source = 0;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> payload_for(std::size_t source) {
  return {static_cast<std::uint8_t>(source), 0xAB,
          static_cast<std::uint8_t>(source * 7)};
}

class SwitchEngineTest : public ::testing::TestWithParam<Fabric> {
 protected:
  /// Route one epoch: dests[i] are input i's destinations (empty = idle
  /// input). Returns the deliveries in output order.
  std::vector<Delivery> route_epoch(
      std::size_t n, const std::vector<std::vector<std::size_t>>& dests) {
    std::vector<std::vector<std::size_t>> decoded(n);
    for (std::size_t in = 0; in < dests.size(); ++in) {
      if (dests[in].empty()) continue;
      decoded[in] = api::decode_header(api::encode_header(dests[in], n));
    }
    const MulticastAssignment a(n, std::move(decoded));
    RouteOptions options;
    options.engine = RouteEngine::Packed;
    RouteResult result;
    if (GetParam() == Fabric::kUnrolled) {
      if (!unrolled_) unrolled_ = std::make_unique<Brsmn>(n);
      result = unrolled_->route(a, options);
    } else {
      if (!feedback_) feedback_ = std::make_unique<FeedbackBrsmn>(n);
      result = feedback_->route(a, options);
    }
    std::vector<Delivery> deliveries;
    for (std::size_t out = 0; out < n; ++out) {
      if (!result.delivered[out]) continue;
      const std::size_t src = *result.delivered[out];
      deliveries.push_back(Delivery{out, src, payload_for(src)});
    }
    return deliveries;
  }

 private:
  std::unique_ptr<Brsmn> unrolled_;
  std::unique_ptr<FeedbackBrsmn> feedback_;
};

TEST_P(SwitchEngineTest, DeliversPayloadsToAllDestinations) {
  const auto deliveries = route_epoch(
      8, {{0, 1}, {}, {3, 4, 7}, {2}, {}, {}, {}, {5, 6}});
  ASSERT_EQ(deliveries.size(), 8u);
  const std::size_t want_source[] = {0, 0, 3, 2, 2, 7, 7, 2};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(deliveries[i].output, i);
    EXPECT_EQ(deliveries[i].source, want_source[i]);
    EXPECT_EQ(deliveries[i].payload, payload_for(want_source[i]));
  }
}

TEST_P(SwitchEngineTest, EpochsAreIndependent) {
  std::vector<std::vector<std::size_t>> dests(8);
  dests[1] = {0, 1, 2, 3};
  EXPECT_EQ(route_epoch(8, dests).size(), 4u);
  // The next epoch on the same fabric may reuse the same outputs freely.
  dests[1].clear();
  dests[5] = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto second = route_epoch(8, dests);
  EXPECT_EQ(second.size(), 8u);
  for (const auto& d : second) EXPECT_EQ(d.source, 5u);
}

TEST_P(SwitchEngineTest, RandomEpochsDeliverExactly) {
  const std::size_t n = 64;
  Rng rng(test_seed(7));
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto a = random_multicast(n, 0.7, rng);
    std::vector<std::vector<std::size_t>> dests(n);
    for (std::size_t i = 0; i < n; ++i) dests[i] = a.destinations(i);
    const auto deliveries = route_epoch(n, dests);
    EXPECT_EQ(deliveries.size(), a.total_connections());
    for (const auto& d : deliveries) {
      EXPECT_EQ(a.src_of()[d.output], d.source);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SwitchEngineTest,
                         ::testing::Values(Fabric::kUnrolled,
                                           Fabric::kFeedback));

}  // namespace
}  // namespace brsmn
