// The sharded multi-fabric cluster: rendezvous placement properties,
// the bounded ingress queue's blocking/close semantics (including a
// concurrent conservation run for the TSan leg), the differential of
// cluster results against serial scalar routing across shard and worker
// counts, workers sharing one registry and one shard injector, and the
// control plane's quarantine -> reroute -> canary -> readmission arc
// driven deterministically through poll_health().
#include "api/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/placement.hpp"
#include "core/route_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {
namespace {

// ---------------------------------------------------------------- placement

TEST(Placement, OrderIsADeterministicPermutation) {
  for (std::uint64_t key : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
    const auto order = placement_order(key, 7);
    EXPECT_EQ(order, placement_order(key, 7)) << key;
    std::vector<std::size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(order[0], primary_shard(key, 7));
  }
}

TEST(Placement, SingleShardOwnsEverything) {
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(primary_shard(key, 1), 0u);
  }
}

TEST(Placement, LosingOneShardMovesOnlyItsKeys) {
  // The rendezvous property the cluster's rerouting depends on: a key
  // whose primary survives keeps its primary, and a key whose primary is
  // lost lands exactly on its precomputed secondary — dropping a shard
  // deletes one entry from each preference order and perturbs nothing.
  const std::size_t shards = 5;
  for (std::uint64_t key = 0; key < 512; ++key) {
    const auto order = placement_order(key, shards);
    for (std::size_t lost = 0; lost < shards; ++lost) {
      std::size_t fallback = order[0] == lost ? order[1] : order[0];
      // Re-derive the argmax over the surviving shards from raw scores.
      std::size_t best = lost == 0 ? 1 : 0;
      for (std::size_t s = 0; s < shards; ++s) {
        if (s == lost) continue;
        if (placement_score(key, s) > placement_score(key, best)) best = s;
      }
      EXPECT_EQ(fallback, best) << "key " << key << " lost " << lost;
    }
  }
}

TEST(Placement, SpreadsKeysRoughlyEvenly) {
  const std::size_t shards = 4;
  std::vector<std::size_t> owned(shards, 0);
  Rng rng(test_seed(41));
  for (std::size_t i = 0; i < 4000; ++i) {
    ++owned[primary_shard(rng.uniform(0, ~0ull), shards)];
  }
  for (std::size_t s = 0; s < shards; ++s) {
    EXPECT_GT(owned[s], 700u) << s;   // expectation 1000
    EXPECT_LT(owned[s], 1300u) << s;
  }
}

// ------------------------------------------------------------ bounded queue

TEST(BoundedQueue, FifoAndDepth) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    int item = i;
    EXPECT_TRUE(q.push(item));
  }
  EXPECT_EQ(q.depth(), 4u);
  int full = 99;
  EXPECT_FALSE(q.try_push(full));
  EXPECT_EQ(full, 99);  // intact on refusal
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.depth(), 0u);
}

TEST(BoundedQueue, CloseDrainsThenRefuses) {
  BoundedQueue<int> q(4);
  int item = 7;
  EXPECT_TRUE(q.push(item));
  q.close();
  q.close();  // idempotent
  EXPECT_TRUE(q.closed());
  int late = 8;
  EXPECT_FALSE(q.push(late));
  EXPECT_EQ(late, 8);  // a refused push never consumes the item
  EXPECT_FALSE(q.try_push(late));
  int out = -1;
  EXPECT_TRUE(q.pop(out));  // queued before close(): still handed out
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(BoundedQueue, CloseWakesBlockedPopper) {
  BoundedQueue<int> q(1);
  std::atomic<bool> popped{false};
  std::thread popper([&] {
    int out = 0;
    EXPECT_FALSE(q.pop(out));  // empty + closed
    popped.store(true);
  });
  q.close();
  popper.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueue, ConcurrentConservation) {
  // 4 producers x 3 consumers through a tight queue: every produced value
  // is consumed exactly once and blocking push provides the backpressure.
  // This is the TSan workhorse for the queue.
  const int kProducers = 4;
  const int kConsumers = 3;
  const int kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int out = 0;
      while (q.pop(out)) {
        consumed_sum.fetch_add(out, std::memory_order_relaxed);
        consumed_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        ASSERT_TRUE(q.push(item));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed_count.load(), total);
  EXPECT_EQ(consumed_sum.load(), 1ll * total * (total - 1) / 2);
}

// ----------------------------------------------------------------- cluster

ClusterConfig test_config(std::size_t shards) {
  ClusterConfig config;
  config.shards = shards;
  config.seed = test_seed(2026);
  config.verify_delivery = true;
  // Tight windows so tests drive transitions with few requests; no
  // control thread — poll_health() is called explicitly.
  config.health.window = 16;
  config.health.min_observations = 4;
  config.health.quarantine_failure_rate = 0.5;
  config.health.probation_successes = 2;
  config.health.canary_interval = 2;
  return config;
}

std::vector<MulticastAssignment> assignments_for_shard(
    std::size_t n, std::size_t shards, std::size_t target, std::size_t count,
    Rng& rng) {
  std::vector<MulticastAssignment> picked;
  while (picked.size() < count) {
    MulticastAssignment a = random_multicast(n, 0.6, rng);
    if (primary_shard(assignment_fingerprint(a), shards) == target) {
      picked.push_back(std::move(a));
    }
  }
  return picked;
}

TEST(Cluster, RoutesCorrectlyAndPinsPlacement) {
  const std::size_t n = 16;
  obs::MetricRegistry registry;
  ClusterConfig config = test_config(3);
  config.metrics = &registry;
  Cluster cluster(n, config);

  Rng rng(test_seed(42));
  for (int i = 0; i < 24; ++i) {
    const MulticastAssignment a = random_multicast(n, 0.6, rng);
    const std::size_t expected_shard =
        primary_shard(assignment_fingerprint(a), 3);
    const ClusterOutcome out = cluster.route(a);
    EXPECT_EQ(out.request.outcome, RouteOutcome::Delivered);
    ASSERT_TRUE(out.request.result.has_value());
    EXPECT_EQ(out.request.result->delivered, expected_delivery(a));
    EXPECT_EQ(out.shard, expected_shard);
    EXPECT_EQ(out.primary_shard, expected_shard);
    EXPECT_FALSE(out.rerouted);
    EXPECT_FALSE(out.misdelivered);
  }
  cluster.stop();

  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.submitted, 24u);
  EXPECT_EQ(t.delivered, 24u);
  EXPECT_EQ(t.completed + t.rejected, t.submitted);
  EXPECT_EQ(t.misdelivered, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("cluster.submitted").value(), 24u);
    EXPECT_EQ(registry.counter("cluster.delivered").value(), 24u);
    EXPECT_EQ(registry.counter("cluster.misdelivered").value(), 0u);
  }
}

TEST(Cluster, RepeatedAssignmentKeepsOneShardsCacheHot) {
  const std::size_t n = 16;
  obs::MetricRegistry registry;
  ClusterConfig config = test_config(4);
  config.metrics = &registry;
  Cluster cluster(n, config);

  Rng rng(test_seed(43));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cluster.route(a).request.outcome, RouteOutcome::Delivered);
  }
  cluster.stop();
  if constexpr (obs::kEnabled) {
    // One cold compile on the owning shard, hits for every repeat — the
    // placement-keeps-caches-hot property.
    EXPECT_EQ(registry.counter("cluster.plan_cache.misses").value(), 1u);
    EXPECT_EQ(registry.counter("cluster.plan_cache.hits").value(), 9u);
  }
}

TEST(Cluster, BatchMatchesSerialOracle) {
  const std::size_t n = 16;
  Cluster cluster(n, test_config(2));
  Rng rng(test_seed(44));
  std::vector<MulticastAssignment> batch;
  for (int i = 0; i < 16; ++i) batch.push_back(random_multicast(n, 0.5, rng));

  const std::vector<ClusterOutcome> outcomes = cluster.route_batch(batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(outcomes[i].request.outcome, RouteOutcome::Delivered);
    ASSERT_TRUE(outcomes[i].request.result.has_value());
    EXPECT_EQ(outcomes[i].request.result->delivered,
              expected_delivery(batch[i]));
  }
}

// Shards x workers, plan cache on or off.
struct ClusterShape {
  std::size_t shards;
  std::size_t workers;
  bool plan_cache;
};

void PrintTo(const ClusterShape& shape, std::ostream* os) {
  *os << shape.shards << "x" << shape.workers
      << (shape.plan_cache ? " cached" : " uncached");
}

class ClusterDifferential : public ::testing::TestWithParam<ClusterShape> {};

TEST_P(ClusterDifferential, MatchesSerialScalarRoute) {
  // Sharding, worker threads, the packed engine and plan replay must all
  // be invisible: every result equals what one scalar Brsmn produces
  // serially. Each assignment appears twice, so with the plan cache on
  // the second copy replays a plan the first compiled.
  const ClusterShape shape = GetParam();
  const std::size_t n = 64;
  Rng rng(test_seed(7500));
  std::vector<MulticastAssignment> unique;
  for (int i = 0; i < 24; ++i) {
    unique.push_back(random_multicast(n, i % 2 == 0 ? 0.5 : 0.85, rng));
  }
  std::vector<MulticastAssignment> batch = unique;
  batch.insert(batch.end(), unique.begin(), unique.end());

  obs::MetricRegistry registry;
  ClusterConfig config = test_config(shape.shards);
  config.workers_per_shard = shape.workers;
  config.plan_cache = shape.plan_cache;
  config.metrics = &registry;
  Cluster cluster(n, config);
  const std::vector<ClusterOutcome> outcomes = cluster.route_batch(batch);
  cluster.stop();
  ASSERT_EQ(outcomes.size(), batch.size());
  if constexpr (obs::kEnabled) {
    // With the caches on, repeats replay (a repeat racing its first copy
    // on a peer worker may compile instead).
    EXPECT_EQ(registry.counter("cluster.plan_cache.hits").value() > 0,
              shape.plan_cache);
  }

  Brsmn serial(n);
  RouteOptions scalar;
  scalar.engine = RouteEngine::Scalar;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("assignment " + std::to_string(i));
    const RouteResult want = serial.route(batch[i], scalar);
    ASSERT_EQ(outcomes[i].request.outcome, RouteOutcome::Delivered);
    ASSERT_TRUE(outcomes[i].request.result.has_value());
    const RouteResult& got = *outcomes[i].request.result;
    EXPECT_EQ(got.delivered, want.delivered);
    EXPECT_EQ(got.broadcasts_per_level, want.broadcasts_per_level);
    EXPECT_EQ(got.stats.switch_traversals, want.stats.switch_traversals);
    EXPECT_EQ(got.stats.broadcast_ops, want.stats.broadcast_ops);
    EXPECT_EQ(got.stats.tree_fwd_ops, want.stats.tree_fwd_ops);
    EXPECT_EQ(got.stats.tree_bwd_ops, want.stats.tree_bwd_ops);
    EXPECT_EQ(got.stats.fabric_passes, want.stats.fabric_passes);
    EXPECT_EQ(got.stats.gate_delay, want.stats.gate_delay);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClusterDifferential,
    ::testing::Values(ClusterShape{1, 1, true}, ClusterShape{1, 1, false},
                      ClusterShape{2, 2, true}, ClusterShape{2, 2, false},
                      ClusterShape{1, 4, true}, ClusterShape{1, 4, false}),
    [](const ::testing::TestParamInfo<ClusterShape>& shape_info) {
      const ClusterShape& shape = shape_info.param;
      return std::to_string(shape.shards) + "x" +
             std::to_string(shape.workers) +
             (shape.plan_cache ? "_cached" : "_uncached");
    });

TEST(Cluster, WorkersShareRegistryAndInjectorWithoutLoss) {
  // Four workers of one shard route concurrently into one registry and
  // draw route ordinals from one (empty) fault schedule: no count and no
  // ordinal is lost.
  const std::size_t n = 32;
  constexpr std::size_t kBatch = 96;
  Rng rng(test_seed(41));
  std::vector<MulticastAssignment> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(random_multicast(n, 0.8, rng));
  }
  fault::FaultPlan empty;
  empty.n = n;
  fault::FaultInjector injector(empty);
  obs::MetricRegistry registry;
  ClusterConfig config = test_config(1);
  config.workers_per_shard = 4;
  config.plan_cache = false;  // every request routes, none replays
  config.metrics = &registry;
  config.shard_faults = {&injector};
  Cluster cluster(n, config);
  const std::vector<ClusterOutcome> outcomes = cluster.route_batch(batch);
  cluster.stop();
  ASSERT_EQ(outcomes.size(), kBatch);

  std::size_t traversals = 0;
  std::uint64_t gate_delay = 0;
  for (const ClusterOutcome& out : outcomes) {
    ASSERT_EQ(out.request.outcome, RouteOutcome::Delivered);
    EXPECT_EQ(out.request.attempts, 1u);
    traversals += out.request.result->stats.switch_traversals;
    gate_delay += out.request.result->stats.gate_delay;
  }
  EXPECT_EQ(injector.routes_begun(), kBatch);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("route.routes").value(), kBatch);
    EXPECT_EQ(registry.counter("route.switch_traversals").value(),
              traversals);
    EXPECT_EQ(registry.counter("route.gate_delay").value(), gate_delay);
    EXPECT_EQ(registry.histogram("route.phase.total_ns").count(), kBatch);
    EXPECT_EQ(registry.counter("cluster.delivered").value(), kBatch);
    EXPECT_EQ(registry.histogram("cluster.request_ns").count(), kBatch);
    EXPECT_EQ(registry.histogram("cluster.shard.0.route_ns").count(), kBatch);
  }
}

TEST(Cluster, EmptyBatch) {
  Cluster cluster(16, test_config(2));
  EXPECT_TRUE(cluster.route_batch({}).empty());
  cluster.stop();
  EXPECT_EQ(cluster.totals().submitted, 0u);
}

TEST(Cluster, SizeMismatchRejected) {
  EXPECT_THROW(Cluster(6, test_config(1)), ContractViolation);
  Cluster cluster(16, test_config(2));
  EXPECT_THROW(cluster.route(MulticastAssignment(8)), ContractViolation);
  std::vector<MulticastAssignment> batch{MulticastAssignment(8)};
  EXPECT_THROW(cluster.route_batch(batch), ContractViolation);
}

TEST(Cluster, BatchErrorCarriesIndexAndServesOn) {
  const std::size_t n = 16;
  Cluster cluster(n, test_config(2));
  Rng rng(test_seed(51));
  std::vector<MulticastAssignment> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(random_multicast(n, 0.5, rng));
  std::vector<MulticastAssignment> bad = batch;
  const std::size_t bad_index = 3;
  bad[bad_index] = MulticastAssignment(8);  // wrong network size
  try {
    cluster.route_batch(bad);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("assignment " + std::to_string(bad_index)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("route_batch"), std::string::npos) << msg;
  }
  // The refused batch submitted nothing, and the cluster serves on.
  const std::vector<ClusterOutcome> outcomes = cluster.route_batch(batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(outcomes[i].request.result.has_value());
    EXPECT_EQ(outcomes[i].request.result->delivered,
              expected_delivery(batch[i]));
  }
  cluster.stop();
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.submitted, batch.size());
  EXPECT_EQ(t.completed + t.rejected, t.submitted);
}

TEST(Cluster, KillQuarantineRerouteReadmit) {
  // The full control-plane arc, driven deterministically: kill a shard,
  // feed it its own keys until the failure window trips quarantine;
  // further keys reroute to each key's placement secondary; revive and
  // let canaries finish probation; the shard is readmitted and serves
  // its keys again.
  const std::size_t n = 16;
  const std::size_t shards = 3;
  Cluster cluster(n, test_config(shards));
  Rng rng(test_seed(45));
  const std::size_t victim = 1;
  const auto keys = assignments_for_shard(n, shards, victim, 24, rng);

  cluster.kill_shard(victim);
  // Phase 1: the control plane has not noticed yet — requests still land
  // on the victim and fail (instantly, attempts == 0).
  std::size_t failed = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    const ClusterOutcome out = cluster.route(keys[i]);
    EXPECT_EQ(out.shard, victim);
    EXPECT_FALSE(out.rerouted);
    failed += out.request.outcome == RouteOutcome::Failed;
    cluster.poll_health();
    if (cluster.shard_state(victim) == ShardState::Quarantined) break;
  }
  EXPECT_GE(failed, 4u);  // min_observations before the transition
  ASSERT_EQ(cluster.shard_state(victim), ShardState::Quarantined);
  EXPECT_GE(cluster.shard_status(victim).quarantines, 1u);

  // Phase 2: quarantined — non-canary requests for the victim's keys go
  // to each key's deterministic secondary and deliver.
  std::size_t rerouted = 0;
  std::size_t canaries = 0;
  for (std::size_t i = 6; i < 18; ++i) {
    const ClusterOutcome out = cluster.route(keys[i]);
    EXPECT_EQ(out.primary_shard, victim);
    if (out.canary) {
      ++canaries;
      EXPECT_EQ(out.shard, victim);
      EXPECT_EQ(out.request.outcome, RouteOutcome::Failed);
    } else {
      ++rerouted;
      EXPECT_TRUE(out.rerouted);
      const auto order =
          placement_order(assignment_fingerprint(keys[i]), shards);
      EXPECT_EQ(out.shard, order[1]) << "not the deterministic secondary";
      EXPECT_EQ(out.request.outcome, RouteOutcome::Delivered);
      ASSERT_TRUE(out.request.result.has_value());
      EXPECT_EQ(out.request.result->delivered, expected_delivery(keys[i]));
    }
    cluster.poll_health();
    EXPECT_EQ(cluster.shard_state(victim), ShardState::Quarantined)
        << "failed canaries must not end probation";
  }
  EXPECT_GT(rerouted, 0u);
  EXPECT_GT(canaries, 0u);

  // Phase 3: revive; successful canaries complete probation and the
  // control plane readmits the shard.
  cluster.revive_shard(victim);
  for (std::size_t i = 18; i < keys.size() &&
       cluster.shard_state(victim) == ShardState::Quarantined; ++i) {
    cluster.route(keys[i]);
    cluster.poll_health();
  }
  EXPECT_EQ(cluster.shard_state(victim), ShardState::Healthy);
  EXPECT_GE(cluster.shard_status(victim).readmissions, 1u);

  // Readmitted: the victim serves its keys again.
  const ClusterOutcome back = cluster.route(keys[0]);
  EXPECT_EQ(back.shard, victim);
  EXPECT_FALSE(back.rerouted);
  EXPECT_EQ(back.request.outcome, RouteOutcome::Delivered);

  cluster.stop();
  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.completed + t.rejected, t.submitted);
  EXPECT_EQ(t.misdelivered, 0u);
}

TEST(Cluster, PerShardInjectorDegradesOnlyItsShard) {
  // An impl-scoped always-on fault pinned to shard 0's routers: shard 0
  // keys deliver degraded through the fallback ladder, other shards'
  // keys deliver clean — fault isolation across replicas.
  const std::size_t n = 16;
  const std::size_t shards = 2;
  fault::FaultSpec f;
  f.kind = fault::FaultKind::TransientFlip;
  f.level = 1;
  f.pass = PassKind::Scatter;
  f.stage = 1;
  f.index = 2;
  f.impl = fault::ImplKind::Unrolled;
  fault::FaultInjector injector(fault::FaultPlan{n, {f}});

  // Probe for a shard-0 key this fault provably degrades (masking is
  // geometry-dependent; pinning one detected assignment makes the test
  // deterministic for any seed).
  Rng rng(test_seed(46));
  MulticastAssignment hot(n);
  {
    fault::FaultInjector probe_injector(fault::FaultPlan{n, {f}});
    ResilientOptions opts;
    opts.faults = &probe_injector;
    ResilientRouter probe(n, opts);
    for (;;) {
      MulticastAssignment a = random_multicast(n, 0.6, rng);
      if (primary_shard(assignment_fingerprint(a), shards) != 0) continue;
      if (probe.route(a).outcome == RouteOutcome::DeliveredDegraded) {
        hot = a;
        break;
      }
    }
  }

  ClusterConfig config = test_config(shards);
  config.shard_faults = {&injector};
  config.plan_cache = false;  // force every repeat through the faulted path
  Cluster cluster(n, config);

  for (int i = 0; i < 8; ++i) {
    const ClusterOutcome out = cluster.route(hot);
    EXPECT_EQ(out.shard, 0u);
    EXPECT_EQ(out.request.outcome, RouteOutcome::DeliveredDegraded);
    ASSERT_TRUE(out.request.result.has_value());
    EXPECT_EQ(out.request.result->delivered, expected_delivery(hot));
  }
  // The peer shard's routers never see the injector: its keys are clean.
  for (const MulticastAssignment& a :
       assignments_for_shard(n, shards, 1, 8, rng)) {
    const ClusterOutcome out = cluster.route(a);
    EXPECT_EQ(out.shard, 1u);
    EXPECT_EQ(out.request.outcome, RouteOutcome::Delivered);
  }
  cluster.stop();
  EXPECT_EQ(cluster.totals().misdelivered, 0u);
}

TEST(Cluster, DegradedRateMarksShardDegradedNotQuarantined) {
  const std::size_t n = 16;
  fault::FaultSpec f;
  f.kind = fault::FaultKind::TransientFlip;
  f.level = 1;
  f.pass = PassKind::Scatter;
  f.stage = 1;
  f.index = 2;
  f.impl = fault::ImplKind::Unrolled;
  fault::FaultInjector injector(fault::FaultPlan{n, {f}});

  // Probe for an assignment this fault provably degrades (detection is
  // geometry-dependent, so a fixed assignment keeps the test
  // deterministic for any seed).
  Rng rng(test_seed(47));
  MulticastAssignment degraded_key(n);
  {
    fault::FaultInjector probe_injector(fault::FaultPlan{n, {f}});
    ResilientOptions opts;
    opts.faults = &probe_injector;
    ResilientRouter probe(n, opts);
    for (;;) {
      MulticastAssignment a = random_multicast(n, 0.6, rng);
      if (probe.route(a).outcome == RouteOutcome::DeliveredDegraded) {
        degraded_key = a;
        break;
      }
    }
  }

  ClusterConfig config = test_config(1);  // one shard: every key lands here
  config.shard_faults = {&injector};
  config.health.degrade_degraded_rate = 0.01;
  config.plan_cache = false;  // force every repeat through the faulted path
  Cluster cluster(n, config);
  for (int i = 0; i < 8; ++i) {
    const ClusterOutcome out = cluster.route(degraded_key);
    EXPECT_EQ(out.request.outcome, RouteOutcome::DeliveredDegraded);
    cluster.poll_health();
  }
  // Degraded deliveries trip the watch state but never quarantine.
  EXPECT_EQ(cluster.shard_state(0), ShardState::Degraded);
  EXPECT_EQ(cluster.shard_status(0).quarantines, 0u);
  cluster.stop();
}

TEST(Cluster, SubmitGroupPinsGroupToOneShard) {
  const std::size_t n = 16;
  GroupManager groups(n);
  const GroupId g = 7;
  groups.join(g, 0, 3);
  groups.join(g, 0, 5);
  groups.join(g, 2, 8);
  Cluster cluster(n, test_config(3));
  std::size_t first_shard = 0;
  for (int i = 0; i < 6; ++i) {
    const ClusterOutcome out = cluster.submit_group(groups, g).get();
    EXPECT_EQ(out.request.outcome, RouteOutcome::Delivered);
    if (i == 0) {
      first_shard = out.shard;
    } else {
      EXPECT_EQ(out.shard, first_shard) << "group repeats must stay pinned";
    }
  }
  cluster.stop();
}

TEST(Cluster, StopRejectsNewWorkAndConserves) {
  const std::size_t n = 16;
  Cluster cluster(n, test_config(2));
  Rng rng(test_seed(48));
  std::vector<std::future<ClusterOutcome>> inflight;
  for (int i = 0; i < 8; ++i) {
    inflight.push_back(cluster.submit(random_multicast(n, 0.5, rng)));
  }
  cluster.stop();
  for (auto& f : inflight) {
    const ClusterOutcome out = f.get();  // every pre-stop submit resolves
    EXPECT_TRUE(out.rejected ||
                out.request.outcome != RouteOutcome::Failed);
  }
  const ClusterOutcome late = cluster.route(random_multicast(n, 0.5, rng));
  EXPECT_TRUE(late.rejected);
  EXPECT_EQ(late.request.outcome, RouteOutcome::Failed);
  EXPECT_EQ(late.request.attempts, 0u);

  const ClusterTotals t = cluster.totals();
  EXPECT_EQ(t.completed + t.rejected, t.submitted);
  EXPECT_GE(t.rejected, 1u);
  cluster.stop();  // idempotent
}

TEST(Cluster, ConcurrentSubmittersConserve) {
  // 4 submitter threads x 32 requests through 2 shards x 2 workers with a
  // tiny queue (real backpressure): all resolve, conservation holds. The
  // cluster-level TSan workhorse.
  const std::size_t n = 16;
  ClusterConfig config = test_config(2);
  config.workers_per_shard = 2;
  config.queue_capacity = 4;
  Cluster cluster(n, config);

  const int kThreads = 4;
  const int kEach = 32;
  std::atomic<std::size_t> ok{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(test_seed(100) + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kEach; ++i) {
        const ClusterOutcome out =
            cluster.route(random_multicast(n, 0.5, rng));
        if (out.request.outcome == RouteOutcome::Delivered &&
            !out.misdelivered) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  cluster.stop();

  EXPECT_EQ(ok.load(), static_cast<std::size_t>(kThreads * kEach));
  const ClusterTotals totals = cluster.totals();
  EXPECT_EQ(totals.submitted, static_cast<std::uint64_t>(kThreads * kEach));
  EXPECT_EQ(totals.completed + totals.rejected, totals.submitted);
  EXPECT_EQ(totals.misdelivered, 0u);
}

TEST(Cluster, ControlThreadDrivesTransitions) {
  // With probe_interval > 0 the control thread polls on its own: kill a
  // shard, keep submitting, and wait for the quarantine to appear without
  // ever calling poll_health() manually.
  const std::size_t n = 16;
  ClusterConfig config = test_config(2);
  config.health.probe_interval = std::chrono::milliseconds(1);
  Cluster cluster(n, config);
  Rng rng(test_seed(49));
  const auto keys = assignments_for_shard(n, 2, 0, 16, rng);
  cluster.kill_shard(0);
  bool quarantined = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::size_t i = 0;
  while (!quarantined && std::chrono::steady_clock::now() < deadline) {
    cluster.route(keys[i++ % keys.size()]);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    quarantined = cluster.shard_state(0) == ShardState::Quarantined;
  }
  EXPECT_TRUE(quarantined);
  cluster.stop();
}

TEST(Cluster, ValidatesConfiguration) {
  EXPECT_THROW(Cluster(16, [] {
    ClusterConfig c;
    c.shards = 0;
    return c;
  }()), ContractViolation);
  EXPECT_THROW(Cluster(16, [] {
    ClusterConfig c;
    c.workers_per_shard = 0;
    return c;
  }()), ContractViolation);
  EXPECT_THROW(Cluster(16, [] {
    ClusterConfig c;
    c.queue_capacity = 0;
    return c;
  }()), ContractViolation);
  EXPECT_THROW(Cluster(16, [] {
    ClusterConfig c;
    c.shards = 2;
    c.shard_faults = {nullptr, nullptr, nullptr};  // longer than shards
    return c;
  }()), ContractViolation);
  EXPECT_THROW(Cluster(16, [] {
    ClusterConfig c;
    c.retry.jitter = 1.5;  // RetryPolicy validation surfaces here too
    return c;
  }()), ContractViolation);
}

TEST(Cluster, ShardStateNames) {
  EXPECT_EQ(shard_state_name(ShardState::Healthy), "healthy");
  EXPECT_EQ(shard_state_name(ShardState::Degraded), "degraded");
  EXPECT_EQ(shard_state_name(ShardState::Quarantined), "quarantined");
}

}  // namespace
}  // namespace brsmn::api
