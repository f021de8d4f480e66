#include "core/multicast_assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/contracts.hpp"

namespace brsmn {
namespace {

TEST(MulticastAssignment, PaperExampleShape) {
  const auto a = paper_example_assignment();
  EXPECT_EQ(a.size(), 8u);
  EXPECT_EQ(a.destinations(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(a.destinations(1).empty());
  EXPECT_EQ(a.destinations(2), (std::vector<std::size_t>{3, 4, 7}));
  EXPECT_EQ(a.destinations(3), (std::vector<std::size_t>{2}));
  EXPECT_EQ(a.destinations(7), (std::vector<std::size_t>{5, 6}));
  EXPECT_EQ(a.active_inputs(), 4u);
  EXPECT_EQ(a.total_connections(), 8u);
  EXPECT_FALSE(a.is_permutation_assignment());
}

TEST(MulticastAssignment, ConnectKeepsSetsSortedAndDisjoint) {
  MulticastAssignment a(8);
  a.connect(3, 5);
  a.connect(3, 1);
  a.connect(3, 7);
  EXPECT_EQ(a.destinations(3), (std::vector<std::size_t>{1, 5, 7}));
  EXPECT_THROW(a.connect(2, 5), ContractViolation);  // claimed by input 3
  EXPECT_THROW(a.connect(3, 5), ContractViolation);  // even by itself
}

TEST(MulticastAssignment, RangeChecks) {
  MulticastAssignment a(4);
  EXPECT_THROW(a.connect(4, 0), ContractViolation);
  EXPECT_THROW(a.connect(0, 4), ContractViolation);
  EXPECT_THROW(a.destinations(4), ContractViolation);
  EXPECT_THROW(MulticastAssignment(3), ContractViolation);
}

TEST(MulticastAssignment, OutputToInputInverts) {
  const auto a = paper_example_assignment();
  const std::vector<std::uint32_t> want = {0, 0, 3, 2, 2, 7, 7, 2};
  EXPECT_TRUE(std::equal(a.src_of().begin(), a.src_of().end(), want.begin(),
                         want.end()));
  MulticastAssignment b(8);
  b.connect(5, 1);
  b.disconnect(5, 1);
  EXPECT_TRUE(std::all_of(b.src_of().begin(), b.src_of().end(), [](auto s) {
    return s == MulticastAssignment::kIdle;
  }));
  EXPECT_THROW(b.disconnect(5, 1), ContractViolation);
}

TEST(MulticastAssignment, ToStringMatchesPaperNotation) {
  const auto a = paper_example_assignment();
  EXPECT_EQ(a.to_string(),
            "{{0,1}, {}, {3,4,7}, {2}, {}, {}, {}, {5,6}}");
}

TEST(MulticastAssignment, RandomMulticastIsValidAndDense) {
  Rng rng(test_seed(5));
  const auto a = random_multicast(64, 1.0, rng);
  EXPECT_EQ(a.total_connections(), 64u);  // every output assigned
  const auto b = random_multicast(64, 0.0, rng);
  EXPECT_EQ(b.total_connections(), 0u);
}

TEST(MulticastAssignment, RandomPermutationHasSingletonSets) {
  Rng rng(test_seed(6));
  const auto a = random_permutation(32, 1.0, rng);
  EXPECT_TRUE(a.is_permutation_assignment());
  EXPECT_EQ(a.total_connections(), 32u);
  const auto b = random_permutation(32, 0.5, rng);
  EXPECT_TRUE(b.is_permutation_assignment());
  EXPECT_EQ(b.total_connections(), 16u);
}

TEST(MulticastAssignment, BroadcastAssignmentsCoverAllOutputs) {
  const auto a = broadcast_assignment(16, 4);
  std::set<std::size_t> covered;
  for (std::size_t i = 0; i < 16; ++i) {
    for (auto d : a.destinations(i)) covered.insert(d);
    if (i < 4) {
      EXPECT_EQ(a.destinations(i).size(), 4u);
    } else {
      EXPECT_TRUE(a.destinations(i).empty());
    }
  }
  EXPECT_EQ(covered.size(), 16u);
  const auto full = full_broadcast(8);
  EXPECT_EQ(full.destinations(0).size(), 8u);
}

TEST(MulticastAssignment, GeneratorDeterminism) {
  Rng r1(42), r2(42);
  const auto a = random_multicast(128, 0.7, r1);
  const auto b = random_multicast(128, 0.7, r2);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(a.destinations(i), b.destinations(i));
  }
}

TEST(MulticastAssignment, ExplicitConstructorValidates) {
  EXPECT_NO_THROW(MulticastAssignment(4, {{0}, {1, 2}, {}, {3}}));
  EXPECT_THROW(MulticastAssignment(4, {{0}, {0}, {}, {}}),
               ContractViolation);
  EXPECT_THROW(MulticastAssignment(4, {{0}, {1}}), ContractViolation);
}

TEST(MulticastAssignment, DestinationListsMatchPerInputSets) {
  Rng rng(test_seed(7));
  for (const double density : {0.0, 0.3, 1.0}) {
    const auto a = random_multicast(64, density, rng);
    DestinationLists lists;
    a.destination_lists(lists);
    ASSERT_EQ(lists.offsets.size(), 65u);
    EXPECT_EQ(lists.offsets.back(), a.total_connections());
    for (std::size_t i = 0; i < 64; ++i) {
      const auto view = lists.of(i);
      const auto dests = a.destinations(i);
      EXPECT_TRUE(std::equal(view.begin(), view.end(), dests.begin(),
                             dests.end()));
    }
  }
}

TEST(MulticastAssignment, MatchesDeliveryComparesAgainstSrcOf) {
  const auto a = paper_example_assignment();
  std::vector<std::optional<std::size_t>> delivered(8);
  for (std::size_t out = 0; out < 8; ++out) delivered[out] = a.src_of()[out];
  EXPECT_TRUE(a.matches_delivery(delivered));
  delivered[3] = 0;  // wrong source
  EXPECT_FALSE(a.matches_delivery(delivered));
  delivered[3] = 2;
  MulticastAssignment b = a;
  b.disconnect(2, 3);
  EXPECT_FALSE(b.matches_delivery(delivered));  // an idle output received
  delivered[3].reset();
  EXPECT_TRUE(b.matches_delivery(delivered));
  EXPECT_FALSE(a.matches_delivery(delivered));  // an owed output missed
}

TEST(MulticastAssignment, FingerprintFollowsEveryMutation) {
  const auto a = paper_example_assignment();
  const std::uint64_t fp = a.fingerprint();
  MulticastAssignment b = a;  // carries the memoized fingerprint
  EXPECT_EQ(b, a);
  EXPECT_EQ(b.fingerprint(), fp);
  b.disconnect(2, 4);
  EXPECT_NE(b, a);
  const MulticastAssignment rebuilt(
      8, {{0, 1}, {}, {3, 7}, {2}, {}, {}, {}, {5, 6}});
  EXPECT_EQ(b.fingerprint(), rebuilt.fingerprint());
  b.connect(2, 4);
  EXPECT_EQ(b, a);
  EXPECT_EQ(b.fingerprint(), fp);
  MulticastAssignment c(8);
  const std::uint64_t empty = c.fingerprint();
  c.connect(0, 0);  // drops the kept fingerprint
  EXPECT_NE(c.fingerprint(), empty);
  c = b;  // copy assignment carries it too
  EXPECT_EQ(c.fingerprint(), fp);
}

/// FNV-1a 64 over `head`, then per input its destination count and
/// destinations: the streams fingerprint() and tagged_fingerprint() hash.
std::uint64_t reference_fnv(const MulticastAssignment& a,
                            const std::vector<std::uint64_t>& head) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (const std::uint64_t v : head) mix(v);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto dests = a.destinations(i);
    mix(dests.size());
    for (const std::size_t d : dests) mix(d);
  }
  return h;
}

TEST(MulticastAssignment, FingerprintsMatchTheirReferenceStreams) {
  Rng rng(test_seed(9));
  for (const double density : {0.0, 0.4, 1.0}) {
    const auto a = random_multicast(128, density, rng);
    EXPECT_EQ(a.fingerprint(), reference_fnv(a, {128}));
    EXPECT_EQ(a.tagged_fingerprint(0), reference_fnv(a, {128, 0}));
    EXPECT_EQ(a.tagged_fingerprint(1), reference_fnv(a, {128, 1}));
  }
}

// Four threads fingerprint and view one shared const assignment whose
// fingerprint is not yet memoized, so they race to fill it.
TEST(MulticastAssignment, ConcurrentReadersOfASharedAssignmentAgree) {
  Rng rng(test_seed(8));
  const MulticastAssignment shared = random_multicast(256, 0.6, rng);
  const MulticastAssignment reference = shared;
  const std::uint64_t want = reference.fingerprint();
  DestinationLists want_lists;
  reference.destination_lists(want_lists);
  std::vector<int> agreed(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      bool ok = true;
      DestinationLists lists;
      for (int r = 0; r < 50; ++r) {
        ok = ok && shared.tagged_fingerprint(t % 2) ==
                       reference.tagged_fingerprint(t % 2);
        ok = ok && shared.fingerprint() == want;
        shared.destination_lists(lists);
        ok = ok && lists.offsets == want_lists.offsets &&
             lists.outputs == want_lists.outputs;
        ok = ok && shared.destinations(t) == reference.destinations(t);
      }
      agreed[t] = ok;
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(agreed, std::vector<int>(4, 1));
  EXPECT_EQ(shared.fingerprint(), want);
}

}  // namespace
}  // namespace brsmn
