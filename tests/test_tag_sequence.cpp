// The routing-tag sequence codec of Section 7.1, including the exact
// Fig. 9c sequences and the Fig. 11 interleaving property: after
// consuming a_0, the even/odd remaining positions are exactly the left
// and right subtrees' sequences.
#include "core/tag_sequence.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/level_kernel.hpp"

namespace brsmn {
namespace {

TEST(TagSequence, Fig9cExactSequences) {
  // Paper Fig. 9c: multicast {0,1} has sequence 00εαεεε and {3,4,7} has
  // α1αε011.
  EXPECT_EQ(sequence_string(
                encode_sequence(std::vector<std::size_t>{0, 1}, 8)),
            "00eaeee");
  EXPECT_EQ(sequence_string(
                encode_sequence(std::vector<std::size_t>{3, 4, 7}, 8)),
            "a1ae011");
}

TEST(TagSequence, SequenceLengthIsNMinus1) {
  Rng rng(test_seed(1));
  for (std::size_t n : {2u, 4u, 16u, 256u}) {
    const auto dests = rng.subset(n, n / 2);
    EXPECT_EQ(encode_sequence(dests, n).size(), n - 1);
  }
}

TEST(TagSequence, OrderLevelIsBitReversal) {
  // order() on 8 symbols t1..t8 must give t1 t5 t3 t7 t2 t6 t4 t8
  // (paper's worked n = 16 level-4 example). Encode positions via
  // distinct tag patterns: use the identity on indices instead.
  const std::vector<Tag> level{Tag::Zero, Tag::One,  Tag::Alpha, Tag::Eps,
                               Tag::Eps0, Tag::Eps1, Tag::Zero,  Tag::One};
  const auto ordered = order_level(level);
  const std::size_t want[] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(ordered[p], level[want[p]]) << p;
  }
}

TEST(TagSequence, OrderLevelSmall) {
  const std::vector<Tag> one{Tag::Alpha};
  EXPECT_EQ(order_level(one), one);
  const std::vector<Tag> two{Tag::Zero, Tag::One};
  EXPECT_EQ(order_level(two), two);
  const std::vector<Tag> four{Tag::Zero, Tag::One, Tag::Alpha, Tag::Eps};
  EXPECT_EQ(order_level(four),
            (std::vector<Tag>{Tag::Zero, Tag::Alpha, Tag::One, Tag::Eps}));
}

TEST(TagSequence, Fig11StreamingSplitMatchesSubtreeSequences) {
  // The paper's key streaming property, checked structurally: for any
  // destination set, splitting the remainder of SEQ into even/odd
  // positions yields exactly the SEQs of the two half-range sub-multicasts.
  Rng rng(test_seed(33));
  for (std::size_t n : {4u, 8u, 16u, 64u, 256u}) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto dests = rng.subset(n, rng.uniform(1, n));
      const auto seq = encode_sequence(dests, n);
      std::vector<std::size_t> left, right;
      for (auto d : dests) {
        if (d < n / 2) {
          left.push_back(d);
        } else {
          right.push_back(d - n / 2);
        }
      }
      const std::span<const Tag> rest(seq.data() + 1, seq.size() - 1);
      EXPECT_EQ(split_stream(rest, Tag::Zero),
                encode_sequence(left, n / 2));
      EXPECT_EQ(split_stream(rest, Tag::One),
                encode_sequence(right, n / 2));
    }
  }
}

/// Walks every node of a destination set's tag tree, advancing a header
/// stream by the odd/even split (as the scalar engine does between
/// levels) beside a packed-driver line record whose range is narrowed by
/// pkern::split_point, and checks at each node that
///   - the remaining stream equals encode_sequence_into of the
///     destinations inside the node's address block, rebased to the block;
///   - the record's range holds exactly those destinations;
///   - the stream's head equals pkern::head_tag of the record.
class SubtreeWalk {
 public:
  SubtreeWalk(const std::vector<std::size_t>& dests, std::size_t n)
      : dests_(dests), n_(n), m_(log2_exact(n)) {
    for (const std::size_t d : dests) {
      flat_.push_back(static_cast<std::uint32_t>(d));
    }
  }

  /// Walks the whole tree; returns the number of nodes visited.
  std::size_t run() {
    std::vector<Tag> stream;
    encode_sequence_into(dests_, n_, stream);
    LineRecord rec;
    rec.source = 0;
    rec.lo = 0;
    rec.hi = static_cast<std::uint32_t>(flat_.size());
    visit(1, 0, stream, rec);
    return visited_;
  }

 private:
  void visit(int level, std::size_t block_base, const std::vector<Tag>& stream,
             const LineRecord& rec) {
    ++visited_;
    const std::size_t block = n_ >> (level - 1);
    std::vector<std::size_t> inside;
    for (const std::size_t d : dests_) {
      if (d >= block_base && d < block_base + block) {
        inside.push_back(d - block_base);
      }
    }
    std::vector<Tag> expected;
    encode_sequence_into(inside, block, expected);
    ASSERT_EQ(stream, expected)
        << "level " << level << " block base " << block_base;
    ASSERT_EQ(rec.hi - rec.lo, inside.size());
    for (std::size_t i = 0; i < inside.size(); ++i) {
      ASSERT_EQ(flat_[rec.lo + i], block_base + inside[i]);
    }
    const int bit = m_ - level;
    ASSERT_EQ(pkern::head_tag(rec, flat_.data(), bit), stream.front())
        << "level " << level << " block base " << block_base;
    if (level == m_) return;
    const std::uint32_t split =
        pkern::split_point(flat_.data(), rec.lo, rec.hi, bit);
    const std::span<const Tag> rest(stream.data() + 1, stream.size() - 1);
    LineRecord lower = rec;
    lower.hi = split;
    LineRecord upper = rec;
    upper.lo = split;
    visit(level + 1, block_base, split_stream(rest, Tag::Zero), lower);
    visit(level + 1, block_base + block / 2, split_stream(rest, Tag::One),
          upper);
  }

  const std::vector<std::size_t>& dests_;
  std::vector<std::uint32_t> flat_;
  std::size_t n_;
  int m_;
  std::size_t visited_ = 0;
};

TEST(TagSequence, StreamAlongAnyPathMatchesRangeRecordExhaustive) {
  // Every destination set of every n <= 16, every node of its tag tree:
  // the packed drivers' (source, destination range) record derives the
  // same head tag the scalar engine's split header stream carries.
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      std::vector<std::size_t> dests;
      for (std::size_t d = 0; d < n; ++d) {
        if ((mask >> d) & 1u) dests.push_back(d);
      }
      SubtreeWalk walk(dests, n);
      ASSERT_EQ(walk.run(), n - 1) << "n " << n << " mask " << mask;
    }
  }
}

TEST(TagSequence, StreamAlongAnyPathMatchesRangeRecordSampledN1024) {
  const std::size_t n = 1024;
  Rng rng(test_seed(34));
  for (int trial = 0; trial < 24; ++trial) {
    // Four fixed sizes from unicast up, then uniformly drawn sizes.
    const std::size_t size =
        trial < 4 ? std::size_t{1} << (trial * 3) : rng.uniform(0, n);
    const auto dests = rng.subset(n, size);
    SubtreeWalk walk(dests, n);
    ASSERT_EQ(walk.run(), n - 1) << "trial " << trial;
  }
}

class SequenceRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SequenceRoundTrip, EncodeDecodeRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(1200 + n));
  for (int trial = 0; trial < 30; ++trial) {
    auto dests = rng.subset(n, rng.uniform(0, n));
    const auto seq = encode_sequence(dests, n);
    auto got = decode_sequence(seq);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, dests);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SequenceRoundTrip,
                         ::testing::Values(2, 4, 8, 32, 256, 1024));

TEST(TagSequence, DecodeValidatesStructure) {
  // Root says 0 (left only) but the left subtree is empty.
  EXPECT_THROW(decode_sequence(parse_sequence("0eeeeee")),
               ContractViolation);
  // Root says alpha but the left subtree is empty.
  EXPECT_THROW(decode_sequence(parse_sequence("aee1eee")),
               ContractViolation);
  // Root says eps but a child is occupied.
  EXPECT_THROW(decode_sequence(parse_sequence("e0eeeee")),
               ContractViolation);
  // Bad length (not 2^k - 1).
  EXPECT_THROW(decode_sequence(parse_sequence("0e")), ContractViolation);
}

TEST(TagSequence, ParseAndRenderRoundTrip) {
  const std::string s = "a1ae011";
  EXPECT_EQ(sequence_string(parse_sequence(s)), s);
}

TEST(TagSequence, SplitStreamValidatesArgs) {
  const auto seq = parse_sequence("a1ae011");
  const std::span<const Tag> rest(seq.data() + 1, seq.size() - 1);
  EXPECT_THROW(split_stream(rest, Tag::Alpha), ContractViolation);
  EXPECT_THROW(split_stream(std::span<const Tag>(seq.data(), 3), Tag::Zero),
               ContractViolation);
}

TEST(TagSequence, FuzzedSequencesEitherRejectOrRoundTrip) {
  // Robustness: an arbitrary tag string of valid length is either
  // rejected with a ContractViolation or decodes to a destination set
  // that re-encodes to the identical sequence — never garbage.
  Rng rng(test_seed(777));
  const Tag choices[] = {Tag::Zero, Tag::One, Tag::Alpha, Tag::Eps};
  std::size_t accepted = 0, rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = std::size_t{1} << rng.uniform(1, 5);
    std::vector<Tag> seq(n - 1);
    for (auto& t : seq) t = choices[rng.uniform(0, 3)];
    try {
      const auto dests = decode_sequence(seq);
      EXPECT_EQ(encode_sequence(dests, n), seq);
      ++accepted;
    } catch (const ContractViolation&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(TagSequence, EncodingIsInjectiveOverAllSubsetsN8) {
  // §7.1 claims the tag tree (hence the sequence) of a multicast is
  // unique; conversely distinct destination sets must get distinct
  // sequences. Exhaustive over all 256 subsets of an 8-output space.
  std::set<std::string> seen;
  for (unsigned mask = 0; mask < 256; ++mask) {
    std::vector<std::size_t> dests;
    for (std::size_t d = 0; d < 8; ++d) {
      if ((mask >> d) & 1u) dests.push_back(d);
    }
    const auto s = sequence_string(encode_sequence(dests, 8));
    EXPECT_TRUE(seen.insert(s).second) << "collision at mask " << mask;
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(TagSequence, SingleDestinationSequenceIsUnicastPath) {
  // Destination 6 = 110 in n = 8: root 1; level-2 nodes (ε, 1); level-3
  // nodes (ε ε ε 0), fixed by the bit-reversal ordering.
  EXPECT_EQ(sequence_string(
                encode_sequence(std::vector<std::size_t>{6}, 8)),
            "1e1eee0");
}

}  // namespace
}  // namespace brsmn
