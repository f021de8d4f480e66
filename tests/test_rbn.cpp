#include "core/rbn.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/level_kernel.hpp"
#include "core/packed_kernel.hpp"

namespace brsmn {
namespace {

TEST(Rbn, StartsAllParallel) {
  const Rbn rbn(16);
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < 8; ++sw) {
      EXPECT_EQ(rbn.setting(stage, sw), SwitchSetting::Parallel);
    }
  }
}

TEST(Rbn, SetAndGet) {
  Rbn rbn(8);
  rbn.set(2, 3, SwitchSetting::Cross);
  EXPECT_EQ(rbn.setting(2, 3), SwitchSetting::Cross);
  rbn.reset();
  EXPECT_EQ(rbn.setting(2, 3), SwitchSetting::Parallel);
}

TEST(Rbn, RangeChecks) {
  Rbn rbn(8);
  EXPECT_THROW(rbn.setting(0, 0), ContractViolation);
  EXPECT_THROW(rbn.setting(4, 0), ContractViolation);
  EXPECT_THROW(rbn.setting(1, 4), ContractViolation);
  EXPECT_THROW(rbn.set(1, 4, SwitchSetting::Cross), ContractViolation);
}

TEST(Rbn, SetBlockRoundTrip) {
  Rbn rbn(16);
  const std::vector<SwitchSetting> settings{
      SwitchSetting::Cross, SwitchSetting::Parallel, SwitchSetting::Cross,
      SwitchSetting::UpperBcast};
  rbn.set_block(3, 1, settings);
  EXPECT_EQ(rbn.block_settings(3, 1), settings);
  // Other blocks untouched.
  EXPECT_EQ(rbn.block_settings(3, 0),
            std::vector<SwitchSetting>(4, SwitchSetting::Parallel));
}

TEST(Rbn, SetBlockSizeChecked) {
  Rbn rbn(16);
  EXPECT_THROW(
      rbn.set_block(3, 0, std::vector<SwitchSetting>(3,
                                                     SwitchSetting::Cross)),
      ContractViolation);
}

TEST(Rbn, AllParallelIsIdentity) {
  const Rbn rbn(32);
  std::vector<int> lines(32);
  std::iota(lines.begin(), lines.end(), 0);
  const auto out = rbn.propagate(lines, unicast_switch<int>);
  EXPECT_EQ(out, lines);
}

TEST(Rbn, SingleStageCrossSwapsPartners) {
  Rbn rbn(8);
  // Stage 3 (the full 8-line merging network): cross logical switch 1,
  // i.e. swap lines 1 and 5.
  rbn.set(3, 1, SwitchSetting::Cross);
  std::vector<int> lines{0, 1, 2, 3, 4, 5, 6, 7};
  const auto out = rbn.propagate(std::move(lines), 3, 3, unicast_switch<int>);
  EXPECT_EQ(out, (std::vector<int>{0, 5, 2, 3, 4, 1, 6, 7}));
}

TEST(Rbn, Stage1CrossSwapsAdjacentPairs) {
  Rbn rbn(8);
  for (std::size_t sw = 0; sw < 4; ++sw) rbn.set(1, sw, SwitchSetting::Cross);
  std::vector<int> lines{0, 1, 2, 3, 4, 5, 6, 7};
  const auto out = rbn.propagate(std::move(lines), 1, 1, unicast_switch<int>);
  EXPECT_EQ(out, (std::vector<int>{1, 0, 3, 2, 5, 4, 7, 6}));
}

TEST(Rbn, UnicastPropagationPreservesMultiset) {
  Rbn rbn(16);
  // Arbitrary unicast settings everywhere.
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < 8; ++sw) {
      rbn.set(stage, sw,
              (stage + static_cast<int>(sw)) % 2 ? SwitchSetting::Cross
                                                 : SwitchSetting::Parallel);
    }
  }
  std::vector<int> lines(16);
  std::iota(lines.begin(), lines.end(), 0);
  auto out = rbn.propagate(lines, unicast_switch<int>);
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, lines);
}

TEST(Rbn, UnicastFnRejectsBroadcast) {
  Rbn rbn(4);
  rbn.set(1, 0, SwitchSetting::UpperBcast);
  std::vector<int> lines{0, 1, 2, 3};
  EXPECT_THROW(rbn.propagate(std::move(lines), unicast_switch<int>),
               ContractViolation);
}

TEST(Rbn, PropagateValidatesLineCountAndStageRange) {
  const Rbn rbn(8);
  EXPECT_THROW(rbn.propagate(std::vector<int>(7), unicast_switch<int>),
               ContractViolation);
  EXPECT_THROW(
      rbn.propagate(std::vector<int>(8), 2, 1, unicast_switch<int>),
      ContractViolation);
  EXPECT_THROW(
      rbn.propagate(std::vector<int>(8), 1, 4, unicast_switch<int>),
      ContractViolation);
}

TEST(Rbn, SwitchContextReportsLinesAndStage) {
  Rbn rbn(8);
  std::vector<int> seen_stage_counts(4, 0);
  std::vector<int> lines(8, 0);
  rbn.propagate(lines, [&](const SwitchContext& ctx, SwitchSetting, int a,
                           int b) {
    EXPECT_GE(ctx.stage, 1);
    EXPECT_LE(ctx.stage, 3);
    EXPECT_LT(ctx.switch_index, 4u);
    EXPECT_LT(ctx.upper_line, ctx.lower_line);
    EXPECT_EQ(ctx.lower_line - ctx.upper_line,
              (std::size_t{1} << ctx.stage) / 2);
    ++seen_stage_counts[static_cast<std::size_t>(ctx.stage)];
    return std::pair<int, int>{a, b};
  });
  EXPECT_EQ(seen_stage_counts[1], 4);
  EXPECT_EQ(seen_stage_counts[2], 4);
  EXPECT_EQ(seen_stage_counts[3], 4);
}

// --- the two-bit store -------------------------------------------------------
//
// The grid keeps each switch as its su/sl mask bits. set/setting must
// round-trip all four settings on every switch, overwriting whatever the
// switch held, and installing a level's datapath masks into the level's
// per-BSN fabrics must equal setting every switch one at a time — at
// sub-word fabric sizes (shift and mask inside a word) and multi-word ones
// (whole-word copies).

constexpr SwitchSetting kAllSettings[] = {
    SwitchSetting::Parallel, SwitchSetting::Cross, SwitchSetting::UpperBcast,
    SwitchSetting::LowerBcast};

void expect_same_grid(const Rbn& a, const Rbn& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int stage = 1; stage <= a.stages(); ++stage) {
    for (std::size_t sw = 0; sw < a.size() / 2; ++sw) {
      ASSERT_EQ(a.setting(stage, sw), b.setting(stage, sw))
          << "n=" << a.size() << " stage=" << stage << " switch=" << sw;
    }
  }
}

TEST(RbnMaskStore, SetAndSettingRoundTripAllFourSettingsOnEverySwitch) {
  for (std::size_t n = 2; n <= 256; n *= 2) {
    Rbn rbn(n);
    // Rotation r gives every switch each of the four settings once, each
    // written over the previous rotation's bits.
    for (std::size_t r = 0; r < 4; ++r) {
      const auto pick = [r](int stage, std::size_t sw) {
        return kAllSettings[(sw + static_cast<std::size_t>(stage) + r) % 4];
      };
      for (int stage = 1; stage <= rbn.stages(); ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          rbn.set(stage, sw, pick(stage, sw));
        }
      }
      for (int stage = 1; stage <= rbn.stages(); ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          ASSERT_EQ(rbn.setting(stage, sw), pick(stage, sw))
              << "n=" << n << " r=" << r << " stage=" << stage
              << " switch=" << sw;
        }
      }
    }
    rbn.reset();
    expect_same_grid(rbn, Rbn(n));
  }
}

TEST(RbnMaskStore, LevelWideInstallEqualsPerSwitchSet) {
  Rng rng(test_seed(9300));
  for (std::size_t n = 4; n <= 256; n *= 2) {
    const int m = static_cast<int>(std::countr_zero(n));
    // Level k's BSNs span 2^S lines, S = m - k + 1, k = 1..m-1.
    for (int S = m; S >= 2; --S) {
      const std::size_t bsn_size = std::size_t{1} << S;
      std::vector<std::vector<SwitchSetting>> want(
          static_cast<std::size_t>(S), std::vector<SwitchSetting>(n / 2));
      std::vector<packed::StageMasks> masks(static_cast<std::size_t>(S));
      for (int j = 1; j <= S; ++j) {
        const std::size_t d = std::size_t{1} << (j - 1);
        auto& mk = masks[static_cast<std::size_t>(j - 1)];
        mk.resize(packed::words_for(n));
        for (std::size_t g = 0; g < n / 2; ++g) {
          const SwitchSetting s = kAllSettings[rng.uniform(0, 3)];
          want[static_cast<std::size_t>(j - 1)][g] = s;
          pkern::set_mask_switch(mk, (g / d) * 2 * d + g % d, d, s);
        }
      }
      for (std::size_t bb = 0; bb < n / bsn_size; ++bb) {
        Rbn installed(bsn_size);
        Rbn reference(bsn_size);
        // Stale settings from an earlier route must not survive.
        for (int j = 1; j <= S; ++j) {
          for (std::size_t sw = 0; sw < bsn_size / 2; ++sw) {
            installed.set(j, sw, kAllSettings[rng.uniform(0, 3)]);
          }
        }
        for (int j = 1; j <= S; ++j) {
          const auto& mk = masks[static_cast<std::size_t>(j - 1)];
          installed.install(j, mk.su, mk.sl, bb * bsn_size);
          for (std::size_t sw = 0; sw < bsn_size / 2; ++sw) {
            reference.set(j, sw,
                          want[static_cast<std::size_t>(j - 1)]
                              [bb * bsn_size / 2 + sw]);
          }
        }
        SCOPED_TRACE("n=" + std::to_string(n) + " S=" + std::to_string(S) +
                     " bsn=" + std::to_string(bb));
        expect_same_grid(installed, reference);
      }
    }
  }
}

TEST(RbnMaskStore, InstallChecksAlignmentAndWidth) {
  packed::StageMasks mk;
  mk.resize(packed::words_for(64));
  Rbn rbn(16);
  EXPECT_THROW(rbn.install(1, mk.su, mk.sl, 8), ContractViolation);
  EXPECT_THROW(rbn.install(5, mk.su, mk.sl, 0), ContractViolation);
  Rbn wide(128);
  EXPECT_THROW(wide.install(1, std::span(mk.su).first(1),
                            std::span(mk.sl).first(1)),
               ContractViolation);
}

}  // namespace
}  // namespace brsmn
