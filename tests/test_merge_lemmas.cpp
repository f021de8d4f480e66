// Exhaustive validation of Lemmas 1-5: for every admissible parameter
// combination at small n, place the two half-size compact sequences at
// the plan's start positions, push them through a directly simulated
// merging stage, and check the output is exactly the target compact
// sequence (with broadcasts consuming precisely the aligned α/ε pairs).
#include "core/merge_lemmas.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/contracts.hpp"
#include "core/compact_sequence.hpp"
#include "core/scatter.hpp"
#include "helpers.hpp"

namespace brsmn {
namespace {

using testing::Sym;
using testing::apply_merging_stage;
using testing::compact_symbols;
using testing::symbol_indicator;

std::vector<Sym> concat(std::vector<Sym> a, const std::vector<Sym>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

std::size_t count_sym(const std::vector<Sym>& v, Sym s) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), s));
}

class LemmaTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LemmaTest, Lemma1MergesSameSymbolRuns) {
  const std::size_t n = GetParam();
  const std::size_t half = n / 2;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t l0 = 0; l0 <= half; ++l0) {
      for (std::size_t l1 = 0; l1 <= half; ++l1) {
        const auto plan = lemmas::lemma1(n, s, l0, l1);
        ASSERT_EQ(plan.settings.size(), half);
        const auto in = concat(compact_symbols(half, plan.s0, l0, Sym::Eps),
                               compact_symbols(half, plan.s1, l1, Sym::Eps));
        std::vector<Sym> out;
        ASSERT_TRUE(apply_merging_stage(in, plan.settings, out));
        EXPECT_TRUE(
            matches_compact(symbol_indicator(out, Sym::Eps), s, l0 + l1))
            << "n=" << n << " s=" << s << " l0=" << l0 << " l1=" << l1;
      }
    }
  }
}

TEST_P(LemmaTest, Lemma1UsesOnlyUnicastSettings) {
  const std::size_t n = GetParam();
  for (std::size_t s = 0; s < n; ++s) {
    const auto plan = lemmas::lemma1(n, s, n / 4, n / 2);
    for (const auto setting : plan.settings) {
      EXPECT_TRUE(setting == SwitchSetting::Parallel ||
                  setting == SwitchSetting::Cross);
    }
  }
}

struct ElimCase {
  // Which lemma, symbol layout and survivor type.
  lemmas::MergePlan (*fn)(std::size_t, std::size_t, std::size_t, std::size_t);
  Sym upper_sym;
  Sym lower_sym;
  bool upper_longer;  // true: l1 <= l0 (lemmas 2/4), false: l0 <= l1
};

void check_elimination(const ElimCase& c, std::size_t n) {
  const std::size_t half = n / 2;
  const Sym survivor_sym = c.upper_longer ? c.upper_sym : c.lower_sym;
  const Sym consumed_sym = c.upper_longer ? c.lower_sym : c.upper_sym;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t lbig = 0; lbig <= half; ++lbig) {
      for (std::size_t lsmall = 0; lsmall <= lbig; ++lsmall) {
        const std::size_t l0 = c.upper_longer ? lbig : lsmall;
        const std::size_t l1 = c.upper_longer ? lsmall : lbig;
        const std::size_t l = lbig - lsmall;
        const auto plan = c.fn(n, s, l0, l1);
        ASSERT_EQ(plan.settings.size(), half);
        const auto in =
            concat(compact_symbols(half, plan.s0, l0, c.upper_sym),
                   compact_symbols(half, plan.s1, l1, c.lower_sym));
        std::vector<Sym> out;
        ASSERT_TRUE(apply_merging_stage(in, plan.settings, out))
            << "misaligned broadcast: n=" << n << " s=" << s << " l0=" << l0
            << " l1=" << l1;
        // The shorter run is fully neutralized...
        EXPECT_EQ(count_sym(out, consumed_sym), 0u);
        // ...and the surplus survives as the target compact run.
        EXPECT_TRUE(
            matches_compact(symbol_indicator(out, survivor_sym), s, l))
            << "n=" << n << " s=" << s << " l0=" << l0 << " l1=" << l1;
      }
    }
  }
}

TEST_P(LemmaTest, Lemma2UpperAlphaSurvives) {
  check_elimination({&lemmas::lemma2, Sym::Alpha, Sym::Eps, true},
                    GetParam());
}

TEST_P(LemmaTest, Lemma3LowerEpsSurvives) {
  check_elimination({&lemmas::lemma3, Sym::Alpha, Sym::Eps, false},
                    GetParam());
}

TEST_P(LemmaTest, Lemma4UpperEpsSurvives) {
  check_elimination({&lemmas::lemma4, Sym::Eps, Sym::Alpha, true},
                    GetParam());
}

TEST_P(LemmaTest, Lemma5LowerAlphaSurvives) {
  check_elimination({&lemmas::lemma5, Sym::Eps, Sym::Alpha, false},
                    GetParam());
}

TEST_P(LemmaTest, EliminationBroadcastCountEqualsConsumedRun) {
  const std::size_t n = GetParam();
  const std::size_t half = n / 2;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t l0 = 0; l0 <= half; ++l0) {
      for (std::size_t l1 = 0; l1 <= l0; ++l1) {
        const auto plan = lemmas::lemma2(n, s, l0, l1);
        const auto bcasts = static_cast<std::size_t>(std::count(
            plan.settings.begin(), plan.settings.end(),
            SwitchSetting::UpperBcast));
        EXPECT_EQ(bcasts, l1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LemmaTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

// The packed kernel derives its stage bitmasks from lemma1_geometry and
// elimination_layout instead of materialized settings vectors; these two
// tests pin the plan functions to the vectors exhaustively, so the two
// representations cannot drift apart.

TEST_P(LemmaTest, Lemma1GeometryMatchesLemma1Exhaustively) {
  const std::size_t n = GetParam();
  const std::size_t half = n / 2;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t l0 = 0; l0 <= half; ++l0) {
      for (std::size_t l1 = 0; l1 <= half; ++l1) {
        const auto plan = lemmas::lemma1(n, s, l0, l1);
        const auto g = lemmas::lemma1_geometry(n, s, l0, l1);
        EXPECT_EQ(g.s0, plan.s0);
        EXPECT_EQ(g.s1, plan.s1);
        const auto settings = binary_compact_setting(
            n, 0, g.s1, opposite_unicast(g.run), g.run);
        EXPECT_EQ(settings, plan.settings)
            << "n=" << n << " s=" << s << " l0=" << l0 << " l1=" << l1;
      }
    }
  }
}

/// Rebuild a lemma-2..5 settings vector from elimination_layout's segment
/// description, the way the packed kernel fills stage masks.
std::vector<SwitchSetting> settings_from_layout(std::size_t n, std::size_t s,
                                                std::size_t l,
                                                std::size_t run_start,
                                                std::size_t run_len,
                                                SwitchSetting ucast,
                                                SwitchSetting bcast) {
  const auto lay = lemmas::elimination_layout(n, s, l, ucast);
  const std::size_t half = n / 2;
  std::vector<SwitchSetting> out(half);
  auto fill = [&](std::size_t first, std::size_t last, SwitchSetting w) {
    for (std::size_t t = first; t < last; ++t) out[t] = w;
  };
  if (run_start + run_len <= half) {
    fill(0, run_start, lay.before);
    fill(run_start, run_start + run_len, bcast);
    fill(run_start + run_len, half, lay.after);
  } else {
    // A wrapping broadcast run only occurs in the binary regimes, where
    // the unicast fill is uniform.
    EXPECT_EQ(lay.before, lay.after);
    const std::size_t rem = run_start + run_len - half;
    fill(0, rem, bcast);
    fill(rem, run_start, lay.before);
    fill(run_start, half, bcast);
  }
  return out;
}

TEST_P(LemmaTest, EliminationLayoutMatchesSettingsExhaustively) {
  const std::size_t n = GetParam();
  const std::size_t half = n / 2;
  constexpr auto kPar = SwitchSetting::Parallel;
  constexpr auto kCross = SwitchSetting::Cross;
  constexpr auto kUp = SwitchSetting::UpperBcast;
  constexpr auto kLow = SwitchSetting::LowerBcast;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t l0 = 0; l0 <= half; ++l0) {
      for (std::size_t l1 = 0; l1 <= half; ++l1) {
        if (l1 <= l0) {
          const auto p2 = lemmas::lemma2(n, s, l0, l1);
          EXPECT_EQ(settings_from_layout(n, s, l0 - l1, p2.s1, l1, kPar, kUp),
                    p2.settings)
              << "lemma2 n=" << n << " s=" << s << " l0=" << l0
              << " l1=" << l1;
          const auto p4 = lemmas::lemma4(n, s, l0, l1);
          EXPECT_EQ(settings_from_layout(n, s, l0 - l1, p4.s1, l1, kPar, kLow),
                    p4.settings)
              << "lemma4 n=" << n << " s=" << s << " l0=" << l0
              << " l1=" << l1;
        }
        if (l0 <= l1) {
          const auto p3 = lemmas::lemma3(n, s, l0, l1);
          EXPECT_EQ(
              settings_from_layout(n, s, l1 - l0, p3.s0, l0, kCross, kUp),
              p3.settings)
              << "lemma3 n=" << n << " s=" << s << " l0=" << l0
              << " l1=" << l1;
          const auto p5 = lemmas::lemma5(n, s, l0, l1);
          EXPECT_EQ(
              settings_from_layout(n, s, l1 - l0, p5.s0, l0, kCross, kLow),
              p5.settings)
              << "lemma5 n=" << n << " s=" << s << " l0=" << l0
              << " l1=" << l1;
        }
      }
    }
  }
}

// The geometry the engines run (lemma1_geometry, elimination_layout,
// scatter_block_plan) reduces mod n'/2 and div n'/2 to masks. These tests
// hold it to a test-local reference that uses / and % exactly as Lemma 1
// and Lemmas 2-5 state them, over every start and surplus pair for every
// n' <= 128 — independent of lemma1(), which calls lemma1_geometry.

constexpr std::size_t kMaxGeometryN = 128;

/// Lemma 1: s0 = s mod n/2, s1 = (s + l0) mod n/2, and the first s1
/// switches get b = floor((s + l0) / (n/2)) mod 2 (0 parallel, 1 cross).
lemmas::Lemma1Geometry reference_lemma1(std::size_t n, std::size_t s,
                                        std::size_t l0) {
  const std::size_t half = n / 2;
  const std::size_t b = ((s + l0) / half) % 2;
  return {s % half, (s + l0) % half,
          b == 0 ? SwitchSetting::Parallel : SwitchSetting::Cross};
}

/// The Table 4 / Appendix B case split on which halves of the output the
/// surviving run [s, s + l) starts and ends in.
lemmas::EliminationLayout reference_layout(std::size_t n, std::size_t s,
                                           std::size_t l,
                                           SwitchSetting ucast) {
  const std::size_t half = n / 2;
  const SwitchSetting bar = ucast == SwitchSetting::Parallel
                                ? SwitchSetting::Cross
                                : SwitchSetting::Parallel;
  const std::size_t first_half = s / half;      // 0 or 1
  const std::size_t end_half = (s + l) / half;  // 0, 1 or 2
  if (first_half == 0) {
    return end_half == 0 ? lemmas::EliminationLayout{ucast, ucast}
                         : lemmas::EliminationLayout{bar, ucast};
  }
  return end_half == 1 ? lemmas::EliminationLayout{bar, bar}
                       : lemmas::EliminationLayout{ucast, bar};
}

/// The Table 4 plan with the starts of lemma2..lemma5: when the upper
/// child's surplus survives (Lemmas 2/4), s0 = s mod n/2 and the
/// broadcast run of l1 switches starts at s1 = (s + l) mod n/2; when the
/// lower child's does (Lemmas 3/5), s1 = s mod n/2 and the run of l0
/// switches starts at s0 = (s + l) mod n/2.
ScatterBlockPlan reference_scatter_plan(const ScatterNodeValue& c0,
                                        const ScatterNodeValue& c1,
                                        std::size_t n, std::size_t s) {
  const std::size_t half = n / 2;
  ScatterBlockPlan plan;
  if (c0.type == c1.type) {
    const auto g = reference_lemma1(n, s, c0.surplus);
    plan.rule = RouteRule::ScatterAddition;
    plan.s0 = g.s0;
    plan.s1 = g.s1;
    plan.run = g.run;
    return plan;
  }
  plan.rule = RouteRule::ScatterElimination;
  plan.bcast = c0.type == Tag::Alpha ? SwitchSetting::UpperBcast
                                     : SwitchSetting::LowerBcast;
  if (c0.surplus >= c1.surplus) {  // Lemma 2 (upper α) / Lemma 4 (upper ε)
    plan.l = c0.surplus - c1.surplus;
    plan.s0 = s % half;
    plan.s1 = (s + plan.l) % half;
    plan.run_start = plan.s1;
    plan.run_len = c1.surplus;
    plan.ucast = SwitchSetting::Parallel;
  } else {  // Lemma 3 (upper α) / Lemma 5 (upper ε)
    plan.l = c1.surplus - c0.surplus;
    plan.s0 = (s + plan.l) % half;
    plan.s1 = s % half;
    plan.run_start = plan.s0;
    plan.run_len = c0.surplus;
    plan.ucast = SwitchSetting::Cross;
  }
  return plan;
}

bool same_plan(const ScatterBlockPlan& a, const ScatterBlockPlan& b) {
  return a.rule == b.rule && a.s0 == b.s0 && a.s1 == b.s1 && a.run == b.run &&
         a.l == b.l && a.run_start == b.run_start && a.run_len == b.run_len &&
         a.ucast == b.ucast && a.bcast == b.bcast;
}

TEST(MergeLemmaGeometry, Lemma1GeometryMatchesPaperArithmetic) {
  std::size_t mismatches = 0;
  for (std::size_t n = 2; n <= kMaxGeometryN; n *= 2) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t l0 = 0; l0 <= n / 2; ++l0) {
        for (std::size_t l1 = 0; l1 <= n / 2; ++l1) {
          const auto got = lemmas::lemma1_geometry(n, s, l0, l1);
          const auto want = reference_lemma1(n, s, l0);
          if (got.s0 != want.s0 || got.s1 != want.s1 || got.run != want.run) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << "n=" << n << " s=" << s << " l0=" << l0
                            << " l1=" << l1;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MergeLemmaGeometry, EliminationLayoutMatchesPaperArithmetic) {
  std::size_t mismatches = 0;
  for (std::size_t n = 2; n <= kMaxGeometryN; n *= 2) {
    for (std::size_t s = 0; s < n; ++s) {
      // Surviving-run lengths l = |l0 - l1| <= n/2.
      for (std::size_t l = 0; l <= n / 2; ++l) {
        for (SwitchSetting ucast :
             {SwitchSetting::Parallel, SwitchSetting::Cross}) {
          const auto got = lemmas::elimination_layout(n, s, l, ucast);
          const auto want = reference_layout(n, s, l, ucast);
          if (got.before != want.before || got.after != want.after) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << "n=" << n << " s=" << s << " l=" << l
                            << " ucast=" << ucast;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MergeLemmaGeometry, ScatterBlockPlanMatchesPaperArithmetic) {
  // Same-type children take Lemma 1 (ε/α-addition); opposite types take
  // Lemmas 2-5 (ε/α-elimination), with the α child upper or lower.
  const std::pair<Tag, Tag> type_pairs[] = {{Tag::Alpha, Tag::Alpha},
                                            {Tag::Eps, Tag::Eps},
                                            {Tag::Alpha, Tag::Eps},
                                            {Tag::Eps, Tag::Alpha}};
  std::size_t mismatches = 0;
  for (std::size_t n = 2; n <= kMaxGeometryN; n *= 2) {
    for (const auto& [t0, t1] : type_pairs) {
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t l0 = 0; l0 <= n / 2; ++l0) {
          for (std::size_t l1 = 0; l1 <= n / 2; ++l1) {
            const ScatterNodeValue c0{t0, l0};
            const ScatterNodeValue c1{t1, l1};
            const ScatterBlockPlan got = scatter_block_plan(c0, c1, n, s);
            if (!same_plan(got, reference_scatter_plan(c0, c1, n, s))) {
              if (++mismatches <= 5) {
                ADD_FAILURE() << "n=" << n << " types=(" << t0 << "," << t1
                              << ") s=" << s << " l0=" << l0 << " l1=" << l1;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(MergeLemmaGeometry, PreconditionsEnforced) {
  // The mask arithmetic is only the paper's arithmetic for a power of
  // two, so the preconditions must keep rejecting any other n'.
  EXPECT_THROW(lemmas::lemma1_geometry(6, 0, 1, 1), ContractViolation);
  EXPECT_THROW(lemmas::lemma1_geometry(12, 5, 2, 2), ContractViolation);
  EXPECT_THROW(lemmas::lemma1_geometry(8, 8, 1, 1), ContractViolation);
  EXPECT_THROW(lemmas::lemma1_geometry(8, 0, 5, 0), ContractViolation);
  const ScatterNodeValue alpha{Tag::Alpha, 1};
  const ScatterNodeValue eps{Tag::Eps, 1};
  EXPECT_THROW(scatter_block_plan(alpha, alpha, 6, 0), ContractViolation);
  EXPECT_THROW(scatter_block_plan(alpha, eps, 6, 0), ContractViolation);
  EXPECT_THROW(scatter_block_plan(eps, alpha, 8, 8), ContractViolation);
}

TEST(MergeLemmas, PreconditionsEnforced) {
  EXPECT_THROW(lemmas::lemma1(6, 0, 1, 1), ContractViolation);   // not pow2
  EXPECT_THROW(lemmas::lemma1(8, 8, 1, 1), ContractViolation);   // s >= n
  EXPECT_THROW(lemmas::lemma1(8, 0, 5, 0), ContractViolation);   // l0 > n/2
  EXPECT_THROW(lemmas::lemma2(8, 0, 1, 2), ContractViolation);   // l1 > l0
  EXPECT_THROW(lemmas::lemma3(8, 0, 2, 1), ContractViolation);   // l0 > l1
  EXPECT_THROW(lemmas::lemma4(8, 0, 1, 2), ContractViolation);
  EXPECT_THROW(lemmas::lemma5(8, 0, 2, 1), ContractViolation);
}

TEST(MergeLemmas, Lemma1WorkedExample) {
  // n = 4, s = 1, l0 = l1 = 1: γ-run of 2 starting at 1 needs the stage
  // fully parallel (derived by hand in DESIGN review).
  const auto plan = lemmas::lemma1(4, 1, 1, 1);
  EXPECT_EQ(plan.s0, 1u);
  EXPECT_EQ(plan.s1, 0u);
  EXPECT_EQ(plan.settings,
            (std::vector<SwitchSetting>{SwitchSetting::Parallel,
                                        SwitchSetting::Parallel}));
}

TEST(MergeLemmas, Lemma1WrappedWorkedExample) {
  // n = 4, s = 3, l = 2 (wraps): fully crossing.
  const auto plan = lemmas::lemma1(4, 3, 1, 1);
  EXPECT_EQ(plan.s0, 1u);
  EXPECT_EQ(plan.s1, 0u);
  EXPECT_EQ(plan.settings,
            (std::vector<SwitchSetting>{SwitchSetting::Cross,
                                        SwitchSetting::Cross}));
}

}  // namespace
}  // namespace brsmn
