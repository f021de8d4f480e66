// The five merge lemmas (paper Lemmas 1-5, Appendices A/B).
//
// Each lemma answers: given a target circular compact sequence C^n_{s,l}
// at the outputs of an n x n merging network, where must the two half-size
// compact sequences start (s0 for the upper half, s1 for the lower half)
// and how must the stage's n/2 switches be set so the merge succeeds?
//
//   Lemma 1 (γ-addition):   C_{s0,l0;β,γ} + C_{s1,l1;β,γ} -> C_{s,l0+l1;β,γ}
//                           using only parallel/cross settings.
//   Lemmas 2-5 (α/ε-elimination): one half carries an α-run, the other an
//   ε-run; the overlap is neutralized by broadcast switches and the
//   surplus survives as the output run:
//     Lemma 2: upper α (l0) + lower ε (l1),  l0 >= l1 -> α-run of l0-l1
//     Lemma 3: upper α (l0) + lower ε (l1),  l1 >= l0 -> ε-run of l1-l0
//     Lemma 4: upper ε (l0) + lower α (l1),  l0 >= l1 -> ε-run of l0-l1
//     Lemma 5: upper ε (l0) + lower α (l1),  l1 >= l0 -> α-run of l1-l0
//
// The functions return the *plan*: child start positions plus the settings
// vector (logical switch order). They are pure and total over the lemma's
// stated preconditions; tests/test_merge_lemmas.cpp verifies each plan
// exhaustively against a direct simulation for all small n.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "core/switch_setting.hpp"

namespace brsmn::lemmas {

/// Output of a merge-lemma computation: where the two half-size compact
/// sequences must start, and the merging-stage switch settings.
struct MergePlan {
  std::size_t s0 = 0;  ///< required γ-run start in the upper half sequence
  std::size_t s1 = 0;  ///< required γ-run start in the lower half sequence
  std::vector<SwitchSetting> settings;  ///< n/2 settings, logical order
};

/// The settings-free core of Lemma 1: the child start positions plus the
/// W^{n/2}_{0,s1;b-bar,b} run value b. lemma1() materializes the settings
/// vector from this; the packed kernel fills stage bitmasks from it
/// directly (and generates its bottom-stage tables from it at compile
/// time), so both engines share one copy of the decision arithmetic.
struct Lemma1Geometry {
  std::size_t s0 = 0;
  std::size_t s1 = 0;
  /// Switches [0, s1) get `run`; [s1, n/2) get opposite_unicast(run).
  SwitchSetting run = SwitchSetting::Parallel;
};

/// Preconditions as lemma1(). n is a power of two, so Lemma 1's
/// s mod n/2 is s & (n/2 - 1) and b = floor((s + l0) / (n/2)) mod 2 is
/// the n/2 bit of s + l0.
constexpr Lemma1Geometry lemma1_geometry(std::size_t n, std::size_t s,
                                         std::size_t l0, std::size_t l1) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
  BRSMN_EXPECTS(s < n);
  BRSMN_EXPECTS(l0 <= n / 2 && l1 <= n / 2);
  BRSMN_EXPECTS(l0 + l1 <= n);
  const std::size_t half = n / 2;
  // The first s1 switches get b, the rest b-bar (W^{n/2}_{0,s1; b-bar, b}).
  return {s & (half - 1), (s + l0) & (half - 1),
          ((s + l0) & half) != 0 ? SwitchSetting::Cross
                                 : SwitchSetting::Parallel};
}

/// The unicast fill around the broadcast run of elimination_settings():
/// switch positions before `run_start` get `before`, positions at or past
/// `run_start + run_len` get `after`, and positions inside the (possibly
/// wrapping) broadcast run get the bcast setting. Shares the Table 4 /
/// Appendix B case split with elimination_settings(); the two are verified
/// equivalent exhaustively by tests/test_merge_lemmas.cpp.
struct EliminationLayout {
  SwitchSetting before = SwitchSetting::Parallel;
  SwitchSetting after = SwitchSetting::Parallel;
};

constexpr EliminationLayout elimination_layout(std::size_t n, std::size_t s,
                                               std::size_t l,
                                               SwitchSetting ucast) {
  const SwitchSetting ucast_bar = opposite_unicast(ucast);
  const std::size_t half = n / 2;
  if (s + l < half) return {ucast, ucast};
  if (s < half) return {ucast_bar, ucast};  // s < n/2 <= s + l
  if (s + l < n) return {ucast_bar, ucast_bar};
  return {ucast, ucast_bar};  // n/2 <= s, n <= s + l
}

/// Lemma 1. Preconditions: n even power of two, s < n, l0,l1 <= n/2,
/// l0 + l1 <= n.
MergePlan lemma1(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1);

/// Lemma 2. Upper half holds C_{s0,l0;χ,α}, lower C_{s1,l1;χ,ε}, with
/// l1 <= l0 <= n/2; target C_{s,l0-l1;χ,α}.
MergePlan lemma2(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1);

/// Lemma 3. Upper C_{s0,l0;χ,α}, lower C_{s1,l1;χ,ε}, l0 <= l1 <= n/2;
/// target C_{s,l1-l0;χ,ε}.
MergePlan lemma3(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1);

/// Lemma 4. Upper C_{s0,l0;χ,ε}, lower C_{s1,l1;χ,α}, l1 <= l0 <= n/2;
/// target C_{s,l0-l1;χ,ε}.
MergePlan lemma4(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1);

/// Lemma 5. Upper C_{s0,l0;χ,ε}, lower C_{s1,l1;χ,α}, l0 <= l1 <= n/2;
/// target C_{s,l1-l0;χ,α}.
MergePlan lemma5(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1);

/// The shared case analysis of Lemmas 2-5 (and of Table 4's switch-setting
/// phase): settings placing a broadcast run of `run_len` switches at
/// `run_start` with the unicast fill dictated by which of the four
/// intervals [0,n/2), [n/2,n) the target run [s, s+l) occupies.
/// `ucast` is Parallel when the longer (surviving) run sits in the upper
/// half (Lemmas 2/4), Cross when it sits in the lower half (Lemmas 3/5);
/// `bcast` is UpperBcast when the α-run is in the upper half, LowerBcast
/// otherwise.
std::vector<SwitchSetting> elimination_settings(
    std::size_t n, std::size_t s, std::size_t l, std::size_t run_start,
    std::size_t run_len, SwitchSetting ucast, SwitchSetting bcast);

}  // namespace brsmn::lemmas
