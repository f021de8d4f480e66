#include "core/merge_lemmas.hpp"

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace brsmn::lemmas {

namespace {

constexpr SwitchSetting kPar = SwitchSetting::Parallel;
constexpr SwitchSetting kCross = SwitchSetting::Cross;
constexpr SwitchSetting kUp = SwitchSetting::UpperBcast;
constexpr SwitchSetting kLow = SwitchSetting::LowerBcast;

void check_common(std::size_t n, std::size_t s, std::size_t l0,
                  std::size_t l1) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
  BRSMN_EXPECTS(s < n);
  BRSMN_EXPECTS(l0 <= n / 2 && l1 <= n / 2);
}

}  // namespace

std::vector<SwitchSetting> elimination_settings(
    std::size_t n, std::size_t s, std::size_t l, std::size_t run_start,
    std::size_t run_len, SwitchSetting ucast, SwitchSetting bcast) {
  const SwitchSetting ucast_bar = opposite_unicast(ucast);
  if (s + l < n / 2) {
    return binary_compact_setting(n, run_start, run_len, ucast, bcast);
  }
  if (s < n / 2) {  // s < n/2 <= s + l
    return trinary_compact_setting(n, run_start, run_len, ucast_bar, bcast,
                                   ucast);
  }
  if (s + l < n) {  // n/2 <= s, s + l < n
    return binary_compact_setting(n, run_start, run_len, ucast_bar, bcast);
  }
  // n/2 <= s, n <= s + l
  return trinary_compact_setting(n, run_start, run_len, ucast, bcast,
                                 ucast_bar);
}

MergePlan lemma1(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1) {
  const Lemma1Geometry g = lemma1_geometry(n, s, l0, l1);
  MergePlan plan;
  plan.s0 = g.s0;
  plan.s1 = g.s1;
  plan.settings =
      binary_compact_setting(n, 0, plan.s1, opposite_unicast(g.run), g.run);
  return plan;
}

MergePlan lemma2(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1) {
  check_common(n, s, l0, l1);
  BRSMN_EXPECTS(l1 <= l0);
  const std::size_t half = n / 2;
  const std::size_t l = l0 - l1;
  MergePlan plan;
  plan.s0 = s % half;
  plan.s1 = (s + l) % half;
  plan.settings = elimination_settings(n, s, l, plan.s1, l1, kPar, kUp);
  return plan;
}

MergePlan lemma3(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1) {
  check_common(n, s, l0, l1);
  BRSMN_EXPECTS(l0 <= l1);
  const std::size_t half = n / 2;
  const std::size_t l = l1 - l0;
  MergePlan plan;
  plan.s0 = (s + l) % half;
  plan.s1 = s % half;
  plan.settings = elimination_settings(n, s, l, plan.s0, l0, kCross, kUp);
  return plan;
}

MergePlan lemma4(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1) {
  check_common(n, s, l0, l1);
  BRSMN_EXPECTS(l1 <= l0);
  const std::size_t half = n / 2;
  const std::size_t l = l0 - l1;
  MergePlan plan;
  plan.s0 = s % half;
  plan.s1 = (s + l) % half;
  plan.settings = elimination_settings(n, s, l, plan.s1, l1, kPar, kLow);
  return plan;
}

MergePlan lemma5(std::size_t n, std::size_t s, std::size_t l0,
                 std::size_t l1) {
  check_common(n, s, l0, l1);
  BRSMN_EXPECTS(l0 <= l1);
  const std::size_t half = n / 2;
  const std::size_t l = l1 - l0;
  MergePlan plan;
  plan.s0 = (s + l) % half;
  plan.s1 = s % half;
  plan.settings = elimination_settings(n, s, l, plan.s0, l0, kCross, kLow);
  return plan;
}

}  // namespace brsmn::lemmas
