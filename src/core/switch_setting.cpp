#include "core/switch_setting.hpp"

#include <ostream>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace brsmn {

SwitchSetting setting_from_int(int r) {
  BRSMN_EXPECTS(r >= 0 && r <= 3);
  return static_cast<SwitchSetting>(r);
}

int setting_to_int(SwitchSetting s) { return static_cast<int>(s); }

std::string_view setting_name(SwitchSetting s) {
  switch (s) {
    case SwitchSetting::Parallel: return "parallel";
    case SwitchSetting::Cross: return "cross";
    case SwitchSetting::UpperBcast: return "upper-bcast";
    case SwitchSetting::LowerBcast: return "lower-bcast";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, SwitchSetting s) {
  return os << setting_name(s);
}

std::vector<SwitchSetting> binary_compact_setting(std::size_t n_prime,
                                                  std::size_t s, std::size_t l,
                                                  SwitchSetting rest,
                                                  SwitchSetting run) {
  BRSMN_EXPECTS(is_pow2(n_prime) && n_prime >= 2);
  const std::size_t half = n_prime / 2;
  BRSMN_EXPECTS(s < half && l <= half);
  std::vector<SwitchSetting> settings(half, rest);
  // Table 5, written positionally: switch i gets `run` iff i lies in the
  // circular run [s, s+l).
  for (std::size_t i = 0; i < half; ++i) {
    const bool in_run =
        (s + l <= half) ? (i >= s && i < s + l) : (i >= s || i < s + l - half);
    if (in_run) settings[i] = run;
  }
  return settings;
}

std::vector<SwitchSetting> trinary_compact_setting(
    std::size_t n_prime, std::size_t s, std::size_t l, SwitchSetting rest,
    SwitchSetting run, SwitchSetting after) {
  BRSMN_EXPECTS(is_pow2(n_prime) && n_prime >= 2);
  const std::size_t half = n_prime / 2;
  BRSMN_EXPECTS(s < half || (s == 0 && half == 0));
  BRSMN_EXPECTS(s + l <= half);
  std::vector<SwitchSetting> settings(half, rest);
  for (std::size_t i = s; i < s + l; ++i) settings[i] = run;
  for (std::size_t i = s + l; i < half; ++i) settings[i] = after;
  return settings;
}

}  // namespace brsmn
