// 2x2 switch settings and the compact switch-setting sequences W
// (paper Figs. 3/7, Section 4, and Table 5).
//
// A 2x2 switch supports four operations. Parallel and crossing are
// one-to-one; upper/lower broadcast duplicate one input onto both outputs
// and are used exclusively to scatter an α paired with an ε into a 0 and
// a 1 (Fig. 3c/3d).
//
// The switch settings of one merging-network stage are themselves a
// circular compact sequence over setting values, written
// W^{n/2}_{s,l;β,γ} (binary) or W^{n/2}_{s,l1,l2;β1,β2,β3} (trinary).
// BinaryCompactSetting / TrinaryCompactSetting implement Table 5 verbatim.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"

namespace brsmn {

enum class SwitchSetting : std::uint8_t {
  Parallel = 0,    ///< upper->upper, lower->lower (Fig. 7a)
  Cross = 1,       ///< upper->lower, lower->upper (Fig. 7b)
  UpperBcast = 2,  ///< upper input duplicated to both outputs (Fig. 7c)
  LowerBcast = 3,  ///< lower input duplicated to both outputs (Fig. 7d)
};

/// The paper encodes settings as integers r_i in {0,1,2,3}; these helpers
/// convert and validate.
SwitchSetting setting_from_int(int r);
int setting_to_int(SwitchSetting s);

/// b-bar of Lemma 1: the opposite unicast setting (parallel <-> cross).
/// Precondition: s is a unicast setting.
constexpr SwitchSetting opposite_unicast(SwitchSetting s) {
  BRSMN_EXPECTS(s == SwitchSetting::Parallel || s == SwitchSetting::Cross);
  return s == SwitchSetting::Parallel ? SwitchSetting::Cross
                                      : SwitchSetting::Parallel;
}

/// The two bits that store one switch setting: su, at the pair's upper
/// line, is set for Cross and LowerBcast; sl, at its lower line, for
/// Cross and UpperBcast (the fabric grids and the packed datapath masks
/// both keep exactly these bits). Every mask writer goes through these
/// two — Rbn::set, fill_masks, the fault seam's set_mask_switch, and the
/// bottom-stage tables (core/block_tables.hpp).
constexpr bool sets_su(SwitchSetting s) {
  return s == SwitchSetting::Cross || s == SwitchSetting::LowerBcast;
}
constexpr bool sets_sl(SwitchSetting s) {
  return s == SwitchSetting::Cross || s == SwitchSetting::UpperBcast;
}

/// The inverse: the setting whose mask bits are (su, sl), su | (su^sl)<<1
/// — (0,0) Parallel, (1,1) Cross, (0,1) UpperBcast, (1,0) LowerBcast.
constexpr SwitchSetting setting_from_bits(bool su, bool sl) {
  return static_cast<SwitchSetting>(static_cast<unsigned>(su) |
                                    (static_cast<unsigned>(su != sl) << 1));
}

std::string_view setting_name(SwitchSetting s);
std::ostream& operator<<(std::ostream& os, SwitchSetting s);

/// BinaryCompactSetting of Table 5: the n'/2 settings W^{n'/2}_{s,l;b1,b2} —
/// l consecutive switches get `run` (= setting_2) starting at position s
/// (circularly); the rest get `rest` (= setting_1).
/// Preconditions: n' is a power of two >= 2, s < n'/2, l <= n'/2.
std::vector<SwitchSetting> binary_compact_setting(std::size_t n_prime,
                                                  std::size_t s, std::size_t l,
                                                  SwitchSetting rest,
                                                  SwitchSetting run);

/// TrinaryCompactSetting of Table 5: W^{n'/2}_{s,l,n'/2-s-l;b1,b2,b3} —
/// positions [s, s+l) get `run` (setting_2), positions [s+l, n'/2) get
/// `after` (setting_3), positions [0, s) get `rest` (setting_1).
/// Precondition: s + l <= n'/2 (the trinary form is only invoked in the
/// non-wrapping regimes of Lemmas 2-5).
std::vector<SwitchSetting> trinary_compact_setting(
    std::size_t n_prime, std::size_t s, std::size_t l, SwitchSetting rest,
    SwitchSetting run, SwitchSetting after);

}  // namespace brsmn
