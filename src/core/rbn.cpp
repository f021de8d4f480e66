#include "core/rbn.hpp"

#include <algorithm>

namespace brsmn {

namespace {

constexpr std::size_t kWordBits = 64;

void put_bit(std::uint64_t* plane, std::size_t i, bool v) {
  const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
  plane[i / kWordBits] = v ? plane[i / kWordBits] | bit
                           : plane[i / kWordBits] & ~bit;
}

/// The upper line of stage switch `switch_index`: switches are
/// block-major with 2^(stage-1) per block, block b joining lines
/// (b*2^stage + t, b*2^stage + t + 2^(stage-1)).
std::size_t upper_line(int stage, std::size_t switch_index) {
  const auto q = static_cast<unsigned>(stage - 1);
  return ((switch_index >> q) << (q + 1)) |
         (switch_index & ((std::size_t{1} << q) - 1));
}

}  // namespace

Rbn::Rbn(std::size_t n)
    : topo_(n),
      words_((n + kWordBits - 1) / kWordBits),
      planes_(2 * static_cast<std::size_t>(topo_.stages()) * words_, 0) {}

void Rbn::reset(int first_stage) {
  BRSMN_EXPECTS(first_stage >= 1 && first_stage <= stages() + 1);
  const std::size_t first =
      2 * static_cast<std::size_t>(first_stage - 1) * words_;
  std::fill(planes_.begin() + static_cast<std::ptrdiff_t>(first),
            planes_.end(), 0);
}

SwitchSetting Rbn::setting(int stage, std::size_t switch_index) const {
  BRSMN_EXPECTS(stage >= 1 && stage <= stages());
  BRSMN_EXPECTS(switch_index < topo_.switches_per_stage());
  const std::size_t up = upper_line(stage, switch_index);
  return read(stage, up, up + (std::size_t{1} << (stage - 1)));
}

void Rbn::set(int stage, std::size_t switch_index, SwitchSetting s) {
  BRSMN_EXPECTS(stage >= 1 && stage <= stages());
  BRSMN_EXPECTS(switch_index < topo_.switches_per_stage());
  const std::size_t up = upper_line(stage, switch_index);
  write(stage, up, up + (std::size_t{1} << (stage - 1)), s);
}

void Rbn::write(int stage, std::size_t up, std::size_t low, SwitchSetting s) {
  put_bit(plane(stage, false), up, sets_su(s));
  put_bit(plane(stage, true), low, sets_sl(s));
}

void Rbn::set_block(int stage, std::size_t block,
                    std::span<const SwitchSetting> settings) {
  const std::size_t half = topo_.block_size(stage) / 2;
  BRSMN_EXPECTS(settings.size() == half);
  const std::size_t base = topo_.block_base(stage, block);
  for (std::size_t t = 0; t < half; ++t) {
    write(stage, base + t, base + t + half, settings[t]);
  }
}

std::vector<SwitchSetting> Rbn::block_settings(int stage,
                                               std::size_t block) const {
  const std::size_t half = topo_.block_size(stage) / 2;
  const std::size_t base = topo_.block_base(stage, block);
  std::vector<SwitchSetting> out(half);
  for (std::size_t t = 0; t < half; ++t) {
    out[t] = read(stage, base + t, base + t + half);
  }
  return out;
}

}  // namespace brsmn
