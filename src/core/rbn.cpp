#include "core/rbn.hpp"

namespace brsmn {

Rbn::Rbn(std::size_t n) : topo_(n) {
  settings_.resize(static_cast<std::size_t>(topo_.stages()));
  for (auto& stage : settings_) {
    stage.assign(topo_.switches_per_stage(), SwitchSetting::Parallel);
  }
}

void Rbn::reset() {
  for (auto& stage : settings_) {
    std::fill(stage.begin(), stage.end(), SwitchSetting::Parallel);
  }
}

SwitchSetting Rbn::setting(int stage, std::size_t switch_index) const {
  BRSMN_EXPECTS(stage >= 1 && stage <= stages());
  BRSMN_EXPECTS(switch_index < topo_.switches_per_stage());
  return settings_[static_cast<std::size_t>(stage - 1)][switch_index];
}

void Rbn::set(int stage, std::size_t switch_index, SwitchSetting s) {
  BRSMN_EXPECTS(stage >= 1 && stage <= stages());
  BRSMN_EXPECTS(switch_index < topo_.switches_per_stage());
  settings_[static_cast<std::size_t>(stage - 1)][switch_index] = s;
}

void Rbn::set_block(int stage, std::size_t block,
                    std::span<const SwitchSetting> settings) {
  const std::size_t half = topo_.block_size(stage) / 2;
  BRSMN_EXPECTS(settings.size() == half);
  const std::size_t base = topo_.block_base(stage, block);
  for (std::size_t t = 0; t < half; ++t) {
    set(stage, topo_.stage_switch(stage, base + t), settings[t]);
  }
}

void Rbn::install_stage(int stage, std::span<const SwitchSetting> row) {
  BRSMN_EXPECTS(stage >= 1 && stage <= stages());
  auto& dst = settings_[static_cast<std::size_t>(stage - 1)];
  BRSMN_EXPECTS(row.size() == dst.size());
  std::copy(row.begin(), row.end(), dst.begin());
}

std::vector<SwitchSetting> Rbn::block_settings(int stage,
                                               std::size_t block) const {
  const std::size_t half = topo_.block_size(stage) / 2;
  const std::size_t base = topo_.block_base(stage, block);
  std::vector<SwitchSetting> out(half);
  for (std::size_t t = 0; t < half; ++t) {
    out[t] = setting(stage, topo_.stage_switch(stage, base + t));
  }
  return out;
}

}  // namespace brsmn
