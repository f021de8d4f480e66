// The reverse banyan network fabric: a settings grid over the RBN
// topology plus generic stage-by-stage value propagation.
//
// The fabric is deliberately dumb: it holds one SwitchSetting per switch
// and moves values. All intelligence lives in the distributed routing
// algorithms (bit_sorter / scatter / quasisort), which fill in the grid,
// mirroring the paper's separation between the switching fabric and the
// per-switch routing circuitry.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/switch_setting.hpp"
#include "topology/rbn_topology.hpp"

namespace brsmn {

/// Where a switch application happens; handed to propagation visitors so
/// callers can trace paths or verify invariants.
struct SwitchContext {
  int stage;                ///< 1-based stage (= merging network of size 2^stage)
  std::size_t switch_index; ///< logical switch index within the stage
  std::size_t upper_line;   ///< line entering/leaving the upper port
  std::size_t lower_line;   ///< line entering/leaving the lower port
};

class Rbn {
 public:
  /// An n x n reverse banyan fabric, all switches initially parallel.
  explicit Rbn(std::size_t n);

  const topo::RbnTopology& topology() const noexcept { return topo_; }
  std::size_t size() const noexcept { return topo_.size(); }
  int stages() const noexcept { return topo_.stages(); }

  /// Reset every switch to parallel (the identity permutation).
  void reset();

  SwitchSetting setting(int stage, std::size_t switch_index) const;
  void set(int stage, std::size_t switch_index, SwitchSetting s);

  /// Install the merging-network settings of block `block` at stage
  /// `stage`; `settings.size()` must equal block_size(stage)/2. Logical
  /// switch t of the block joins block lines (t, t + block_size/2).
  void set_block(int stage, std::size_t block,
                 std::span<const SwitchSetting> settings);

  /// Read back one block's settings (logical order).
  std::vector<SwitchSetting> block_settings(int stage,
                                            std::size_t block) const;

  /// Overwrite a whole stage's settings row in one copy. `row` is in
  /// block-major logical order (logical switch t of block `block` is
  /// stage switch block * block_size(stage)/2 + t) and must cover the
  /// stage exactly — the bulk form the packed compile, plan replay and
  /// patching use to install a stage decoded from, or stored beside, its
  /// datapath masks.
  void install_stage(int stage, std::span<const SwitchSetting> row);

  /// Propagate `lines` (size n) through stages [from_stage, to_stage]
  /// inclusive. For each switch, `fn(ctx, setting, upper, lower)` must
  /// return the pair of output values {upper_out, lower_out}. Before each
  /// stage's switches fire, `observe(stage, lines)` sees the stage-entry
  /// line state — the seam the fabric heatmaps record through (packed
  /// drivers sample their tag planes at the same point, so the heatmaps
  /// come out bit-identical across engines).
  template <typename T, typename SwitchFn, typename StageObserver>
  std::vector<T> propagate(std::vector<T> lines, int from_stage, int to_stage,
                           SwitchFn&& fn, StageObserver&& observe) const {
    BRSMN_EXPECTS(lines.size() == size());
    BRSMN_EXPECTS(from_stage >= 1 && to_stage <= stages() &&
                  from_stage <= to_stage);
    std::vector<T> next(lines.size());
    for (int stage = from_stage; stage <= to_stage; ++stage) {
      observe(stage, static_cast<const std::vector<T>&>(lines));
      const std::size_t half = topo_.block_size(stage) / 2;
      for (std::size_t block = 0; block < topo_.blocks_in_stage(stage);
           ++block) {
        const std::size_t base = topo_.block_base(stage, block);
        for (std::size_t t = 0; t < half; ++t) {
          const std::size_t up = base + t;
          const std::size_t low = base + t + half;
          const std::size_t sw = topo_.stage_switch(stage, up);
          SwitchContext ctx{stage, sw, up, low};
          auto [u, v] = fn(ctx, setting(stage, sw), std::move(lines[up]),
                           std::move(lines[low]));
          next[up] = std::move(u);
          next[low] = std::move(v);
        }
      }
      lines.swap(next);
    }
    return lines;
  }

  /// propagate without a stage observer.
  template <typename T, typename SwitchFn>
  std::vector<T> propagate(std::vector<T> lines, int from_stage, int to_stage,
                           SwitchFn&& fn) const {
    return propagate(std::move(lines), from_stage, to_stage,
                     std::forward<SwitchFn>(fn),
                     [](int, const std::vector<T>&) {});
  }

  /// Propagate through all stages.
  template <typename T, typename SwitchFn>
  std::vector<T> propagate(std::vector<T> lines, SwitchFn&& fn) const {
    return propagate(std::move(lines), 1, stages(),
                     std::forward<SwitchFn>(fn));
  }

  /// Propagate through all stages with a stage-entry observer.
  template <typename T, typename SwitchFn, typename StageObserver>
  std::vector<T> propagate(std::vector<T> lines, SwitchFn&& fn,
                           StageObserver&& observe) const {
    return propagate(std::move(lines), 1, stages(),
                     std::forward<SwitchFn>(fn),
                     std::forward<StageObserver>(observe));
  }

 private:
  topo::RbnTopology topo_;
  // settings_[stage-1][switch_index], switch_index in stage-switch order.
  std::vector<std::vector<SwitchSetting>> settings_;
};

/// The standard unicast-only switch function: parallel or cross. Throws
/// if the switch is set to a broadcast (callers that allow broadcasts use
/// scatter_switch_fn instead).
template <typename T>
std::pair<T, T> unicast_switch(const SwitchContext&, SwitchSetting s, T up,
                               T low) {
  switch (s) {
    case SwitchSetting::Parallel: return {std::move(up), std::move(low)};
    case SwitchSetting::Cross: return {std::move(low), std::move(up)};
    default: break;
  }
  BRSMN_EXPECTS_MSG(false, "broadcast setting in unicast-only propagation");
  return {std::move(up), std::move(low)};
}

}  // namespace brsmn
