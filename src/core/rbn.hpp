// The reverse banyan network fabric: a settings grid over the RBN
// topology plus generic stage-by-stage value propagation.
//
// The fabric is deliberately dumb: it holds each switch's setting and
// moves values. All intelligence lives in the distributed routing
// algorithms (bit_sorter / scatter / quasisort), which fill in the grid,
// mirroring the paper's separation between the switching fabric and the
// per-switch routing circuitry.
//
// A 2x2 switch has four operations (Fig. 7), so its whole state is two
// bits: the grid keeps, per stage, the su bit-plane (set at a pair's
// upper line for Cross and LowerBcast) and the sl bit-plane (set at its
// lower line for Cross and UpperBcast) — the layout of the packed
// datapath's stage masks (packed::StageMasks), which install copies in
// word by word.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Reset every switch of stages [first_stage, stages()] to parallel
  /// (the identity permutation).
  void reset(int first_stage = 1);

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

  /// Overwrite stage `stage` from level-wide datapath masks (the su and
  /// sl words of a packed::StageMasks): this fabric's line i takes bit
  /// first_line + i of each. `first_line` is a multiple of size() (a
  /// BSN's slice of its level), so a fabric of 64 lines or more copies
  /// whole words and a narrower one shifts and masks inside one word.
  /// The bulk form the packed compile, plan replay and patching use.
  /// Inline: replay installs every (BSN, stage) of a pass, thousands of
  /// calls per route at n = 1024.
  void install(int stage, std::span<const std::uint64_t> su,
               std::span<const std::uint64_t> sl, std::size_t first_line = 0) {
    const std::size_t n = size();
    BRSMN_EXPECTS(stage >= 1 && stage <= stages());
    BRSMN_EXPECTS((first_line & (n - 1)) == 0);  // n is a power of two
    BRSMN_EXPECTS(first_line + n <= su.size() * 64 &&
                  first_line + n <= sl.size() * 64);
    const std::size_t w0 = first_line / 64;
    std::uint64_t* const su_out = plane(stage, false);
    std::uint64_t* const sl_out = plane(stage, true);
    if (n >= 64) {
      for (std::size_t w = 0; w < words_; ++w) {
        su_out[w] = su[w0 + w];
        sl_out[w] = sl[w0 + w];
      }
      return;
    }
    const std::uint64_t keep = (std::uint64_t{1} << n) - 1;
    su_out[0] = (su[w0] >> (first_line % 64)) & keep;
    sl_out[0] = (sl[w0] >> (first_line % 64)) & keep;
  }

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
          SwitchContext ctx{stage, block * half + t, up, low};
          auto [u, v] = fn(ctx, read(stage, up, low), std::move(lines[up]),
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
  /// Stage `stage`'s su (lower = false) or sl (lower = true) plane.
  std::uint64_t* plane(int stage, bool lower) {
    return planes_.data() +
           (2 * static_cast<std::size_t>(stage - 1) + lower) * words_;
  }
  const std::uint64_t* plane(int stage, bool lower) const {
    return planes_.data() +
           (2 * static_cast<std::size_t>(stage - 1) + lower) * words_;
  }

  /// The setting of the switch joining lines `up` and `low` at `stage`:
  /// its su bit at `up`, its sl bit at `low`.
  SwitchSetting read(int stage, std::size_t up, std::size_t low) const {
    return setting_from_bits((plane(stage, false)[up / 64] >> (up % 64)) & 1u,
                             (plane(stage, true)[low / 64] >> (low % 64)) & 1u);
  }
  void write(int stage, std::size_t up, std::size_t low, SwitchSetting s);

  topo::RbnTopology topo_;
  std::size_t words_;  ///< words per bit-plane: ceil(n / 64)
  /// Per stage, the su plane then the sl plane, words_ words each.
  std::vector<std::uint64_t> planes_;
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
