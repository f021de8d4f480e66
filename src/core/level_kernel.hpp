// Per-level state of the bit-packed routing kernel, shared between the
// packed route drivers (core/packed_kernel.cpp) and the compiled-plan
// replay path (core/route_plan.cpp).
//
// A LevelKernel holds one level's line state as bit-planes (identity /
// broadcast codes plus the 3-bit Table 1 tag encoding) together with the
// per-stage datapath masks and the precomputed broadcast events. The
// route drivers build this state from scratch each route; the replay path
// restores it from a RoutePlan's checkpoints and only re-runs the
// datapath, so both sides must agree on the exact layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/line_value.hpp"
#include "core/multicast_assignment.hpp"
#include "core/packed_kernel.hpp"
#include "core/switch_setting.hpp"

namespace brsmn::obs {
class FabricHeatmap;
}  // namespace brsmn::obs

namespace brsmn::pkern {

/// One scatter broadcast switch: the upper line of the pair and which
/// input carries the alpha (UpperBcast -> upper input).
struct BcastEvent {
  std::size_t upper = 0;
  bool alpha_upper = false;
  std::size_t ord = 0;  ///< copy-id allocation order (scalar visit order)
};

/// Per-level packed state shared by the two engines.
struct LevelKernel {
  std::size_t n = 0;
  int stages = 0;            ///< S = log2 of this level's BSN size
  std::size_t wcode = 0;     ///< code planes (m + 1 bits: codes < 2n)
  packed::PackedLines state;  ///< wcode code planes + 3 tag planes
  packed::PackedLines scratch;
  std::vector<packed::StageMasks> masks;         ///< masks[j-1], j = 1..S
  std::vector<std::vector<BcastEvent>> events;   ///< per stage, visit order
  std::vector<std::size_t> parent_code;          ///< by event ord
  std::uint64_t copy_id_base = 0;
  std::size_t num_events = 0;
  /// Optional fabric heatmap: when set, the datapaths record per-switch
  /// activity from the tag planes at every stage entry for heat_level.
  /// Cleared by default so replay workspaces stay observation-free unless
  /// the caller opts in per route.
  obs::FabricHeatmap* heat = nullptr;
  int heat_level = 0;
  /// The SIMD backend this kernel's word loops dispatch through —
  /// auto-selected by default, overridden per route from
  /// RouteOptions::simd_backend. Every backend is bit-identical, so this
  /// only changes speed, never state.
  const simd::SimdOps* ops = &simd::ops();

  /// Byte-per-line staging buffer for the SoA tag transposes: load_lines
  /// encodes into it before one tag_pack call, gather decodes whole
  /// planes into it with one tag_unpack call. Sized words_for(n)*64; the
  /// tail bytes past n are zero and never written (the tag planes' bits
  /// past n are zero, so unpack rewrites them with zeros).
  std::vector<std::uint8_t> tag_bytes;

  LevelKernel(std::size_t n_, int m, int stages_)
      : n(n_),
        stages(stages_),
        wcode(static_cast<std::size_t>(m) + 1),
        state(n_, wcode + 3),
        scratch(n_, wcode + 3),
        masks(static_cast<std::size_t>(stages_)),
        events(static_cast<std::size_t>(stages_)),
        tag_bytes(packed::words_for(n_) * packed::kWordBits, 0) {
    for (auto& mk : masks) mk.resize(packed::words_for(n_));
  }

  std::span<std::uint64_t> tag_plane(int bit) {
    return state.plane(wcode + static_cast<std::size_t>(bit));
  }
  std::span<const std::uint64_t> tag_plane(int bit) const {
    return state.plane(wcode + static_cast<std::size_t>(bit));
  }

  /// The configured pass's masks: the first `stages` rows.
  std::span<const packed::StageMasks> stage_masks() const {
    return {masks.data(), static_cast<std::size_t>(stages)};
  }

  void reset_pass() {
    for (auto& mk : masks) mk.clear();
    for (auto& ev : events) ev.clear();
  }

  /// Reconfigure a widest-level workspace kernel (stages = m at
  /// construction) for one level of S stages: the datapaths and
  /// configuration sweeps run stages 1..S, the mask/event rows past S
  /// stay cleared, and plan captures slice to the first S rows — so a
  /// reused kernel is indistinguishable from one constructed per level.
  void begin_level(int S) {
    stages = S;
    reset_pass();
  }
};

/// Set switches [first, first+count) of global block `gblock` at `stage`
/// in the datapath masks: su at each pair's upper line, sl at its lower
/// line. This is the per-node sweeps' writer; the fabric grids keep the
/// same two bits per switch (Rbn::install copies them out of the masks),
/// and plans store the masks themselves. Parallel runs need no bits, so
/// the masks must start the pass cleared.
inline void fill_masks(packed::StageMasks& mk, int stage, std::size_t gblock,
                       std::size_t first, std::size_t count,
                       SwitchSetting s) {
  if (count == 0 || s == SwitchSetting::Parallel) return;
  const std::size_t d = std::size_t{1} << (stage - 1);
  const std::size_t up = gblock * 2 * d + first;
  const std::size_t low = up + d;
  if (sets_su(s)) packed::plane_fill(mk.su, up, up + count);
  if (sets_sl(s)) packed::plane_fill(mk.sl, low, low + count);
}

/// Write the two mask bits of the one switch whose upper line is `up` at
/// pair distance `d`, clearing whatever the configuration had set there
/// (the fault seam's writer).
inline void set_mask_switch(packed::StageMasks& mk, std::size_t up,
                            std::size_t d, SwitchSetting s) {
  packed::plane_set(mk.su, up, sets_su(s));
  packed::plane_set(mk.sl, up + d, sets_sl(s));
}

/// Clear every plane and write the identity code planes (plane p of line
/// i holds bit p of i); the three tag planes stay zero.
void load_identity_codes(LevelKernel& kx);

/// The head tag a_0 of a line record at the level whose BSN midpoint is
/// address bit `bit` (bit = m - k at level k; 0 at the final level).
/// dests[lo, hi) is sorted and shares every address bit above `bit`, so
/// `bit` is monotone over the range and the lower_bound of the node
/// midpoint reduces to the two end points: α when the range straddles
/// the midpoint, 0 / 1 when it lies wholly below / above it, ε for an
/// empty line or an empty range.
inline Tag head_tag(const LineRecord& r, const std::uint32_t* dests,
                    int bit) {
  if (r.empty() || r.lo >= r.hi) return Tag::Eps;
  const bool first_up = (dests[r.lo] >> bit) & 1u;
  const bool last_up = (dests[r.hi - 1] >> bit) & 1u;
  if (first_up == last_up) return first_up ? Tag::One : Tag::Zero;
  return Tag::Alpha;
}

/// The lower_bound of the node midpoint within dests[lo, hi): the first
/// index whose address bit `bit` is set. Exit tag 0 keeps [lo, split),
/// exit tag 1 keeps [split, hi). Constant time unless the range
/// straddles the midpoint (a broadcast parent).
inline std::uint32_t split_point(const std::uint32_t* dests, std::uint32_t lo,
                                 std::uint32_t hi, int bit) {
  if (lo >= hi || !((dests[hi - 1] >> bit) & 1u)) return hi;
  if ((dests[lo] >> bit) & 1u) return lo;
  std::uint32_t a = lo + 1;  // dests[lo] is below, dests[hi-1] above
  std::uint32_t b = hi - 1;
  while (a < b) {
    const std::uint32_t mid = a + (b - a) / 2;
    if ((dests[mid] >> bit) & 1u) {
      b = mid;
    } else {
      a = mid + 1;
    }
  }
  return a;
}

/// load_identity_codes plus the transposed Table 1 tag encoding of the
/// level's line records, whose head tags are derived at midpoint `bit`.
void load_lines(LevelKernel& kx, std::span<const LineRecord> lines,
                const std::uint32_t* dests, int bit);

/// Propagate the planes through the configured scatter stages, latching
/// broadcast parent codes and emitting event codes (see
/// core/packed_kernel.cpp for the contract details).
void run_scatter_datapath(LevelKernel& kx);

/// Propagate the planes through the configured unicast (quasisort)
/// stages.
void run_unicast_datapath(LevelKernel& kx);

/// Reusable replay scratch owned by the network objects (one allocation
/// on first route_replay, reused forever after): a kernel sized for the
/// widest level (stages = m >= any level's S, masks/events sized m) plus
/// the final-level tag planes used for dead-line screening.
struct ReplayWorkspace {
  LevelKernel kx;
  packed::Words final_t0;
  packed::Words final_t1;
  packed::Words final_t2;

  ReplayWorkspace(std::size_t n, int m)
      : kx(n, m, m),
        final_t0(packed::words_for(n), 0),
        final_t1(packed::words_for(n), 0),
        final_t2(packed::words_for(n), 0) {}
};

/// Reusable compile scratch owned by the network objects, mirroring
/// ReplayWorkspace: one widest-level kernel (begin_level reconfigures it
/// per level) plus every per-level buffer the configuration sweeps need —
/// the SoA tag censuses, the ε0 selection plane, the scatter type tree
/// (flat from level 2, level j at offset n/2 - n/2^(j-1)), the
/// backward-sweep run starts, the per-block entry tallies, the line
/// records with their gather double buffer and destination array, and
/// the final level's heads and sources.
/// First route allocates once; warm compiles reuse everything.
struct CompileWorkspace {
  LevelKernel kx;
  packed::TagCensus census;   ///< scatter-entry census
  packed::TagCensus mid;      ///< post-scatter census
  packed::TagCensus divided;  ///< post-ε-division census
  packed::Words eps0_sel;
  std::vector<std::uint8_t> type;  ///< flat scatter type tree (< n/2)
  std::vector<std::size_t> start;
  std::vector<std::size_t> next;
  std::vector<std::size_t> in_zeros;
  std::vector<std::size_t> in_ones;
  std::vector<std::size_t> in_alphas;
  std::vector<std::size_t> in_epses;
  /// The route's line state between levels (see LineRecord) and the
  /// gather's double buffer.
  std::vector<LineRecord> lines;
  std::vector<LineRecord> line_buf;
  /// The assignment's per-input view: every source's sorted
  /// destinations, concatenated in source order in dests.outputs, the
  /// array LineRecord ranges index.
  DestinationLists dests;
  std::vector<std::uint8_t> side_done;    ///< per-event first-copy latch
  /// The final level's head tags and sources.
  std::vector<Tag> heads;
  std::vector<std::size_t> sources;

  CompileWorkspace(std::size_t n, int m)
      : kx(n, m, m),
        eps0_sel(packed::words_for(n), 0),
        heads(n),
        sources(n) {
    lines.reserve(n);
    line_buf.reserve(n);
    type.reserve(n / 2);
    start.reserve(n / 2);
    next.reserve(n / 2);
  }
};

}  // namespace brsmn::pkern
