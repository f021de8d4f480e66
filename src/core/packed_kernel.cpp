#include "core/packed_kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string_view>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "core/block_tables.hpp"
#include "core/brsmn.hpp"
#include "core/fabric_binding.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/merge_lemmas.hpp"
#include "core/quasisort.hpp"
#include "core/route_plan.hpp"
#include "core/scatter.hpp"
#include "core/tag_sequence.hpp"
#include "fault/fault_injector.hpp"
#include "fault/locate.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/route_probe.hpp"

namespace brsmn::packed {

bool plane_get(std::span<const std::uint64_t> plane, std::size_t i) {
  return (plane[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void plane_set(std::span<std::uint64_t> plane, std::size_t i, bool v) {
  const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
  if (v) {
    plane[i / kWordBits] |= bit;
  } else {
    plane[i / kWordBits] &= ~bit;
  }
}

std::size_t plane_popcount(std::span<const std::uint64_t> plane,
                           std::size_t first, std::size_t last) {
  if (first >= last) return 0;
  const std::size_t fw = first / kWordBits;
  const std::size_t lw = (last - 1) / kWordBits;
  if (fw == lw) {
    return static_cast<std::size_t>(std::popcount(
        plane[fw] & word_range_mask(first % kWordBits, last - fw * kWordBits)));
  }
  std::size_t total = static_cast<std::size_t>(
      std::popcount(plane[fw] & word_range_mask(first % kWordBits, kWordBits)));
  for (std::size_t w = fw + 1; w < lw; ++w) {
    total += static_cast<std::size_t>(std::popcount(plane[w]));
  }
  total += static_cast<std::size_t>(
      std::popcount(plane[lw] & word_range_mask(0, last - lw * kWordBits)));
  return total;
}

PackedLines::PackedLines(std::size_t n, std::size_t width)
    : n_(n),
      width_(width),
      wpl_(words_for(n)),
      stride_(plane_stride_for(n)),
      words_(width * stride_, 0) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
}

std::uint64_t PackedLines::get(std::size_t line, std::size_t first_plane,
                               std::size_t count) const {
  BRSMN_EXPECTS(line < n_ && first_plane + count <= width_ && count <= 64);
  const std::size_t w = line / kWordBits;
  const std::size_t b = line % kWordBits;
  std::uint64_t value = 0;
  for (std::size_t p = 0; p < count; ++p) {
    value |= ((words_[(first_plane + p) * stride_ + w] >> b) & 1u) << p;
  }
  return value;
}

void PackedLines::set(std::size_t line, std::size_t first_plane,
                      std::size_t count, std::uint64_t value) {
  BRSMN_EXPECTS(line < n_ && first_plane + count <= width_ && count <= 64);
  const std::size_t w = line / kWordBits;
  const std::uint64_t bit = std::uint64_t{1} << (line % kWordBits);
  for (std::size_t p = 0; p < count; ++p) {
    std::uint64_t& word = words_[(first_plane + p) * stride_ + w];
    if ((value >> p) & 1u) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }
}

void PackedLines::clear() { std::fill(words_.begin(), words_.end(), 0); }

void apply_stage_plane(std::span<const std::uint64_t> in,
                       std::span<std::uint64_t> out, const StageMasks& masks,
                       std::size_t pair_distance) {
  const std::size_t words = in.size();
  if (pair_distance < kWordBits) {
    // Pairs live within one word: blocks of 2*d lines are 2*d-aligned and
    // 2*d divides 64, so a shift never crosses a word boundary.
    const auto d = static_cast<unsigned>(pair_distance);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t su = masks.su[w];
      const std::uint64_t sl = masks.sl[w];
      out[w] = (in[w] & ~(su | sl)) | ((in[w] >> d) & su) | ((in[w] << d) & sl);
    }
    return;
  }
  const std::size_t offset = pair_distance / kWordBits;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t x = in[w] & ~(masks.su[w] | masks.sl[w]);
    if (w + offset < words) x |= in[w + offset] & masks.su[w];
    if (w >= offset) x |= in[w - offset] & masks.sl[w];
    out[w] = x;
  }
}

void apply_stage(PackedLines& state, PackedLines& scratch,
                 const StageMasks& masks, std::size_t pair_distance,
                 const simd::SimdOps& ops) {
  BRSMN_EXPECTS(scratch.size() == state.size() &&
                scratch.width() == state.width());
  const std::size_t stride = state.plane_stride();
  BRSMN_EXPECTS(masks.su.size() >= stride && masks.sl.size() >= stride);
  if (pair_distance < kWordBits) {
    // In-word variant: one sweep over the whole plane-major state, pads
    // included (mask pads are zero, so scratch pads come out zero).
    ops.stage_shift(state.words().data(), scratch.words().data(),
                    masks.su.data(), masks.sl.data(), state.width(), stride,
                    static_cast<unsigned>(pair_distance));
  } else {
    // Word-offset variant: per plane, only the logical words are written;
    // scratch pads keep the zeros the double-buffer invariant guarantees.
    ops.stage_offset(state.words().data(), scratch.words().data(),
                     masks.su.data(), masks.sl.data(), state.width(), stride,
                     state.words_per_plane(), pair_distance / kWordBits);
  }
  state.swap(scratch);
}

void apply_stage(PackedLines& state, PackedLines& scratch,
                 const StageMasks& masks, std::size_t pair_distance) {
  apply_stage(state, scratch, masks, pair_distance, simd::ops());
}

namespace {

/// Spread the low 32 bits of x to the even bit positions.
constexpr std::uint64_t morton_expand(std::uint64_t x) {
  x &= 0x00000000ffffffffull;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

/// Gather the even bit positions of x into the low 32 bits.
constexpr std::uint64_t morton_compress(std::uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
  x = (x | (x >> 16)) & 0x00000000ffffffffull;
  return x;
}

}  // namespace

void shuffle_planes(const PackedLines& in, PackedLines& out) {
  BRSMN_EXPECTS(out.size() == in.size() && out.width() == in.width());
  const std::size_t n = in.size();
  const std::size_t wpl = in.words_per_plane();
  const std::size_t half = n / 2;
  for (std::size_t p = 0; p < in.width(); ++p) {
    const auto src = in.plane(p);
    auto dst = out.plane(p);
    if (wpl == 1) {
      const std::uint64_t lo = src[0] & word_range_mask(0, half);
      const std::uint64_t hi = src[0] >> half;
      dst[0] = morton_expand(lo) | (morton_expand(hi) << 1);
      continue;
    }
    // n >= 128: the halves are whole word ranges.
    for (std::size_t k = 0; k < wpl / 2; ++k) {
      const std::uint64_t lo = src[k];
      const std::uint64_t hi = src[wpl / 2 + k];
      dst[2 * k] = morton_expand(lo) | (morton_expand(hi) << 1);
      dst[2 * k + 1] = morton_expand(lo >> 32) | (morton_expand(hi >> 32) << 1);
    }
  }
}

void unshuffle_planes(const PackedLines& in, PackedLines& out) {
  BRSMN_EXPECTS(out.size() == in.size() && out.width() == in.width());
  const std::size_t n = in.size();
  const std::size_t wpl = in.words_per_plane();
  const std::size_t half = n / 2;
  for (std::size_t p = 0; p < in.width(); ++p) {
    const auto src = in.plane(p);
    auto dst = out.plane(p);
    if (wpl == 1) {
      dst[0] = morton_compress(src[0]) | (morton_compress(src[0] >> 1) << half);
      continue;
    }
    for (std::size_t k = 0; k < wpl / 2; ++k) {
      const std::uint64_t even = src[2 * k];
      const std::uint64_t odd = src[2 * k + 1];
      dst[k] = morton_compress(even) | (morton_compress(odd) << 32);
      dst[wpl / 2 + k] =
          morton_compress(even >> 1) | (morton_compress(odd >> 1) << 32);
    }
  }
}

void TagCensus::build(std::span<const std::uint64_t> t0,
                      std::span<const std::uint64_t> t1,
                      std::span<const std::uint64_t> t2, std::size_t n,
                      const simd::SimdOps& ops) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
  const std::size_t wpl = words_for(n);
  BRSMN_EXPECTS(t0.size() == wpl && t1.size() == wpl && t2.size() == wpl);
  n_ = n;
  wpl_ = wpl;
  levels_ = log2_exact(n);
  // Resize-reuse: every entry below is fully overwritten each build.
  alpha_.resize(wpl);
  eps_.resize(wpl);
  ones_.resize(wpl);
  step_.resize(2 * wpl);
  ops.census_split(t0.data(), t1.data(), t2.data(), alpha_.data(), eps_.data(),
                   ones_.data(), wpl);
  if (levels_ < 2) return;  // n = 2: no block of a stored level
  const std::uint64_t* planes[3] = {alpha_.data(), eps_.data(), ones_.data()};
  const std::size_t n2 = n >> 2;
  std::uint64_t* steps[2] = {step_.data(), step_.data() + wpl};
  for (int c = 0; c < 3; ++c) {
    counts_[c].resize((n >> 1) - 1);
    std::uint32_t* flat = counts_[c].data();
    // Level 2 (4-line blocks): two cascade steps pack 16 four-bit fields
    // per word; spill them to uint32 so every coarser level is a straight
    // pairwise vector sum.
    ops.count_cascade(planes[c], steps, 2, wpl);
    for (std::size_t w = 0; w < wpl; ++w) {
      const std::uint64_t fields = steps[1][w];
      const std::size_t base = 16 * w;
      const std::size_t lim = std::min<std::size_t>(16, n2 - base);
      for (std::size_t f = 0; f < lim; ++f) {
        flat[base + f] =
            static_cast<std::uint32_t>((fields >> (4 * f)) & 0xfu);
      }
    }
    // Levels 3..log2(n): each level's counts start exactly where the
    // finer level's end, so src and dst never overlap.
    for (int j = 3; j <= levels_; ++j) {
      ops.pair_sum_u32(flat + offset(j - 1), flat + offset(j), n >> j);
    }
  }
}

void select_prefix(std::span<const std::uint64_t> plane,
                   std::span<std::uint64_t> out, std::size_t first,
                   std::size_t last, std::size_t k) {
  if (k == 0 || first >= last) {
    BRSMN_EXPECTS(k == 0);
    return;
  }
  const std::size_t fw = first / kWordBits;
  const std::size_t lw = (last - 1) / kWordBits;
  for (std::size_t w = fw; w <= lw && k > 0; ++w) {
    const std::size_t lo = w == fw ? first % kWordBits : 0;
    const std::size_t hi = w == lw ? last - w * kWordBits : kWordBits;
    const std::uint64_t masked = plane[w] & word_range_mask(lo, hi);
    const auto cnt = static_cast<std::size_t>(std::popcount(masked));
    if (k >= cnt) {
      out[w] |= masked;
      k -= cnt;
      continue;
    }
    std::uint64_t rest = masked;
    for (std::size_t t = 0; t < k; ++t) rest &= rest - 1;
    out[w] |= masked ^ rest;
    k = 0;
  }
  BRSMN_ENSURES(k == 0);
}

}  // namespace brsmn::packed

// ---------------------------------------------------------------------------
// The packed driver frame. Both implementations run the same per-level
// kernel through one level loop (drive_packed, over a fabric binding):
// line state is transposed into bit-planes (a code identifying the packet
// plus the 3-bit tag encoding of Table 1), every configuration decision of
// the scalar algorithms is reproduced through the shared plan functions
// (scatter_block_plan / lemma1_geometry / elimination_layout) — per node
// in the upper stages, through the tables generated from them
// (core/block_tables.hpp) in the bottom ones — and the datapath applies
// whole stages as masked word shuffles. Broadcast events are precomputed
// during configuration; copy ids are assigned in exactly the order the
// scalar propagation would allocate them.
// ---------------------------------------------------------------------------

namespace brsmn {

// The kernel state itself (pkern::LevelKernel / BcastEvent) and the
// datapath entry points live in core/level_kernel.hpp so the compiled-
// plan replay path (core/route_plan.cpp) can restore a level from stored
// checkpoints and re-run exactly the same datapath code.
namespace pkern {

namespace pk = packed;

namespace {

/// Bit patterns of the identity code: plane p of line index i is
/// (i >> p) & 1, which within a word is a fixed pattern for p < 6 and a
/// per-word constant above.
constexpr std::uint64_t kIdentityPattern[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};

/// encode() as a lookup keyed by the Tag's underlying value, so the
/// byte-staging loops stay branch-free (Table 1: ε and ε0 both 110).
constexpr std::uint8_t kTagEncoding[6] = {0b000, 0b001, 0b100,
                                          0b110, 0b110, 0b111};

}  // namespace

void load_identity_codes(LevelKernel& kx) {
  kx.state.clear();
  const std::size_t n = kx.n;
  const std::size_t wpl = kx.state.words_per_plane();
  for (std::size_t p = 0; p < kx.wcode; ++p) {
    auto plane = kx.state.plane(p);
    if (p < 6) {
      for (std::size_t w = 0; w < wpl; ++w) plane[w] = kIdentityPattern[p];
      plane[wpl - 1] &= pk::tail_mask(n);
    } else {
      for (std::size_t w = 0; w < wpl; ++w) {
        plane[w] = ((w >> (p - 6)) & 1u) ? ~std::uint64_t{0} : 0;
      }
    }
  }
}

/// Transpose the level's line records into the kernel's planes: codes
/// are the line indices, tags the Table 1 encoding (b0 = plane 0 of the
/// tag planes) of each record's derived head tag. All plane bits at
/// positions >= n stay zero: the byte stage buffer's tail bytes are zero,
/// and the zero encoding contributes no plane bits. One branch-free
/// encode sweep plus one tag_pack transpose replaces the three
/// conditional bit-sets per line.
void load_lines(LevelKernel& kx, std::span<const LineRecord> lines,
                const std::uint32_t* dests, int bit) {
  load_identity_codes(kx);
  const std::size_t n = kx.n;
  const std::size_t wpl = kx.state.words_per_plane();
  std::uint8_t* enc = kx.tag_bytes.data();
  for (std::size_t i = 0; i < n; ++i) {
    enc[i] = kTagEncoding[static_cast<std::uint8_t>(
        head_tag(lines[i], dests, bit))];
  }
  kx.ops->tag_pack(enc, kx.tag_plane(0).data(), kx.tag_plane(1).data(),
                   kx.tag_plane(2).data(), wpl);
}

/// Propagate the planes through the configured scatter stages. At each
/// broadcast switch the alpha input's code is latched before the stage
/// applies (it identifies the parent packet), then the two outputs are
/// overwritten with event codes and 0/1 tags — the packed equivalent of
/// apply_scatter_switch's copy emission.
void run_scatter_datapath(LevelKernel& kx) {
  const std::size_t n = kx.n;
  auto t0 = kx.tag_plane(0);
  auto t1 = kx.tag_plane(1);
  auto t2 = kx.tag_plane(2);
  for (int j = 1; j <= kx.stages; ++j) {
    const std::size_t d = std::size_t{1} << (j - 1);
    if (kx.heat != nullptr) {
      kx.heat->record_stage_tags(kx.heat_level, PassKind::Scatter, j, t0, t1);
    }
    auto& evs = kx.events[static_cast<std::size_t>(j - 1)];
    for (const BcastEvent& ev : evs) {
      const std::size_t alpha_line = ev.alpha_upper ? ev.upper : ev.upper + d;
      const std::size_t eps_line = ev.alpha_upper ? ev.upper + d : ev.upper;
      // The scalar apply_scatter_switch's alignment traps: the event site
      // must still see an alpha opposite an empty line (a corrupted
      // earlier stage can desynchronize the precomputed events).
      BRSMN_ENSURES_MSG(
          pk::plane_get(t0, alpha_line) && !pk::plane_get(t1, alpha_line),
          "broadcast switch without an alpha input");
      BRSMN_ENSURES_MSG(pk::plane_get(t0, eps_line) && pk::plane_get(t1, eps_line),
                        "broadcast switch would drop a live packet");
      const std::uint64_t code = kx.state.get(alpha_line, 0, kx.wcode);
      BRSMN_ENSURES(code < n);  // broadcasts never chain within a pass
      kx.parent_code[ev.ord] = static_cast<std::size_t>(code);
    }
    pk::apply_stage(kx.state, kx.scratch, kx.masks[static_cast<std::size_t>(j - 1)],
                    d, *kx.ops);
    // Planes moved: re-resolve the tag spans after the buffer swap.
    t0 = kx.tag_plane(0);
    t1 = kx.tag_plane(1);
    t2 = kx.tag_plane(2);
    for (const BcastEvent& ev : evs) {
      const std::size_t low = ev.upper + d;
      kx.state.set(ev.upper, 0, kx.wcode, n + 2 * ev.ord);
      kx.state.set(low, 0, kx.wcode, n + 2 * ev.ord + 1);
      pk::plane_set(t0, ev.upper, false);  // 0-copy: tag 000
      pk::plane_set(t1, ev.upper, false);
      pk::plane_set(t2, ev.upper, false);
      pk::plane_set(t0, low, false);  // 1-copy: tag 001
      pk::plane_set(t1, low, false);
      pk::plane_set(t2, low, true);
    }
  }
}

/// Propagate the planes through the configured unicast (quasisort) stages.
void run_unicast_datapath(LevelKernel& kx) {
  for (int j = 1; j <= kx.stages; ++j) {
    if (kx.heat != nullptr) {
      kx.heat->record_stage_tags(kx.heat_level, PassKind::Quasisort, j,
                                 kx.tag_plane(0), kx.tag_plane(1));
    }
    pk::apply_stage(kx.state, kx.scratch, kx.masks[static_cast<std::size_t>(j - 1)],
                    std::size_t{1} << (j - 1), *kx.ops);
  }
}

namespace {

/// Spread the 8 bits of b (< 256) to the low bits of 8 bytes, bit i to
/// byte i: replicate b into every byte, keep bit i in byte i, then turn
/// each nonzero byte into 1.
constexpr std::uint64_t spread_byte_bits(std::uint64_t b) {
  const std::uint64_t picked =
      (b * 0x0101010101010101ull) & 0x8040201008040201ull;
  return ((picked + 0x7f7f7f7f7f7f7f7full) >> 7) & 0x0101010101010101ull;
}

}  // namespace

}  // namespace pkern

namespace {

namespace pk = packed;
using pkern::BcastEvent;
using pkern::fill_masks;
using pkern::LevelKernel;
using pkern::load_lines;
using pkern::run_scatter_datapath;
using pkern::run_unicast_datapath;

/// Decode the tag planes back into Tag values (one tag_unpack transpose
/// through the kernel's byte stage buffer instead of three bit probes
/// per line). `collapse` folds the 110 pattern to plain Eps — required
/// when materializing *scatter-pass outputs*, where 110 still means an
/// undivided ε (the scalar engine only introduces Eps0/Eps1 during
/// ε-division).
std::vector<Tag> materialize_tags(LevelKernel& kx, bool collapse) {
  std::vector<Tag> tags(kx.n);
  const std::size_t wpl = kx.state.words_per_plane();
  kx.ops->tag_unpack(kx.tag_plane(0).data(), kx.tag_plane(1).data(),
                     kx.tag_plane(2).data(), kx.tag_bytes.data(), wpl);
  for (std::size_t i = 0; i < kx.n; ++i) {
    const Tag t = decode(kx.tag_bytes[i]);
    tags[i] = collapse ? collapse_eps(t) : t;
  }
  return tags;
}

/// Rebuild a workspace census from the kernel's current tag planes.
void build_census(pk::TagCensus& census, const LevelKernel& kx) {
  census.build(kx.tag_plane(0), kx.tag_plane(1), kx.tag_plane(2), kx.n,
               *kx.ops);
}

/// Slice the workspace kernel's first S mask rows into a plan capture.
/// The workspace kernel is sized for the widest level (m rows); rows past
/// the level's stage count are workspace padding, kept cleared, and must
/// not leak into the stored plan (replay and the plan tests expect
/// exactly S rows, as a per-level kernel would produce).
void capture_stage_masks(const LevelKernel& kx,
                         std::vector<pk::StageMasks>& dst) {
  dst.assign(kx.masks.begin(), kx.masks.begin() + kx.stages);
}

/// As capture_stage_masks, for the per-stage broadcast event lists.
void capture_stage_events(const LevelKernel& kx,
                          std::vector<std::vector<BcastEvent>>& dst) {
  dst.assign(kx.events.begin(), kx.events.begin() + kx.stages);
}

/// Start of level j's node types (j >= 2) in the workspace's flat scatter
/// type tree: level j's n/2^j types start at n/2 - n/2^(j-1). Levels 0
/// and 1 are never stored: the tables settle stages 1-2 from the lines'
/// indicator bits directly.
constexpr std::size_t type_offset(std::size_t n, int j) {
  return (n >> 1) - (n >> (j - 1));
}

/// The forward-phase value of scatter tree node (j, b), j >= 2: its type
/// from the workspace type tree, its surplus from the census counts.
ScatterNodeValue scatter_node(const pkern::CompileWorkspace& ws,
                              const pk::TagCensus& census, int j,
                              std::size_t b) {
  const std::size_t na = census.count_alpha(j, b);
  const std::size_t ne = census.count_eps(j, b);
  return {ws.type[type_offset(ws.kx.n, j) + b] ? Tag::Alpha : Tag::Eps,
          na >= ne ? na - ne : ne - na};
}

/// The upper lines of a mask word's pairs at distance 1 and 2.
constexpr std::uint64_t kUpperLines[2] = {0x5555555555555555ull,
                                          0x3333333333333333ull};

/// Explain records of the table-settled nodes of one block: stages
/// 1..D of the 2^D lines starting at `first_line`, whose stage-j mask
/// fields are su[j-1] / sl[j-1]. rule(j, t) names the rule of the t-th
/// stage-j node inside the block.
template <class RuleFn>
void record_table_block(const ExplainSink& sink, std::size_t first_line,
                        int D, const std::uint8_t* su, const std::uint8_t* sl,
                        RuleFn&& rule) {
  SwitchSetting settings[4];
  for (int j = 1; j <= D; ++j) {
    const unsigned d = 1u << (j - 1);
    for (unsigned t = 0; t < (1u << D) / (2 * d); ++t) {
      for (unsigned i = 0; i < d; ++i) {
        const unsigned up = 2 * d * t + i;
        settings[i] = setting_from_bits((su[j - 1] >> up) & 1u,
                                        (sl[j - 1] >> (up + d)) & 1u);
      }
      sink.record_block(j, (first_line >> j) + t,
                        std::span<const SwitchSetting>(settings, d),
                        rule(j, t));
    }
  }
}

/// Word-parallel scatter configuration over the full width. The forward
/// phase types the level-2 nodes from the table (the lines' α and ε
/// nibbles) and every coarser node from the census counts (with the
/// scalar combine()'s tie-type propagation: a zero-surplus node inherits
/// its upper child's type). The backward phase runs the shared
/// scatter_block_plan per node of stages S..3 and emits its runs into the
/// stage masks, the explain sink and the broadcast-event lists; stages 2
/// and 1 take one kScatterBlocks lookup per 4-line block, and their
/// broadcast events are read back from the masks. All BSN roots start
/// their runs at 0, exactly as both scalar engines do.
void configure_scatter_packed(pkern::CompileWorkspace& ws,
                              const pk::TagCensus& census,
                              RoutingStats* stats,
                              const ExplainSink* explain) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int S = kx.stages;
  BRSMN_EXPECTS(S >= 2);
  const auto alpha = census.alpha();
  const auto eps = census.eps();
  const std::size_t wpl = pk::words_for(n);
  auto nibble = [](std::span<const std::uint64_t> plane, std::size_t c) {
    return (plane[c / 16] >> (4 * (c % 16))) & 0xfu;
  };

  // Flat type tree (see type_offset) over the levels the per-node sweep
  // reads: 2..S-1.
  ws.type.resize(S > 2 ? type_offset(n, S) : 0);
  std::uint8_t* type = ws.type.data();
  if (S > 2) {
    for (std::size_t c = 0; c < n / 4; ++c) {
      type[c] = pkern::kScatterBlocks[pkern::scatter_index(
                                          0, nibble(alpha, c), nibble(eps, c))]
                    .alpha;
    }
  }
  for (int j = 3; j < S; ++j) {
    const std::uint8_t* child = type + type_offset(n, j - 1);
    std::uint8_t* cur = type + type_offset(n, j);
    for (std::size_t b = 0; b < (n >> j); ++b) {
      const std::size_t na = census.count_alpha(j, b);
      const std::size_t ne = census.count_eps(j, b);
      cur[b] = na != ne ? static_cast<std::uint8_t>(na > ne) : child[2 * b];
    }
  }
  if (stats) {
    stats->tree_fwd_ops += n - (n >> S);
    stats->tree_bwd_ops += n - (n >> S);
  }

  std::vector<std::size_t>& start = ws.start;
  std::vector<std::size_t>& next = ws.next;
  start.assign(n >> S, 0);
  for (int j = S; j >= 3; --j) {
    const std::size_t np = std::size_t{1} << j;
    next.assign(n >> (j - 1), 0);
    auto& mk = kx.masks[static_cast<std::size_t>(j - 1)];
    auto& evs = kx.events[static_cast<std::size_t>(j - 1)];
    for (std::size_t b = 0; b < (n >> j); ++b) {
      const std::size_t s = start[b];
      const ScatterNodeValue c0 = scatter_node(ws, census, j - 1, 2 * b);
      const ScatterNodeValue c1 = scatter_node(ws, census, j - 1, 2 * b + 1);
      const ScatterBlockPlan plan = scatter_block_plan(c0, c1, np, s);
      next[2 * b] = plan.s0;
      next[2 * b + 1] = plan.s1;
      const std::size_t base_line = b << j;
      pkern::scatter_block_runs(
          plan, np, s,
          [&](std::size_t first, std::size_t count, SwitchSetting w) {
            fill_masks(mk, j, b, first, count, w);
            if (w != SwitchSetting::UpperBcast &&
                w != SwitchSetting::LowerBcast) {
              return;
            }
            for (std::size_t t = first; t < first + count; ++t) {
              evs.push_back({base_line + t, w == SwitchSetting::UpperBcast, 0});
            }
          });
      if (explain != nullptr) {
        const std::vector<SwitchSetting> settings =
            scatter_block_settings(plan, np, s);
        explain->record_block(j, b, settings, plan.rule);
      }
    }
    start.swap(next);
  }

  // Stages 2 and 1: one lookup per 4-line block (start[c] now holds the
  // level-2 run starts), accumulated a mask word at a time.
  auto& mk1 = kx.masks[0];
  auto& mk2 = kx.masks[1];
  for (std::size_t w = 0; w < wpl; ++w) {
    std::uint64_t su1 = 0, sl1 = 0, su2 = 0, sl2 = 0;
    const std::size_t lines = std::min(pk::kWordBits, n - w * pk::kWordBits);
    for (std::size_t off = 0; off < lines; off += 4) {
      const std::size_t c = (w * pk::kWordBits + off) / 4;
      const pkern::ScatterBlockEntry& e =
          pkern::kScatterBlocks[pkern::scatter_index(
              start[c], (alpha[w] >> off) & 0xfu, (eps[w] >> off) & 0xfu)];
      su1 |= std::uint64_t{e.su[0]} << off;
      sl1 |= std::uint64_t{e.sl[0]} << off;
      su2 |= std::uint64_t{e.su[1]} << off;
      sl2 |= std::uint64_t{e.sl[1]} << off;
      if (explain != nullptr) {
        record_table_block(*explain, 4 * c, 2, e.su, e.sl,
                           [&](int j, unsigned t) {
                             const unsigned bit = j == 2 ? 0 : 1 + t;
                             return ((e.elim >> bit) & 1u)
                                        ? RouteRule::ScatterElimination
                                        : RouteRule::ScatterAddition;
                           });
      }
    }
    mk1.su[w] = su1;
    mk1.sl[w] = sl1;
    mk2.su[w] = su2;
    mk2.sl[w] = sl2;
    const std::size_t first = w * pk::kWordBits;
    pkern::for_each_broadcast(su2, sl2, 2, kUpperLines[1],
                              [&](unsigned t, bool aup) {
                                kx.events[1].push_back({first + t, aup, 0});
                              });
    pkern::for_each_broadcast(su1, sl1, 1, kUpperLines[0],
                              [&](unsigned t, bool aup) {
                                kx.events[0].push_back({first + t, aup, 0});
                              });
  }
}

/// Fix the copy-id allocation order of the collected broadcast events and
/// reserve their ids. The scalar engines allocate during propagation:
/// stage-major over the fabric for the feedback engine, and BSN-block-
/// major (each BSN fully routed before the next) for the unrolled engine.
/// The per-stage lists are already (stage, line)-ascending, so draining
/// each BSN block's run from every stage's list in turn (a stable sort by
/// BSN block) reproduces the unrolled order exactly.
void finalize_events(LevelKernel& kx, bool bsn_block_major,
                     std::uint64_t& next_copy_id, RoutingStats* stats) {
  const int S = kx.stages;
  std::size_t ord = 0;
  if (bsn_block_major) {
    std::size_t cursor[64] = {};
    for (std::size_t bb = 0; bb < (kx.n >> S); ++bb) {
      for (int j = 0; j < S; ++j) {
        auto& evs = kx.events[static_cast<std::size_t>(j)];
        std::size_t& c = cursor[j];
        while (c < evs.size() && (evs[c].upper >> S) == bb) {
          evs[c++].ord = ord++;
        }
      }
    }
  } else {
    for (int j = 0; j < S; ++j) {
      for (auto& ev : kx.events[static_cast<std::size_t>(j)]) ev.ord = ord++;
    }
  }
  kx.num_events = ord;
  kx.parent_code.assign(ord, 0);
  kx.copy_id_base = next_copy_id;
  next_copy_id += 2 * ord;
  if (stats) stats->broadcast_ops += ord;
}

/// Word-parallel ε-division, per BSN block: the scalar greedy descent
/// hands the dummy-0 budget to the leftmost ε lines, so the first
/// n_eps0 ε bits of each block stay ε0 (110) and the rest gain the b2 bit
/// (ε1 = 111). Tree-op counters match the scalar sweep's closed form.
void divide_eps_packed(pkern::CompileWorkspace& ws,
                       const pk::TagCensus& census, RoutingStats* stats) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int S = kx.stages;
  const std::size_t np = std::size_t{1} << S;
  const std::size_t wpl = kx.state.words_per_plane();
  pk::Words& eps0_sel = ws.eps0_sel;
  std::fill(eps0_sel.begin(), eps0_sel.end(), 0);
  for (std::size_t bb = 0; bb < (n >> S); ++bb) {
    const std::size_t n_eps = census.count_eps(S, bb);
    const std::size_t n_one = census.count_ones(S, bb);
    const std::size_t n_zero = np - n_one - n_eps;
    BRSMN_EXPECTS_MSG(n_zero <= np / 2 && n_one <= np / 2,
                      "quasisort input must have at most n/2 zeros and ones");
    const std::size_t n_eps0 = n_eps - (np / 2 - n_one);
    pk::select_prefix(census.eps(), eps0_sel, bb * np, (bb + 1) * np, n_eps0);
  }
  auto t2 = kx.tag_plane(2);
  kx.ops->or_andnot(t2.data(), census.eps().data(), eps0_sel.data(), wpl);
  if (stats) {
    stats->tree_fwd_ops += n - (n >> S);
    stats->tree_bwd_ops += n - (n >> S);
  }
}

/// One quasisort table pass over the masks: a kQuasisortBlocks lookup per
/// block of 2^D lines (start[c] holds the run start of block c), its
/// stage 1..D fields OR-ed in a mask word at a time. D = 3 covers the
/// bottom three stages of any S >= 3 level; an S = 2 level (D = 2) reads
/// the upper 4-line half of an 8-line entry with the lower half's ones
/// clear — below a start s < 4 every stage-3 node hands its upper child
/// that same start (s mod 4 = s).
template <int D>
void quasisort_table_stages(LevelKernel& kx, const pk::TagCensus& census,
                            const std::vector<std::size_t>& start,
                            const ExplainSink* explain) {
  constexpr std::size_t cell = std::size_t{1} << D;
  constexpr std::uint64_t field = (std::uint64_t{1} << cell) - 1;
  const std::size_t n = kx.n;
  const auto ones = census.ones();
  for (std::size_t w = 0; w < pk::words_for(n); ++w) {
    std::uint64_t su[D] = {};
    std::uint64_t sl[D] = {};
    const std::size_t lines = std::min(pk::kWordBits, n - w * pk::kWordBits);
    for (std::size_t off = 0; off < lines; off += cell) {
      const std::size_t c = (w * pk::kWordBits + off) >> D;
      const pkern::QuasisortBlockEntry& e =
          pkern::kQuasisortBlocks[pkern::quasisort_index(
              start[c], (ones[w] >> off) & field)];
      for (int j = 0; j < D; ++j) {
        su[j] |= (e.su[j] & field) << off;
        sl[j] |= (e.sl[j] & field) << off;
      }
      if (explain != nullptr) {
        record_table_block(*explain, cell * c, D, e.su, e.sl,
                           [](int, unsigned) {
                             return RouteRule::QuasisortMerge;
                           });
      }
    }
    for (int j = 0; j < D; ++j) {
      kx.masks[static_cast<std::size_t>(j)].su[w] = su[j];
      kx.masks[static_cast<std::size_t>(j)].sl[w] = sl[j];
    }
  }
}

/// Word-parallel quasisort configuration: per BSN block a Theorem-1 bit
/// sort of the b2 keys with the 1-run starting at the midpoint. Each
/// merge node of stages S..4 is solved by the shared lemma1_geometry and
/// emitted into the stage masks; the bottom three stages take one
/// kQuasisortBlocks lookup per 8-line block.
void configure_quasisort_packed(pkern::CompileWorkspace& ws,
                                const pk::TagCensus& census,
                                RoutingStats* stats,
                                const ExplainSink* explain) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  const int S = kx.stages;
  BRSMN_EXPECTS(S >= 2);
  const std::size_t np = std::size_t{1} << S;
  for (std::size_t bb = 0; bb < (n >> S); ++bb) {
    BRSMN_EXPECTS_MSG(census.count_ones(S, bb) == np / 2,
                      "quasisort requires exactly n/2 (real+dummy) ones");
  }
  std::vector<std::size_t>& start = ws.start;
  std::vector<std::size_t>& next = ws.next;
  start.assign(n >> S, np / 2);
  for (int j = S; j >= 4; --j) {
    const std::size_t nprime = std::size_t{1} << j;
    const std::size_t half = nprime / 2;
    next.assign(n >> (j - 1), 0);
    auto& mk = kx.masks[static_cast<std::size_t>(j - 1)];
    for (std::size_t b = 0; b < (n >> j); ++b) {
      const std::size_t s = start[b];
      const std::size_t l0 = census.count_ones(j - 1, 2 * b);
      const std::size_t l1 = census.count_ones(j - 1, 2 * b + 1);
      const lemmas::Lemma1Geometry g = lemmas::lemma1_geometry(nprime, s, l0, l1);
      next[2 * b] = g.s0;
      next[2 * b + 1] = g.s1;
      pkern::lemma1_runs(
          g, half, [&](std::size_t first, std::size_t count, SwitchSetting w) {
            fill_masks(mk, j, b, first, count, w);
          });
      if (explain != nullptr) {
        const std::vector<SwitchSetting> settings = binary_compact_setting(
            nprime, 0, g.s1, opposite_unicast(g.run), g.run);
        explain->record_block(j, b, settings, RouteRule::QuasisortMerge);
      }
    }
    start.swap(next);
  }
  if (S == 2) {
    quasisort_table_stages<2>(kx, census, start, explain);
  } else {
    quasisort_table_stages<3>(kx, census, start, explain);
  }
  if (stats) {
    stats->tree_fwd_ops += n - (n >> S);
    stats->tree_bwd_ops += n - (n >> S);
  }
}

/// The route's initial line records: input i holds copy `next_copy_id++`
/// of its message (ids handed out in input order, as initial_lines does)
/// with its whole sorted destination list, a range of the workspace's
/// per-input view of the assignment.
void begin_lines(pkern::CompileWorkspace& ws,
                 const MulticastAssignment& assignment,
                 std::uint64_t& next_copy_id) {
  const std::size_t n = assignment.size();
  assignment.destination_lists(ws.dests);
  ws.lines.assign(n, LineRecord{});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t lo = ws.dests.offsets[i];
    const std::uint32_t hi = ws.dests.offsets[i + 1];
    if (lo == hi) continue;
    LineRecord& r = ws.lines[i];
    r.source = static_cast<std::uint32_t>(i);
    r.lo = lo;
    r.hi = hi;
    r.copy_id = next_copy_id++;
    r.parent_id = r.copy_id;
  }
}

/// The scalar engine's view of the line records entering the level whose
/// BSN midpoint is address bit `bit`: each occupied line's packet carries
/// the Section 7.1 stream of the destinations in its range, rebased to
/// the node's 2^(bit+1)-address block — exactly the stream the scalar
/// engine's advance_streams has split down to by this level. Built only
/// for RouteOptions::capture_levels.
std::vector<LineValue> line_values(const pkern::CompileWorkspace& ws,
                                   int bit) {
  const std::size_t block = std::size_t{1} << (bit + 1);
  std::vector<LineValue> out(ws.lines.size());
  std::vector<std::size_t> rebased;
  for (std::size_t i = 0; i < ws.lines.size(); ++i) {
    const LineRecord& r = ws.lines[i];
    if (r.empty()) continue;
    rebased.assign(ws.dests.outputs.begin() + r.lo,
                   ws.dests.outputs.begin() + r.hi);
    for (std::size_t& d : rebased) d &= block - 1;
    Packet p{r.source, r.copy_id, r.parent_id, {}};
    encode_sequence_into(rebased, block, p.stream);
    const Tag head = p.stream.front();
    out[i] = occupied_line(head, std::move(p));
  }
  return out;
}

/// decode() as a lookup for the gather loop. The three bit patterns
/// Table 1 leaves unused map to Eps, which no occupied line can carry.
constexpr Tag kTagDecoding[8] = {Tag::Zero, Tag::One,   Tag::Eps,  Tag::Eps,
                                 Tag::Alpha, Tag::Eps, Tag::Eps0, Tag::Eps1};

/// Byte lanes of the gather's code transpose: codes have wcode <= 64 bits.
constexpr std::size_t kMaxCodeLanes = 8;

/// Rebuild the level's line records from the planes after the quasisort
/// datapath: codes below n move the corresponding input record; event
/// codes materialize the scalar engine's broadcast copies (0-copy on the
/// even code) from the latched parent record. Every record then keeps the
/// half of its destination range that its exit tag names (`bit` is the
/// level's midpoint bit) and remembers the exit tag for the self-check.
/// The tag decode is one tag_unpack transpose, and the codes are
/// transposed out of the code planes 8 lines per spread_byte_bits
/// multiply, skipping groups with no occupied line.
void gather_lines(pkern::CompileWorkspace& ws, int bit) {
  LevelKernel& kx = ws.kx;
  const std::size_t n = kx.n;
  std::vector<LineRecord>& prev = ws.lines;
  std::vector<LineRecord>& out = ws.line_buf;
  out.resize(n);
  const std::uint32_t* dests = ws.dests.outputs.data();
  const std::size_t wpl = kx.state.words_per_plane();
  kx.ops->tag_unpack(kx.tag_plane(0).data(), kx.tag_plane(1).data(),
                     kx.tag_plane(2).data(), kx.tag_bytes.data(), wpl);
  const auto t0 = kx.tag_plane(0);
  const auto t1 = kx.tag_plane(1);
  const std::uint64_t* code_planes = kx.state.words().data();
  const std::size_t stride = kx.state.plane_stride();
  // A record is consumed as the scalar engine consumes a packet: an input
  // moves out of its line, and a broadcast parent dies once both of its
  // copies exist. Clearing a consumed record makes a datapath fault that
  // reads one packet twice fail here, as it does on the stream path.
  std::vector<std::uint8_t>& first_side_done = ws.side_done;
  first_side_done.assign(kx.num_events, 0);
  std::size_t codes[pk::kWordBits];
  const std::size_t code_lanes = (kx.wcode + 7) / 8;
  BRSMN_EXPECTS(code_lanes <= kMaxCodeLanes);
  for (std::size_t w = 0; w < wpl; ++w) {
    const std::size_t first = w * pk::kWordBits;
    const std::size_t lim = std::min(pk::kWordBits, n - first);
    // Occupied lines are the ones outside the ε family (b0 b1 = 11).
    const std::uint64_t occupied =
        ~(t0[w] & t1[w]) & (lim == pk::kWordBits ? ~std::uint64_t{0}
                                                 : pk::tail_mask(n));
    // Transpose 8 lines per step: lane L gathers code bits [8L, 8L + 8)
    // of the group's lines, byte k of the lane belonging to line k.
    for (std::size_t g = 0; g < lim; g += 8) {
      if (((occupied >> g) & 0xffu) == 0) continue;
      std::uint64_t lanes[kMaxCodeLanes] = {};
      for (std::size_t q = 0; q < kx.wcode; ++q) {
        lanes[q / 8] |= pkern::spread_byte_bits(
                            (code_planes[q * stride + w] >> g) & 0xffu)
                        << (q % 8);
      }
      for (std::size_t k = 0; k < 8 && g + k < lim; ++k) {
        std::size_t code = 0;
        for (std::size_t L = 0; L < code_lanes; ++L) {
          code |= static_cast<std::size_t>((lanes[L] >> (8 * k)) & 0xffu)
                  << (8 * L);
        }
        codes[g + k] = code;
      }
    }
    for (std::size_t b = 0; b < lim; ++b) {
      const std::size_t p = first + b;
      const std::uint8_t enc = kx.tag_bytes[p];
      const Tag tag = kTagDecoding[enc];
      LineRecord& r = out[p];
      if (((occupied >> b) & 1u) == 0) {
        r = LineRecord{};
        r.exit = tag;
        continue;
      }
      BRSMN_ENSURES_MSG(tag != Tag::Eps, "packed gather: invalid tag encoding");
      const std::size_t code = codes[b];
      if (code < n) {
        BRSMN_ENSURES_MSG(!prev[code].empty(),
                          "packed gather: occupied line's code has no packet");
        r = prev[code];
        prev[code].source = LineRecord::kNoSource;
      } else {
        const std::size_t ev = (code - n) / 2;
        const std::size_t side = (code - n) % 2;
        BRSMN_ENSURES(ev < kx.num_events);
        LineRecord& parent = prev[kx.parent_code[ev]];
        BRSMN_ENSURES_MSG(!parent.empty(),
                          "packed gather: broadcast parent packet missing");
        r = parent;
        r.copy_id = kx.copy_id_base + 2 * ev + side;
        r.parent_id = parent.copy_id;
        if (first_side_done[ev] != 0) {
          parent.source = LineRecord::kNoSource;
        } else {
          first_side_done[ev] = 1;
        }
      }
      r.exit = tag;
      const std::uint32_t split = pkern::split_point(dests, r.lo, r.hi, bit);
      if (tag == Tag::Zero) r.hi = split;
      if (tag == Tag::One) r.lo = split;
    }
  }
  prev.swap(out);
}

/// The end of every switch level, compiled or adopted: gather the line
/// records out of the planes, then (when checking) run the level
/// self-check on them, all under the level's settled detection point.
void finish_level(pkern::CompileWorkspace& ws, std::size_t n, int k,
                  bool checking, std::uint64_t route_ord) {
  const int bit = ws.kx.stages - 1;
  if (!checking) {
    gather_lines(ws, bit);
    return;
  }
  fault::guard(true, n, route_ord, k, std::nullopt, true, [&] {
    gather_lines(ws, bit);
    fault::self_check_level(std::span<const LineRecord>(ws.lines), k,
                            route_ord);
  });
}

/// The final 2x2-switch level over the line records: deliver_final_heads
/// with each record's head tag at address bit 0. The caller has loaded
/// the kernel's tag planes with the entering state (load_final_level),
/// which the heatmap samples.
void deliver_final_lines(pkern::CompileWorkspace& ws,
                         std::vector<std::optional<std::size_t>>& delivered,
                         RoutingStats* stats, const ExplainSink* explain,
                         obs::FabricHeatmap* heatmap) {
  LevelKernel& kx = ws.kx;
  if (heatmap != nullptr) {
    heatmap->record_final_tags(kx.tag_plane(0), kx.tag_plane(1));
  }
  const std::size_t n = kx.n;
  std::vector<Tag>& heads = ws.heads;
  std::vector<std::size_t>& sources = ws.sources;
  heads.resize(n);
  sources.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const LineRecord& r = ws.lines[i];
    heads[i] = pkern::head_tag(r, ws.dests.outputs.data(), 0);
    if (!r.empty()) sources[i] = r.source;
  }
  deliver_final_heads(heads, sources, delivered, stats, explain);
}

/// Load the tag planes of the line state entering the final 2x2-switch
/// level (head tags at address bit 0).
void load_final_level(pkern::CompileWorkspace& ws) {
  load_lines(ws.kx, ws.lines, ws.dests.outputs.data(), 0);
}

/// Copy the final level's entry tag planes (load_final_level) into the
/// plan, for replay-time dead-line screening.
void capture_final_planes(const LevelKernel& kx, RoutePlan& plan) {
  plan.final_t0.assign(kx.tag_plane(0).begin(), kx.tag_plane(0).end());
  plan.final_t1.assign(kx.tag_plane(1).begin(), kx.tag_plane(1).end());
  plan.final_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
}

/// Copy the cold route's outputs into the plan once the route has fully
/// succeeded (called after the postcondition checks).
void capture_result(const RouteResult& result, RoutePlan& plan) {
  plan.delivered = result.delivered;
  plan.stats = result.stats;
  plan.broadcasts_per_level = result.broadcasts_per_level;
  plan.explanation = result.explanation;
}

/// One level's stats contribution: after - before, fieldwise (RoutingStats
/// has no operator-; every counter is monotone within a route).
RoutingStats stats_diff(const RoutingStats& after, const RoutingStats& before) {
  RoutingStats d;
  d.switch_traversals = after.switch_traversals - before.switch_traversals;
  d.broadcast_ops = after.broadcast_ops - before.broadcast_ops;
  d.tree_fwd_ops = after.tree_fwd_ops - before.tree_fwd_ops;
  d.tree_bwd_ops = after.tree_bwd_ops - before.tree_bwd_ops;
  d.fabric_passes = after.fabric_passes - before.fabric_passes;
  d.gate_delay = after.gate_delay - before.gate_delay;
  return d;
}

/// True when the tag planes loaded into `kx` equal the stored level's
/// entry checkpoint. Codes are identity-loaded per level, so every
/// configuration product of the level — census, scatter/quasisort plans,
/// masks, runs, events, ε-division, checkpoints — is a pure function of
/// these three planes: equality means the stored level can be adopted
/// verbatim.
bool entry_planes_match(LevelKernel& kx, const PlanLevel& old) {
  const auto t0 = kx.tag_plane(0);
  const auto t1 = kx.tag_plane(1);
  const auto t2 = kx.tag_plane(2);
  return std::equal(t0.begin(), t0.end(), old.entry_t0.begin(),
                    old.entry_t0.end()) &&
         std::equal(t1.begin(), t1.end(), old.entry_t1.begin(),
                    old.entry_t1.end()) &&
         std::equal(t2.begin(), t2.end(), old.entry_t2.begin(),
                    old.entry_t2.end());
}

/// The "level.<k>" span of a level, its label formatted only when a
/// tracer is attached.
obs::TraceSpan level_span(obs::Tracer* tracer, int k) {
  char label[24] = "";
  if (tracer != nullptr) std::snprintf(label, sizeof label, "level.%d", k);
  return obs::TraceSpan(tracer, label);
}

}  // namespace

/// One packed route's state, shared by the driver frame and the level
/// bodies.
struct pkern::RouteFrame {
  std::size_t n;
  int m;
  CompileWorkspace& ws;
  const RouteOptions& options;
  obs::RouteProbe& probe;
  RouteResult& result;
  bool checking;
  std::uint64_t route_ord;
  std::uint64_t next_copy_id = 1;
};

/// The unrolled level body — scatter pass, quasisort pass, gather — over
/// level k's BSN fabrics. The frame owns the kernel load (load_lines),
/// the level span and, when compiling a plan, the PlanLevel's entry-plane
/// capture.
void pkern::UnrolledFabric::compile_level(RouteFrame& f, int k,
                                          PlanLevel* pl) {
  const std::size_t n = f.n;
  CompileWorkspace& ws = f.ws;
  RouteResult& result = f.result;
  obs::RouteProbe& probe = f.probe;
  const bool checking = f.checking;
  const std::uint64_t route_ord = f.route_ord;
  LevelKernel& kx = ws.kx;
  const RoutingStats entry_stats = result.stats;
  const std::size_t splits_before = result.stats.broadcast_ops;
  const int S = kx.stages;
  const std::size_t bsn_size = std::size_t{1} << S;
  PassExplanation* scatter_pass = nullptr;
  PassExplanation* quasi_pass = nullptr;
  if (f.options.explain) {
    auto& passes = result.explanation->passes;
    passes.push_back(make_pass(k, PassKind::Scatter, n, S));
    passes.push_back(make_pass(k, PassKind::Quasisort, n, S));
    scatter_pass = &passes[passes.size() - 2];
    quasi_pass = &passes.back();
  }
  const ExplainSink scatter_sink{scatter_pass, 0};
  const ExplainSink quasi_sink{quasi_pass, 0};
  const fault::PassSeam seam = packed_seam(f.options, route_ord, n, k, kImpl);

  if (scatter_pass != nullptr) {
    scatter_sink.record_input_tags(materialize_tags(kx, /*collapse=*/true));
  }

  pk::TagCensus& census = ws.census;
  std::vector<std::size_t>& in_zeros = ws.in_zeros;
  std::vector<std::size_t>& in_ones = ws.in_ones;
  std::vector<std::size_t>& in_alphas = ws.in_alphas;
  std::vector<std::size_t>& in_epses = ws.in_epses;
  in_zeros.resize(n >> S);
  in_ones.resize(n >> S);
  in_alphas.resize(n >> S);
  in_epses.resize(n >> S);

  // Pass 1: scatter — eliminate every alpha (paper Theorem 2).
  fault::guard(checking, n, route_ord, k, PassKind::Scatter, false, [&] {
    build_census(census, kx);

    // The scalar Bsn's entry contracts, per BSN block in block order.
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      in_alphas[bb] = census.count_alpha(S, bb);
      in_epses[bb] = census.count_eps(S, bb);
      in_ones[bb] = census.count_ones(S, bb);
      in_zeros[bb] = bsn_size - in_alphas[bb] - in_epses[bb] - in_ones[bb];
      BRSMN_EXPECTS_MSG(in_zeros[bb] + in_alphas[bb] <= bsn_size / 2,
                        "BSN input violates n0 + n_alpha <= n/2 (Eq. 2)");
      BRSMN_EXPECTS_MSG(in_ones[bb] + in_alphas[bb] <= bsn_size / 2,
                        "BSN input violates n1 + n_alpha <= n/2 (Eq. 2)");
    }

    obs::PhaseScope scatter_scope(probe, obs::Phase::Scatter,
                                  "bsn.scatter.config");
    configure_scatter_packed(
        ws, census, &result.stats,
        scatter_pass != nullptr ? &scatter_sink : nullptr);
    scatter_scope.end();
    // A BSN root whose α count exceeds its ε count would be α-typed
    // with a nonzero surplus.
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      BRSMN_ENSURES_MSG(census.count_alpha(S, bb) <= census.count_eps(S, bb),
                        "Eq. (3) guarantees eps dominates at the BSN root");
    }
  });
  if (pl != nullptr) capture_stage_masks(kx, pl->scatter_masks);
  seam.apply_packed(PassKind::Scatter, kx.masks);
  install(PassKind::Scatter, k, kx.stage_masks());

  pk::TagCensus& mid = ws.mid;
  fault::guard(checking, n, route_ord, k, PassKind::Scatter, true, [&] {
    finalize_events(kx, /*bsn_block_major=*/true, f.next_copy_id,
                    &result.stats);
    obs::PhaseScope scatter_data_scope(probe, obs::Phase::Datapath,
                                       "bsn.scatter.datapath");
    run_scatter_datapath(kx);
    scatter_data_scope.end();
    result.stats.switch_traversals += (n / 2) * static_cast<std::size_t>(S);

    build_census(mid, kx);
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      const std::size_t mid_alphas = mid.count_alpha(S, bb);
      const std::size_t mid_epses = mid.count_eps(S, bb);
      const std::size_t mid_ones = mid.count_ones(S, bb);
      const std::size_t mid_zeros =
          bsn_size - mid_alphas - mid_epses - mid_ones;
      BRSMN_ENSURES_MSG(mid_alphas == 0, "scatter must eliminate all alphas");
      BRSMN_ENSURES(mid_zeros == in_zeros[bb] + in_alphas[bb]);  // Eq. (4)
      BRSMN_ENSURES(mid_ones == in_ones[bb] + in_alphas[bb]);    // Eq. (4)
      BRSMN_ENSURES(mid_epses == in_epses[bb] - in_alphas[bb]);  // Eq. (4)
    }
  });
  if (pl != nullptr) {
    capture_stage_events(kx, pl->events);
    pl->num_events = kx.num_events;
    pl->parent_codes = kx.parent_code;
    pl->post_scatter.assign(kx.state.words().begin(),
                            kx.state.words().end());
  }

  // Pass 2: quasisort — ε-divide, then Theorem-1 bit sort on b2.
  fault::guard(checking, n, route_ord, k, PassKind::Quasisort, false, [&] {
    if (quasi_pass != nullptr) {
      quasi_sink.record_input_tags(materialize_tags(kx, /*collapse=*/true));
    }
    obs::PhaseScope divide_scope(probe, obs::Phase::EpsDivide,
                                 "bsn.eps_divide");
    divide_eps_packed(ws, mid, &result.stats);
    divide_scope.end();
    if (quasi_pass != nullptr) {
      quasi_sink.record_divided_tags(
          materialize_tags(kx, /*collapse=*/false));
    }

    kx.reset_pass();
    pk::TagCensus& divided = ws.divided;
    build_census(divided, kx);
    obs::PhaseScope quasisort_scope(probe, obs::Phase::Quasisort,
                                    "bsn.quasisort.config");
    configure_quasisort_packed(
        ws, divided, &result.stats,
        quasi_pass != nullptr ? &quasi_sink : nullptr);
    quasisort_scope.end();
  });
  if (pl != nullptr) {
    pl->divided_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
    capture_stage_masks(kx, pl->quasisort_masks);
  }
  seam.apply_packed(PassKind::Quasisort, kx.masks);
  install(PassKind::Quasisort, k, kx.stage_masks());

  fault::guard(checking, n, route_ord, k, PassKind::Quasisort, true, [&] {
    obs::PhaseScope sort_data_scope(probe, obs::Phase::Datapath,
                                    "bsn.quasisort.datapath");
    run_unicast_datapath(kx);
    sort_data_scope.end();
    result.stats.switch_traversals += (n / 2) * static_cast<std::size_t>(S);

    // Postcondition: zeros (real or dummy) occupy the upper half of every
    // BSN, ones the lower half — the b2 plane decides, as in the scalar.
    const auto t2 = kx.tag_plane(2);
    for (std::size_t bb = 0; bb < (n >> S); ++bb) {
      const std::size_t base = bb * bsn_size;
      const std::size_t upper_ones =
          pk::plane_popcount(t2, base, base + bsn_size / 2);
      const std::size_t lower_ones =
          pk::plane_popcount(t2, base + bsn_size / 2, base + bsn_size);
      BRSMN_ENSURES_MSG(upper_ones == 0 && lower_ones == bsn_size / 2,
                        "quasisort output not split by halves");
    }
  });
  if (pl != nullptr) {
    pl->post_quasisort.assign(kx.state.words().begin(),
                              kx.state.words().end());
  }

  finish_level(ws, n, k, checking, route_ord);
  // All BSNs of one level route concurrently: charge the level's delay
  // once, not per block.
  result.stats.gate_delay += bsn_routing_delay(S);
  result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                        splits_before);
  if (pl != nullptr) pl->stats_delta = stats_diff(result.stats, entry_stats);
}

/// The feedback level body: passes 2k-1 and 2k over the physical fabric,
/// each reset first and charged as a full m-stage traversal.
void pkern::FeedbackFabric::compile_level(RouteFrame& f, int k,
                                          PlanLevel* pl) {
  const std::size_t n = f.n;
  const int m = f.m;
  CompileWorkspace& ws = f.ws;
  RouteResult& result = f.result;
  obs::RouteProbe& probe = f.probe;
  const bool checking = f.checking;
  const std::uint64_t route_ord = f.route_ord;
  Rbn& fabric = net.fabric_;
  LevelKernel& kx = ws.kx;
  const RoutingStats entry_stats = result.stats;
  const std::size_t splits_before = result.stats.broadcast_ops;
  const int top_stage = kx.stages;  // level-k BSN size is 2^top_stage
  ExplainSink scatter_sink;
  ExplainSink quasi_sink;
  if (f.options.explain) {
    auto& passes = result.explanation->passes;
    passes.push_back(make_pass(k, PassKind::Scatter, n, top_stage));
    passes.push_back(make_pass(k, PassKind::Quasisort, n, top_stage));
    scatter_sink.pass = &passes[passes.size() - 2];
    quasi_sink.pass = &passes.back();
  }
  const fault::PassSeam seam = packed_seam(f.options, route_ord, n, k, kImpl);

  // Pass 2k-1: the fabric acts as the level-k scatter networks. The
  // fabric is cleared before configuring, so a detection before the
  // install localizes against a cleared grid (fault/locate.cpp).
  fault::guard(checking, n, route_ord, k, PassKind::Scatter, false, [&] {
    fabric.reset();
    if (scatter_sink.pass != nullptr) {
      scatter_sink.record_input_tags(materialize_tags(kx, /*collapse=*/true));
    }
    build_census(ws.census, kx);
    const obs::PhaseScope scatter_scope(probe, obs::Phase::Scatter,
                                        "fb.scatter.config");
    configure_scatter_packed(
        ws, ws.census, &result.stats,
        scatter_sink.pass != nullptr ? &scatter_sink : nullptr);
  });
  if (pl != nullptr) capture_stage_masks(kx, pl->scatter_masks);
  seam.apply_packed(PassKind::Scatter, kx.masks);
  install(PassKind::Scatter, k, kx.stage_masks());
  fault::guard(checking, n, route_ord, k, PassKind::Scatter, true, [&] {
    finalize_events(kx, /*bsn_block_major=*/false, f.next_copy_id,
                    &result.stats);
    const obs::PhaseScope scatter_data_scope(probe, obs::Phase::Datapath,
                                             "fb.scatter.datapath");
    run_scatter_datapath(kx);
  });
  if (pl != nullptr) {
    capture_stage_events(kx, pl->events);
    pl->num_events = kx.num_events;
    pl->parent_codes = kx.parent_code;
    pl->post_scatter.assign(kx.state.words().begin(),
                            kx.state.words().end());
  }
  // The scalar feedback datapath walks all m physical stages (stages
  // above top_stage are identity wiring).
  result.stats.switch_traversals += (n / 2) * static_cast<std::size_t>(m);
  ++result.stats.fabric_passes;
  // One scatter configuration sweep (all blocks concurrent) plus a full
  // traversal of the m-stage fabric.
  result.stats.gate_delay +=
      config_sweep_delay(top_stage) + datapath_delay(m);

  // Pass 2k: the fabric acts as the level-k quasisorting networks.
  fault::guard(checking, n, route_ord, k, PassKind::Quasisort, false, [&] {
    fabric.reset();
    kx.reset_pass();
    build_census(ws.mid, kx);
    if (quasi_sink.pass != nullptr) {
      quasi_sink.record_input_tags(materialize_tags(kx, /*collapse=*/true));
    }
    obs::TraceSpan quasi_config_span(probe.tracer, "fb.quasisort.config");
    obs::PhaseScope divide_scope(probe, obs::Phase::EpsDivide,
                                 "fb.eps_divide");
    divide_eps_packed(ws, ws.mid, &result.stats);
    divide_scope.end();
    if (quasi_sink.pass != nullptr) {
      quasi_sink.record_divided_tags(
          materialize_tags(kx, /*collapse=*/false));
    }
    build_census(ws.divided, kx);
    const obs::PhaseScope quasisort_scope(probe, obs::Phase::Quasisort);
    configure_quasisort_packed(
        ws, ws.divided, &result.stats,
        quasi_sink.pass != nullptr ? &quasi_sink : nullptr);
  });
  if (pl != nullptr) {
    pl->divided_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
    capture_stage_masks(kx, pl->quasisort_masks);
  }
  seam.apply_packed(PassKind::Quasisort, kx.masks);
  install(PassKind::Quasisort, k, kx.stage_masks());
  fault::guard(checking, n, route_ord, k, PassKind::Quasisort, true, [&] {
    const obs::PhaseScope sort_data_scope(probe, obs::Phase::Datapath,
                                          "fb.quasisort.datapath");
    run_unicast_datapath(kx);
  });
  if (pl != nullptr) {
    pl->post_quasisort.assign(kx.state.words().begin(),
                              kx.state.words().end());
  }
  result.stats.switch_traversals += (n / 2) * static_cast<std::size_t>(m);
  ++result.stats.fabric_passes;
  // ε-divide sweep + quasisort sweep + full fabric traversal.
  result.stats.gate_delay +=
      2 * config_sweep_delay(top_stage) + datapath_delay(m);

  finish_level(ws, n, k, checking, route_ord);
  result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                        splits_before);
  if (pl != nullptr) pl->stats_delta = stats_diff(result.stats, entry_stats);
}

namespace {

/// Adopt one stored level during a patch (the caller shares the level
/// itself into the new plan, by reference): install its stored masks into
/// the fabric (leaving the grids a cold compile of the level leaves),
/// restore the post-quasisort checkpoint and event bookkeeping, re-emit
/// the stored explanation passes, run the level's self-check, and advance
/// the line state to the level's stored outcome. Copy ids keep tracking
/// the cold allocation order because every preceding level — reused or
/// recompiled — produced exactly the events a cold compile of the new
/// assignment would.
template <typename Fabric>
void reuse_level(Fabric& fabric, pkern::RouteFrame& f, int k,
                 const PlanLevel& old, const RoutePlan& base) {
  // The feedback fabric is one physical BSN that the quasisort install
  // overwrites whole, and no datapath runs in between, so its scatter
  // install would be S stage copies nobody reads.
  if constexpr (Fabric::kImpl == fault::ImplKind::Unrolled) {
    fabric.install(PassKind::Scatter, k, old.scatter_masks);
  }
  fabric.install(PassKind::Quasisort, k, old.quasisort_masks);
  LevelKernel& kx = f.ws.kx;
  BRSMN_EXPECTS(old.post_quasisort.size() == kx.state.words().size());
  std::copy(old.post_quasisort.begin(), old.post_quasisort.end(),
            kx.state.words().begin());
  kx.num_events = old.num_events;
  kx.parent_code = old.parent_codes;
  kx.copy_id_base = f.next_copy_id;
  f.next_copy_id += 2 * old.num_events;
  if (f.options.explain) {
    // The stored passes are pure functions of the (matching) entry
    // planes, so copying them is bit-identical to re-deriving them.
    const auto& passes = base.explanation->passes;
    const std::size_t first = 2 * static_cast<std::size_t>(k - 1);
    f.result.explanation->passes.push_back(passes[first]);
    f.result.explanation->passes.push_back(passes[first + 1]);
  }
  finish_level(f.ws, f.n, k, f.checking, f.route_ord);
  f.result.stats += old.stats_delta;
  f.result.broadcasts_per_level.push_back(old.stats_delta.broadcast_ops);
}

/// The one packed driver frame, over either fabric binding. A patch
/// (`base` set) walks the levels of a fresh compile of `assignment`,
/// adopting every level whose entry tag planes match `base`'s stored
/// checkpoint and recompiling the rest through the binding's level body;
/// a cold compile is the same walk with no base — no level is clean and
/// the walk never abandons. A non-null `plan` captures the compiled route
/// plan (a patch always passes its output plan): an adopted level goes
/// in as another reference to `base`'s immutable level, and only a
/// recompiled one allocates a fresh PlanLevel. `patched` is false only
/// for a patch that was abandoned or refused.
template <typename Fabric>
planner::PatchOutcome drive_packed(Fabric fabric,
                                   const MulticastAssignment& assignment,
                                   const RouteOptions& options,
                                   RoutePlan* plan, const RoutePlan* base,
                                   const planner::PatchConfig* config) {
  const std::size_t n = fabric.n();
  const int m = fabric.m();
  BRSMN_EXPECTS_MSG(assignment.size() == n,
                    "assignment width must match the network");
  planner::PatchOutcome outcome;
  if (base != nullptr) {
    BRSMN_EXPECTS_MSG(options.faults == nullptr,
                      "cannot patch a route plan under fault injection");
    BRSMN_EXPECTS_MSG(!options.capture_levels,
                      "cannot capture level inputs while patching");
    BRSMN_EXPECTS_MSG(
        base->n == n && base->impl == Fabric::kImpl &&
            base->levels.size() == static_cast<std::size_t>(m - 1),
        "patch base must be a plan compiled on this network");
    // Reused levels adopt the base's explanation passes verbatim; a base
    // compiled without one cannot serve an explained patch.
    if (options.explain && !base->explanation.has_value()) return outcome;
  } else if (plan != nullptr) {
    // A plan compiled while faults are armed would freeze corrupted
    // checkpoints — compile_route enforces this before delegating here.
    BRSMN_EXPECTS_MSG(options.faults == nullptr,
                      "cannot compile a route plan under fault injection");
  }

  obs::RouteProbe probe = obs::RouteProbe::attach(
      options.metrics, options.metrics_prefix, options.tracer,
      options.profiler);
  if (base != nullptr) probe.resolve(obs::Phase::Patch);
  obs::FabricHeatmap* heatmap = obs::kEnabled ? options.heatmap : nullptr;
  // A cold route's span is its total scope; a patch's is plan.patch.
  obs::PhaseScope total_scope(
      probe, obs::Phase::Total,
      base == nullptr ? Fabric::kRouteSpan : std::string_view{});
  std::optional<obs::PhaseScope> patch_scope;
  if (base != nullptr) {
    patch_scope.emplace(probe, obs::Phase::Patch, "plan.patch");
  }

  RouteResult& result = outcome.result;
  result.delivered.assign(n, std::nullopt);
  result.broadcasts_per_level.reserve(static_cast<std::size_t>(m));
  if (options.explain) {
    result.explanation.emplace();
    result.explanation->n = n;
  }
  if (plan != nullptr) {
    plan->n = n;
    plan->m = m;
    plan->impl = Fabric::kImpl;
    plan->wcode = static_cast<std::size_t>(m) + 1;
    plan->levels.clear();
    plan->levels.reserve(static_cast<std::size_t>(m - 1));
  }

  const bool checking = options.self_check || options.faults != nullptr;
  if (options.faults != nullptr) {
    BRSMN_EXPECTS_MSG(options.faults->size() == n,
                      "fault plan width must match the network");
  }
  const std::uint64_t route_ord =
      options.faults != nullptr ? options.faults->begin_route() : 0;
  if (options.fault_activity != nullptr) options.fault_activity->clear();

  // Recompile budget: one more dirty level than this abandons a patch.
  // A delta mostly dirties the deep levels (see planner::patch_route),
  // and one that preserves a level's half-splits never dirties it at
  // all, so the budget counts *actual* dirty levels as the walk
  // discovers them. A walk that exhausts the budget has spent at most
  // max_dirty_fraction of a cold compile before handing over.
  const double budget =
      config != nullptr
          ? config->max_dirty_fraction * static_cast<double>(m - 1)
          : std::numeric_limits<double>::infinity();

  try {
    // The network's compile workspace: the widest-level kernel plus
    // every census/configuration buffer and the line records, allocated
    // on the first route and reused by every later compile and patch.
    pkern::CompileWorkspace& ws = fabric.compile_ws();
    LevelKernel& kx = ws.kx;
    kx.ops = &simd::ops(options.simd_backend);
    // Reused levels restore stored checkpoints without re-running the
    // datapath, so on a patch only recompiled levels (and the
    // always-fresh final level) accumulate heatmap activity.
    kx.heat = heatmap;
    pkern::RouteFrame f{n, m, ws, options, probe, result, checking, route_ord};
    begin_lines(ws, assignment, f.next_copy_id);

    for (int k = 1; k <= m - 1; ++k) {
      const int S = m - k + 1;  // both fabrics: level-k BSN size 2^S
      if (options.capture_levels) {
        result.level_inputs.push_back(line_values(ws, S - 1));
      }
      fault::apply_dead_lines(options.faults, route_ord, k, Fabric::kImpl,
                              RouteEngine::Packed, ws.lines,
                              options.fault_activity);
      kx.begin_level(S);
      kx.heat_level = k;
      load_lines(kx, ws.lines, ws.dests.outputs.data(), S - 1);
      const auto slot = static_cast<std::size_t>(k - 1);
      const PlanLevel* old =
          base != nullptr ? base->levels[slot].get() : nullptr;
      const bool clean =
          old != nullptr && old->stages == S && entry_planes_match(kx, *old);
      if (!clean) {
        if (outcome.first_dirty_level == 0) outcome.first_dirty_level = k;
        if (static_cast<double>(outcome.levels_recompiled + 1) > budget) {
          return outcome;  // abandoned: `plan` unspecified
        }
      }
      obs::TraceSpan span = level_span(probe.tracer, k);
      if (clean) {
        plan->levels.push_back(base->levels[slot]);
        reuse_level(fabric, f, k, *old, *base);
        ++outcome.levels_reused;
      } else {
        std::shared_ptr<PlanLevel> pl;
        if (plan != nullptr) {
          pl = std::make_shared<PlanLevel>();
          pl->stages = S;
          pl->entry_t0.assign(kx.tag_plane(0).begin(), kx.tag_plane(0).end());
          pl->entry_t1.assign(kx.tag_plane(1).begin(), kx.tag_plane(1).end());
          pl->entry_t2.assign(kx.tag_plane(2).begin(), kx.tag_plane(2).end());
        }
        fabric.compile_level(f, k, pl.get());
        if (plan != nullptr) plan->levels.push_back(std::move(pl));
        ++outcome.levels_recompiled;
      }
    }

    // The final 2x2 delivery level is always computed fresh — it is
    // cheap, and on a patch it revalidates the delivery end to end.
    if (options.capture_levels) {
      result.level_inputs.push_back(line_values(ws, 0));
    }
    fault::apply_dead_lines(options.faults, route_ord, m, Fabric::kImpl,
                            RouteEngine::Packed, ws.lines,
                            options.fault_activity);
    load_final_level(ws);
    if (plan != nullptr) capture_final_planes(kx, *plan);
    const std::size_t splits_before_final = result.stats.broadcast_ops;
    {
      const obs::PhaseScope final_scope(probe, obs::Phase::Datapath,
                                        "level.final");
      ExplainSink final_sink;
      if (options.explain) {
        result.explanation->passes.push_back(
            make_pass(m, PassKind::Final, n, 1));
        final_sink.pass = &result.explanation->passes.back();
      }
      fault::guard(checking, n, route_ord, m, PassKind::Final, true, [&] {
        deliver_final_lines(ws, result.delivered, &result.stats,
                            options.explain ? &final_sink : nullptr, heatmap);
      });
    }
    result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                          splits_before_final);
    result.stats.fabric_passes += Fabric::kFinalPasses;

    if (checking) {
      fault::self_check_delivery(result.delivered, assignment.src_of(), m,
                                 route_ord);
    }
    BRSMN_ENSURES_MSG(assignment.matches_delivery(result.delivered),
                      "packed BRSMN route delivered incorrectly");
  } catch (const fault::FaultDetected& e) {
    if (options.explain && result.explanation.has_value()) {
      fault::rethrow_localized(fabric.net, e, *result.explanation);
    }
    throw;
  }
  if (plan != nullptr) capture_result(result, *plan);
  outcome.patched = true;
  total_scope.end();
  if constexpr (obs::kEnabled) {
    if (probe.enabled()) probe.record_stats(result.stats);
  }
  return outcome;
}

}  // namespace

RouteResult packed_route(Brsmn& net, const MulticastAssignment& assignment,
                         const RouteOptions& options, RoutePlan* plan) {
  return drive_packed(pkern::UnrolledFabric{net}, assignment, options, plan,
                      nullptr, nullptr)
      .result;
}

RouteResult packed_route(FeedbackBrsmn& net,
                         const MulticastAssignment& assignment,
                         const RouteOptions& options, RoutePlan* plan) {
  return drive_packed(pkern::FeedbackFabric{net}, assignment, options, plan,
                      nullptr, nullptr)
      .result;
}

namespace planner {

PatchOutcome patch_route(Brsmn& net, const MulticastAssignment& assignment,
                         const RoutePlan& base, const RouteOptions& options,
                         RoutePlan& out, const PatchConfig& config) {
  return drive_packed(pkern::UnrolledFabric{net}, assignment, options, &out,
                      &base, &config);
}

PatchOutcome patch_route(FeedbackBrsmn& net,
                         const MulticastAssignment& assignment,
                         const RoutePlan& base, const RouteOptions& options,
                         RoutePlan& out, const PatchConfig& config) {
  return drive_packed(pkern::FeedbackFabric{net}, assignment, options, &out,
                      &base, &config);
}

}  // namespace planner

}  // namespace brsmn
