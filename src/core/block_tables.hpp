// Table-driven bottom stages of the packed configuration sweeps.
//
// A merging-network node's switch settings depend only on the start s of
// its output run and on its two children's values: Lemma 1 over the ones
// counts for the quasisort, Lemmas 1-5 through Table 4 over (type,
// surplus) for the scatter. Stage j of an S-stage pass holds n/2^j nodes,
// so stages 1-3 hold 7/8 of them, and at those sizes the whole input
// space is small enough to enumerate once:
//
//   kScatterBlocks[scatter_index(s, alpha, eps)]   (4 x 16 x 16 entries)
//     stages 1-2 of a 4-line scatter block whose stage-2 node starts its
//     run at s < 4; alpha / eps are the block's α and ε indicator nibbles.
//   kQuasisortBlocks[quasisort_index(s, ones)]     (8 x 256 entries)
//     stages 1-3 of an 8-line quasisort block whose stage-3 node starts
//     at s < 8; ones is the block's b2 (ε-divided key) byte.
//
// Bit i of every nibble, byte and mask field is line i of the block. A
// mask field holds the stage's su bits at the pairs' upper lines and its
// sl bits at their lower lines, exactly as fill_masks writes them into a
// packed::StageMasks word, so a lookup is OR-ed into the masks at the
// block's offset. Both tables are generated at compile time by the same
// inline code the per-node sweeps of the upper stages run
// (scatter_block_plan, lemma1_geometry and elimination_layout, emitted as
// runs by scatter_block_runs / lemma1_runs and written through sets_su /
// sets_sl), so the Lemma arithmetic keeps one copy.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/explain.hpp"
#include "core/level_kernel.hpp"
#include "core/merge_lemmas.hpp"
#include "core/scatter.hpp"
#include "core/switch_setting.hpp"
#include "core/tag.hpp"

namespace brsmn::pkern {

/// Emit Lemma 1's stage settings W^{n'/2}_{0,s1; run-bar, run} as runs:
/// seg(first, count, setting) for switches [0, s1), then [s1, half).
template <class Seg>
constexpr void lemma1_runs(const lemmas::Lemma1Geometry& g, std::size_t half,
                           Seg&& seg) {
  seg(std::size_t{0}, g.s1, g.run);
  seg(g.s1, half - g.s1, opposite_unicast(g.run));
}

/// Emit the n'/2 settings of a Table 4 block plan (output run start `s`)
/// as runs in ascending switch order: seg(first, count, setting). The
/// runs of an ε/α-elimination place the (possibly wrapping) broadcast run
/// between the unicast fills of lemmas::elimination_layout.
template <class Seg>
constexpr void scatter_block_runs(const ScatterBlockPlan& plan,
                                  std::size_t n_prime, std::size_t s,
                                  Seg&& seg) {
  const std::size_t half = n_prime / 2;
  if (plan.rule == RouteRule::ScatterAddition) {
    seg(std::size_t{0}, plan.s1, plan.run);
    seg(plan.s1, half - plan.s1, opposite_unicast(plan.run));
    return;
  }
  const auto layout = lemmas::elimination_layout(n_prime, s, plan.l, plan.ucast);
  const std::size_t rs = plan.run_start;
  const std::size_t rl = plan.run_len;
  if (rs + rl <= half) {
    seg(std::size_t{0}, rs, layout.before);
    seg(rs, rl, plan.bcast);
    seg(rs + rl, half - rs - rl, layout.after);
    return;
  }
  // The broadcast run wraps; this only happens in the binary regimes of
  // Lemmas 2-5, where both unicast fills agree.
  const std::size_t rem = rs + rl - half;
  BRSMN_ENSURES(layout.before == layout.after);
  seg(std::size_t{0}, rem, plan.bcast);
  seg(rem, rs - rem, layout.before);
  seg(rs, half - rs, plan.bcast);
}

/// The broadcast switches of one mask word at pair distance d: the switch
/// at upper line t broadcasts iff su(t) != sl(t + d), and its α sits on
/// the upper input (UpperBcast) iff sl(t + d) = 1. `upper` selects the
/// word's upper lines at distance d (d < 64). Calls emit(t, alpha_upper)
/// in ascending t, the (stage, line) order finalize_events needs.
template <class Emit>
inline void for_each_broadcast(std::uint64_t su, std::uint64_t sl,
                               unsigned d, std::uint64_t upper, Emit&& emit) {
  for (std::uint64_t x = (su ^ (sl >> d)) & upper; x != 0; x &= x - 1) {
    const auto t = static_cast<unsigned>(std::countr_zero(x));
    emit(t, ((sl >> (t + d)) & 1u) != 0);
  }
}

/// Stages 1-2 of a 4-line scatter block.
struct ScatterBlockEntry {
  std::uint8_t su[2] = {};  ///< su[j-1]: stage j's su bits
  std::uint8_t sl[2] = {};  ///< sl[j-1]: stage j's sl bits
  /// Lemmas 2-5 (ε/α-elimination) fired, else Lemma 1 (ε/α-addition):
  /// bit 0 for the stage-2 node, bit 1 + t for stage-1 node t.
  std::uint8_t elim = 0;
  /// The block root's forward type (the level-2 node of the type tree):
  /// 1 when α dominates, with the scalar combine()'s tie propagation.
  /// Independent of s.
  std::uint8_t alpha = 0;

  bool operator==(const ScatterBlockEntry&) const = default;
};

/// Stages 1-3 of an 8-line quasisort block.
struct QuasisortBlockEntry {
  std::uint8_t su[3] = {};  ///< su[j-1]: stage j's su bits
  std::uint8_t sl[3] = {};  ///< sl[j-1]: stage j's sl bits
};

constexpr std::size_t scatter_index(std::size_t s, std::uint64_t alpha,
                                    std::uint64_t eps) {
  return (s << 8) | static_cast<std::size_t>(alpha << 4) |
         static_cast<std::size_t>(eps);
}

constexpr std::size_t quasisort_index(std::size_t s, std::uint64_t ones) {
  return (s << 8) | static_cast<std::size_t>(ones);
}

namespace detail {

/// fill_masks over one block's mask fields: switches [first, first+count)
/// of the node whose first upper line is `up`, at pair distance `d`.
constexpr void fill_bits(std::uint8_t& su, std::uint8_t& sl, std::size_t up,
                         std::size_t d, std::size_t first, std::size_t count,
                         SwitchSetting s) {
  for (std::size_t t = up + first; t < up + first + count; ++t) {
    if (sets_su(s)) su = static_cast<std::uint8_t>(su | (1u << t));
    if (sets_sl(s)) sl = static_cast<std::uint8_t>(sl | (1u << (t + d)));
  }
}

/// The forward value of the scatter node over lines [first, first+lines)
/// of a block: surplus |n_α - n_ε| and the dominating type, where a tie
/// inherits the upper child's type (a leaf's: α iff the line is α) — the
/// scalar combine().
constexpr ScatterNodeValue scatter_value(unsigned alpha, unsigned eps,
                                         unsigned first, unsigned lines) {
  const unsigned m = ((1u << lines) - 1) << first;
  const int na = std::popcount(alpha & m);
  const int ne = std::popcount(eps & m);
  if (na != ne) {
    return {na > ne ? Tag::Alpha : Tag::Eps,
            static_cast<std::size_t>(na > ne ? na - ne : ne - na)};
  }
  if (lines == 1) return {((alpha >> first) & 1u) ? Tag::Alpha : Tag::Eps, 0};
  return {scatter_value(alpha, eps, first, lines / 2).type, 0};
}

constexpr ScatterBlockEntry make_scatter_entry(std::size_t s, unsigned alpha,
                                               unsigned eps) {
  ScatterBlockEntry out;
  if ((alpha & eps) != 0) return out;  // no line is both α and ε
  out.alpha = scatter_value(alpha, eps, 0, 4).type == Tag::Alpha;
  const ScatterBlockPlan root = scatter_block_plan(
      scatter_value(alpha, eps, 0, 2), scatter_value(alpha, eps, 2, 2), 4, s);
  out.elim = root.rule == RouteRule::ScatterElimination;
  scatter_block_runs(root, 4, s, [&](std::size_t f, std::size_t c,
                                     SwitchSetting w) {
    fill_bits(out.su[1], out.sl[1], 0, 2, f, c, w);
  });
  const std::size_t starts[2] = {root.s0, root.s1};
  for (unsigned t = 0; t < 2; ++t) {
    const ScatterBlockPlan leaf = scatter_block_plan(
        scatter_value(alpha, eps, 2 * t, 1),
        scatter_value(alpha, eps, 2 * t + 1, 1), 2, starts[t]);
    if (leaf.rule == RouteRule::ScatterElimination) {
      out.elim = static_cast<std::uint8_t>(out.elim | (2u << t));
    }
    scatter_block_runs(leaf, 2, starts[t], [&](std::size_t f, std::size_t c,
                                               SwitchSetting w) {
      fill_bits(out.su[0], out.sl[0], 2 * t, 1, f, c, w);
    });
  }
  return out;
}

constexpr QuasisortBlockEntry make_quasisort_entry(std::size_t s,
                                                   unsigned ones) {
  QuasisortBlockEntry out;
  std::size_t start[4] = {s};  // run starts of the current stage's nodes
  for (int j = 3; j >= 1; --j) {
    const unsigned half = 1u << (j - 1);
    const unsigned field = (1u << half) - 1;
    std::size_t next[4] = {};
    for (unsigned b = 0; b < (8u >> j); ++b) {
      const unsigned up = 2 * b * half;
      const auto l0 = static_cast<std::size_t>(std::popcount((ones >> up) & field));
      const auto l1 =
          static_cast<std::size_t>(std::popcount((ones >> (up + half)) & field));
      const lemmas::Lemma1Geometry g =
          lemmas::lemma1_geometry(2 * half, start[b], l0, l1);
      if (j > 1) {
        next[2 * b] = g.s0;
        next[2 * b + 1] = g.s1;
      }
      lemma1_runs(g, half, [&](std::size_t f, std::size_t c, SwitchSetting w) {
        fill_bits(out.su[j - 1], out.sl[j - 1], up, half, f, c, w);
      });
    }
    for (int k = 0; k < 4; ++k) start[k] = next[k];
  }
  return out;
}

}  // namespace detail

inline constexpr std::array<ScatterBlockEntry, 4 * 16 * 16> kScatterBlocks =
    [] {
      std::array<ScatterBlockEntry, 4 * 16 * 16> t{};
      for (unsigned s = 0; s < 4; ++s) {
        for (unsigned a = 0; a < 16; ++a) {
          for (unsigned e = 0; e < 16; ++e) {
            t[scatter_index(s, a, e)] = detail::make_scatter_entry(s, a, e);
          }
        }
      }
      return t;
    }();

inline constexpr std::array<QuasisortBlockEntry, 8 * 256> kQuasisortBlocks =
    [] {
      std::array<QuasisortBlockEntry, 8 * 256> t{};
      for (unsigned s = 0; s < 8; ++s) {
        for (unsigned o = 0; o < 256; ++o) {
          t[quasisort_index(s, o)] = detail::make_quasisort_entry(s, o);
        }
      }
      return t;
    }();

}  // namespace brsmn::pkern
