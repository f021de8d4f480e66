// The RBN as a scatter network (paper Section 5.1, Theorems 2-3, and the
// distributed algorithm of Table 4).
//
// The scatter network eliminates α tags: every α is paired with an ε at
// some broadcast-set switch and split into a 0 and a 1. The distributed
// algorithm tracks, per sub-RBN, only the *dominating* symbol among
// {α, ε} and its surplus count l = |n_α - n_ε|; Lemma 1 handles nodes
// whose children agree on the dominating type (ε/α-addition) and Lemmas
// 2-5 handle disagreeing children (ε/α-elimination).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/explain.hpp"
#include "core/line_value.hpp"
#include "core/merge_lemmas.hpp"
#include "core/rbn.hpp"
#include "core/stats.hpp"
#include "core/tag.hpp"

namespace brsmn {

/// The forward-phase value of a scatter tree node: the dominating symbol
/// type (Alpha or Eps) and the surplus count of that symbol.
struct ScatterNodeValue {
  Tag type = Tag::Eps;  ///< Tag::Alpha or Tag::Eps
  std::size_t surplus = 0;
};

/// The backward-phase decision for one merging-network block of Table 4:
/// which lemma family fired, where the children's runs must start, and the
/// geometry of the switch-setting fill. `scatter_block_plan` is the single
/// copy of this case split; configure_scatter materializes a settings
/// vector from it and the packed kernel fills stage bitmasks from it.
struct ScatterBlockPlan {
  RouteRule rule = RouteRule::ScatterAddition;
  std::size_t s0 = 0;  ///< run start for the upper child
  std::size_t s1 = 0;  ///< run start for the lower child
  // ε/α-addition (Lemma 1): switches [0, s1) get `run`, the rest its
  // opposite (W^{n/2}_{0,s1;run-bar,run}).
  SwitchSetting run = SwitchSetting::Parallel;
  // ε/α-elimination (Lemmas 2-5): a circular broadcast run of `run_len`
  // switches at `run_start`, surviving-run length `l`, with the unicast
  // fill given by lemmas::elimination_layout(n', s, l, ucast).
  std::size_t l = 0;
  std::size_t run_start = 0;
  std::size_t run_len = 0;
  SwitchSetting ucast = SwitchSetting::Parallel;
  SwitchSetting bcast = SwitchSetting::UpperBcast;
};

/// Compute the Table 4 backward-phase plan for a block of size `n_prime`
/// (a power of two) whose children carry `c0` (upper) and `c1` (lower)
/// and whose output run must start at `s` < n_prime. Inline: both
/// engines run it once per merging-network block, so the Lemma 2-5
/// starts are masks, not divisions (s mod n'/2 = s & (n'/2 - 1)).
/// constexpr: the packed compile's bottom-stage tables
/// (core/block_tables.hpp) are generated from it at compile time.
constexpr ScatterBlockPlan scatter_block_plan(const ScatterNodeValue& c0,
                                              const ScatterNodeValue& c1,
                                              std::size_t n_prime,
                                              std::size_t s) {
  ScatterBlockPlan plan;
  if (c0.type == c1.type) {
    // ε/α-addition: exactly Lemma 1 over the shared dominant symbol.
    plan.rule = RouteRule::ScatterAddition;
    const auto g = lemmas::lemma1_geometry(n_prime, s, c0.surplus, c1.surplus);
    plan.s0 = g.s0;
    plan.s1 = g.s1;
    plan.run = g.run;
    return plan;
  }
  BRSMN_EXPECTS(is_pow2(n_prime) && n_prime >= 2 && s < n_prime);
  const std::size_t mod_half = n_prime / 2 - 1;
  // ε/α-elimination: Lemmas 2-5 via the unified Table 4 case split.
  plan.rule = RouteRule::ScatterElimination;
  plan.bcast = (c0.type == Tag::Alpha) ? SwitchSetting::UpperBcast
                                       : SwitchSetting::LowerBcast;
  if (c0.surplus >= c1.surplus) {
    plan.l = c0.surplus - c1.surplus;
    plan.s0 = s & mod_half;
    plan.s1 = (s + plan.l) & mod_half;
    plan.run_start = plan.s1;
    plan.run_len = c1.surplus;
    plan.ucast = SwitchSetting::Parallel;
  } else {
    plan.l = c1.surplus - c0.surplus;
    plan.s0 = (s + plan.l) & mod_half;
    plan.s1 = s & mod_half;
    plan.run_start = plan.s0;
    plan.run_len = c0.surplus;
    plan.ucast = SwitchSetting::Cross;
  }
  return plan;
}

/// Materialize the n'/2 switch settings of a block plan (logical order).
std::vector<SwitchSetting> scatter_block_settings(const ScatterBlockPlan& plan,
                                                  std::size_t n_prime,
                                                  std::size_t s);

/// Configure the sub-RBN at (top_stage, top_block) as a scatter network
/// for the given input tags; the surviving dominant-symbol run is placed
/// starting at `s_root` (local position). Returns the root node value: if
/// the result type is Eps the outputs carry only {0, 1, ε}; if Alpha
/// (possible only when n_α > n_ε, i.e. outside BSN usage), only {0,1,α}.
///
/// Preconditions: tags.size() == 2^top_stage; every tag is in
/// {Zero, One, Alpha, Eps}; s_root < tags.size().
/// `explain` (optional) records, per configured merging-network block,
/// the installed settings and whether Lemma 1 (ε/α-addition) or Lemmas
/// 2-5 (ε/α-elimination) fired.
ScatterNodeValue configure_scatter(Rbn& rbn, int top_stage,
                                   std::size_t top_block,
                                   std::span<const Tag> tags,
                                   std::size_t s_root,
                                   RoutingStats* stats = nullptr,
                                   const ExplainSink* explain = nullptr);

/// Whole-network convenience overload.
ScatterNodeValue configure_scatter(Rbn& rbn, std::span<const Tag> tags,
                                   std::size_t s_root,
                                   RoutingStats* stats = nullptr,
                                   const ExplainSink* explain = nullptr);

/// Tracks packet-copy identity across scatter broadcasts.
struct ScatterExec {
  std::uint64_t next_copy_id = 1;
  RoutingStats* stats = nullptr;
};

/// Switch function for propagating LineValues through a configured scatter
/// fabric. Unicast settings move values unchanged; broadcast settings
/// require an (α, ε) input pair (asserted) and emit the 0-copy on the
/// upper output and the 1-copy on the lower output, duplicating the
/// packet's remaining tag stream (Fig. 3c/3d).
std::pair<LineValue, LineValue> apply_scatter_switch(const SwitchContext& ctx,
                                                     SwitchSetting setting,
                                                     LineValue up,
                                                     LineValue low,
                                                     ScatterExec& exec);

}  // namespace brsmn
