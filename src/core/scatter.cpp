#include "core/scatter.hpp"

#include <vector>

#include "common/contracts.hpp"
#include "core/merge_lemmas.hpp"

namespace brsmn {

namespace {

/// Forward phase of Table 4 for one node: combine the children's
/// dominating types and surplus counts.
ScatterNodeValue combine(const ScatterNodeValue& c0,
                         const ScatterNodeValue& c1) {
  if (c0.type == c1.type) {
    return {c0.type, c0.surplus + c1.surplus};  // ε/α-addition
  }
  if (c0.surplus >= c1.surplus) {               // ε/α-elimination
    return {c0.type, c0.surplus - c1.surplus};
  }
  return {c1.type, c1.surplus - c0.surplus};
}

ScatterNodeValue leaf_value(Tag t) {
  switch (t) {
    case Tag::Alpha: return {Tag::Alpha, 1};
    case Tag::Eps: return {Tag::Eps, 1};
    case Tag::Zero:
    case Tag::One: return {Tag::Eps, 0};  // χ: no surplus; type immaterial
    default: break;
  }
  BRSMN_EXPECTS_MSG(false, "scatter input tag must be 0, 1, alpha, or eps");
  return {};
}

}  // namespace

std::vector<SwitchSetting> scatter_block_settings(const ScatterBlockPlan& plan,
                                                  std::size_t n_prime,
                                                  std::size_t s) {
  if (plan.rule == RouteRule::ScatterAddition) {
    return binary_compact_setting(n_prime, 0, plan.s1,
                                  opposite_unicast(plan.run), plan.run);
  }
  return lemmas::elimination_settings(n_prime, s, plan.l, plan.run_start,
                                      plan.run_len, plan.ucast, plan.bcast);
}

ScatterNodeValue configure_scatter(Rbn& rbn, int top_stage,
                                   std::size_t top_block,
                                   std::span<const Tag> tags,
                                   std::size_t s_root, RoutingStats* stats,
                                   const ExplainSink* explain) {
  BRSMN_EXPECTS(top_stage >= 1 && top_stage <= rbn.stages());
  const std::size_t nsub = std::size_t{1} << top_stage;
  BRSMN_EXPECTS(tags.size() == nsub);
  BRSMN_EXPECTS(s_root < nsub);

  // Forward phase: node values per level (level 0 = input lines).
  std::vector<std::vector<ScatterNodeValue>> node(
      static_cast<std::size_t>(top_stage) + 1);
  node[0].resize(nsub);
  for (std::size_t i = 0; i < nsub; ++i) node[0][i] = leaf_value(tags[i]);
  for (int j = 1; j <= top_stage; ++j) {
    const auto& child = node[static_cast<std::size_t>(j - 1)];
    auto& cur = node[static_cast<std::size_t>(j)];
    cur.resize(child.size() / 2);
    for (std::size_t b = 0; b < cur.size(); ++b) {
      cur[b] = combine(child[2 * b], child[2 * b + 1]);
      if (stats) ++stats->tree_fwd_ops;
    }
  }

  // Backward + switch-setting phases (Table 4).
  std::vector<std::vector<std::size_t>> start(
      static_cast<std::size_t>(top_stage) + 1);
  for (int j = 0; j <= top_stage; ++j) {
    start[static_cast<std::size_t>(j)].resize(nsub >> j);
  }
  start[static_cast<std::size_t>(top_stage)][0] = s_root;
  for (int j = top_stage; j >= 1; --j) {
    const std::size_t n_prime = std::size_t{1} << j;
    for (std::size_t b = 0; b < (nsub >> j); ++b) {
      const std::size_t s = start[static_cast<std::size_t>(j)][b];
      const ScatterNodeValue c0 = node[static_cast<std::size_t>(j - 1)][2 * b];
      const ScatterNodeValue c1 =
          node[static_cast<std::size_t>(j - 1)][2 * b + 1];
      const ScatterBlockPlan plan = scatter_block_plan(c0, c1, n_prime, s);
      const std::vector<SwitchSetting> settings =
          scatter_block_settings(plan, n_prime, s);
      start[static_cast<std::size_t>(j - 1)][2 * b] = plan.s0;
      start[static_cast<std::size_t>(j - 1)][2 * b + 1] = plan.s1;
      const std::size_t block = (top_block << (top_stage - j)) + b;
      rbn.set_block(j, block, settings);
      if (explain) explain->record_block(j, block, settings, plan.rule);
      if (stats) ++stats->tree_bwd_ops;
    }
  }
  return node[static_cast<std::size_t>(top_stage)][0];
}

ScatterNodeValue configure_scatter(Rbn& rbn, std::span<const Tag> tags,
                                   std::size_t s_root, RoutingStats* stats,
                                   const ExplainSink* explain) {
  return configure_scatter(rbn, rbn.stages(), 0, tags, s_root, stats,
                           explain);
}

std::pair<LineValue, LineValue> apply_scatter_switch(const SwitchContext&,
                                                     SwitchSetting setting,
                                                     LineValue up,
                                                     LineValue low,
                                                     ScatterExec& exec) {
  if (exec.stats) ++exec.stats->switch_traversals;
  switch (setting) {
    case SwitchSetting::Parallel:
      return {std::move(up), std::move(low)};
    case SwitchSetting::Cross:
      return {std::move(low), std::move(up)};
    case SwitchSetting::UpperBcast:
    case SwitchSetting::LowerBcast: {
      LineValue& alpha_in =
          setting == SwitchSetting::UpperBcast ? up : low;
      const LineValue& eps_in =
          setting == SwitchSetting::UpperBcast ? low : up;
      BRSMN_ENSURES_MSG(alpha_in.tag == Tag::Alpha && alpha_in.packet,
                        "broadcast switch without an alpha input");
      BRSMN_ENSURES_MSG(eps_in.empty(),
                        "broadcast switch would drop a live packet");
      if (exec.stats) ++exec.stats->broadcast_ops;
      const Packet& orig = *alpha_in.packet;
      Packet zero_copy{orig.source, exec.next_copy_id++, orig.copy_id,
                       orig.stream};
      Packet one_copy{orig.source, exec.next_copy_id++, orig.copy_id,
                      orig.stream};
      return {occupied_line(Tag::Zero, std::move(zero_copy)),
              occupied_line(Tag::One, std::move(one_copy))};
    }
  }
  BRSMN_ENSURES_MSG(false, "invalid switch setting");
  return {std::move(up), std::move(low)};
}

}  // namespace brsmn
