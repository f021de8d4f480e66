#include "core/brsmn.hpp"

#include <cstdio>

#include "api/plan_cache.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "core/tag_sequence.hpp"
#include "fault/fault_injector.hpp"
#include "fault/locate.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/route_probe.hpp"

namespace brsmn {

std::vector<std::optional<std::size_t>> expected_delivery(
    const MulticastAssignment& a) {
  std::vector<std::optional<std::size_t>> expected(a.size());
  const auto src_of = a.src_of();
  for (std::size_t out = 0; out < a.size(); ++out) {
    if (src_of[out] != MulticastAssignment::kIdle) expected[out] = src_of[out];
  }
  return expected;
}

std::vector<LineValue> initial_lines(const MulticastAssignment& a,
                                     std::uint64_t& next_copy_id) {
  std::vector<LineValue> lines(a.size());
  DestinationLists lists;
  a.destination_lists(lists);
  std::vector<std::size_t> dests;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto d = lists.of(i);
    if (d.empty()) continue;
    dests.assign(d.begin(), d.end());
    Packet p;
    p.source = i;
    p.copy_id = next_copy_id++;
    p.parent_id = p.copy_id;
    encode_sequence_into(dests, a.size(), p.stream);
    const Tag head = p.stream.front();
    lines[i] = occupied_line(head, std::move(p));
  }
  return lines;
}

void advance_streams(std::vector<LineValue>& lines) {
  for (LineValue& lv : lines) {
    if (lv.empty()) {
      lv.tag = Tag::Eps;  // drop dummy ε0/ε1 designations between levels
      continue;
    }
    BRSMN_ENSURES_MSG(lv.tag == Tag::Zero || lv.tag == Tag::One,
                      "a packet must leave a BSN tagged 0 or 1");
    BRSMN_ENSURES_MSG(lv.packet.has_value(),
                      "occupied line lost its packet between levels");
    Packet& p = *lv.packet;
    BRSMN_ENSURES(p.stream.size() >= 3);  // a_0 plus two subtree sequences
    // Strided split in place (cf. split_stream): entry i of the branch's
    // subsequence sits at 1 + 2i + offset, strictly ahead of the write
    // cursor, so the halved stream overwrites its own buffer and the
    // advance allocates nothing. This runs for every occupied line at
    // every level, so the per-line temporary of split_stream() adds up.
    const std::size_t offset = lv.tag == Tag::Zero ? 0 : 1;
    const std::size_t half = (p.stream.size() - 1) / 2;
    for (std::size_t i = 0; i < half; ++i) {
      p.stream[i] = p.stream[1 + 2 * i + offset];
    }
    p.stream.resize(half);
    lv.tag = p.stream.front();
  }
}

namespace {

// The 2x2 setting equivalent to a final-level switch's head-tag decisions:
// an α broadcasts its side; otherwise a 0 routes to the upper output and a
// 1 to the lower, which is Parallel or Cross depending on the side it
// entered on. An idle switch reads as Parallel.
SwitchSetting final_level_setting(Tag up, Tag low) {
  if (up == Tag::Alpha) return SwitchSetting::UpperBcast;
  if (low == Tag::Alpha) return SwitchSetting::LowerBcast;
  if (!is_empty(up)) {
    return up == Tag::Zero ? SwitchSetting::Parallel : SwitchSetting::Cross;
  }
  if (!is_empty(low)) {
    return low == Tag::One ? SwitchSetting::Parallel : SwitchSetting::Cross;
  }
  return SwitchSetting::Parallel;
}

}  // namespace

void deliver_final_heads(std::span<const Tag> heads,
                         std::span<const std::size_t> sources,
                         std::vector<std::optional<std::size_t>>& delivered,
                         RoutingStats* stats, const ExplainSink* explain) {
  const std::size_t n = heads.size();
  BRSMN_EXPECTS(delivered.size() == n && sources.size() == n);
  if (explain != nullptr) {
    explain->record_input_tags(std::vector<Tag>(heads.begin(), heads.end()));
  }
  auto deliver = [&delivered](std::size_t out, std::size_t source) {
    BRSMN_ENSURES_MSG(!delivered[out].has_value(),
                      "two packets delivered to one output");
    delivered[out] = source;
  };
  for (std::size_t j = 0; 2 * j < n; ++j) {
    if (stats) ++stats->switch_traversals;
    if (explain != nullptr) {
      const SwitchSetting s =
          final_level_setting(heads[2 * j], heads[2 * j + 1]);
      explain->record_block(1, j, std::span<const SwitchSetting>(&s, 1),
                            RouteRule::FinalDelivery);
    }
    for (const std::size_t line : {2 * j, 2 * j + 1}) {
      const Tag t = heads[line];
      if (is_empty(t)) continue;
      switch (t) {
        case Tag::Zero: deliver(2 * j, sources[line]); break;
        case Tag::One: deliver(2 * j + 1, sources[line]); break;
        case Tag::Alpha:
          deliver(2 * j, sources[line]);
          deliver(2 * j + 1, sources[line]);
          if (stats) ++stats->broadcast_ops;
          break;
        default:
          BRSMN_ENSURES_MSG(false, "invalid final-level tag");
      }
    }
  }
  if (stats) stats->gate_delay += final_level_delay();
}

void deliver_final_level(const std::vector<LineValue>& lines,
                         std::vector<std::optional<std::size_t>>& delivered,
                         RoutingStats* stats, const ExplainSink* explain,
                         obs::FabricHeatmap* heatmap) {
  const std::size_t n = lines.size();
  if (heatmap != nullptr) heatmap->record_final_lines(lines);
  std::vector<Tag> heads(n);
  std::vector<std::size_t> sources(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const LineValue& lv = lines[i];
    heads[i] = lv.tag;
    if (lv.empty()) continue;
    BRSMN_ENSURES_MSG(lv.packet.has_value(),
                      "occupied line reached delivery without a packet");
    const Packet& p = *lv.packet;
    BRSMN_ENSURES_MSG(p.stream.size() == 1 && p.stream.front() == lv.tag,
                      "final level expects a single remaining tag");
    sources[i] = p.source;
  }
  deliver_final_heads(heads, sources, delivered, stats, explain);
}

Brsmn::Brsmn(std::size_t n) : n_(n), m_(log2_exact(n)) {
  BRSMN_EXPECTS(n >= 2);
  for (int k = 1; k <= m_ - 1; ++k) {
    const std::size_t bsn_size = n_ >> (k - 1);
    std::vector<Bsn> level;
    level.reserve(std::size_t{1} << (k - 1));
    for (std::size_t b = 0; b < (std::size_t{1} << (k - 1)); ++b) {
      level.emplace_back(bsn_size);
    }
    levels_.push_back(std::move(level));
  }
}

RouteResult Brsmn::route(const MulticastAssignment& assignment,
                         const RouteOptions& options) {
  BRSMN_EXPECTS(assignment.size() == n_);
  if (options.plan_cache != nullptr && !options.capture_levels) {
    return api::route_via_cache(*this, assignment, options);
  }
  if (options.engine == RouteEngine::Packed) {
    return packed_route(*this, assignment, options);
  }
  obs::RouteProbe probe = obs::RouteProbe::attach(
      options.metrics, options.metrics_prefix, options.tracer,
      options.profiler);
  obs::FabricHeatmap* heatmap = obs::kEnabled ? options.heatmap : nullptr;
  obs::PhaseScope total_scope(probe, obs::Phase::Total, "brsmn.route");

  RouteResult result;
  result.delivered.assign(n_, std::nullopt);
  if (options.explain) {
    result.explanation.emplace();
    result.explanation->n = n_;
  }

  const bool checking = options.self_check || options.faults != nullptr;
  if (options.faults != nullptr) {
    BRSMN_EXPECTS_MSG(options.faults->size() == n_,
                      "fault plan width must match the network");
  }
  const std::uint64_t route_ord =
      options.faults != nullptr ? options.faults->begin_route() : 0;
  if (options.fault_activity != nullptr) options.fault_activity->clear();

  try {
    std::uint64_t next_copy_id = 1;
    std::vector<LineValue> lines = initial_lines(assignment, next_copy_id);

    for (int k = 1; k <= m_ - 1; ++k) {
      if (options.capture_levels) result.level_inputs.push_back(lines);
      fault::apply_dead_lines(options.faults, route_ord, k,
                              fault::ImplKind::Unrolled, RouteEngine::Scalar,
                              lines, options.fault_activity);
      const std::size_t splits_before = result.stats.broadcast_ops;
      const std::size_t bsn_size = n_ >> (k - 1);
      char level_label[24];
      std::snprintf(level_label, sizeof level_label, "level.%d", k);
      obs::TraceSpan level_span(probe.tracer, level_label);
      PassExplanation* scatter_pass = nullptr;
      PassExplanation* quasi_pass = nullptr;
      if (options.explain) {
        auto& passes = result.explanation->passes;
        passes.push_back(
            make_pass(k, PassKind::Scatter, n_, log2_exact(bsn_size)));
        passes.push_back(
            make_pass(k, PassKind::Quasisort, n_, log2_exact(bsn_size)));
        scatter_pass = &passes[passes.size() - 2];
        quasi_pass = &passes.back();
      }
      fault::PassSeam seam;
      seam.injector = options.faults;
      seam.activity = options.fault_activity;
      seam.route = route_ord;
      seam.net_width = n_;
      seam.level = k;
      seam.impl = fault::ImplKind::Unrolled;
      seam.engine = RouteEngine::Scalar;
      auto& level = levels_[static_cast<std::size_t>(k - 1)];
      for (std::size_t b = 0; b < level.size(); ++b) {
        std::vector<LineValue> slice(
            std::make_move_iterator(lines.begin() +
                                    static_cast<std::ptrdiff_t>(b * bsn_size)),
            std::make_move_iterator(lines.begin() + static_cast<std::ptrdiff_t>(
                                                        (b + 1) * bsn_size)));
        const BsnExplain bsn_explain{{scatter_pass, b * bsn_size},
                                     {quasi_pass, b * bsn_size}};
        seam.line_base = b * bsn_size;
        const BsnHeat heat{heatmap, k, b * bsn_size};
        Bsn::Result r = level[b].route(
            std::move(slice), next_copy_id, &result.stats, &probe,
            options.explain ? &bsn_explain : nullptr,
            checking ? &seam : nullptr, heatmap != nullptr ? &heat : nullptr);
        std::move(r.outputs.begin(), r.outputs.end(),
                  lines.begin() + static_cast<std::ptrdiff_t>(b * bsn_size));
      }
      // All BSNs of one level route concurrently: charge the level's delay
      // once, not per block.
      result.stats.gate_delay += bsn_routing_delay(log2_exact(bsn_size));
      result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                            splits_before);
      if (checking) {
        fault::guard(true, n_, route_ord, k, std::nullopt, true, [&] {
          advance_streams(lines);
          fault::self_check_level(lines, k, route_ord);
        });
      } else {
        advance_streams(lines);
      }
    }

    if (options.capture_levels) result.level_inputs.push_back(lines);
    fault::apply_dead_lines(options.faults, route_ord, m_,
                            fault::ImplKind::Unrolled, RouteEngine::Scalar,
                            lines, options.fault_activity);
    const std::size_t splits_before_final = result.stats.broadcast_ops;
    {
      const obs::PhaseScope final_scope(probe, obs::Phase::Datapath,
                                        "level.final");
      ExplainSink final_sink;
      if (options.explain) {
        result.explanation->passes.push_back(
            make_pass(m_, PassKind::Final, n_, 1));
        final_sink.pass = &result.explanation->passes.back();
      }
      fault::guard(checking, n_, route_ord, m_, PassKind::Final, true, [&] {
        deliver_final_level(lines, result.delivered, &result.stats,
                            options.explain ? &final_sink : nullptr, heatmap);
      });
    }
    result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                          splits_before_final);

    if (checking) {
      fault::self_check_delivery(result.delivered, assignment.src_of(), m_,
                                 route_ord);
    }
    BRSMN_ENSURES_MSG(assignment.matches_delivery(result.delivered),
                      "BRSMN routed assignment incorrectly");
  } catch (const fault::FaultDetected& e) {
    if (options.explain && result.explanation.has_value()) {
      fault::rethrow_localized(*this, e, *result.explanation);
    }
    throw;
  }
  total_scope.end();
  if constexpr (obs::kEnabled) {
    if (probe.enabled()) probe.record_stats(result.stats);
  }
  return result;
}

std::size_t Brsmn::switch_count() const {
  // Levels 1..m-1: each level has n/2 * stages-of-its-BSNs switches; a
  // BSN(n') is two RBN(n') fabrics of (n'/2) log2(n') switches each.
  std::size_t count = 0;
  for (int k = 1; k <= m_ - 1; ++k) {
    const std::size_t bsn_size = n_ >> (k - 1);
    const std::size_t per_bsn =
        2 * (bsn_size / 2) * static_cast<std::size_t>(log2_exact(bsn_size));
    count += (std::size_t{1} << (k - 1)) * per_bsn;
  }
  count += n_ / 2;  // final 2x2-switch level
  return count;
}

std::size_t Brsmn::depth() const {
  std::size_t depth = 0;
  for (int k = 1; k <= m_ - 1; ++k) {
    depth += 2 * static_cast<std::size_t>(log2_exact(n_ >> (k - 1)));
  }
  return depth + 1;
}

const std::vector<Bsn>& Brsmn::level_bsns(int level) const {
  BRSMN_EXPECTS(level >= 1 && level <= m_ - 1);
  return levels_[static_cast<std::size_t>(level - 1)];
}

}  // namespace brsmn
