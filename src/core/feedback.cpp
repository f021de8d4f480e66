#include "core/feedback.hpp"

#include <cstdio>

#include "api/plan_cache.hpp"
#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "core/quasisort.hpp"
#include "core/scatter.hpp"
#include "fault/fault_injector.hpp"
#include "fault/locate.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/route_probe.hpp"

namespace brsmn {

FeedbackBrsmn::FeedbackBrsmn(std::size_t n) : fabric_(n) {}

std::size_t FeedbackBrsmn::passes_per_route() const {
  return 2 * (static_cast<std::size_t>(levels()) - 1) + 1;
}

RouteResult FeedbackBrsmn::route(const MulticastAssignment& assignment,
                                 const RouteOptions& options) {
  const std::size_t n = size();
  const int m = levels();
  BRSMN_EXPECTS(assignment.size() == n);
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
  obs::PhaseScope total_scope(probe, obs::Phase::Total, "feedback.route");

  RouteResult result;
  result.delivered.assign(n, std::nullopt);
  if (options.explain) {
    result.explanation.emplace();
    result.explanation->n = n;
  }

  const bool checking = options.self_check || options.faults != nullptr;
  if (options.faults != nullptr) {
    BRSMN_EXPECTS_MSG(options.faults->size() == n,
                      "fault plan width must match the network");
  }
  const std::uint64_t route_ord =
      options.faults != nullptr ? options.faults->begin_route() : 0;
  if (options.fault_activity != nullptr) options.fault_activity->clear();

  try {
    std::uint64_t next_copy_id = 1;
    std::vector<LineValue> lines = initial_lines(assignment, next_copy_id);

    for (int k = 1; k <= m - 1; ++k) {
      if (options.capture_levels) result.level_inputs.push_back(lines);
      fault::apply_dead_lines(options.faults, route_ord, k,
                              fault::ImplKind::Feedback, RouteEngine::Scalar,
                              lines, options.fault_activity);
      const std::size_t splits_before = result.stats.broadcast_ops;
      const int top_stage = m - k + 1;  // level-k BSN size is 2^top_stage
      const std::size_t bsn_size = std::size_t{1} << top_stage;
      const std::size_t blocks = n / bsn_size;
      char level_label[24];
      std::snprintf(level_label, sizeof level_label, "level.%d", k);
      obs::TraceSpan level_span(probe.tracer, level_label);
      // The feedback fabric's block indices are already full-width, so the
      // sinks use line_offset 0 and one pass collects all blocks of a level.
      ExplainSink scatter_sink;
      ExplainSink quasi_sink;
      if (options.explain) {
        auto& passes = result.explanation->passes;
        passes.push_back(make_pass(k, PassKind::Scatter, n, top_stage));
        passes.push_back(make_pass(k, PassKind::Quasisort, n, top_stage));
        scatter_sink.pass = &passes[passes.size() - 2];
        quasi_sink.pass = &passes.back();
      }
      fault::PassSeam seam;
      seam.injector = options.faults;
      seam.activity = options.fault_activity;
      seam.route = route_ord;
      seam.net_width = n;
      seam.level = k;
      seam.impl = fault::ImplKind::Feedback;
      seam.engine = RouteEngine::Scalar;

      // Pass 2k-1: the fabric acts as the level-k scatter networks. Stages
      // above top_stage stay parallel, i.e. identity feedback wiring.
      std::vector<Tag> tags(n);
      fault::guard(checking, n, route_ord, k, PassKind::Scatter, false, [&] {
        fabric_.reset();
        for (std::size_t i = 0; i < n; ++i) tags[i] = lines[i].tag;
        scatter_sink.record_input_tags(tags);
        const obs::PhaseScope scatter_scope(probe, obs::Phase::Scatter,
                                            "fb.scatter.config");
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::span<const Tag> slice(tags.data() + b * bsn_size,
                                           bsn_size);
          configure_scatter(fabric_, top_stage, b, slice, 0, &result.stats,
                            options.explain ? &scatter_sink : nullptr);
        }
      });
      seam.apply_local(fabric_, PassKind::Scatter);
      fault::guard(checking, n, route_ord, k, PassKind::Scatter, true, [&] {
        ScatterExec exec{next_copy_id, &result.stats};
        const obs::PhaseScope scatter_data_scope(probe, obs::Phase::Datapath,
                                                 "fb.scatter.datapath");
        lines = fabric_.propagate(
            std::move(lines),
            [&exec](const SwitchContext& ctx, SwitchSetting s, LineValue a,
                    LineValue b) {
              return apply_scatter_switch(ctx, s, std::move(a), std::move(b),
                                          exec);
            },
            // Stages above top_stage are identity feedback wiring, not part
            // of the level-k BSN — only the BSN's own stages are mapped.
            [&](int stage, const std::vector<LineValue>& ls) {
              if (heatmap != nullptr && stage <= top_stage) {
                heatmap->record_lines(k, PassKind::Scatter, stage, ls, 0);
              }
            });
        next_copy_id = exec.next_copy_id;
      });
      ++result.stats.fabric_passes;
      // One scatter configuration sweep (all blocks concurrent) plus a full
      // traversal of the m-stage fabric.
      result.stats.gate_delay +=
          config_sweep_delay(top_stage) + datapath_delay(m);

      // Pass 2k: the fabric acts as the level-k quasisorting networks.
      fault::guard(checking, n, route_ord, k, PassKind::Quasisort, false, [&] {
        fabric_.reset();
        for (std::size_t i = 0; i < n; ++i) tags[i] = lines[i].tag;
        quasi_sink.record_input_tags(tags);
        obs::TraceSpan quasi_config_span(probe.tracer, "fb.quasisort.config");
        for (std::size_t b = 0; b < blocks; ++b) {
          const std::span<const Tag> slice(tags.data() + b * bsn_size,
                                           bsn_size);
          obs::PhaseScope divide_scope(probe, obs::Phase::EpsDivide,
                                       "fb.eps_divide");
          const std::vector<Tag> divided = divide_eps(slice, &result.stats);
          divide_scope.end();
          quasi_sink.record_divided_tags(divided, b * bsn_size);
          for (std::size_t i = 0; i < bsn_size; ++i) {
            lines[b * bsn_size + i].tag = divided[i];
          }
          const obs::PhaseScope quasisort_scope(probe, obs::Phase::Quasisort);
          configure_quasisort(fabric_, top_stage, b, divided, &result.stats,
                              options.explain ? &quasi_sink : nullptr);
        }
      });
      seam.apply_local(fabric_, PassKind::Quasisort);
      fault::guard(checking, n, route_ord, k, PassKind::Quasisort, true, [&] {
        RoutingStats* stats = &result.stats;
        const obs::PhaseScope sort_data_scope(probe, obs::Phase::Datapath,
                                              "fb.quasisort.datapath");
        lines = fabric_.propagate(
            std::move(lines),
            [stats](const SwitchContext& ctx, SwitchSetting s, LineValue a,
                    LineValue b) {
              ++stats->switch_traversals;
              return unicast_switch(ctx, s, std::move(a), std::move(b));
            },
            [&](int stage, const std::vector<LineValue>& ls) {
              if (heatmap != nullptr && stage <= top_stage) {
                heatmap->record_lines(k, PassKind::Quasisort, stage, ls, 0);
              }
            });
      });
      ++result.stats.fabric_passes;
      // ε-divide sweep + quasisort sweep + full fabric traversal.
      result.stats.gate_delay +=
          2 * config_sweep_delay(top_stage) + datapath_delay(m);

      result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                            splits_before);
      if (checking) {
        fault::guard(true, n, route_ord, k, std::nullopt, true, [&] {
          advance_streams(lines);
          fault::self_check_level(lines, k, route_ord);
        });
      } else {
        advance_streams(lines);
      }
    }

    // Final pass: the 2x2-switch level, realized by stage 1 of the fabric.
    if (options.capture_levels) result.level_inputs.push_back(lines);
    fault::apply_dead_lines(options.faults, route_ord, m,
                            fault::ImplKind::Feedback, RouteEngine::Scalar,
                            lines, options.fault_activity);
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
        deliver_final_level(lines, result.delivered, &result.stats,
                            options.explain ? &final_sink : nullptr, heatmap);
      });
    }
    result.broadcasts_per_level.push_back(result.stats.broadcast_ops -
                                          splits_before_final);
    ++result.stats.fabric_passes;

    if (checking) {
      fault::self_check_delivery(result.delivered, assignment.src_of(), m,
                                 route_ord);
    }
    BRSMN_ENSURES_MSG(assignment.matches_delivery(result.delivered),
                      "feedback BRSMN routed assignment incorrectly");
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

}  // namespace brsmn
