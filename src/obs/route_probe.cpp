#include "obs/route_probe.hpp"

namespace brsmn::obs {

std::string_view phase_name(Phase phase) {
  switch (phase) {
    case Phase::Scatter: return "scatter";
    case Phase::EpsDivide: return "eps_divide";
    case Phase::Quasisort: return "quasisort";
    case Phase::Datapath: return "datapath";
    case Phase::Total: return "total";
    case Phase::Replay: return "replay";
    case Phase::Patch: return "patch";
  }
  return "?";
}

RouteProbe RouteProbe::attach(MetricRegistry* registry,
                              std::string_view prefix, Tracer* tracer,
                              PhaseProfiler* profiler) {
  RouteProbe probe;
  if constexpr (kEnabled) {
    if (registry != nullptr) {
      probe.registry = registry;
      probe.prefix = std::string(prefix);
      for (const Phase phase : {Phase::Scatter, Phase::EpsDivide,
                                Phase::Quasisort, Phase::Datapath,
                                Phase::Total}) {
        probe.resolve(phase);
      }
    }
    probe.tracer = tracer;
    if (profiler != nullptr && profiler->available()) {
      probe.profiler = profiler;
      for (std::size_t i = 0; i < kPhaseCount; ++i) {
        const Phase phase = static_cast<Phase>(i);
        probe.perf[i] = phase == Phase::Patch
                            ? kNoPerfPhase
                            : profiler->phase_id(phase_name(phase));
      }
    }
  }
  return probe;
}

void RouteProbe::resolve(Phase phase) {
  if (registry == nullptr) return;
  hist[phase_index(phase)] = &registry->histogram(
      prefix + ".phase." + std::string(phase_name(phase)) + "_ns");
}

void RouteProbe::record_stats(const RoutingStats& stats) const {
  if (registry == nullptr) return;
  registry->counter(prefix + ".routes").add(1);
  registry->counter(prefix + ".switch_traversals")
      .add(stats.switch_traversals);
  registry->counter(prefix + ".broadcast_ops").add(stats.broadcast_ops);
  registry->counter(prefix + ".tree_fwd_ops").add(stats.tree_fwd_ops);
  registry->counter(prefix + ".tree_bwd_ops").add(stats.tree_bwd_ops);
  registry->counter(prefix + ".fabric_passes").add(stats.fabric_passes);
  registry->counter(prefix + ".gate_delay").add(stats.gate_delay);
}

}  // namespace brsmn::obs
