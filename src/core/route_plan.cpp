// Replay of compiled route plans (see route_plan.hpp).
//
// A replay re-runs only the datapath: per level it reloads the identity
// codes, restores the entry tag planes, installs the stored masks into
// the kernel and the fabric, and propagates. The plan's post-pass
// checkpoints stand in for the configuration-phase contracts: under the
// self-check, any divergence of the replayed state from the stored state
// — which is exactly what an injected fault produces — raises
// fault::FaultDetected at the (level, pass) that diverged, mirroring a
// cold route's detection points.
#include "core/route_plan.hpp"

#include <algorithm>
#include <span>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "core/fabric_binding.hpp"
#include "core/level_kernel.hpp"
#include "fault/fault_injector.hpp"
#include "fault/self_check.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/route_probe.hpp"

namespace brsmn {

namespace {

namespace pk = packed;

void copy_span(std::span<std::uint64_t> dst, const pk::Words& src) {
  BRSMN_EXPECTS(dst.size() == src.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

/// Copy the first src.size() stage masks into dst, reusing dst's word
/// storage (dst is the workspace's m-stage mask array; src has the
/// level's S <= m stages).
void copy_masks(std::vector<pk::StageMasks>& dst,
                const std::vector<pk::StageMasks>& src) {
  BRSMN_EXPECTS(src.size() <= dst.size());
  for (std::size_t j = 0; j < src.size(); ++j) {
    dst[j].su = src[j].su;
    dst[j].sl = src[j].sl;
  }
}

/// Whole-state comparison against a stored checkpoint. Valid because
/// plane bits at positions >= n are zero in both the cold route and the
/// replay (loads clear them; the stage masks carry no bits past n).
bool state_equals(const pkern::LevelKernel& kx, const pk::Words& snap) {
  const auto words = kx.state.words();
  return words.size() == snap.size() &&
         std::equal(words.begin(), words.end(), snap.begin());
}

/// The packed analogue of fault::apply_dead_lines: clear each armed dead
/// line to the empty pattern (ε, tag 110) directly in the tag planes,
/// recording the same FaultActivity entries as the scalar seam. Returns
/// whether any cleared line was occupied.
bool apply_dead_lines_packed(const fault::FaultInjector* injector,
                             std::uint64_t route, int level,
                             fault::ImplKind impl, RouteEngine engine,
                             std::span<std::uint64_t> t0,
                             std::span<std::uint64_t> t1,
                             std::span<std::uint64_t> t2,
                             fault::FaultActivity* activity) {
  if (injector == nullptr) return false;
  bool any_killed = false;
  for (const auto& dead : injector->dead_lines(route, level, impl, engine)) {
    const bool was_occupied =
        !(pk::plane_get(t0, dead.line) && pk::plane_get(t1, dead.line));
    pk::plane_set(t0, dead.line, true);
    pk::plane_set(t1, dead.line, true);
    pk::plane_set(t2, dead.line, false);
    any_killed = any_killed || was_occupied;
    if (activity != nullptr) {
      fault::AppliedFault a;
      a.spec_index = dead.spec_index;
      a.kind = fault::FaultKind::DeadLink;
      a.level = level;
      a.index = dead.line;
      a.changed = was_occupied;
      activity->applied.push_back(a);
    }
  }
  return any_killed;
}

/// The replay loop, written once over the fabric binding
/// (core/fabric_binding.hpp) that installs each pass's masks. The replay
/// always drives the packed datapath, so the seam sees RouteEngine::Packed
/// regardless of options.engine (the engines are bit-identical, and so
/// are their replays).
template <typename Fabric>
void replay_core(Fabric fabric, const RoutePlan& plan,
                 const RouteOptions& options, RouteResult& out) {
  const std::size_t n = fabric.n();
  const int m = fabric.m();
  const fault::ImplKind impl = Fabric::kImpl;
  BRSMN_EXPECTS_MSG(plan.n == n && plan.m == m,
                    "route plan was compiled for a different network size");
  BRSMN_EXPECTS_MSG(plan.impl == impl,
                    "route plan was compiled for the other implementation");
  BRSMN_EXPECTS_MSG(!options.capture_levels,
                    "route_replay cannot capture level inputs");
  BRSMN_EXPECTS_MSG(!options.explain || plan.explanation.has_value(),
                    "explain replay requires a plan compiled with explain");

  obs::RouteProbe probe = obs::RouteProbe::attach(
      options.metrics, options.metrics_prefix, options.tracer,
      options.profiler);
  probe.resolve(obs::Phase::Replay);
  obs::FabricHeatmap* heatmap = obs::kEnabled ? options.heatmap : nullptr;
  obs::PhaseScope total_scope(probe, obs::Phase::Total);
  obs::PhaseScope replay_scope(probe, obs::Phase::Replay, "plan.replay");

  const bool checking = options.self_check || options.faults != nullptr;
  if (options.faults != nullptr) {
    BRSMN_EXPECTS_MSG(options.faults->size() == n,
                      "fault plan width must match the network");
  }
  const std::uint64_t route_ord =
      options.faults != nullptr ? options.faults->begin_route() : 0;
  if (options.fault_activity != nullptr) options.fault_activity->clear();

  pkern::ReplayWorkspace& ws = fabric.replay_ws();
  pkern::LevelKernel& kx = ws.kx;
  // Replay is backend-agnostic: the stored masks, events and checkpoints
  // are plain words, so any backend — not necessarily the one that
  // compiled the plan — replays them bit-identically.
  kx.ops = &simd::ops(options.simd_backend);

  for (int k = 1; k <= m - 1; ++k) {
    const PlanLevel& pl = *plan.levels[static_cast<std::size_t>(k - 1)];
    const int S = pl.stages;
    kx.stages = S;
    // The workspace kernel persists across replays; (re)binding the
    // heatmap each route keeps unobserved replays observation-free.
    kx.heat = heatmap;
    kx.heat_level = k;
    pkern::load_identity_codes(kx);
    copy_span(kx.tag_plane(0), pl.entry_t0);
    copy_span(kx.tag_plane(1), pl.entry_t1);
    copy_span(kx.tag_plane(2), pl.entry_t2);
    if (options.faults != nullptr) {
      apply_dead_lines_packed(options.faults, route_ord, k, impl,
                              RouteEngine::Packed, kx.tag_plane(0),
                              kx.tag_plane(1), kx.tag_plane(2),
                              options.fault_activity);
    }

    const fault::PassSeam seam =
        pkern::packed_seam(options, route_ord, n, k, impl);

    // Scatter pass: stored masks in, datapath through, checkpoint out.
    copy_masks(kx.masks, pl.scatter_masks);
    seam.apply_packed(PassKind::Scatter, kx.masks);
    fabric.install(PassKind::Scatter, k, kx.stage_masks());
    for (std::size_t j = 0; j < static_cast<std::size_t>(S); ++j) {
      kx.events[j] = pl.events[j];
    }
    kx.num_events = pl.num_events;
    kx.parent_code.assign(pl.num_events, 0);
    fault::guard(checking, n, route_ord, k, PassKind::Scatter, true, [&] {
      obs::PhaseScope scatter_data_scope(probe, obs::Phase::Datapath);
      pkern::run_scatter_datapath(kx);
      scatter_data_scope.end();
      if (checking) {
        BRSMN_ENSURES_MSG(
            state_equals(kx, pl.post_scatter),
            "replay diverged from the plan after the scatter pass");
      }
    });

    // Quasisort pass: the ε-division is part of the plan — restore its
    // t2 plane rather than re-deriving it.
    copy_span(kx.tag_plane(2), pl.divided_t2);
    copy_masks(kx.masks, pl.quasisort_masks);
    seam.apply_packed(PassKind::Quasisort, kx.masks);
    fabric.install(PassKind::Quasisort, k, kx.stage_masks());
    fault::guard(checking, n, route_ord, k, PassKind::Quasisort, true, [&] {
      obs::PhaseScope sort_data_scope(probe, obs::Phase::Datapath);
      pkern::run_unicast_datapath(kx);
      sort_data_scope.end();
      if (checking) {
        BRSMN_ENSURES_MSG(
            state_equals(kx, pl.post_quasisort),
            "replay diverged from the plan after the quasisort pass");
      }
    });
  }

  // Final 2x2-switch level: the plan's delivery is correct unless a dead
  // line kills a live packet at the delivery level — screen for exactly
  // that with the stored entry planes.
  if (options.faults != nullptr) {
    ws.final_t0 = plan.final_t0;
    ws.final_t1 = plan.final_t1;
    ws.final_t2 = plan.final_t2;
    fault::guard(true, n, route_ord, m, PassKind::Final, true, [&] {
      const bool killed = apply_dead_lines_packed(
          options.faults, route_ord, m, impl, RouteEngine::Packed,
          ws.final_t0, ws.final_t1, ws.final_t2, options.fault_activity);
      BRSMN_ENSURES_MSG(
          !killed,
          "replay: a dead line at the delivery level killed a live packet");
    });
  }

  // The final 2x2 level has no replayed datapath — record its entry
  // occupancy from the stored planes (screened for dead lines when
  // faults are armed), matching a cold route's final-level record.
  if (heatmap != nullptr) {
    if (options.faults != nullptr) {
      heatmap->record_final_tags(ws.final_t0, ws.final_t1);
    } else {
      heatmap->record_final_tags(plan.final_t0, plan.final_t1);
    }
  }

  out.delivered = plan.delivered;
  out.stats = plan.stats;
  out.broadcasts_per_level = plan.broadcasts_per_level;
  out.level_inputs.clear();
  if (options.explain) {
    out.explanation = plan.explanation;
  } else {
    out.explanation.reset();
  }

  replay_scope.end();
  total_scope.end();
  if constexpr (obs::kEnabled) {
    if (probe.enabled()) probe.record_stats(out.stats);
  }
}

/// route_replay over either binding: a replay into a fresh result.
template <typename Fabric>
RouteResult replay_fresh(Fabric fabric, const RoutePlan& plan,
                         const RouteOptions& options) {
  RouteResult out;
  replay_core(fabric, plan, options, out);
  return out;
}

/// compile_route over either network: a cold packed route that captures
/// its plan.
template <typename Net>
RouteResult compile_packed(Net& net, const MulticastAssignment& assignment,
                           const RouteOptions& options, RoutePlan& plan) {
  BRSMN_EXPECTS_MSG(options.faults == nullptr,
                    "cannot compile a route plan under fault injection");
  RouteOptions co = options;
  co.plan_cache = nullptr;
  co.capture_levels = false;
  return packed_route(net, assignment, co, &plan);
}

}  // namespace

// Out-of-line where pkern::ReplayWorkspace is complete.
Brsmn::~Brsmn() = default;
Brsmn::Brsmn(Brsmn&&) noexcept = default;
Brsmn& Brsmn::operator=(Brsmn&&) noexcept = default;
FeedbackBrsmn::~FeedbackBrsmn() = default;
FeedbackBrsmn::FeedbackBrsmn(FeedbackBrsmn&&) noexcept = default;
FeedbackBrsmn& FeedbackBrsmn::operator=(FeedbackBrsmn&&) noexcept = default;

RouteResult Brsmn::route_replay(const RoutePlan& plan,
                                const RouteOptions& options) {
  return replay_fresh(pkern::UnrolledFabric{*this}, plan, options);
}

void Brsmn::route_replay_into(const RoutePlan& plan,
                              const RouteOptions& options, RouteResult& out) {
  replay_core(pkern::UnrolledFabric{*this}, plan, options, out);
}

RouteResult FeedbackBrsmn::route_replay(const RoutePlan& plan,
                                        const RouteOptions& options) {
  return replay_fresh(pkern::FeedbackFabric{*this}, plan, options);
}

void FeedbackBrsmn::route_replay_into(const RoutePlan& plan,
                                      const RouteOptions& options,
                                      RouteResult& out) {
  replay_core(pkern::FeedbackFabric{*this}, plan, options, out);
}

std::uint64_t assignment_fingerprint(const MulticastAssignment& a) {
  return a.fingerprint();
}

namespace planner {

RouteResult compile_route(Brsmn& net, const MulticastAssignment& assignment,
                          const RouteOptions& options, RoutePlan& plan) {
  return compile_packed(net, assignment, options, plan);
}

RouteResult compile_route(FeedbackBrsmn& net,
                          const MulticastAssignment& assignment,
                          const RouteOptions& options, RoutePlan& plan) {
  return compile_packed(net, assignment, options, plan);
}

}  // namespace planner

}  // namespace brsmn
