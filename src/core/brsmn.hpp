// The binary radix sorting multicast network (paper Section 2, Figs. 1/2).
//
// BRSMN(n) = BSN(n) [level 1] -> 2 x BSN(n/2) [level 2] -> ... ->
// n/2 2x2 switches [level log n]. Level k splits every connection on its
// k-th most significant destination bit; after level k each packet copy
// sits in the size-(n/2^k) block that owns its remaining destinations.
//
// Routing is fully self-routing: switch settings derive only from the
// routing-tag sequences carried by the packets (Section 7.1), via the
// distributed forward/backward algorithms of Section 6.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/bsn.hpp"
#include "core/explain.hpp"
#include "core/line_value.hpp"
#include "core/multicast_assignment.hpp"
#include "core/simd_backend.hpp"
#include "core/stats.hpp"

namespace brsmn::obs {
class MetricRegistry;
class Tracer;
class FabricHeatmap;
class PhaseProfiler;
}  // namespace brsmn::obs

namespace brsmn::fault {
class FaultInjector;
struct FaultActivity;
}  // namespace brsmn::fault

namespace brsmn::api {
class PlanCache;
}  // namespace brsmn::api

namespace brsmn::pkern {
struct ReplayWorkspace;
struct CompileWorkspace;
struct UnrolledFabric;
struct FeedbackFabric;
}  // namespace brsmn::pkern

namespace brsmn {

struct RoutePlan;
class MulticastAssignment;

/// Which datapath implementation executes the route. Both produce
/// bit-identical results (outputs, fabric settings grids, explanations,
/// stats) — verified by tests/test_packed_differential.cpp.
enum class RouteEngine {
  /// The per-line reference implementation: one LineValue per line, one
  /// switch at a time. The executable specification of the paper.
  Scalar,
  /// The word-parallel kernel (core/packed_kernel.hpp): all n lines of a
  /// stage evaluated at once on uint64_t bit-planes.
  Packed,
};

struct RouteOptions {
  /// Capture the line state entering every level (for rendering/tests).
  bool capture_levels = false;
  /// Record routing provenance: per (level, stage, switch) the chosen
  /// SwitchSetting and the rule that fired, returned as
  /// RouteResult::explanation. Independent of the obs kill switch (the
  /// grid is deterministic routing state, not wall-clock measurement).
  bool explain = false;
  /// When set, the engine records per-phase wall-clock histograms
  /// (route.phase.*_ns) and mirrors RoutingStats into route.* counters.
  /// Null (the default) keeps the hot path uninstrumented; builds with
  /// BRSMN_OBS_DISABLED ignore it entirely.
  obs::MetricRegistry* metrics = nullptr;
  /// When set, the engine emits trace spans per level and per phase into
  /// the tracer's flight-recorder rings (see obs/tracer.hpp). Null keeps
  /// the hot path span-free; BRSMN_OBS_DISABLED builds ignore it.
  obs::Tracer* tracer = nullptr;
  /// Datapath implementation; Scalar is the reference engine. The
  /// service layer (api/, traffic/) always routes Packed.
  RouteEngine engine = RouteEngine::Scalar;
  /// SIMD backend for the packed engine's word loops (cold routes,
  /// replays, and patches alike). Auto resolves BRSMN_FORCE_BACKEND, then
  /// the widest instruction set the CPU supports, falling back to the
  /// always-compiled portable SWAR backend. Every backend produces
  /// bit-identical results and plan checkpoints — a plan compiled under
  /// one backend replays under any other (tests/test_simd_differential) —
  /// so this knob affects throughput only. Ignored by the scalar engine.
  simd::Backend simd_backend = simd::Backend::Auto;
  /// Online self-check (default on): contract violations surface as
  /// typed fault::FaultDetected reports naming the earliest inconsistent
  /// (level, pass) region, and each level's line state plus the final
  /// delivery are validated against fault/self_check.hpp predicates.
  /// Off: the engines raise bare ContractViolation as before.
  bool self_check = true;
  /// Fault-injection seam (fault/fault_injector.hpp). When set, the
  /// injector's armed faults are installed into the fabric after each
  /// configuration pass and dead lines are cleared at level entry;
  /// implies the self-check wrapping above. Null: no injection.
  fault::FaultInjector* faults = nullptr;
  /// When set alongside `faults`: receives the audit trail of fault
  /// applications for this route (cleared first).
  fault::FaultActivity* fault_activity = nullptr;
  /// Metric-name prefix for the phase histograms and stats counters
  /// ("<prefix>.phase.total_ns", "<prefix>.routes", ...). The default
  /// keeps the established route.* names; benches comparing engines
  /// side-by-side record them under distinct prefixes instead.
  std::string_view metrics_prefix = "route";
  /// Compiled-plan cache (api/plan_cache.hpp). When set (and
  /// capture_levels is off), route() consults the cache: a hit replays
  /// the compiled plan via route_replay, a clean miss compiles and
  /// inserts one. Plans are never inserted while `faults` is armed, and a
  /// replay that raises FaultDetected evicts its entry first. Null (the
  /// default): every route is cold.
  api::PlanCache* plan_cache = nullptr;
  /// Fabric utilization heatmap (obs/fabric_heatmap.hpp). When set, every
  /// stage entry of every pass accumulates per-switch activity/occupancy
  /// counts into the map — bit-identical across all four drivers and for
  /// plan replays of the same assignments. The map is single-owner (one
  /// routing thread); concurrent routers give each worker its own map and
  /// merge(). On an incremental patch only the recompiled levels route,
  /// so only they accumulate. Null (the default) keeps the datapaths
  /// unobserved; BRSMN_OBS_DISABLED builds ignore it entirely.
  obs::FabricHeatmap* heatmap = nullptr;
  /// Hardware perf-counter phase profiler (obs/perf_counters.hpp): when
  /// set (and available), the engines accumulate cycles / instructions /
  /// cache-miss / branch-miss deltas per routing phase alongside the
  /// phase histograms. Single-owner like the heatmap; ignored under
  /// BRSMN_OBS_DISABLED.
  obs::PhaseProfiler* profiler = nullptr;
};

struct RouteResult {
  /// For each network output, the source input delivered there (nullopt
  /// when the output receives no message).
  std::vector<std::optional<std::size_t>> delivered;
  RoutingStats stats;
  /// Packet splits performed at each level (k = 1 .. log n): where in the
  /// radix the multicast trees branch. Always filled.
  std::vector<std::size_t> broadcasts_per_level;
  /// When capture_levels: level_inputs[k-1] is the line state entering
  /// level k (k = 1 .. log n), and final_lines the state after delivery.
  std::vector<std::vector<LineValue>> level_inputs;
  /// When RouteOptions::explain: the full per-switch provenance grid.
  std::optional<RouteExplanation> explanation;
};

/// The expected delivery vector of an assignment, for verification.
std::vector<std::optional<std::size_t>> expected_delivery(
    const MulticastAssignment& a);

/// Build the initial line state of a routing pass: input i carries a
/// packet with the routing-tag sequence of its destination set.
/// `next_copy_id` is advanced past the ids handed out.
std::vector<LineValue> initial_lines(const MulticastAssignment& a,
                                     std::uint64_t& next_copy_id);

/// Consume each occupied line's head tag and split its remaining stream
/// for the branch indicated by the line's exit tag (which must be Zero or
/// One); the new head tag becomes the line tag. Dummy ε0/ε1 tags revert
/// to plain ε. Applied between BRSMN levels.
void advance_streams(std::vector<LineValue>& lines);

/// Apply the final level of 2x2 switches: lines (2j, 2j+1) deliver their
/// packets to outputs 2j / 2j+1 / both, per the head tag (`heads`, the ε
/// family on an empty line; `sources[i]` is line i's originating input).
/// Fills `delivered` and asserts no output conflict. `explain` (optional)
/// records the equivalent 2x2 setting of each switch under
/// RouteRule::FinalDelivery. The packed drivers call this with the head
/// tags they derive from their line records.
void deliver_final_heads(std::span<const Tag> heads,
                         std::span<const std::size_t> sources,
                         std::vector<std::optional<std::size_t>>& delivered,
                         RoutingStats* stats,
                         const ExplainSink* explain = nullptr);

/// deliver_final_heads over the scalar engine's line state, each packet's
/// stream down to its last tag. `heatmap` (optional) accumulates the
/// final level's switch activity from the entering line state.
void deliver_final_level(const std::vector<LineValue>& lines,
                         std::vector<std::optional<std::size_t>>& delivered,
                         RoutingStats* stats,
                         const ExplainSink* explain = nullptr,
                         obs::FabricHeatmap* heatmap = nullptr);

class Brsmn {
 public:
  /// An n x n BRSMN, n a power of two >= 2.
  explicit Brsmn(std::size_t n);

  // Out-of-line where pkern::ReplayWorkspace is complete
  // (core/route_plan.cpp). Move-only: the replay workspace is per-object
  // scratch, not shareable state.
  ~Brsmn();
  Brsmn(Brsmn&&) noexcept;
  Brsmn& operator=(Brsmn&&) noexcept;

  std::size_t size() const noexcept { return n_; }

  /// log2(n) levels, the last being the 2x2-switch level.
  int levels() const noexcept { return m_; }

  /// Route a multicast assignment. Postcondition (verified): every output
  /// in I_i receives input i's message and no other output receives
  /// anything.
  RouteResult route(const MulticastAssignment& assignment,
                    const RouteOptions& options = {});

  /// Replay a compiled plan (core/route_plan.hpp) on this network: the
  /// configuration phases (quasisort, tag trees, eps-division, scatter)
  /// are skipped and the stored masks drive the fabric directly. The
  /// online self-check compares the datapath state against the plan's
  /// checkpoints, and the fault seam still applies, so a replay under an
  /// active fault raises fault::FaultDetected exactly like a cold route.
  /// Requires plan.impl == Unrolled, plan.n == size(), and
  /// !options.capture_levels; options.explain requires a plan compiled
  /// with explain.
  RouteResult route_replay(const RoutePlan& plan,
                           const RouteOptions& options = {});

  /// route_replay writing into a caller-owned result: with `out` reused
  /// across calls (and metrics/tracer/explain off), the steady-state
  /// replay performs zero heap allocations.
  void route_replay_into(const RoutePlan& plan, const RouteOptions& options,
                         RouteResult& out);

  /// Total number of 2x2 switches in the unrolled network.
  std::size_t switch_count() const;

  /// Network depth in switch stages (Section 7.4: D(n) = O(log^2 n)).
  std::size_t depth() const;

  /// The BSNs of one level (1-based, level < levels()), exposed for
  /// inspection after route().
  const std::vector<Bsn>& level_bsns(int level) const;

 private:
  /// The packed engines' binding (core/fabric_binding.hpp): the packed
  /// compile, patch and replay install their settings into levels_
  /// through it, so level_bsns() inspection sees the same grids the
  /// scalar engine would have produced.
  friend struct pkern::UnrolledFabric;

  std::size_t n_;
  int m_;
  std::vector<std::vector<Bsn>> levels_;  // levels_[k-1], k = 1..m-1
  /// Lazily created by route_replay; owning it here keeps steady-state
  /// replay allocation-free.
  std::unique_ptr<pkern::ReplayWorkspace> replay_ws_;
  /// Lazily created by the packed compile and patch: the compile hot
  /// path's reusable kernel + census scratch, so warm compiles allocate
  /// nothing in the per-level loops.
  std::unique_ptr<pkern::CompileWorkspace> compile_ws_;
};

RouteResult packed_route(Brsmn& net, const MulticastAssignment& assignment,
                         const RouteOptions& options, RoutePlan* plan = nullptr);

}  // namespace brsmn
