// Pre-resolved metric handles for the routing engines, and the one scope
// object every engine phase opens.
//
// Brsmn / FeedbackBrsmn / Bsn time four phases per routed assignment —
// mirroring the gate-delay composition of core/stats.hpp:
//   <prefix>.phase.scatter_ns    scatter configuration sweeps (Theorem 2)
//   <prefix>.phase.eps_divide_ns ε-dividing sweeps (Table 6)
//   <prefix>.phase.quasisort_ns  quasisort configuration sweeps (Lemma 1)
//   <prefix>.phase.datapath_ns   fabric traversals + final 2x2 delivery
//   <prefix>.phase.total_ns      the whole route() call
// the compiled-plan drivers add
//   <prefix>.phase.replay_ns     one plan replay (route_replay_into)
//   <prefix>.phase.patch_ns      one incremental patch (planner::patch_route)
// and mirror RoutingStats into counters (<prefix>.switch_traversals, ...)
// so concurrent workers aggregate into one registry.
//
// The probe is resolved once per route() and then passed through the
// level/BSN machinery; each phase opens one PhaseScope, which records the
// phase histogram, the perf-counter phase and the trace span together.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "core/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/phase_timer.hpp"
#include "obs/tracer.hpp"

namespace brsmn::obs {

/// The engine phases a RouteProbe times.
enum class Phase : std::uint8_t {
  Scatter,
  EpsDivide,
  Quasisort,
  Datapath,
  Total,
  Replay,
  Patch,
};
inline constexpr std::size_t kPhaseCount = 7;

constexpr std::size_t phase_index(Phase phase) {
  return static_cast<std::size_t>(phase);
}

/// The phase's name: its histogram is <prefix>.phase.<name>_ns and its
/// perf-counter phase is <name> (Patch has no perf-counter phase).
std::string_view phase_name(Phase phase);

/// RouteProbe::perf entry of a phase the profiler does not count.
inline constexpr std::size_t kNoPerfPhase =
    std::numeric_limits<std::size_t>::max();

struct RouteProbe {
  MetricRegistry* registry = nullptr;
  std::string prefix;
  /// Phase histograms. attach() resolves Scatter..Total, which every
  /// route records; the plan drivers resolve Replay and Patch.
  std::array<Histogram*, kPhaseCount> hist{};
  /// Event tracer for per-phase spans (RouteOptions::tracer).
  Tracer* tracer = nullptr;
  /// Hardware perf-counter profiler (obs/perf_counters.hpp,
  /// RouteOptions::profiler); perf[] holds its phase ids, resolved once
  /// per route under the names the phase histograms use.
  PhaseProfiler* profiler = nullptr;
  std::array<std::size_t, kPhaseCount> perf{};

  bool enabled() const noexcept { return registry != nullptr; }

  /// The probe of one route. Each sink is optional and independent of
  /// the others: a null `registry` resolves no histogram, and a null or
  /// unavailable `profiler` is dropped. Under BRSMN_OBS_DISABLED the
  /// probe attaches nothing.
  static RouteProbe attach(MetricRegistry* registry, std::string_view prefix,
                           Tracer* tracer, PhaseProfiler* profiler);

  /// Resolve `phase`'s histogram (no-op without a registry).
  void resolve(Phase phase);

  /// Mirror one route's RoutingStats into <prefix>.* counters and bump
  /// <prefix>.routes.
  void record_stats(const RoutingStats& stats) const;
};

/// One engine phase: starts the phase histogram's timer, the
/// perf-counter phase and — when `span` is non-empty — a trace span of
/// that name, and closes all three with one end() (or the destructor).
/// Each part the probe does not attach costs one branch; with
/// BRSMN_OBS_DISABLED the scope compiles to nothing. `span` must outlive
/// the scope (the engines pass string literals).
class PhaseScope {
 public:
  PhaseScope(const RouteProbe& probe, Phase phase,
             std::string_view span = {})
#if !defined(BRSMN_OBS_DISABLED)
      : timer_(probe.hist[phase_index(phase)]) {
    const std::size_t id = probe.perf[phase_index(phase)];
    if (probe.profiler != nullptr && id != kNoPerfPhase) {
      profiler_ = probe.profiler;
      perf_id_ = id;
      start_ = profiler_->group().read();
    }
    if (probe.tracer != nullptr && !span.empty()) {
      tracer_ = probe.tracer;
      span_ = span;
      tracer_->begin(span_);
    }
  }
#else
  {
    (void)probe;
    (void)phase;
    (void)span;
  }
#endif

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() { end(); }

  /// Closes the span, the perf phase and the timer once; later calls
  /// (and the destructor) are no-ops.
  void end() {
#if !defined(BRSMN_OBS_DISABLED)
    if (tracer_ != nullptr) {
      tracer_->end(span_);
      tracer_ = nullptr;
    }
    if (profiler_ != nullptr) {
      profiler_->accumulate(perf_id_, start_, profiler_->group().read());
      profiler_ = nullptr;
    }
    timer_.stop();
#endif
  }

 private:
#if !defined(BRSMN_OBS_DISABLED)
  PhaseTimer timer_;
  PhaseProfiler* profiler_ = nullptr;
  std::size_t perf_id_ = 0;
  PerfCounterGroup::Reading start_{};
  Tracer* tracer_ = nullptr;
  std::string_view span_;
#endif
};

}  // namespace brsmn::obs
