// Hardware performance-counter phase profiling via perf_event_open.
//
// PhaseTimer (obs/phase_timer.hpp) answers "how long did each routing
// phase take"; the SIMD-kernel direction on the ROADMAP needs "where do
// the cycles go" — IPC and cache/branch miss rates per phase, so a wider
// datapath can be judged against the actual bottleneck. PerfCounterGroup
// opens one grouped perf event set (cycles leader + instructions,
// cache-misses, branch-misses, read atomically in a single syscall with
// TOTAL_TIME_ENABLED/RUNNING scaling for multiplexed counters), and
// PhaseProfiler accumulates per-phase deltas. The engines feed it through
// obs::PhaseScope (obs/route_probe.hpp), the same scope that times the
// phase histogram and opens the phase's trace span.
//
// Graceful fallback: perf_event_open is frequently unavailable
// (kernel.perf_event_paranoid, seccomp in CI containers, non-Linux
// hosts). Every failure path degrades to available() == false and every
// operation to a cheap no-op — binaries report "perf counters
// unavailable" instead of failing, which the CI fallback job asserts.
// Setting BRSMN_PERF_DISABLE=1 in the environment forces the fallback,
// so the no-op path is testable on perf-capable hosts too.
//
// Concurrency: counters are per-thread (the syscall is bound to the
// calling thread); a PhaseProfiler is single-owner like FabricHeatmap.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace brsmn::obs {

/// One grouped perf event set bound to the calling thread.
class PerfCounterGroup {
 public:
  struct Reading {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t branch_misses = 0;
    bool valid = false;
  };

  /// Open the group; on any failure (syscall denied or missing, forced
  /// disable) the group is created unavailable.
  PerfCounterGroup();
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  /// False: every other member is a no-op and read() returns !valid.
  bool available() const noexcept { return leader_fd_ >= 0; }

  /// Current counts, scaled by time_enabled/time_running when the kernel
  /// multiplexed the group. Phase deltas subtract two read() calls.
  Reading read() const;

  /// True when the environment (BRSMN_PERF_DISABLE=1) forces fallback.
  static bool force_disabled();

 private:
  int leader_fd_ = -1;
  std::array<int, 4> fds_{{-1, -1, -1, -1}};   ///< cycles, instr, cache, branch
  std::array<int, 4> slots_{{-1, -1, -1, -1}};  ///< group read index per event
};

/// Per-phase accumulated counter deltas plus derived rates.
struct PerfPhaseStats {
  std::string phase;
  std::uint64_t calls = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
  /// Misses per thousand instructions.
  double cache_mpki() const {
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(cache_misses) /
                                   static_cast<double>(instructions);
  }
  double branch_mpki() const {
    return instructions == 0 ? 0.0
                             : 1000.0 * static_cast<double>(branch_misses) /
                                   static_cast<double>(instructions);
  }
};

class MetricRegistry;

/// Accumulates PerfCounterGroup deltas per named phase. Scopes may nest
/// (an enclosing "total" scope includes its sub-phases, exactly like the
/// PhaseTimer histograms it sits beside).
class PhaseProfiler {
 public:
  PhaseProfiler();

  bool available() const noexcept { return group_.available(); }

  /// Stable id for a phase name (registered on first use — resolve once
  /// per route like RouteProbe::attach, not per scope).
  std::size_t phase_id(std::string_view phase);

  void accumulate(std::size_t id, const PerfCounterGroup::Reading& start,
                  const PerfCounterGroup::Reading& end);

  const PerfCounterGroup& group() const noexcept { return group_; }
  PerfCounterGroup& group() noexcept { return group_; }

  /// Per-phase stats in registration order.
  const std::vector<PerfPhaseStats>& phases() const noexcept {
    return phases_;
  }

  /// Human-readable per-phase table (cycles/call, IPC, MPKI columns);
  /// a single fallback line when unavailable.
  std::string to_table() const;

  /// Mirror derived rates into `<prefix>.<phase>.{cycles_per_call,ipc,
  /// cache_mpki,branch_mpki}` gauges so --metrics-out dumps carry them.
  void export_gauges(MetricRegistry& registry, std::string_view prefix) const;

 private:
  PerfCounterGroup group_;
  std::vector<PerfPhaseStats> phases_;
};

}  // namespace brsmn::obs
