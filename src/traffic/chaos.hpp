// Chaos harness for the queued multicast switch: replay a seeded fault
// schedule against seeded traffic, watch the switch degrade and recover,
// and certify that nothing was silently lost.
//
// The harness drives QueuedMulticastSwitch through three regimes: an
// arrival window (traffic + faults active), a drain window (arrivals
// stop, faults may persist), and the steady state after the last fault's
// activation window closes. Throughout, the switch's own conservation
// invariant holds (offered == completed + dropped + backlog after every
// epoch); the harness additionally reports whether the backlog fully
// drained and how the fault counters moved, so tests and CI can assert
// recovery — not just survival.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/resilient_router.hpp"
#include "core/brsmn.hpp"
#include "fault/fault_plan.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/queued_switch.hpp"

namespace brsmn::obs {
class MetricRegistry;
class Tracer;
}  // namespace brsmn::obs

namespace brsmn::traffic {

struct ChaosConfig {
  std::size_t ports = 16;
  std::uint64_t seed = 1;
  /// Epochs with fresh arrivals; after that the switch drains.
  std::size_t arrival_epochs = 32;
  /// Hard cap on total epochs (arrival + drain). The run stops earlier
  /// once the backlog drains to empty.
  std::size_t max_epochs = 256;
  ArrivalConfig arrivals{};
  /// The fault schedule (validated; empty plan = control run). Faults
  /// keyed to route ordinals fire as the switch routes each epoch.
  fault::FaultPlan plan{};
  /// Forwarded to QueuedMulticastSwitch::Config.
  std::size_t max_cell_age = 0;
  api::RetryPolicy retry{};
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

struct ChaosEpochRecord {
  std::size_t epoch = 0;
  std::size_t offered_cells = 0;
  std::size_t delivered_copies = 0;
  std::size_t completed_cells = 0;
  std::size_t dropped_cells = 0;
  std::size_t backlog_cells = 0;
  bool aborted = false;
  bool degraded = false;
};

struct ChaosSummary {
  std::size_t epochs_run = 0;
  std::size_t offered_cells = 0;
  std::size_t completed_cells = 0;
  std::size_t dropped_cells = 0;
  std::size_t backlog_cells = 0;  ///< remaining at the end of the run
  std::size_t delivered_copies = 0;
  std::size_t aborted_epochs = 0;
  std::size_t degraded_epochs = 0;
  std::size_t peak_backlog_cells = 0;
  /// The backlog reached zero before max_epochs ran out.
  bool drained = false;
  /// Router fault counters at the end of the run.
  std::uint64_t faults_detected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t faults_gaveup = 0;
  std::vector<ChaosEpochRecord> epochs;

  /// offered == completed + dropped + backlog — the no-silent-loss
  /// identity. (The switch asserts it per epoch; exposed here so
  /// harness users can assert it end-to-end too.)
  bool conserved() const noexcept {
    return offered_cells == completed_cells + dropped_cells + backlog_cells;
  }
};

/// Run one chaos scenario. Deterministic given the config (seeded
/// arrivals, declarative fault plan, fixed scheduler).
ChaosSummary run_chaos(const ChaosConfig& config);

}  // namespace brsmn::traffic
