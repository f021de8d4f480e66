// A queued multicast packet switch built on the BRSMN fabric: per-input
// FIFO queues, a round-robin epoch scheduler with optional fanout
// splitting, and latency/throughput accounting.
//
// Each epoch the scheduler admits a conflict-free multicast assignment
// from the queue heads (destination sets must be disjoint within an
// epoch), routes it through the self-routing fabric, and retires served
// destinations. With *fanout splitting* (the standard discipline in the
// multicast switching literature) a head cell may be served partially —
// whatever subset of its destinations is still unclaimed this epoch —
// which removes head-of-line blocking between overlapping multicasts.
//
// Fault behavior: the fabric is driven through api::ResilientRouter, so
// a detected fault retries and falls back before it reaches the switch.
// An epoch whose route still Fails is *aborted* — nothing is retired,
// the admitted cells stay queued and are re-offered to later epochs — so
// no cell is ever silently lost. An optional drop policy (max_cell_age)
// expires cells that have waited too long, with explicit accounting:
// offered == completed + dropped + backlog holds at every epoch
// boundary (verified by tests/test_chaos.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "api/resilient_router.hpp"
#include "core/brsmn.hpp"
#include "traffic/arrivals.hpp"

namespace brsmn::obs {
class Counter;
class Gauge;
class Histogram;
class MetricRegistry;
class Tracer;
}  // namespace brsmn::obs

namespace brsmn::fault {
class FaultInjector;
}  // namespace brsmn::fault

namespace brsmn::traffic {

struct LatencySummary {
  double mean = 0.0;
  std::size_t max = 0;
  std::size_t completed_cells = 0;
};

class QueuedMulticastSwitch {
 public:
  struct Config {
    std::size_t ports = 0;
    bool fanout_splitting = true;
    /// When set, every step() records epoch metrics under "switch.*"
    /// (admitted cells/fanout histograms, queue-depth gauges, cell
    /// completion latency) and the fabric records "route.*" phase
    /// timings into the same registry.
    obs::MetricRegistry* metrics = nullptr;
    /// When set, every step() emits a "switch.epoch" span (the fabric's
    /// per-level spans nested inside) plus switch.backlog_cells /
    /// switch.backlog_copies counter tracks, so queue depth is plotted
    /// against the routing timeline in the Chrome trace.
    obs::Tracer* tracer = nullptr;
    /// Online self-check for every route (see core/brsmn.hpp).
    bool self_check = true;
    /// Fault-injection seam, handed to the resilient router. Null: no
    /// injection (the default).
    fault::FaultInjector* faults = nullptr;
    /// Retry/fallback policy for faulted routes.
    api::RetryPolicy retry{};
    /// Compiled-plan cache shared by every epoch's routes (see
    /// api/plan_cache.hpp): steady traffic patterns re-route the same
    /// assignment each epoch and replay instead of recomputing. Null:
    /// every epoch routes cold (the default).
    api::PlanCache* plan_cache = nullptr;
    /// Dynamic-group registry (api/group_manager.hpp) served by
    /// route_group(). Setting `plan_cache` too opts group routes into
    /// their per-group plan slots, so churned groups patch incrementally.
    /// Null: route_group() is unavailable (the default).
    api::GroupManager* groups = nullptr;
    /// Drop policy: a queued cell older than this many epochs is dropped
    /// (counted, never silently) at the start of a step. 0 disables.
    std::size_t max_cell_age = 0;
  };

  explicit QueuedMulticastSwitch(const Config& config);

  std::size_t ports() const noexcept { return config_.ports; }

  /// Enqueue a cell at its input (arrival epoch = now()).
  void offer(const Offer& offer);

  /// Convenience: enqueue a whole epoch of generated arrivals.
  void offer_all(const std::vector<Offer>& offers);

  struct EpochReport {
    std::size_t admitted_cells = 0;    ///< cells served (fully or partly)
    std::size_t delivered_copies = 0;  ///< destinations served
    std::size_t completed_cells = 0;   ///< cells whose last copy left
    std::size_t dropped_cells = 0;     ///< cells expired by max_cell_age
    /// The route Failed even after retries/fallbacks: nothing was
    /// retired this epoch and the admitted cells remain queued.
    bool aborted = false;
    /// The route needed a fallback path (DeliveredDegraded).
    bool degraded = false;
  };

  /// Run one epoch: expire, schedule, route, retire. Advances the clock.
  EpochReport step();

  /// Route a dynamic group's current membership through the same
  /// resilient fabric path the cell pipeline uses (retry ladder, plan
  /// cache, fault seam). Group service is control-plane traffic: no
  /// cell is admitted or retired, the epoch clock does not advance, and
  /// the cell-conservation invariant is untouched — the report carries
  /// only delivered_copies (destinations the group route reached) and
  /// the aborted/degraded flags. Requires Config::groups.
  EpochReport route_group(api::GroupId group);

  /// Group routes served by route_group() so far.
  std::size_t group_routes() const noexcept { return group_routes_; }

  /// Epochs elapsed.
  std::size_t now() const noexcept { return epoch_; }

  /// Cells currently queued (heads included).
  std::size_t backlog_cells() const;

  /// Destination copies still owed to queued cells.
  std::size_t backlog_copies() const;

  /// Longest input queue.
  std::size_t max_queue_length() const;

  /// Completion latency statistics (arrival epoch -> last-copy epoch)
  /// over all completed cells so far.
  LatencySummary latency() const;

  /// Total destination copies delivered so far.
  std::size_t delivered_copies() const noexcept { return delivered_; }

  /// Cell conservation: offered_cells() == latency().completed_cells +
  /// dropped_cells() + backlog_cells() at every epoch boundary.
  std::size_t offered_cells() const noexcept { return offered_; }
  std::size_t dropped_cells() const noexcept { return dropped_cells_; }
  std::size_t dropped_copies() const noexcept { return dropped_copies_; }

  /// Epochs whose route Failed after the full retry ladder.
  std::size_t aborted_epochs() const noexcept { return aborted_epochs_; }
  /// Epochs served by a fallback path.
  std::size_t degraded_epochs() const noexcept { return degraded_epochs_; }

  /// The underlying resilient router (fault counters, ladder).
  const api::ResilientRouter& router() const noexcept { return router_; }

 private:
  struct QueuedCell {
    std::vector<std::size_t> remaining;  ///< destinations still owed
    std::size_t arrival = 0;
  };

  void expire_old_cells(EpochReport& report);

  /// Registry handles resolved once at construction (null when the
  /// config carries no registry).
  struct Instruments {
    obs::Histogram* admitted_cells = nullptr;
    obs::Histogram* admitted_fanout = nullptr;
    obs::Histogram* cell_latency = nullptr;
    obs::Gauge* backlog_cells = nullptr;
    obs::Gauge* backlog_copies = nullptr;
    obs::Gauge* max_queue = nullptr;
    obs::Counter* epochs = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* aborted = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* group_routes = nullptr;
  };

  Config config_;
  api::ResilientRouter router_;
  Instruments instruments_;
  std::vector<std::deque<QueuedCell>> queues_;
  std::size_t epoch_ = 0;
  std::size_t rr_pointer_ = 0;
  std::size_t delivered_ = 0;
  std::uint64_t latency_total_ = 0;
  std::size_t latency_max_ = 0;
  std::size_t completed_ = 0;
  std::size_t offered_ = 0;
  std::size_t dropped_cells_ = 0;
  std::size_t dropped_copies_ = 0;
  std::size_t aborted_epochs_ = 0;
  std::size_t degraded_epochs_ = 0;
  std::size_t group_routes_ = 0;
};

}  // namespace brsmn::traffic
