// Sharded multi-fabric cluster with a health-tracking control plane.
//
// One BRSMN fabric is a single failure domain: a stuck switch degrades
// every route and a dead fabric takes the whole service down with it. The
// cluster runs F independent fabric replicas (shards) behind one submit
// surface and turns replica failure into a routing decision:
//
//   * Placement is rendezvous (highest-random-weight) hashing on the
//     assignment fingerprint (core/route_plan.hpp) — the same key the
//     plan cache uses — so repeats of an assignment land on the same
//     shard and keep that shard's PlanCache hot, and losing one shard
//     moves only that shard's keys (each to its deterministic secondary,
//     core/placement.hpp) instead of reshuffling the world.
//   * Each shard owns a bounded MPMC ingress queue (api/bounded_queue.hpp)
//     feeding worker threads that route through per-worker
//     ResilientRouters, so a fault inside a shard is first absorbed by
//     the retry/fallback ladder and only then becomes a health event.
//   * A control plane tracks per-shard health from rolling outcome
//     windows, ingress queue depth, and the shard's p99 route latency
//     (obs histograms), classifying each shard Healthy / Degraded /
//     Quarantined. Quarantined shards are routed around; every
//     canary_interval-th request that *would* have used one is sent in
//     anyway as a canary, and a probation run of consecutive canary
//     successes re-admits the shard.
//
// Chaos seam: ClusterConfig::shard_faults gives each shard its own
// FaultInjector, so a chaos schedule can corrupt or kill exactly one
// replica while its peers stay clean — the N-1 property the cluster
// bench (bench/bench_cluster_chaos.cpp) gates: zero misdeliveries and
// bounded p99 degradation with one shard lost.
//
// Delivery contract: every submitted request resolves to exactly one
// ClusterOutcome — Delivered, DeliveredDegraded, Failed, or rejected at
// admission — and a Delivered result is the *correct* delivery vector
// (optionally re-verified against the assignment's src_of with
// verify_delivery). Nothing is silently dropped and nothing is
// misdelivered; the cluster.* counters prove the conservation.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/bounded_queue.hpp"
#include "api/group_manager.hpp"
#include "api/resilient_router.hpp"
#include "core/multicast_assignment.hpp"

namespace brsmn::obs {
class Counter;
class FabricHeatmap;
class Histogram;
class MetricRegistry;
class Tracer;
}  // namespace brsmn::obs

namespace brsmn::fault {
class FaultInjector;
}  // namespace brsmn::fault

namespace brsmn::api {

class PlanCache;

/// Control-plane classification of one shard.
enum class ShardState : std::uint8_t {
  Healthy,      ///< full traffic share
  Degraded,     ///< serving, but watched: elevated degraded rate, deep
                ///< queue, or p99 over budget
  Quarantined,  ///< routed around; only canaries admitted until probation
                ///< completes
};

std::string_view shard_state_name(ShardState state);

/// When the control plane moves a shard between states. Rates are over a
/// rolling window of recent request outcomes on that shard.
struct ClusterHealthPolicy {
  /// Rolling outcome window length per shard.
  std::size_t window = 64;
  /// No rate-based transition until the window holds this many outcomes
  /// (a single early failure must not quarantine a cold shard).
  std::size_t min_observations = 16;
  /// Quarantine when the windowed failure rate reaches this fraction.
  double quarantine_failure_rate = 0.5;
  /// Degrade when the windowed degraded-delivery rate reaches this.
  double degrade_degraded_rate = 0.25;
  /// Degrade when the ingress queue is at least this deep (0 = off).
  std::size_t degrade_queue_depth = 0;
  /// Degrade when the shard's route_ns p99 reaches this many ns
  /// (0 = off; needs a metrics registry).
  double degrade_p99_ns = 0.0;
  /// Consecutive successful canaries that end a quarantine.
  std::size_t probation_successes = 8;
  /// Every this-many-th request whose placement prefers a quarantined
  /// shard is sent to it anyway as a canary probe.
  std::size_t canary_interval = 8;
  /// Control-plane evaluation period. Zero runs no control thread —
  /// poll_health() is then the (deterministic, test-friendly) driver.
  std::chrono::milliseconds probe_interval{0};
};

/// Cluster construction knobs.
struct ClusterConfig {
  /// Fabric replicas. Placement is stable in this count.
  std::size_t shards = 4;
  /// Worker threads (and ResilientRouters) per shard.
  std::size_t workers_per_shard = 1;
  /// Per-shard ingress queue bound; submit() blocks when full.
  std::size_t queue_capacity = 64;
  /// Retry/fallback policy per router. jitter_seed is re-derived per
  /// worker from `seed` (mixed with the user's jitter_seed), so workers
  /// never share a jitter stream.
  RetryPolicy retry{};
  bool self_check = true;
  /// Give each shard a shared PlanCache so repeats placed there replay.
  bool plan_cache = true;
  std::size_t plan_cache_capacity = 256;
  /// Base seed for per-worker jitter streams (derive from test_seed() in
  /// tests for BRSMN_TEST_SEED reproducibility).
  std::uint64_t seed = 1;
  ClusterHealthPolicy health{};
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Per-shard fault injection: shard_faults[s] (when present and
  /// non-null) becomes shard s's routers' injector. The vector may be
  /// shorter than `shards`; missing entries mean no injector. Injectors
  /// must outlive the cluster.
  std::vector<fault::FaultInjector*> shard_faults{};
  /// Re-check every successful delivery vector against the
  /// assignment (MulticastAssignment::matches_delivery); mismatches
  /// count as misdeliveries (cluster bench gate). Costs one O(n) pass.
  bool verify_delivery = false;
  /// Per-worker fabric heatmaps, merged and readable via heatmap().
  bool heatmap = false;
  /// Metric namespace ("cluster" => cluster.submitted, ...).
  std::string metrics_prefix = "cluster";
};

/// Terminal state of one submitted request.
struct ClusterOutcome {
  /// The resilient router's verdict (Failed with attempts == 0 when the
  /// serving shard was killed, or when the request was rejected).
  RequestOutcome request{};
  /// Shard that served (or was about to serve) the request.
  std::size_t shard = 0;
  /// Shard placement preferred before health-based rerouting.
  std::size_t primary_shard = 0;
  /// Served by a non-primary shard because the primary was quarantined.
  bool rerouted = false;
  /// Deliberately sent into a quarantined shard as a probation probe.
  bool canary = false;
  /// Refused at admission (cluster stopping); request.outcome is Failed
  /// with zero attempts.
  bool rejected = false;
  /// verify_delivery found a wrong delivery vector (never expected).
  bool misdelivered = false;
};

/// Control-plane snapshot of one shard, for tests and reports.
struct ShardStatus {
  ShardState state = ShardState::Healthy;
  bool killed = false;
  std::size_t queue_depth = 0;
  std::size_t observations = 0;  ///< outcomes in the rolling window
  double failure_rate = 0.0;     ///< over the window
  double degraded_rate = 0.0;    ///< over the window
  std::uint64_t served = 0;      ///< lifetime requests finished here
  std::uint64_t failed = 0;
  std::uint64_t canaries = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
};

/// Lifetime totals across the cluster (all atomically maintained, so a
/// live read is approximate only in ordering, never in conservation
/// after stop(): submitted == completed + rejected).
struct ClusterTotals {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< delivered + delivered_degraded + failed
  std::uint64_t delivered = 0;
  std::uint64_t delivered_degraded = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t canaries = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t misdelivered = 0;
};

class Cluster {
 public:
  /// Builds every shard's queue, plan cache, routers and worker threads
  /// eagerly; starts the control thread when probe_interval > 0.
  Cluster(std::size_t n, const ClusterConfig& config = {});
  ~Cluster();  ///< stop()s if still running

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::size_t size() const noexcept { return n_; }
  std::size_t shards() const noexcept { return shards_.size(); }
  const ClusterConfig& config() const noexcept { return config_; }

  /// Queue one assignment for routing; the future resolves when a shard
  /// worker finishes it. Blocks while the target shard's ingress queue
  /// is full (backpressure); resolves rejected when the cluster is
  /// stopping.
  std::future<ClusterOutcome> submit(MulticastAssignment assignment);

  /// Queue one dynamic-group route, placed by the group id so a group's
  /// routes stay on one shard. With plan caches on, each route replays
  /// or patches from the group's plan slot (api/group_manager.hpp).
  /// `groups` must outlive the future's resolution; GroupManager is
  /// internally synchronized per group.
  std::future<ClusterOutcome> submit_group(GroupManager& groups,
                                           GroupId group);

  /// Synchronous conveniences over submit(). route_batch checks every
  /// assignment's size before submitting any: a bad batch is refused
  /// whole, and the error names the first bad index.
  ClusterOutcome route(MulticastAssignment assignment);
  std::vector<ClusterOutcome> route_batch(
      std::vector<MulticastAssignment> batch);

  /// Chaos controls: a killed shard still accepts queued work but fails
  /// every request instantly — the control plane has to *notice* via the
  /// failure window, exactly as it would a dead real fabric. Killing is
  /// deliberately invisible to placement until quarantine happens.
  void kill_shard(std::size_t shard);
  void revive_shard(std::size_t shard);

  /// One control-plane evaluation pass over every shard (the control
  /// thread calls this every probe_interval; with probe_interval zero,
  /// tests drive transitions deterministically by calling it directly).
  void poll_health();

  ShardState shard_state(std::size_t shard) const;
  ShardStatus shard_status(std::size_t shard) const;
  ClusterTotals totals() const;

  /// Merged view of every worker's fabric heatmap (empty map when
  /// ClusterConfig::heatmap was false). Call after stop() — or during a
  /// quiescent moment — for a consistent plane.
  const obs::FabricHeatmap& heatmap();

  /// Graceful shutdown: refuse new submissions, wake any router sleeping
  /// in a retry backoff, drain every queued request to its promised
  /// outcome, then join workers and the control thread. Idempotent.
  void stop();
  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

 private:
  struct Request;
  struct Shard;

  std::future<ClusterOutcome> enqueue(Request request, std::uint64_t key);
  std::size_t choose_shard(std::uint64_t key, std::size_t& primary,
                           bool& canary);
  void worker_loop(std::size_t shard_index, std::size_t worker_index);
  void serve(Shard& shard, std::size_t shard_index, std::size_t worker_index,
             Request request);
  void record_outcome(Shard& shard, const ClusterOutcome& outcome);
  void control_loop();
  void bump(obs::Counter* counter);

  std::size_t n_;
  ClusterConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< guarded by stop_once_mutex_
  std::mutex stop_once_mutex_;
  /// Serializes control-plane evaluations (control thread vs. manual
  /// poll_health callers), so state transitions are single-writer.
  std::mutex poll_mutex_;

  /// Canary pacing across all placements that hit a quarantined primary.
  std::atomic<std::uint64_t> canary_tick_{0};

  // Lifetime totals (see ClusterTotals).
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> delivered_degraded_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> rerouted_{0};
  std::atomic<std::uint64_t> canaries_{0};
  std::atomic<std::uint64_t> quarantines_{0};
  std::atomic<std::uint64_t> readmissions_{0};
  std::atomic<std::uint64_t> misdelivered_{0};

  // Cached metric instruments (null when no registry / obs disabled).
  obs::Counter* submitted_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* delivered_degraded_counter_ = nullptr;
  obs::Counter* failed_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* rerouted_counter_ = nullptr;
  obs::Counter* canaries_counter_ = nullptr;
  obs::Counter* quarantines_counter_ = nullptr;
  obs::Counter* readmissions_counter_ = nullptr;
  obs::Counter* misdelivered_counter_ = nullptr;
  obs::Histogram* request_hist_ = nullptr;  ///< submit -> outcome, ns

  // Control thread (only when probe_interval > 0).
  std::thread control_thread_;
  std::mutex control_mutex_;
  std::condition_variable control_cv_;
  bool control_stop_ = false;

  // Merged heatmap target for heatmap().
  std::unique_ptr<obs::FabricHeatmap> merged_heatmap_;
};

}  // namespace brsmn::api
