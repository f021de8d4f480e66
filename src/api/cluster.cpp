#include "api/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "api/plan_cache.hpp"
#include "common/contracts.hpp"
#include "core/brsmn.hpp"
#include "core/placement.hpp"
#include "core/route_plan.hpp"
#include "fault/fault_injector.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {

namespace {

/// Rolling-window outcome codes (one byte per retained outcome).
constexpr std::uint8_t kOk = 0;
constexpr std::uint8_t kDegraded = 1;
constexpr std::uint8_t kFailed = 2;

std::uint8_t outcome_code(const ClusterOutcome& outcome) {
  if (outcome.misdelivered) return kFailed;  // worse than failed, same bucket
  switch (outcome.request.outcome) {
    case RouteOutcome::Delivered: return kOk;
    case RouteOutcome::DeliveredDegraded: return kDegraded;
    case RouteOutcome::Failed: return kFailed;
  }
  return kFailed;
}

}  // namespace

std::string_view shard_state_name(ShardState state) {
  switch (state) {
    case ShardState::Healthy: return "healthy";
    case ShardState::Degraded: return "degraded";
    case ShardState::Quarantined: return "quarantined";
  }
  return "?";
}

/// One queued unit of work: either an owned assignment or a borrowed
/// dynamic group, plus the placement decision and the delivery promise.
struct Cluster::Request {
  std::promise<ClusterOutcome> promise;
  std::optional<MulticastAssignment> assignment;
  GroupManager* groups = nullptr;
  GroupId group = 0;
  std::size_t primary = 0;
  bool rerouted = false;
  bool canary = false;
  std::chrono::steady_clock::time_point submitted_at{};
};

/// One fabric replica: ingress queue, plan cache, per-worker resilient
/// routers and heatmaps, chaos state, and the control plane's books.
struct Cluster::Shard {
  std::unique_ptr<BoundedQueue<Request>> queue;
  std::unique_ptr<PlanCache> cache;
  std::vector<std::unique_ptr<obs::FabricHeatmap>> heatmaps;
  std::vector<std::unique_ptr<ResilientRouter>> routers;
  std::vector<std::thread> workers;
  fault::FaultInjector* faults = nullptr;

  std::atomic<bool> killed{false};
  std::atomic<ShardState> state{ShardState::Healthy};

  /// Rolling outcome window (ring of outcome codes) and the probation
  /// streak, guarded together: workers append, the control plane reads
  /// and resets.
  mutable std::mutex health_mutex;
  std::vector<std::uint8_t> window;
  std::size_t window_next = 0;
  std::size_t window_count = 0;
  std::size_t probation_streak = 0;

  // Lifetime per-shard counts (ShardStatus).
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> canaries{0};
  std::atomic<std::uint64_t> quarantines{0};
  std::atomic<std::uint64_t> readmissions{0};

  // Cached instruments (null without a registry / with obs disabled).
  obs::Gauge* state_gauge = nullptr;
  obs::Gauge* queue_gauge = nullptr;
  obs::Gauge* failure_rate_gauge = nullptr;
  obs::Gauge* degraded_rate_gauge = nullptr;
  obs::Histogram* route_hist = nullptr;

  /// Failure/degraded rates over the current window, read under
  /// health_mutex by the caller.
  void window_rates_locked(double& failure_rate, double& degraded_rate,
                           std::size_t& observations) const {
    observations = window_count;
    std::size_t failures = 0;
    std::size_t degraded = 0;
    for (std::size_t i = 0; i < window_count; ++i) {
      if (window[i] == kFailed) ++failures;
      if (window[i] == kDegraded) ++degraded;
    }
    const double denom =
        observations == 0 ? 1.0 : static_cast<double>(observations);
    failure_rate = static_cast<double>(failures) / denom;
    degraded_rate = static_cast<double>(degraded) / denom;
  }
};

void Cluster::bump(obs::Counter* counter) {
  if constexpr (obs::kEnabled) {
    if (counter != nullptr) counter->add(1);
  }
}

Cluster::Cluster(std::size_t n, const ClusterConfig& config)
    : n_(n), config_(config) {
  BRSMN_EXPECTS_MSG(config_.shards >= 1, "cluster needs at least one shard");
  BRSMN_EXPECTS_MSG(config_.workers_per_shard >= 1,
                    "cluster needs at least one worker per shard");
  BRSMN_EXPECTS_MSG(config_.queue_capacity >= 1,
                    "cluster ingress queues need capacity >= 1");
  BRSMN_EXPECTS_MSG(config_.shard_faults.size() <= config_.shards,
                    "more shard fault injectors than shards");
  validate(config_.retry);

  if constexpr (obs::kEnabled) {
    if (config_.metrics != nullptr) {
      obs::MetricRegistry& m = *config_.metrics;
      const std::string& p = config_.metrics_prefix;
      submitted_counter_ = &m.counter(p + ".submitted");
      delivered_counter_ = &m.counter(p + ".delivered");
      delivered_degraded_counter_ = &m.counter(p + ".delivered_degraded");
      failed_counter_ = &m.counter(p + ".failed");
      rejected_counter_ = &m.counter(p + ".rejected");
      rerouted_counter_ = &m.counter(p + ".rerouted");
      canaries_counter_ = &m.counter(p + ".canaries");
      quarantines_counter_ = &m.counter(p + ".quarantines");
      readmissions_counter_ = &m.counter(p + ".readmissions");
      misdelivered_counter_ = &m.counter(p + ".misdelivered");
      request_hist_ = &m.histogram(p + ".request_ns");
      m.gauge(p + ".shards").set(static_cast<double>(config_.shards));
    }
  }

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->queue = std::make_unique<BoundedQueue<Request>>(
        config_.queue_capacity);
    shard->faults =
        s < config_.shard_faults.size() ? config_.shard_faults[s] : nullptr;
    shard->window.resize(std::max<std::size_t>(1, config_.health.window));
    if (config_.plan_cache) {
      PlanCacheConfig pc;
      pc.capacity = config_.plan_cache_capacity;
      shard->cache = std::make_unique<PlanCache>(pc);
    }
    if constexpr (obs::kEnabled) {
      if (config_.metrics != nullptr) {
        obs::MetricRegistry& m = *config_.metrics;
        const std::string base =
            config_.metrics_prefix + ".shard." + std::to_string(s);
        shard->state_gauge = &m.gauge(base + ".state");
        shard->queue_gauge = &m.gauge(base + ".queue_depth");
        shard->failure_rate_gauge = &m.gauge(base + ".failure_rate");
        shard->degraded_rate_gauge = &m.gauge(base + ".degraded_rate");
        shard->route_hist = &m.histogram(base + ".route_ns");
        if (shard->cache) {
          // All shards share one aggregated plan-cache family: the
          // counters add deltas, so totals compose.
          shard->cache->attach_metrics(m, config_.metrics_prefix +
                                              ".plan_cache");
        }
      }
    }
    for (std::size_t w = 0; w < config_.workers_per_shard; ++w) {
      ResilientOptions ro;
      ro.retry = config_.retry;
      // Every worker gets its own jitter stream, derived from the
      // cluster seed (and the user's jitter_seed, if set) so retries
      // never synchronize across workers yet replay exactly under
      // BRSMN_TEST_SEED-derived cluster seeds.
      ro.retry.jitter_seed =
          mix64(mix64(config_.seed) ^ mix64(config_.retry.jitter_seed) ^
                (static_cast<std::uint64_t>(s) << 32) ^
                static_cast<std::uint64_t>(w));
      ro.self_check = config_.self_check;
      ro.faults = shard->faults;
      ro.metrics = config_.metrics;
      ro.tracer = config_.tracer;
      ro.plan_cache = shard->cache.get();
      if (config_.heatmap) {
        shard->heatmaps.push_back(std::make_unique<obs::FabricHeatmap>(n_));
        ro.heatmap = shard->heatmaps.back().get();
      }
      shard->routers.push_back(std::make_unique<ResilientRouter>(n_, ro));
    }
    shards_.push_back(std::move(shard));
  }

  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (std::size_t w = 0; w < config_.workers_per_shard; ++w) {
      shards_[s]->workers.emplace_back(
          [this, s, w] { worker_loop(s, w); });
    }
  }
  if (config_.health.probe_interval.count() > 0) {
    control_thread_ = std::thread([this] { control_loop(); });
  }
}

Cluster::~Cluster() { stop(); }

std::size_t Cluster::choose_shard(std::uint64_t key, std::size_t& primary,
                                  bool& canary) {
  primary = primary_shard(key, shards_.size());
  canary = false;
  if (shards_[primary]->state.load(std::memory_order_acquire) !=
      ShardState::Quarantined) {
    return primary;
  }
  // Primary quarantined: pace a canary in, otherwise walk the key's own
  // preference order to its first serving shard (deterministic secondary).
  if (config_.health.canary_interval > 0 &&
      canary_tick_.fetch_add(1, std::memory_order_relaxed) %
              config_.health.canary_interval ==
          0) {
    canary = true;
    return primary;
  }
  std::vector<std::size_t> order;
  placement_order_into(key, shards_.size(), order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (shards_[order[i]]->state.load(std::memory_order_acquire) !=
        ShardState::Quarantined) {
      return order[i];
    }
  }
  // Every shard quarantined: nothing is better than the primary; treat
  // the forced admission as a canary so it can still earn readmission.
  canary = true;
  return primary;
}

std::future<ClusterOutcome> Cluster::enqueue(Request request,
                                             std::uint64_t key) {
  std::future<ClusterOutcome> future = request.promise.get_future();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  bump(submitted_counter_);

  std::size_t primary = 0;
  bool canary = false;
  const std::size_t target = choose_shard(key, primary, canary);
  request.primary = primary;
  request.canary = canary;
  request.rerouted = target != primary;
  request.submitted_at = std::chrono::steady_clock::now();

  bool admitted = false;
  if (!stopping_.load(std::memory_order_acquire)) {
    admitted = shards_[target]->queue->push(request);
  }
  if (!admitted) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    bump(rejected_counter_);
    ClusterOutcome out;
    out.shard = target;
    out.primary_shard = primary;
    out.rejected = true;
    out.request.outcome = RouteOutcome::Failed;
    request.promise.set_value(std::move(out));
  }
  return future;
}

std::future<ClusterOutcome> Cluster::submit(MulticastAssignment assignment) {
  BRSMN_EXPECTS_MSG(assignment.size() == n_,
                    "assignment size does not match the cluster's fabrics");
  const std::uint64_t key = assignment_fingerprint(assignment);
  Request request;
  request.assignment = std::move(assignment);
  return enqueue(std::move(request), key);
}

std::future<ClusterOutcome> Cluster::submit_group(GroupManager& groups,
                                                  GroupId group) {
  BRSMN_EXPECTS_MSG(groups.network_size() == n_,
                    "group manager width does not match the cluster");
  Request request;
  request.groups = &groups;
  request.group = group;
  return enqueue(std::move(request), mix64(group));
}

ClusterOutcome Cluster::route(MulticastAssignment assignment) {
  return submit(std::move(assignment)).get();
}

std::vector<ClusterOutcome> Cluster::route_batch(
    std::vector<MulticastAssignment> batch) {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    BRSMN_EXPECTS_MSG(batch[i].size() == n_,
                      "route_batch: assignment " + std::to_string(i) +
                          " size does not match the cluster's fabrics");
  }
  std::vector<std::future<ClusterOutcome>> futures;
  futures.reserve(batch.size());
  for (MulticastAssignment& assignment : batch) {
    futures.push_back(submit(std::move(assignment)));
  }
  std::vector<ClusterOutcome> outcomes;
  outcomes.reserve(futures.size());
  for (std::future<ClusterOutcome>& f : futures) {
    outcomes.push_back(f.get());
  }
  return outcomes;
}

void Cluster::worker_loop(std::size_t shard_index, std::size_t worker_index) {
  Shard& shard = *shards_[shard_index];
  Request request;
  while (shard.queue->pop(request)) {
    serve(shard, shard_index, worker_index, std::move(request));
  }
}

void Cluster::serve(Shard& shard, std::size_t shard_index,
                    std::size_t worker_index, Request request) {
  ClusterOutcome out;
  out.shard = shard_index;
  out.primary_shard = request.primary;
  out.rerouted = request.rerouted;
  out.canary = request.canary;

  const auto route_start = std::chrono::steady_clock::now();
  try {
    if (shard.killed.load(std::memory_order_acquire)) {
      // A dead replica answers nothing; the cluster synthesizes the
      // failure instantly so the control plane sees a failure *rate*,
      // not a hang.
      out.request.outcome = RouteOutcome::Failed;
      out.request.attempts = 0;
    } else if (request.groups != nullptr) {
      out.request =
          shard.routers[worker_index]->route_group(request.group,
                                                   *request.groups);
    } else {
      out.request = shard.routers[worker_index]->route(*request.assignment);
    }
    if (config_.verify_delivery && out.request.result.has_value() &&
        request.assignment.has_value()) {
      out.misdelivered = !request.assignment->matches_delivery(
          out.request.result->delivered);
    }
  } catch (...) {
    // Non-fault errors (contract violations) propagate to the waiter;
    // the request still counts as completed-and-failed so conservation
    // holds.
    out.request.outcome = RouteOutcome::Failed;
    out.request.result.reset();
    record_outcome(shard, out);
    request.promise.set_exception(std::current_exception());
    return;
  }
  const auto finished = std::chrono::steady_clock::now();
  if constexpr (obs::kEnabled) {
    if (shard.route_hist != nullptr) {
      shard.route_hist->record(
          std::chrono::duration<double, std::nano>(finished - route_start)
              .count());
    }
    if (request_hist_ != nullptr) {
      request_hist_->record(std::chrono::duration<double, std::nano>(
                                finished - request.submitted_at)
                                .count());
    }
  }
  record_outcome(shard, out);
  request.promise.set_value(std::move(out));
}

void Cluster::record_outcome(Shard& shard, const ClusterOutcome& outcome) {
  completed_.fetch_add(1, std::memory_order_relaxed);
  shard.served.fetch_add(1, std::memory_order_relaxed);
  switch (outcome.request.outcome) {
    case RouteOutcome::Delivered:
      delivered_.fetch_add(1, std::memory_order_relaxed);
      bump(delivered_counter_);
      break;
    case RouteOutcome::DeliveredDegraded:
      delivered_degraded_.fetch_add(1, std::memory_order_relaxed);
      bump(delivered_degraded_counter_);
      break;
    case RouteOutcome::Failed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      shard.failed.fetch_add(1, std::memory_order_relaxed);
      bump(failed_counter_);
      break;
  }
  if (outcome.rerouted) {
    rerouted_.fetch_add(1, std::memory_order_relaxed);
    bump(rerouted_counter_);
  }
  if (outcome.canary) {
    canaries_.fetch_add(1, std::memory_order_relaxed);
    shard.canaries.fetch_add(1, std::memory_order_relaxed);
    bump(canaries_counter_);
  }
  if (outcome.misdelivered) {
    misdelivered_.fetch_add(1, std::memory_order_relaxed);
    bump(misdelivered_counter_);
  }

  const std::uint8_t code = outcome_code(outcome);
  const std::lock_guard<std::mutex> lock(shard.health_mutex);
  shard.window[shard.window_next] = code;
  shard.window_next = (shard.window_next + 1) % shard.window.size();
  shard.window_count = std::min(shard.window_count + 1, shard.window.size());
  if (outcome.canary) {
    if (code == kFailed) {
      shard.probation_streak = 0;
    } else {
      ++shard.probation_streak;
    }
  }
}

void Cluster::poll_health() {
  const std::lock_guard<std::mutex> poll_lock(poll_mutex_);
  const ClusterHealthPolicy& hp = config_.health;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    double failure_rate = 0.0;
    double degraded_rate = 0.0;
    std::size_t observations = 0;
    std::size_t streak = 0;
    {
      const std::lock_guard<std::mutex> lock(shard.health_mutex);
      shard.window_rates_locked(failure_rate, degraded_rate, observations);
      streak = shard.probation_streak;
    }
    const std::size_t depth = shard.queue->depth();
    double p99_ns = 0.0;
    if constexpr (obs::kEnabled) {
      if (hp.degrade_p99_ns > 0.0 && shard.route_hist != nullptr) {
        p99_ns = shard.route_hist->snapshot().p99;
      }
    }

    const ShardState current = shard.state.load(std::memory_order_acquire);
    ShardState next = current;
    if (current == ShardState::Quarantined) {
      if (streak >= hp.probation_successes) {
        next = ShardState::Healthy;
        shard.readmissions.fetch_add(1, std::memory_order_relaxed);
        readmissions_.fetch_add(1, std::memory_order_relaxed);
        bump(readmissions_counter_);
        // A readmitted shard starts with a clean slate: the quarantine-era
        // failures must not instantly re-quarantine it.
        const std::lock_guard<std::mutex> lock(shard.health_mutex);
        shard.window_count = 0;
        shard.window_next = 0;
        shard.probation_streak = 0;
      }
    } else if (observations >= hp.min_observations &&
               failure_rate >= hp.quarantine_failure_rate) {
      next = ShardState::Quarantined;
      shard.quarantines.fetch_add(1, std::memory_order_relaxed);
      quarantines_.fetch_add(1, std::memory_order_relaxed);
      bump(quarantines_counter_);
      const std::lock_guard<std::mutex> lock(shard.health_mutex);
      shard.probation_streak = 0;
    } else if ((observations >= hp.min_observations &&
                degraded_rate >= hp.degrade_degraded_rate) ||
               (hp.degrade_queue_depth > 0 &&
                depth >= hp.degrade_queue_depth) ||
               (hp.degrade_p99_ns > 0.0 && p99_ns >= hp.degrade_p99_ns)) {
      next = ShardState::Degraded;
    } else {
      next = ShardState::Healthy;
    }
    if (next != current) {
      shard.state.store(next, std::memory_order_release);
    }
    if constexpr (obs::kEnabled) {
      if (shard.state_gauge != nullptr) {
        shard.state_gauge->set(static_cast<double>(
            static_cast<std::uint8_t>(next)));
        shard.queue_gauge->set(static_cast<double>(depth));
        shard.failure_rate_gauge->set(failure_rate);
        shard.degraded_rate_gauge->set(degraded_rate);
      }
    }
  }
}

void Cluster::control_loop() {
  std::unique_lock<std::mutex> lock(control_mutex_);
  while (!control_stop_) {
    control_cv_.wait_for(lock, config_.health.probe_interval,
                         [this] { return control_stop_; });
    if (control_stop_) break;
    lock.unlock();
    poll_health();
    lock.lock();
  }
}

void Cluster::kill_shard(std::size_t shard) {
  BRSMN_EXPECTS(shard < shards_.size());
  shards_[shard]->killed.store(true, std::memory_order_release);
}

void Cluster::revive_shard(std::size_t shard) {
  BRSMN_EXPECTS(shard < shards_.size());
  shards_[shard]->killed.store(false, std::memory_order_release);
}

ShardState Cluster::shard_state(std::size_t shard) const {
  BRSMN_EXPECTS(shard < shards_.size());
  return shards_[shard]->state.load(std::memory_order_acquire);
}

ShardStatus Cluster::shard_status(std::size_t shard) const {
  BRSMN_EXPECTS(shard < shards_.size());
  const Shard& s = *shards_[shard];
  ShardStatus status;
  status.state = s.state.load(std::memory_order_acquire);
  status.killed = s.killed.load(std::memory_order_acquire);
  status.queue_depth = s.queue->depth();
  {
    const std::lock_guard<std::mutex> lock(s.health_mutex);
    s.window_rates_locked(status.failure_rate, status.degraded_rate,
                          status.observations);
  }
  status.served = s.served.load(std::memory_order_relaxed);
  status.failed = s.failed.load(std::memory_order_relaxed);
  status.canaries = s.canaries.load(std::memory_order_relaxed);
  status.quarantines = s.quarantines.load(std::memory_order_relaxed);
  status.readmissions = s.readmissions.load(std::memory_order_relaxed);
  return status;
}

ClusterTotals Cluster::totals() const {
  ClusterTotals t;
  t.submitted = submitted_.load(std::memory_order_relaxed);
  t.completed = completed_.load(std::memory_order_relaxed);
  t.delivered = delivered_.load(std::memory_order_relaxed);
  t.delivered_degraded = delivered_degraded_.load(std::memory_order_relaxed);
  t.failed = failed_.load(std::memory_order_relaxed);
  t.rejected = rejected_.load(std::memory_order_relaxed);
  t.rerouted = rerouted_.load(std::memory_order_relaxed);
  t.canaries = canaries_.load(std::memory_order_relaxed);
  t.quarantines = quarantines_.load(std::memory_order_relaxed);
  t.readmissions = readmissions_.load(std::memory_order_relaxed);
  t.misdelivered = misdelivered_.load(std::memory_order_relaxed);
  return t;
}

const obs::FabricHeatmap& Cluster::heatmap() {
  merged_heatmap_ = std::make_unique<obs::FabricHeatmap>(n_);
  for (const auto& shard : shards_) {
    for (const auto& map : shard->heatmaps) {
      merged_heatmap_->merge(*map);
    }
  }
  return *merged_heatmap_;
}

void Cluster::stop() {
  stopping_.store(true, std::memory_order_release);
  const std::lock_guard<std::mutex> once(stop_once_mutex_);
  if (stopped_) return;
  stopped_ = true;

  if (control_thread_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(control_mutex_);
      control_stop_ = true;
    }
    control_cv_.notify_all();
    control_thread_.join();
  }
  // Wake routers out of any retry backoff first, then close the queues:
  // workers drain every admitted request (fast, since ladders no longer
  // sleep) and exit on the closed-and-empty signal.
  for (const auto& shard : shards_) {
    for (const auto& router : shard->routers) router->request_stop();
  }
  for (const auto& shard : shards_) shard->queue->close();
  for (const auto& shard : shards_) {
    for (std::thread& worker : shard->workers) worker.join();
    shard->workers.clear();
  }
}

}  // namespace brsmn::api
