// Self-checking resilient routing front-end.
//
// The BRSMN engines are self-routing with no central controller; with
// the online self-check (fault/self_check.hpp) they *detect* a corrupted
// route but still fail it. ResilientRouter turns detection into
// recovery: a failed route is retried with bounded exponential backoff,
// then walked down a fallback ladder — unrolled -> feedback
// implementation — and only reported Failed when every path is
// exhausted. The caller gets a typed per-request outcome instead of an
// exception: Delivered (primary path), DeliveredDegraded (the fallback
// path carried it), or Failed (with the last FaultReport attached).
//
// Every attempt routes through the packed engine. The scalar engine
// configures the same fabric bit-identically, faults included, so a
// fallback onto it would fail exactly as the packed attempt did; it stays
// in core/ as the paper-faithful reference and the differential oracle.
//
// Why the ladder is a genuine recovery path: a transient fault clears on
// retry; an implementation-scoped fault (defect in one fabric) clears on
// the unrolled -> feedback fallback, which routes over physically
// different switches (one reused n x n fabric instead of log n levels of
// BSNs).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "api/group_manager.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "fault/fault_report.hpp"

namespace brsmn::obs {
class FabricHeatmap;
class MetricRegistry;
class Tracer;
}  // namespace brsmn::obs

namespace brsmn::fault {
class FaultInjector;
}  // namespace brsmn::fault

namespace brsmn::api {

class PlanCache;

/// Per-request terminal state.
enum class RouteOutcome : std::uint8_t {
  /// Routed on the primary path (possibly after retries on that path).
  Delivered,
  /// Routed correctly, but only after falling back to the feedback
  /// implementation — service continues in degraded mode.
  DeliveredDegraded,
  /// Every configured path exhausted its attempts; `report` names the
  /// last detection.
  Failed,
};

std::string_view outcome_name(RouteOutcome outcome);

/// Bounded-retry knobs. Attempts are per *path* (a path = one
/// implementation in the fallback ladder), so the worst case is
/// max_attempts_per_path x ladder length routes.
struct RetryPolicy {
  std::size_t max_attempts_per_path = 2;
  /// Fall back unrolled -> feedback after the primary path's attempts.
  bool fallback_implementation = true;
  /// Backoff before retry #k (k >= 1, counted across the whole ladder):
  /// min(initial_backoff * backoff_multiplier^(k-1), max_backoff).
  /// Zero initial backoff (the default) retries immediately.
  std::chrono::microseconds initial_backoff{0};
  double backoff_multiplier = 2.0;
  std::chrono::microseconds max_backoff{10000};
  /// Multiplicative backoff jitter in [0, 1]: each computed backoff is
  /// scaled by a factor drawn deterministically from (jitter_seed, salt)
  /// in [1 - jitter, 1], so workers sharing a policy but seeded apart
  /// spread their retries instead of hammering a recovering fabric in
  /// lockstep. 0 (the default) keeps the legacy deterministic schedule.
  double jitter = 0.0;
  /// Seed of the jitter stream. Give each worker its own value (the
  /// cluster derives per-worker seeds from ClusterConfig::seed); tests
  /// deriving it from common/rng test_seed() stay reproducible under
  /// BRSMN_TEST_SEED.
  std::uint64_t jitter_seed = 0;
};

/// Throws common/contracts ContractViolation when the policy cannot
/// express a sane schedule: zero attempts per path, a non-finite or
/// non-positive backoff multiplier, jitter outside [0, 1], or a negative
/// backoff cap. ResilientRouter validates its policy at construction.
void validate(const RetryPolicy& policy);

/// The backoff to sleep before the `failures`-th retry (failures >= 1).
/// Deterministic in (policy, failures, salt): the jitter factor is a pure
/// hash of (policy.jitter_seed, salt), no hidden generator state. Callers
/// wanting successive retries to draw fresh jitter pass a new salt per
/// retry (ResilientRouter salts with a per-router retry ordinal).
std::chrono::microseconds backoff_for_attempt(const RetryPolicy& policy,
                                              std::size_t failures,
                                              std::uint64_t salt = 0);

struct ResilientOptions {
  RetryPolicy retry{};
  /// Online self-check for every attempt (default on; a fault injector
  /// implies it regardless).
  bool self_check = true;
  /// Fault-injection seam, shared by every path (its activation windows
  /// see the injector's global route ordinals, so a transient scheduled
  /// for ordinal 0 misses the ordinal-1 retry — that is the recovery).
  fault::FaultInjector* faults = nullptr;
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Compiled-plan cache shared by every attempt (see
  /// api/plan_cache.hpp). A replayed plan that trips the self-check is
  /// invalidated and the attempt surfaces FaultDetected, so the retry
  /// ladder recompiles or falls back as usual. Null: every route is cold.
  PlanCache* plan_cache = nullptr;
  /// Fabric utilization heatmap (obs/fabric_heatmap.hpp), threaded into
  /// every attempt's RouteOptions. Single-owner: one routing thread per
  /// map — concurrent routers (cluster shard workers) give each worker
  /// its own map and merge(). Null: datapaths unobserved.
  obs::FabricHeatmap* heatmap = nullptr;
};

/// One rung of the fallback ladder; every rung routes the packed engine.
struct RoutePath {
  bool feedback = false;  ///< false = unrolled Brsmn, true = FeedbackBrsmn

  friend bool operator==(const RoutePath&, const RoutePath&) = default;
};

/// What happened to one routing request.
struct RequestOutcome {
  RouteOutcome outcome = RouteOutcome::Failed;
  /// The successful route's result (delivered vector, stats, ...);
  /// nullopt when outcome == Failed.
  std::optional<RouteResult> result;
  /// Total route attempts spent, across every path tried.
  std::size_t attempts = 0;
  /// The path that delivered (or the last one tried on failure).
  RoutePath path{};
  /// Detections seen along the way: the first one for recovered
  /// requests, the last one for failures. Empty for clean deliveries.
  std::optional<fault::FaultReport> report;
};

class ResilientRouter {
 public:
  ResilientRouter(std::size_t n, const ResilientOptions& options = {});
  ~ResilientRouter();

  std::size_t size() const noexcept { return n_; }
  const ResilientOptions& options() const noexcept { return options_; }

  /// Route one assignment down the ladder. Never throws FaultDetected —
  /// detections become retries, fallbacks, and finally a Failed outcome.
  RequestOutcome route(const MulticastAssignment& assignment);

  /// Route a dynamic group (api/group_manager.hpp) down the same
  /// ladder. Every attempt goes through GroupManager::route on this
  /// router's engines, so with a plan cache configured (which opts the
  /// group into its plan slot) a clean repeat replays and a post-churn
  /// route patches incrementally; an attempt whose replay trips the
  /// self-check has already dropped the group's slot for that rung, so
  /// the retry routes cold (faults armed) or recompiles.
  /// Each path routes the group's assignment as of that attempt —
  /// concurrent joins/leaves land on whichever attempt reads them.
  RequestOutcome route_group(GroupId group, GroupManager& groups);

  /// Lifetime counters, mirrored into metrics as fault.detected /
  /// fault.recovered / fault.degraded / fault.gaveup when a registry is
  /// attached.
  std::uint64_t faults_detected() const noexcept { return detected_; }
  std::uint64_t faults_recovered() const noexcept { return recovered_; }
  std::uint64_t degraded_deliveries() const noexcept { return degraded_; }
  std::uint64_t faults_gaveup() const noexcept { return gaveup_; }

  /// The fallback ladder this router walks, primary path first:
  /// {unrolled, feedback}, or {unrolled} without
  /// RetryPolicy::fallback_implementation.
  const std::vector<RoutePath>& ladder() const noexcept { return ladder_; }

  /// Shutdown-aware backoff: wake any ladder currently sleeping in a
  /// retry backoff and skip every subsequent backoff, so tearing down a
  /// cluster of routers is never blocked behind max_backoff. Routing
  /// semantics are otherwise unchanged — in-flight ladders still finish
  /// their attempts (fast, since they no longer sleep). Sticky until
  /// clear_stop(). Safe to call from any thread.
  void request_stop();
  void clear_stop();
  bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_acquire);
  }

 private:
  /// One attempt on one rung: route somehow (cold, replay, patch) and
  /// return the result, throwing fault::FaultDetected on detection.
  using AttemptFn = std::function<RouteResult(const RoutePath&, bool)>;

  /// The retry/fallback walk shared by route() and route_group():
  /// `attempt` is invoked per (path, explain) try and its detections
  /// drive the ladder.
  RequestOutcome run_ladder(const AttemptFn& attempt);
  RequestOutcome route_ladder(const MulticastAssignment& assignment);
  RouteResult route_once(const MulticastAssignment& assignment,
                         const RoutePath& path, bool explain);
  /// The RouteOptions every attempt routes with, on either rung.
  RouteOptions attempt_options(bool explain) const;
  void bump(const char* counter_name, std::uint64_t& local);

  std::size_t n_;
  ResilientOptions options_;
  std::vector<RoutePath> ladder_;
  Brsmn unrolled_;
  std::unique_ptr<FeedbackBrsmn> feedback_;  ///< lazy: first fallback use
  std::uint64_t detected_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t gaveup_ = 0;
  /// Jitter salt: one fresh draw per backoff, across all ladders.
  std::atomic<std::uint64_t> backoff_ordinal_{0};
  /// request_stop wakes sleepers through this cv; the flag is atomic so
  /// the no-backoff fast path never takes the mutex.
  std::atomic<bool> stop_requested_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
};

}  // namespace brsmn::api
