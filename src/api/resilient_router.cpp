#include "api/resilient_router.hpp"

#include <cmath>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "core/placement.hpp"
#include "fault/fault_injector.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace brsmn::api {

std::string_view outcome_name(RouteOutcome outcome) {
  switch (outcome) {
    case RouteOutcome::Delivered: return "delivered";
    case RouteOutcome::DeliveredDegraded: return "delivered-degraded";
    case RouteOutcome::Failed: return "failed";
  }
  return "?";
}

void validate(const RetryPolicy& policy) {
  BRSMN_EXPECTS_MSG(policy.max_attempts_per_path >= 1,
                    "retry policy: max_attempts_per_path must be >= 1");
  BRSMN_EXPECTS_MSG(std::isfinite(policy.backoff_multiplier) &&
                        policy.backoff_multiplier > 0.0,
                    "retry policy: backoff_multiplier must be finite and > 0");
  BRSMN_EXPECTS_MSG(
      std::isfinite(policy.jitter) && policy.jitter >= 0.0 &&
          policy.jitter <= 1.0,
      "retry policy: jitter must be a fraction in [0, 1]");
  BRSMN_EXPECTS_MSG(policy.max_backoff.count() >= 0,
                    "retry policy: max_backoff must be non-negative");
}

std::chrono::microseconds backoff_for_attempt(const RetryPolicy& policy,
                                              std::size_t failures,
                                              std::uint64_t salt) {
  BRSMN_EXPECTS(failures >= 1);
  if (policy.initial_backoff.count() <= 0) return std::chrono::microseconds{0};
  double us = static_cast<double>(policy.initial_backoff.count());
  const double cap = static_cast<double>(policy.max_backoff.count());
  for (std::size_t k = 1; k < failures && us < cap; ++k) {
    us *= policy.backoff_multiplier;
  }
  us = std::min(us, cap);
  if (policy.jitter > 0.0 && us > 0.0) {
    // A pure hash of (seed, salt) mapped to [0, 1): reproducible, no
    // generator state, and independent draws across salts. Jitter only
    // shrinks the backoff, so max_backoff stays a hard ceiling.
    const std::uint64_t h = mix64(policy.jitter_seed ^ mix64(salt));
    const double unit =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
    us *= 1.0 - policy.jitter * unit;
  }
  return std::chrono::microseconds{static_cast<std::int64_t>(us)};
}

namespace {

/// The fallback ladder for `options`, primary path first.
std::vector<RoutePath> build_ladder(const ResilientOptions& options) {
  std::vector<RoutePath> paths{{false}};
  if (options.retry.fallback_implementation) paths.push_back({true});
  return paths;
}

}  // namespace

ResilientRouter::ResilientRouter(std::size_t n,
                                 const ResilientOptions& options)
    : n_(n), options_(options), ladder_(build_ladder(options)), unrolled_(n) {
  validate(options_.retry);
  if (options_.faults != nullptr) {
    BRSMN_EXPECTS_MSG(options_.faults->size() == n,
                      "fault plan width must match the network");
  }
}

void ResilientRouter::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
}

void ResilientRouter::clear_stop() {
  const std::lock_guard<std::mutex> lock(stop_mutex_);
  stop_requested_.store(false, std::memory_order_release);
}

ResilientRouter::~ResilientRouter() = default;

void ResilientRouter::bump(const char* counter_name, std::uint64_t& local) {
  ++local;
  if constexpr (obs::kEnabled) {
    if (options_.metrics != nullptr) {
      options_.metrics->counter(counter_name).add(1);
    }
    if (options_.tracer != nullptr) options_.tracer->instant(counter_name);
  }
}

RouteOptions ResilientRouter::attempt_options(bool explain) const {
  RouteOptions ro;
  ro.engine = RouteEngine::Packed;
  ro.self_check = options_.self_check;
  ro.faults = options_.faults;
  ro.explain = explain;
  ro.metrics = options_.metrics;
  ro.tracer = options_.tracer;
  ro.plan_cache = options_.plan_cache;
  ro.heatmap = options_.heatmap;
  return ro;
}

RouteResult ResilientRouter::route_once(const MulticastAssignment& assignment,
                                        const RoutePath& path, bool explain) {
  const RouteOptions ro = attempt_options(explain);
  if (!path.feedback) return unrolled_.route(assignment, ro);
  if (!feedback_) feedback_ = std::make_unique<FeedbackBrsmn>(n_);
  return feedback_->route(assignment, ro);
}

RequestOutcome ResilientRouter::route_ladder(
    const MulticastAssignment& assignment) {
  return run_ladder([&](const RoutePath& path, bool explain) {
    return route_once(assignment, path, explain);
  });
}

RequestOutcome ResilientRouter::run_ladder(const AttemptFn& attempt) {
  RequestOutcome out;
  const std::vector<RoutePath>& paths = ladder_;
  const std::size_t per_path =
      std::max<std::size_t>(1, options_.retry.max_attempts_per_path);
  std::size_t failures = 0;
  bool saw_fault = false;
  std::optional<fault::FaultReport> last_report;

  for (std::size_t p = 0; p < paths.size(); ++p) {
    out.path = paths[p];
    for (std::size_t a = 0; a < per_path; ++a) {
      if (failures > 0) {
        const auto backoff = backoff_for_attempt(
            options_.retry, failures,
            backoff_ordinal_.fetch_add(1, std::memory_order_relaxed));
        // Shutdown-aware: a request_stop() wakes the wait immediately
        // (and short-circuits future backoffs), so teardown never blocks
        // behind a pending sleep of up to max_backoff.
        if (backoff.count() > 0 &&
            !stop_requested_.load(std::memory_order_acquire)) {
          std::unique_lock<std::mutex> lock(stop_mutex_);
          stop_cv_.wait_for(lock, backoff, [this] {
            return stop_requested_.load(std::memory_order_acquire);
          });
        }
      }
      ++out.attempts;
      try {
        // Explain only once a fault has been seen: provenance grids cost
        // allocation on every pass, and a clean route never reads them.
        RouteResult result = attempt(paths[p], saw_fault);
        out.result = std::move(result);
        if (p == 0 && !saw_fault) {
          out.outcome = RouteOutcome::Delivered;
        } else if (p == 0) {
          out.outcome = RouteOutcome::Delivered;
          bump("fault.recovered", recovered_);
        } else {
          out.outcome = RouteOutcome::DeliveredDegraded;
          bump("fault.recovered", recovered_);
          bump("fault.degraded", degraded_);
        }
        return out;
      } catch (const fault::FaultDetected& e) {
        ++failures;
        bump("fault.detected", detected_);
        if (!out.report.has_value()) out.report = e.report();
        last_report = e.report();
        saw_fault = true;
      }
      // Anything other than FaultDetected (bad assignment, logic error)
      // propagates: retrying cannot help and must not mask it.
    }
  }

  out.outcome = RouteOutcome::Failed;
  out.result.reset();
  if (last_report.has_value()) out.report = std::move(last_report);
  bump("fault.gaveup", gaveup_);
  return out;
}

RequestOutcome ResilientRouter::route(const MulticastAssignment& assignment) {
  BRSMN_EXPECTS_MSG(assignment.size() == n_,
                    "assignment size does not match the network");
  obs::TraceSpan span(options_.tracer, "resilient.route");
  return route_ladder(assignment);
}

RequestOutcome ResilientRouter::route_group(GroupId group,
                                            GroupManager& groups) {
  BRSMN_EXPECTS_MSG(groups.network_size() == n_,
                    "group manager width does not match the network");
  obs::TraceSpan span(options_.tracer, "resilient.route_group");
  return run_ladder([&](const RoutePath& path, bool explain) {
    const RouteOptions ro = attempt_options(explain);
    if (!path.feedback) {
      return std::move(groups.route(group, unrolled_, ro).result);
    }
    if (!feedback_) feedback_ = std::make_unique<FeedbackBrsmn>(n_);
    return std::move(groups.route(group, *feedback_, ro).result);
  });
}

}  // namespace brsmn::api
