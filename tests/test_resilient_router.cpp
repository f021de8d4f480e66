// The resilient routing front-end: outcome classification, bounded
// retry with backoff, the implementation fallback ladder, fault
// counters, and the no-wrong-delivery guarantee under an exhaustive
// stuck-switch sweep.
#include "api/resilient_router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {
namespace {

MulticastAssignment sweep_assignment(std::size_t n) {
  MulticastAssignment a(n);
  a.connect(0, 0);
  a.connect(0, n - 1);
  a.connect(1, n / 2);
  a.connect(2, 1);
  a.connect(2, 2);
  a.connect(2, 3);
  a.connect(5, n / 2 + 1);
  a.connect(n - 1, n / 4);
  return a;
}

/// A switch-fault site that a plain route provably detects (not masked)
/// for this assignment, found by probing; keeps the recovery tests
/// deterministic without hard-coding tag-dependent geometry.
fault::FaultSpec find_detected_site(std::size_t n,
                                    const MulticastAssignment& assignment) {
  const int m = 4;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          fault::FaultInjector injector(fault::FaultPlan{n, {f}});
          Brsmn net(n);
          RouteOptions options;
          options.faults = &injector;
          try {
            net.route(assignment, options);
          } catch (const fault::FaultDetected&) {
            return f;
          }
        }
      }
    }
  }
  ADD_FAILURE() << "no detectable site found";
  return {};
}

TEST(BackoffForAttempt, GrowsGeometricallyAndSaturates) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds{100};
  policy.backoff_multiplier = 2.0;
  policy.max_backoff = std::chrono::microseconds{350};
  EXPECT_EQ(backoff_for_attempt(policy, 1).count(), 100);
  EXPECT_EQ(backoff_for_attempt(policy, 2).count(), 200);
  EXPECT_EQ(backoff_for_attempt(policy, 3).count(), 350);  // capped
  EXPECT_EQ(backoff_for_attempt(policy, 9).count(), 350);

  RetryPolicy immediate;  // default: no backoff
  EXPECT_EQ(backoff_for_attempt(immediate, 1).count(), 0);
}

TEST(BackoffForAttempt, EdgeCases) {
  // A huge multiplier overflows any double eventually; the cap must hold.
  RetryPolicy explosive;
  explosive.initial_backoff = std::chrono::microseconds{1};
  explosive.backoff_multiplier = 1e100;
  explosive.max_backoff = std::chrono::microseconds{5000};
  EXPECT_EQ(backoff_for_attempt(explosive, 50).count(), 5000);

  // Zero or negative initial backoff means no backoff, ever.
  RetryPolicy zero;
  zero.initial_backoff = std::chrono::microseconds{0};
  EXPECT_EQ(backoff_for_attempt(zero, 7).count(), 0);
  RetryPolicy negative;
  negative.initial_backoff = std::chrono::microseconds{-10};
  EXPECT_EQ(backoff_for_attempt(negative, 1).count(), 0);

  // A cap below the initial backoff clamps from the first retry.
  RetryPolicy clamped;
  clamped.initial_backoff = std::chrono::microseconds{500};
  clamped.max_backoff = std::chrono::microseconds{350};
  EXPECT_EQ(backoff_for_attempt(clamped, 1).count(), 350);
  EXPECT_EQ(backoff_for_attempt(clamped, 4).count(), 350);

  // failures is 1-based; 0 is a caller bug.
  EXPECT_THROW(backoff_for_attempt(RetryPolicy{}, 0), ContractViolation);
}

TEST(BackoffForAttempt, JitterIsBoundedDeterministicAndSaltSensitive) {
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds{1000};
  policy.backoff_multiplier = 1.0;
  policy.jitter = 0.4;
  policy.jitter_seed = test_seed(7);

  bool varied = false;
  for (std::uint64_t salt = 0; salt < 64; ++salt) {
    const auto us = backoff_for_attempt(policy, 1, salt).count();
    // Factor drawn from (1 - jitter, 1]: jitter only ever shrinks, so
    // max_backoff stays a hard ceiling.
    EXPECT_GE(us, 600);
    EXPECT_LE(us, 1000);
    EXPECT_EQ(us, backoff_for_attempt(policy, 1, salt).count())
        << "jitter must be a pure function of (policy, failures, salt)";
    varied = varied || us != backoff_for_attempt(policy, 1, salt + 1).count();
  }
  EXPECT_TRUE(varied) << "distinct salts should draw distinct factors";

  // Distinct seeds draw distinct streams (workers seeded apart spread
  // their retries instead of thundering in lockstep).
  RetryPolicy other = policy;
  other.jitter_seed = policy.jitter_seed + 1;
  bool seed_varied = false;
  for (std::uint64_t salt = 0; salt < 16 && !seed_varied; ++salt) {
    seed_varied = backoff_for_attempt(policy, 1, salt) !=
                  backoff_for_attempt(other, 1, salt);
  }
  EXPECT_TRUE(seed_varied);

  // jitter = 0 keeps the legacy deterministic schedule, salt ignored.
  policy.jitter = 0.0;
  EXPECT_EQ(backoff_for_attempt(policy, 1, 1).count(), 1000);
  EXPECT_EQ(backoff_for_attempt(policy, 1, 2).count(), 1000);
}

TEST(RetryPolicyValidate, RejectsUnsatisfiablePolicies) {
  EXPECT_NO_THROW(validate(RetryPolicy{}));

  RetryPolicy no_attempts;
  no_attempts.max_attempts_per_path = 0;
  EXPECT_THROW(validate(no_attempts), ContractViolation);

  RetryPolicy bad_multiplier;
  bad_multiplier.backoff_multiplier = 0.0;
  EXPECT_THROW(validate(bad_multiplier), ContractViolation);
  bad_multiplier.backoff_multiplier =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(validate(bad_multiplier), ContractViolation);
  bad_multiplier.backoff_multiplier = std::nan("");
  EXPECT_THROW(validate(bad_multiplier), ContractViolation);

  RetryPolicy bad_jitter;
  bad_jitter.jitter = -0.1;
  EXPECT_THROW(validate(bad_jitter), ContractViolation);
  bad_jitter.jitter = 1.5;
  EXPECT_THROW(validate(bad_jitter), ContractViolation);
  bad_jitter.jitter = std::nan("");
  EXPECT_THROW(validate(bad_jitter), ContractViolation);

  RetryPolicy bad_cap;
  bad_cap.max_backoff = std::chrono::microseconds{-1};
  EXPECT_THROW(validate(bad_cap), ContractViolation);

  // The router validates at construction, so a bad policy cannot route.
  ResilientOptions options;
  options.retry.jitter = 2.0;
  EXPECT_THROW(ResilientRouter(16, options), ContractViolation);
}

TEST(ResilientRouter, RequestStopInterruptsBackoffSleep) {
  // An unrecoverable fault under a policy whose full backoff schedule
  // takes seconds: request_stop() must wake the pending sleep and
  // short-circuit the remaining ones, so the route returns quickly
  // (still Failed — stop never invents an outcome).
  const std::size_t n = 16;
  const MulticastAssignment a = sweep_assignment(n);
  fault::FaultSpec f;
  f.kind = fault::FaultKind::DeadLink;
  f.level = 1;
  f.index = 0;

  fault::FaultInjector injector(fault::FaultPlan{n, {f}});
  ResilientOptions options;
  options.faults = &injector;
  options.retry.initial_backoff = std::chrono::milliseconds{1000};
  options.retry.max_backoff = std::chrono::milliseconds{1000};
  ResilientRouter router(n, options);

  const auto start = std::chrono::steady_clock::now();
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    router.request_stop();
  });
  const RequestOutcome out = router.route(a);
  stopper.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(out.outcome, RouteOutcome::Failed);
  // 3 backoffs x 1s uninterrupted; generous margin for slow machines.
  EXPECT_LT(elapsed, std::chrono::milliseconds(1500));
  EXPECT_TRUE(router.stop_requested());

  // clear_stop() re-arms the backoff schedule for reuse after drain.
  router.clear_stop();
  EXPECT_FALSE(router.stop_requested());
}

TEST(ResilientRouter, CleanRouteDeliversOnPrimaryPath) {
  const std::size_t n = 16;
  ResilientRouter router(n);
  const MulticastAssignment a = sweep_assignment(n);
  const RequestOutcome out = router.route(a);
  EXPECT_EQ(out.outcome, RouteOutcome::Delivered);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->delivered, expected_delivery(a));
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_FALSE(out.report.has_value());
  EXPECT_EQ(router.faults_detected(), 0u);
  EXPECT_EQ(router.faults_gaveup(), 0u);
}

TEST(ResilientRouter, LadderShape) {
  ResilientOptions default_opts;
  EXPECT_EQ(ResilientRouter(16, default_opts).ladder(),
            (std::vector<RoutePath>{{false}, {true}}));

  ResilientOptions no_fallback;
  no_fallback.retry.fallback_implementation = false;
  EXPECT_EQ(ResilientRouter(16, no_fallback).ladder(),
            (std::vector<RoutePath>{{false}}));
}

TEST(ResilientRouter, ServiceRoutesRunPacked) {
  // Every rung routes RouteEngine::Packed: a fault scoped to the scalar
  // engine never fires on the service path, one scoped to the packed
  // engine does.
  const std::size_t n = 16;
  const MulticastAssignment a = sweep_assignment(n);
  fault::FaultSpec f = find_detected_site(n, a);

  f.engine = RouteEngine::Scalar;
  fault::FaultInjector scalar_injector(fault::FaultPlan{n, {f}});
  ResilientOptions scalar_opts;
  scalar_opts.faults = &scalar_injector;
  ResilientRouter scalar_scoped(n, scalar_opts);
  const RequestOutcome clean = scalar_scoped.route(a);
  EXPECT_EQ(clean.outcome, RouteOutcome::Delivered);
  EXPECT_EQ(clean.attempts, 1u);
  EXPECT_EQ(scalar_scoped.faults_detected(), 0u);

  f.engine = RouteEngine::Packed;
  fault::FaultInjector packed_injector(fault::FaultPlan{n, {f}});
  ResilientOptions packed_opts;
  packed_opts.faults = &packed_injector;
  ResilientRouter packed_scoped(n, packed_opts);
  const RequestOutcome hit = packed_scoped.route(a);
  EXPECT_GE(packed_scoped.faults_detected(), 1u);
  EXPECT_GE(hit.attempts, 2u);
  if (hit.result.has_value()) {
    EXPECT_EQ(hit.result->delivered, expected_delivery(a));
  }
}

TEST(ResilientRouter, TransientFaultRecoversOnRetry) {
  // A flip active only for route ordinal 0: the first attempt detects,
  // the retry (ordinal 1) routes clean — Delivered on the primary path,
  // with the detection counted and the first report kept.
  const std::size_t n = 16;
  const MulticastAssignment a = sweep_assignment(n);
  fault::FaultSpec f = find_detected_site(n, a);
  f.when = fault::Activation{0, 0};

  fault::FaultInjector injector(fault::FaultPlan{n, {f}});
  obs::MetricRegistry registry;
  ResilientOptions options;
  options.faults = &injector;
  options.metrics = &registry;
  ResilientRouter router(n, options);

  const RequestOutcome out = router.route(a);
  EXPECT_EQ(out.outcome, RouteOutcome::Delivered);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->delivered, expected_delivery(a));
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.path, (RoutePath{false}));
  ASSERT_TRUE(out.report.has_value());
  EXPECT_EQ(router.faults_detected(), 1u);
  EXPECT_EQ(router.faults_recovered(), 1u);
  EXPECT_EQ(router.degraded_deliveries(), 0u);
  EXPECT_EQ(router.faults_gaveup(), 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("fault.detected").value(), 1u);
    EXPECT_EQ(registry.counter("fault.recovered").value(), 1u);
  }
}

TEST(ResilientRouter, ImplScopedFaultDegradesToFeedback) {
  // A permanent stuck fault bound to the unrolled implementation: both
  // unrolled attempts detect, the feedback fallback routes clean —
  // DeliveredDegraded, with recovery and degradation counted.
  const std::size_t n = 16;
  const MulticastAssignment a = sweep_assignment(n);
  fault::FaultSpec f = find_detected_site(n, a);
  f.impl = fault::ImplKind::Unrolled;

  fault::FaultInjector injector(fault::FaultPlan{n, {f}});
  ResilientOptions options;
  options.faults = &injector;
  ResilientRouter router(n, options);

  const RequestOutcome out = router.route(a);
  EXPECT_EQ(out.outcome, RouteOutcome::DeliveredDegraded);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(out.result->delivered, expected_delivery(a));
  EXPECT_EQ(out.attempts, 3u);  // 2 unrolled failures + 1 feedback success
  EXPECT_EQ(out.path, (RoutePath{true}));
  EXPECT_EQ(router.faults_detected(), 2u);
  EXPECT_EQ(router.faults_recovered(), 1u);
  EXPECT_EQ(router.degraded_deliveries(), 1u);
  EXPECT_EQ(router.faults_gaveup(), 0u);
}

TEST(ResilientRouter, UnrecoverableFaultFailsWithReport) {
  // An always-active dead link under an occupied input defeats every
  // path (the line is cut in both implementations and engines): Failed,
  // with the last report carried out and fault.gaveup counted.
  const std::size_t n = 16;
  const MulticastAssignment a = sweep_assignment(n);
  fault::FaultSpec f;
  f.kind = fault::FaultKind::DeadLink;
  f.level = 1;
  f.index = 0;  // input 0 is occupied in sweep_assignment

  fault::FaultInjector injector(fault::FaultPlan{n, {f}});
  ResilientOptions options;
  options.faults = &injector;
  options.retry.initial_backoff = std::chrono::microseconds{1};
  ResilientRouter router(n, options);

  const RequestOutcome out = router.route(a);
  EXPECT_EQ(out.outcome, RouteOutcome::Failed);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_EQ(out.attempts, 4u);  // 2 paths x 2 attempts
  ASSERT_TRUE(out.report.has_value());
  EXPECT_EQ(out.report->at.pass, PassKind::Final);  // delivery oracle
  EXPECT_EQ(router.faults_detected(), 4u);
  EXPECT_EQ(router.faults_gaveup(), 1u);
  EXPECT_EQ(router.faults_recovered(), 0u);

  // The router stays healthy: clear the schedule's window by routing a
  // fresh injector-free request.
  ResilientRouter clean(n);
  EXPECT_EQ(clean.route(a).outcome, RouteOutcome::Delivered);
}

TEST(ResilientRouter, ExhaustiveStuckSweepNeverWrongDelivery) {
  // The PR's acceptance sweep: every switch site at n = 16 held at
  // Cross. For each site the router must either deliver the exact
  // expected vector (masked or recovered) or report Failed — a wrong
  // delivered vector is an immediate failure.
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment a = sweep_assignment(n);
  const auto expected = expected_delivery(a);

  std::size_t delivered = 0, degraded = 0, failed = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          fault::FaultSpec f;
          f.kind = fault::FaultKind::StuckSetting;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          f.stuck = SwitchSetting::Cross;
          fault::FaultInjector injector(fault::FaultPlan{n, {f}});
          ResilientOptions options;
          options.faults = &injector;
          ResilientRouter router(n, options);

          const RequestOutcome out = router.route(a);
          switch (out.outcome) {
            case RouteOutcome::Delivered:
              ++delivered;
              ASSERT_TRUE(out.result.has_value());
              EXPECT_EQ(out.result->delivered, expected);
              break;
            case RouteOutcome::DeliveredDegraded:
              ++degraded;
              ASSERT_TRUE(out.result.has_value());
              EXPECT_EQ(out.result->delivered, expected);
              EXPECT_GE(router.faults_recovered(), 1u);
              break;
            case RouteOutcome::Failed:
              ++failed;
              EXPECT_TRUE(out.report.has_value());
              EXPECT_GE(router.faults_gaveup(), 1u);
              break;
          }
        }
      }
    }
  }
  EXPECT_EQ(delivered + degraded + failed, 144u);
  EXPECT_GT(delivered, 0u);  // masked sites deliver on the primary path
}

TEST(ResilientRouter, OutcomeNames) {
  EXPECT_EQ(outcome_name(RouteOutcome::Delivered), "delivered");
  EXPECT_EQ(outcome_name(RouteOutcome::DeliveredDegraded),
            "delivered-degraded");
  EXPECT_EQ(outcome_name(RouteOutcome::Failed), "failed");
}

TEST(ResilientRouter, RejectsMismatchedSizes) {
  ResilientRouter router(16);
  EXPECT_THROW(router.route(MulticastAssignment(8)), ContractViolation);
  fault::FaultInjector injector(fault::FaultPlan{8, {}});
  ResilientOptions options;
  options.faults = &injector;
  EXPECT_THROW(ResilientRouter(16, options), ContractViolation);
}

}  // namespace
}  // namespace brsmn::api
