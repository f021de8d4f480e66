// N-1 chaos gate for the sharded cluster (api/cluster.hpp): sustain a
// seeded multicast workload across F fabric replicas, then kill exactly
// one replica mid-run and prove the cluster's delivery contract held —
// every request Delivered, DeliveredDegraded, or *explicitly* Failed
// (zero misdeliveries, verified against core expected_delivery), the
// dead shard quarantined and, after revival, re-admitted through canary
// probation — while the end-to-end p99 stays within a bounded factor of
// the all-healthy baseline.
//
// Two phases share one registry under distinct prefixes:
//   cluster_healthy.*  — phase A, every shard serving
//   cluster_n1.*       — phase B, one shard killed at ~1/4 of the run
//                        and revived at ~5/8
// so one --metrics-out dump carries both request_ns histograms. CI's
// cluster-chaos-smoke job synthesizes a baseline document in which
// cluster_n1.request_ns is *replaced by* the healthy histogram, then
// gates `bench_diff --check=cluster_n1.request_ns:p99@1.0` — i.e. the
// N-1 p99 may be at most 2.0x the all-healthy p99, measured in the same
// run on the same machine (self-normalizing against runner noise).
//
// Not a google-benchmark binary: the phases are a scripted narrative,
// not a timed kernel. --benchmark_* flags (CI smoke-runs every bench
// with --benchmark_min_time) are accepted and ignored.
//
//   bench_cluster_chaos [--metrics-out=<path>] [--telemetry-out=<path|->]
//                       [--ports=32] [--shards=4] [--workers=1]
//                       [--requests=1280]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "api/cluster.hpp"
#include "common/rng.hpp"
#include "core/multicast_assignment.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace brsmn;

std::size_t flag_or(std::optional<std::string> value, std::size_t fallback) {
  if (!value) return fallback;
  const unsigned long parsed = std::strtoul(value->c_str(), nullptr, 10);
  return parsed == 0 ? fallback : static_cast<std::size_t>(parsed);
}

/// A small pool of distinct assignments cycled through the run, so each
/// shard's plan cache warms and stays hot (placement pins repeats).
std::vector<MulticastAssignment> make_workload(std::size_t n,
                                               std::size_t distinct) {
  Rng rng(2026);
  std::vector<MulticastAssignment> pool;
  pool.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    pool.push_back(random_multicast(n, 0.6, rng));
  }
  return pool;
}

struct PhaseReport {
  std::size_t delivered = 0;
  std::size_t delivered_degraded = 0;
  std::size_t failed = 0;
  std::size_t rerouted = 0;
  std::size_t canaries = 0;
  std::size_t failed_off_dead_shard = 0;
};

/// Drive `requests` submissions through `cluster` in bounded flights,
/// polling the control plane between flights (probe_interval is zero, so
/// health transitions happen exactly here — deterministic for a given
/// outcome sequence). kill_at/revive_at of SIZE_MAX never fire.
PhaseReport run_phase(api::Cluster& cluster,
                      const std::vector<MulticastAssignment>& pool,
                      std::size_t requests, std::size_t kill_at,
                      std::size_t revive_at, std::size_t dead_shard) {
  // Small flights keep the request_ns p99 robust against scheduler
  // noise: one OS preemption delays every request in flight, so a
  // flight must stay well under 1% of the phase's samples or a single
  // stall can poison the whole p99 tail region and flake the CI gate.
  constexpr std::size_t kFlight = 8;
  PhaseReport report;
  std::vector<std::future<api::ClusterOutcome>> flight;
  flight.reserve(kFlight);
  std::size_t issued = 0;
  while (issued < requests) {
    if (issued >= kill_at && kill_at != static_cast<std::size_t>(-1)) {
      cluster.kill_shard(dead_shard);
      kill_at = static_cast<std::size_t>(-1);
    }
    if (issued >= revive_at && revive_at != static_cast<std::size_t>(-1)) {
      cluster.revive_shard(dead_shard);
      revive_at = static_cast<std::size_t>(-1);
    }
    const std::size_t batch = std::min(kFlight, requests - issued);
    for (std::size_t i = 0; i < batch; ++i) {
      flight.push_back(cluster.submit(pool[(issued + i) % pool.size()]));
    }
    issued += batch;
    for (auto& f : flight) {
      const api::ClusterOutcome out = f.get();
      switch (out.request.outcome) {
        case api::RouteOutcome::Delivered: ++report.delivered; break;
        case api::RouteOutcome::DeliveredDegraded:
          ++report.delivered_degraded;
          break;
        case api::RouteOutcome::Failed:
          ++report.failed;
          if (out.shard != dead_shard) ++report.failed_off_dead_shard;
          break;
      }
      report.rerouted += out.rerouted ? 1 : 0;
      report.canaries += out.canary ? 1 : 0;
    }
    flight.clear();
    cluster.poll_health();
  }
  return report;
}

bool check(bool ok, const char* what, std::FILE* report) {
  std::fprintf(report, "  %-52s %s\n", what, ok ? "OK" : "FAILED");
  return ok;
}

/// Warm a phase's engines, caches and allocator pools, then clear that
/// phase's metric family so the measured request_ns histograms carry no
/// cold-start tail — the p99 gate compares steady states.
void warmup(api::Cluster& cluster, obs::MetricRegistry& registry,
            const std::vector<MulticastAssignment>& pool,
            const std::string& prefix) {
  std::vector<std::future<api::ClusterOutcome>> flight;
  for (std::size_t i = 0; i < 128; ++i) {
    flight.push_back(cluster.submit(pool[i % pool.size()]));
    if (flight.size() == 16) {
      for (auto& f : flight) f.get();
      flight.clear();
    }
  }
  for (auto& f : flight) f.get();
  registry.reset(prefix);
}

}  // namespace

int main(int argc, char** argv) {
  const auto metrics_path = obs::consume_metrics_out_flag(argc, argv);
  const auto telemetry_path = obs::consume_telemetry_out_flag(argc, argv);
  const std::size_t ports =
      flag_or(obs::consume_value_flag(argc, argv, "--ports="), 32);
  const std::size_t shards =
      flag_or(obs::consume_value_flag(argc, argv, "--shards="), 4);
  const std::size_t workers =
      flag_or(obs::consume_value_flag(argc, argv, "--workers="), 1);
  const std::size_t requests =
      flag_or(obs::consume_value_flag(argc, argv, "--requests="), 1280);
  // CI smoke-runs every bench binary with --benchmark_* flags; this one
  // has no kernels to time, so they are consumed and ignored.
  for (int i = 1; i < argc;) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      for (int j = i; j < argc - 1; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  if (argc > 1) {
    std::fprintf(stderr,
                 "unrecognized argument: %s\n"
                 "usage: bench_cluster_chaos [--metrics-out=<path>] "
                 "[--telemetry-out=<path|->] [--ports=N] [--shards=N] "
                 "[--workers=N] [--requests=N]\n",
                 argv[1]);
    return 2;
  }
  if (!obs::stdout_claims_exclusive({{"--metrics-out", &metrics_path},
                                     {"--telemetry-out", &telemetry_path}})) {
    return 2;
  }
  std::FILE* report =
      obs::claims_stdout(metrics_path) || obs::claims_stdout(telemetry_path)
          ? stderr
          : stdout;

  obs::MetricRegistry registry;
  const std::vector<MulticastAssignment> pool = make_workload(ports, 64);

  api::ClusterConfig config;
  config.shards = shards;
  config.workers_per_shard = workers;
  config.retry.jitter = 0.2;
  config.seed = 2026;
  config.verify_delivery = true;
  config.metrics = &registry;
  config.health.window = 32;
  config.health.min_observations = 8;
  config.health.quarantine_failure_rate = 0.5;
  config.health.probation_successes = 4;
  config.health.canary_interval = 4;

  std::fprintf(report,
               "cluster chaos: %zu ports, %zu shards x %zu workers, "
               "%zu requests per phase\n",
               ports, shards, workers, requests);

  // Phase A: all shards healthy — the p99 baseline.
  config.metrics_prefix = "cluster_healthy";
  {
    api::Cluster cluster(ports, config);
    warmup(cluster, registry, pool, config.metrics_prefix);
    const PhaseReport a = run_phase(cluster, pool, requests,
                                    static_cast<std::size_t>(-1),
                                    static_cast<std::size_t>(-1), 0);
    cluster.stop();
    std::fprintf(report,
                 "phase A (healthy): %zu delivered, %zu degraded, %zu "
                 "failed\n",
                 a.delivered, a.delivered_degraded, a.failed);
  }

  // Phase B: kill one shard at 1/4 of the run, revive at 5/8 — pure
  // replica *loss*, the phase the p99 gate compares against phase A. The
  // dead shard fails its queued share until the control plane
  // quarantines it; placement then walks every affected key to its
  // deterministic secondary, and post-revival canaries earn the shard
  // back in.
  config.metrics_prefix = "cluster_n1";
  config.heatmap = true;
  const std::size_t dead_shard = shards - 1;
  std::optional<obs::TelemetrySampler> sampler;
  if (telemetry_path) {
    obs::TelemetryConfig tcfg;
    tcfg.interval = std::chrono::milliseconds(2);
    tcfg.source = "bench_cluster_chaos";
    tcfg.routes_counter = "cluster_n1.submitted";
    tcfg.detected_counter = "fault.detected";
    tcfg.degraded_counter = "cluster_n1.delivered_degraded";
    tcfg.degraded_base_counter = "cluster_n1.submitted";
    sampler.emplace(registry, tcfg);
    sampler->start();
  }

  api::Cluster cluster(ports, config);
  warmup(cluster, registry, pool, config.metrics_prefix);
  const PhaseReport b =
      run_phase(cluster, pool, requests, requests / 4, requests * 5 / 8,
                dead_shard);
  // Post-revival settle: drive canaries until probation completes.
  std::size_t settle = 0;
  while (cluster.shard_state(dead_shard) != api::ShardState::Healthy &&
         settle < requests) {
    std::vector<std::future<api::ClusterOutcome>> flight;
    for (std::size_t i = 0; i < 16; ++i) {
      flight.push_back(cluster.submit(pool[(settle + i) % pool.size()]));
    }
    for (auto& f : flight) f.get();
    settle += 16;
    cluster.poll_health();
  }
  cluster.stop();
  std::fprintf(report,
               "phase B (N-1): %zu delivered, %zu degraded, %zu failed "
               "(%zu rerouted, %zu canaries)\n",
               b.delivered, b.delivered_degraded, b.failed, b.rerouted,
               b.canaries);

  // Phase C: one replica *corrupted*, not dead — a periodic transient
  // flip in shard 0's fabric trips the online self-check and the
  // per-shard retry ladder absorbs it. Detections and recoveries on one
  // replica, total silence on its peers, zero failed requests; not part
  // of the p99 gate (a corrupted shard routes cold, which is its own
  // degradation story, visible in cluster_corrupt.shard.0.route_ns).
  const std::uint64_t detected_before =
      registry.counter("fault.detected").value();
  std::size_t corrupt_failed = 0;
  std::uint64_t corrupt_misdelivered = 0;
  {
    api::ClusterConfig corrupt = config;
    corrupt.metrics_prefix = "cluster_corrupt";
    corrupt.heatmap = false;
    fault::FaultPlan flaky_plan;
    flaky_plan.n = ports;
    fault::FaultSpec flip;
    flip.kind = fault::FaultKind::TransientFlip;
    flip.level = 1;
    flip.pass = PassKind::Scatter;
    flip.stage = 1;
    flip.index = 2;
    flip.when = fault::Activation{0, UINT64_MAX, 7};
    flaky_plan.faults.push_back(flip);
    fault::FaultInjector flaky(flaky_plan);
    corrupt.shard_faults = {&flaky};
    api::Cluster corrupted(ports, corrupt);
    const PhaseReport c = run_phase(corrupted, pool, requests / 2,
                                    static_cast<std::size_t>(-1),
                                    static_cast<std::size_t>(-1), shards);
    corrupted.stop();
    corrupt_failed = c.failed;
    corrupt_misdelivered = corrupted.totals().misdelivered;
    std::fprintf(report,
                 "phase C (corrupt): %zu delivered, %zu degraded, %zu "
                 "failed\n",
                 c.delivered, c.delivered_degraded, c.failed);
  }
  const std::uint64_t detections =
      registry.counter("fault.detected").value() - detected_before;

  if (sampler) {
    sampler->stop();
    sampler->set_heatmap(&cluster.heatmap());
  }

  const api::ClusterTotals t = cluster.totals();
  const api::ShardStatus dead = cluster.shard_status(dead_shard);
  std::fprintf(report,
               "dead shard %zu: %llu quarantines, %llu readmissions, "
               "state %s\n",
               dead_shard,
               static_cast<unsigned long long>(dead.quarantines),
               static_cast<unsigned long long>(dead.readmissions),
               std::string(api::shard_state_name(dead.state)).c_str());

  bool ok = true;
  ok &= check(t.submitted == t.completed + t.rejected,
              "conservation: submitted == completed + rejected", report);
  ok &= check(t.misdelivered == 0, "zero misdeliveries (verified)", report);
  ok &= check(b.failed_off_dead_shard == 0,
              "failures confined to the killed shard", report);
  ok &= check(t.quarantines >= 1, "dead shard was quarantined", report);
  ok &= check(t.readmissions >= 1, "revived shard was readmitted", report);
  ok &= check(t.rerouted >= 1, "placement rerouted around quarantine",
              report);
  ok &= check(detections >= 1, "corrupted shard tripped the self-check",
              report);
  ok &= check(corrupt_failed == 0 && corrupt_misdelivered == 0,
              "corruption fully absorbed by the retry ladder", report);

  if (sampler && !sampler->write(*telemetry_path)) return 1;
  if (metrics_path && !obs::try_write_metrics(*metrics_path, registry)) {
    return 1;
  }
  std::fprintf(report, "cluster chaos gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
