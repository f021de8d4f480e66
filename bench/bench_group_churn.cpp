// Incremental plan patching vs cold compilation under group churn
// (api/group_manager.hpp, core/route_plan.hpp).
//
// BM_GroupChurn applies the same single-member deltas to a broadcast
// base three ways per iteration: group_churn.cold.* compiles the
// post-delta assignment from scratch, group_churn.patch.* patches the
// base plan instead (recompiling only the levels the delta dirtied), and
// group_churn.patched_replay.* replays the variant's patched plan — the
// steady-state serving cost once a delta's plan exists. The three run
// back to back on the same variant, in an order that flips every
// iteration, so the quotients of their p50s see the same stretch of the
// process (clock, cache and co-tenant drift cancel) and neither side of
// a ratio always runs on caches the other just warmed. One --metrics-out
// dump carries all three, so tools/bench_diff can gate the ratios:
//   group_churn.patched_replay.phase.replay_ns/group_churn.cold.phase.total_ns:p50
//   group_churn.patch.phase.total_ns/group_churn.cold.phase.total_ns:p50
// (the CI bounds at n=1024 are 0.5 for a patched plan's replay vs a
// cold compile and 0.8 for the patch construction itself — see
// docs/PERFORMANCE.md). The family also exports
// group_churn.patch.levels_{reused,recompiled} counters, so a gate
// regression can be attributed: a ratio that drifts up with reuse
// intact is a patch-driver slowdown, one with reuse gone is a
// plane-divergence (convergence) regression.
//
// BM_GroupChurnService drives the full registry path: thousands of live
// groups on one GroupManager + PlanCache, a seeded join/leave stream,
// every mutated group routed by id. The group.* / plan_patch.* counter
// families report how the service splits between replays, patches, and
// cold compiles under churn.
//
// --metrics-out=<path> / --trace-out=<path> as in bench_routing_time.
// --telemetry-out=<path|-> samples the registry on a 2 ms interval for
// the whole run and writes the JSONL time series (obs/telemetry.hpp)
// with the service stream's fabric heatmap embedded — pipe through
// tools/telemetry_report. At most one of the three may claim stdout.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/group_manager.hpp"
#include "api/plan_cache.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "obs/export.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/tracer.hpp"

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;  // set when --metrics-out
brsmn::obs::Tracer* g_tracer = nullptr;           // set when --trace-out
brsmn::obs::FabricHeatmap* g_heatmap = nullptr;   // set when --telemetry-out

brsmn::RouteOptions family_options(std::string_view prefix) {
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.engine = brsmn::RouteEngine::Packed;
  options.metrics_prefix = prefix;
  if (g_metrics != nullptr) g_metrics->reset(prefix);
  return options;
}

/// The steady multicast shape churn perturbs: 8 sources broadcasting to
/// all n outputs. High fanout is the regime patching exists for — every
/// source's tag-tree node over 16 or more outputs reads α, so a
/// single-member delta leaves the shallow levels' entry planes untouched
/// and dirties only the deep levels, where the moved output's small
/// blocks change hands.
brsmn::MulticastAssignment churn_base(std::size_t n) {
  return brsmn::broadcast_assignment(n, 8);
}

/// Single-member deltas of the base, cycled by the benchmark loops so
/// successive iterations patch different levels dirty: each variant
/// moves one output to a different source.
std::vector<brsmn::MulticastAssignment> churn_variants(std::size_t n) {
  const brsmn::MulticastAssignment base = churn_base(n);
  std::vector<brsmn::MulticastAssignment> variants;
  brsmn::Rng rng(7);
  for (int v = 0; v < 8; ++v) {
    brsmn::MulticastAssignment a = base;
    const std::size_t dst = rng.uniform(0, n - 1);
    std::size_t old_src = 0;
    for (std::size_t s = 0; s < 8; ++s) {
      const auto& d = a.destinations(s);
      if (std::find(d.begin(), d.end(), dst) != d.end()) {
        old_src = s;
        break;
      }
    }
    a.disconnect(old_src, dst);
    a.connect((old_src + 1 + static_cast<std::size_t>(v)) % 8, dst);
    variants.push_back(std::move(a));
  }
  return variants;
}

// --- one paired family: cold compile, patch and patched replay -----------

void BM_GroupChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  const auto base = churn_base(n);
  const auto variants = churn_variants(n);
  brsmn::RoutePlan base_plan;
  brsmn::planner::compile_route(net, base, {}, base_plan);
  // The replayed plans: every variant patched from the base once up
  // front.
  std::vector<brsmn::RoutePlan> patched(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto outcome = brsmn::planner::patch_route(
        net, variants[v], base_plan, {}, patched[v], {});
    if (!outcome.patched) {
      state.SkipWithError("patch unexpectedly abandoned");
      return;
    }
  }
  const auto cold_options = family_options("group_churn.cold");
  const auto patch_options = family_options("group_churn.patch");
  const auto replay_options = family_options("group_churn.patched_replay");
  brsmn::RoutePlan cold_plan;
  brsmn::RoutePlan patch_plan;
  brsmn::RouteResult out;
  net.route_replay_into(patched[0], {}, out);  // size the workspace
  std::size_t reused = 0;
  std::size_t recompiled = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    // Each variant runs twice in a row, once per order.
    const std::size_t v = (i / 2) % variants.size();
    const bool cold_first = i % 2 == 0;
    ++i;
    const auto cold = [&] {
      auto result = brsmn::planner::compile_route(net, variants[v],
                                                  cold_options, cold_plan);
      benchmark::DoNotOptimize(result);
    };
    const auto replay = [&] {
      net.route_replay_into(patched[v], replay_options, out);
      benchmark::DoNotOptimize(out);
    };
    if (cold_first) {
      cold();
    } else {
      replay();
    }
    const auto outcome = brsmn::planner::patch_route(
        net, variants[v], base_plan, patch_options, patch_plan, {});
    reused += outcome.levels_reused;
    recompiled += outcome.levels_recompiled;
    benchmark::DoNotOptimize(outcome);
    if (cold_first) {
      replay();
    } else {
      cold();
    }
  }
  state.counters["levels_reused_per_patch"] =
      benchmark::Counter(static_cast<double>(reused) /
                         static_cast<double>(state.iterations()));
  if (g_metrics != nullptr) {
    g_metrics->counter("group_churn.patch.levels_reused").add(reused);
    g_metrics->counter("group_churn.patch.levels_recompiled").add(recompiled);
  }
}
BENCHMARK(BM_GroupChurn)->RangeMultiplier(4)->Range(64, 1024);

// --- the live registry under a churn stream -------------------------------

// 2048 live groups on one GroupManager at n=256, opted into planning by
// a PlanCache (each group's plan lives in its own slot). Each iteration
// mutates one group (join or leave) and routes it by id, so the service
// patches the mutated group from its slot, and compiles cold only on a
// group's first route or an abandoned patch.
void BM_GroupChurnService(benchmark::State& state) {
  const std::size_t n = 256;
  const auto group_count = static_cast<brsmn::api::GroupId>(state.range(0));
  brsmn::api::PlanCache cache(brsmn::api::PlanCacheConfig{4096, 8, false});
  brsmn::api::GroupManager groups(n);
  brsmn::Brsmn net(n);
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.engine = brsmn::RouteEngine::Packed;
  options.metrics_prefix = "group_churn.service";
  options.plan_cache = &cache;
  if (g_metrics != nullptr) {
    g_metrics->reset("group_churn.service");
    g_metrics->reset("group");
    g_metrics->reset("plan_patch");
    g_metrics->reset("plan_cache");
    groups.attach_metrics(*g_metrics);
    cache.attach_metrics(*g_metrics);
  }
  if (g_heatmap != nullptr && g_heatmap->size() == n) {
    g_heatmap->reset();  // keep only the last service run's planes
    options.heatmap = g_heatmap;
  }

  // Seed the registry: every group starts as an 8-source broadcast over
  // a group-specific slice of the outputs.
  brsmn::Rng rng(brsmn::test_seed(42));
  for (brsmn::api::GroupId id = 0; id < group_count; ++id) {
    const std::size_t span = 8 + id % 25;
    for (std::size_t c = 0; c < span; ++c) {
      groups.join(id, c % 8, (id * 37 + c) % n);
    }
  }

  brsmn::DestinationLists lists;
  for (auto _ : state) {
    const brsmn::api::GroupId id = rng.uniform(0, group_count - 1);
    const auto snap = groups.snapshot(id);
    snap.assignment.destination_lists(lists);
    // Mutate: move one member if the group is populated, else seed one.
    bool mutated = false;
    for (std::size_t src = 0; src < n && !mutated; ++src) {
      const auto dsts = lists.of(src);
      if (dsts.empty()) continue;
      const std::size_t dst = dsts[rng.uniform(0, dsts.size() - 1)];
      groups.leave(id, src, dst);
      groups.join(id, (src + 1) % 8, dst);
      mutated = true;
    }
    if (!mutated) groups.join(id, 0, rng.uniform(0, n - 1));
    auto report = groups.route(id, net, options);
    benchmark::DoNotOptimize(report);
  }

  state.counters["patched"] =
      benchmark::Counter(static_cast<double>(groups.plans_patched()));
  state.counters["compiled"] =
      benchmark::Counter(static_cast<double>(groups.plans_compiled()));
  state.counters["abandoned"] =
      benchmark::Counter(static_cast<double>(groups.patches_abandoned()));
  state.counters["patched_per_route"] = benchmark::Counter(
      static_cast<double>(groups.plans_patched()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GroupChurnService)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  brsmn::obs::MetricRegistry registry;
  brsmn::obs::Tracer tracer;
  const auto metrics_path = brsmn::obs::consume_metrics_out_flag(argc, argv);
  const auto trace_path = brsmn::obs::consume_trace_out_flag(argc, argv);
  const auto telemetry_path =
      brsmn::obs::consume_telemetry_out_flag(argc, argv);
  if (!brsmn::obs::stdout_claims_exclusive(
          {{"--metrics-out", &metrics_path},
           {"--trace-out", &trace_path},
           {"--telemetry-out", &telemetry_path}})) {
    return 2;
  }
  if (metrics_path || telemetry_path) g_metrics = &registry;
  if (trace_path) g_tracer = &tracer;

  // The sampler covers the whole run; the heatmap is attached by the
  // n=256 service stream (the family the telemetry gates in CI).
  std::optional<brsmn::obs::FabricHeatmap> heatmap;
  std::optional<brsmn::obs::TelemetrySampler> sampler;
  if (telemetry_path) {
    heatmap.emplace(256);
    g_heatmap = &*heatmap;
    brsmn::obs::TelemetryConfig config;
    config.interval = std::chrono::milliseconds(2);
    config.source = "bench_group_churn";
    config.routes_counter = "group.routes";
    config.hits_counter = "plan_cache.hits";
    config.misses_counter = "plan_cache.misses";
    config.patched_counter = "plan_patch.patched";
    config.patch_base_counter = "group.routes";
    config.backlog_gauge = "group.live";
    sampler.emplace(registry, config);
    sampler->set_heatmap(g_heatmap);
    sampler->start();
  }

  const bool dump_to_stdout = brsmn::obs::claims_stdout(metrics_path) ||
                              brsmn::obs::claims_stdout(trace_path) ||
                              brsmn::obs::claims_stdout(telemetry_path);
  std::FILE* report = dump_to_stdout ? stderr : stdout;
  std::fprintf(report,
               "Incremental plan patching vs cold compilation under group "
               "churn.\nMetric prefixes: group_churn.cold.* / "
               "group_churn.patch.* / group.* / plan_patch.* — gate the "
               "patched/cold ratio with tools/bench_diff "
               "(docs/PERFORMANCE.md).\n\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (dump_to_stdout) {
    benchmark::ConsoleReporter console;
    console.SetOutputStream(&std::cerr);
    console.SetErrorStream(&std::cerr);
    benchmark::RunSpecifiedBenchmarks(&console);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  if (sampler) {
    sampler->stop();
    if (!sampler->write(*telemetry_path)) return 1;
    std::fprintf(stderr, "telemetry written to %s (%llu samples)\n",
                 telemetry_path->c_str(),
                 static_cast<unsigned long long>(sampler->samples()));
  }
  if (metrics_path) {
    if (!brsmn::obs::try_write_metrics(*metrics_path, registry)) return 1;
    std::fprintf(stderr, "metrics written to %s\n", metrics_path->c_str());
  }
  if (trace_path) {
    if (!brsmn::obs::try_write_trace(*trace_path, tracer)) return 1;
    std::fprintf(stderr, "trace written to %s\n", trace_path->c_str());
  }
  return 0;
}
