// Shard scaling of cluster batch routing (api::Cluster::route_batch):
// independent assignments are placed across shards, each shard routing
// on its own worker thread with a private fabric — the production
// request path, with the plan caches off so every iteration routes.
//
// --metrics-out=<path> attaches a MetricRegistry to the cluster: per-
// request and per-shard latency, the cluster.* outcome counters, and
// per-phase route timings are dumped as JSON after the run.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "api/cluster.hpp"
#include "hw/adder_tree.hpp"
#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;  // set when --metrics-out

std::vector<brsmn::MulticastAssignment> make_batch(std::size_t n,
                                                   std::size_t count) {
  brsmn::Rng rng(77);
  std::vector<brsmn::MulticastAssignment> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(brsmn::random_multicast(n, 0.85, rng));
  }
  return batch;
}

void BM_BatchRouting(benchmark::State& state) {
  const std::size_t n = 512;
  const auto batch = make_batch(n, 32);
  brsmn::api::ClusterConfig config;
  config.shards = static_cast<std::size_t>(state.range(0));
  config.plan_cache = false;
  config.metrics = g_metrics;
  brsmn::api::Cluster cluster(n, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster.route_batch(batch));
  }
  state.counters["assignments/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchRouting)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PipelineAdderTreeCycles(benchmark::State& state) {
  // Wall-clock of the gate-level forward-phase simulation (Fig. 12).
  const auto n = static_cast<std::size_t>(state.range(0));
  const brsmn::hw::PipelinedAdderTree tree(n);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = i % 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.run(keys, 1));
  }
  state.counters["cycles"] =
      static_cast<double>(tree.expected_cycles(1));
  state.counters["gates"] = static_cast<double>(tree.gate_count());
}
BENCHMARK(BM_PipelineAdderTreeCycles)->RangeMultiplier(4)->Range(16, 4096);

}  // namespace

int main(int argc, char** argv) {
  brsmn::obs::MetricRegistry registry;
  const auto metrics_path = brsmn::obs::consume_metrics_out_flag(argc, argv);
  if (metrics_path) g_metrics = &registry;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (brsmn::obs::claims_stdout(metrics_path)) {
    // The `-` dump owns stdout; the console report moves to stderr.
    benchmark::ConsoleReporter console;
    console.SetOutputStream(&std::cerr);
    console.SetErrorStream(&std::cerr);
    benchmark::RunSpecifiedBenchmarks(&console);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (metrics_path) {
    if (!brsmn::obs::try_write_metrics(*metrics_path, registry)) return 1;
    std::fprintf(stderr, "metrics written to %s\n", metrics_path->c_str());
  }
  return 0;
}
