// Packed-vs-scalar engine comparison (core/packed_kernel).
//
// Both engines route the same dense-multicast workloads; the scalar
// engine records its phase histograms under scalar.route.* and the
// packed engine under packed.route.*, so one --metrics-out dump carries
// both sides and tools/bench_diff can gate either path (or their ratio)
// against BENCH_baseline.json. See docs/EXPERIMENTS.md for the speedup
// measurement methodology.
//
// Every route also runs under a hardware-counter PhaseProfiler
// (obs/perf_counters.hpp): the run ends with a per-phase cycles/IPC/MPKI
// table attributing where the packed kernel's cycles go. On hosts where
// perf_event_open is denied the table degrades to a single "perf
// counters unavailable" line and the scopes cost one branch each.
//
// --metrics-out=<path> / --trace-out=<path> as in bench_routing_time.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/packed_kernel.hpp"
#include "core/simd_backend.hpp"
#include "obs/export.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/tracer.hpp"

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;   // set when --metrics-out
brsmn::obs::Tracer* g_tracer = nullptr;            // set when --trace-out
brsmn::obs::PhaseProfiler* g_profiler = nullptr;   // owned by main()
/// Separate profiler fed only by the BM_Compile* families below, so the
/// cold-compile phases (scatter / eps_divide / quasisort / datapath) get
/// their own IPC/MPKI attribution instead of pooling with every other
/// family's routes. Exported as perf.compile.* gauges.
brsmn::obs::PhaseProfiler* g_compile_profiler = nullptr;

brsmn::RouteOptions engine_options(brsmn::RouteEngine engine) {
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.profiler = g_profiler;
  options.engine = engine;
  options.metrics_prefix =
      engine == brsmn::RouteEngine::Packed ? "packed.route" : "scalar.route";
  // Drop the previous size's samples so the exported dump describes only
  // the last size this family ran (at the CI filter, n=1024) instead of
  // pooling every Range() arg into one histogram.
  if (g_metrics != nullptr) g_metrics->reset(options.metrics_prefix);
  return options;
}

void route_engine_bench(benchmark::State& state, brsmn::RouteEngine engine) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  const auto options = engine_options(engine);
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_ScalarRoute(benchmark::State& state) {
  route_engine_bench(state, brsmn::RouteEngine::Scalar);
}
BENCHMARK(BM_ScalarRoute)->RangeMultiplier(4)->Range(64, 4096);

void BM_PackedRoute(benchmark::State& state) {
  route_engine_bench(state, brsmn::RouteEngine::Packed);
}
BENCHMARK(BM_PackedRoute)->RangeMultiplier(4)->Range(64, 4096);

// One route family per SIMD backend available on this host, each under
// its own metric family (packed.<backend>.route.*) and each resetting
// exactly its own prefix at the family boundary — so one dump carries a
// clean per-backend histogram set next to the auto-dispatch
// packed.route.* family, and tools/bench_diff can gate any backend's p50
// (the CI floors at n=1024: portable >= 1.2x scalar, and AVX2, where the
// runner has it, >= 2.5x). Registered dynamically from main() because
// the backend set is a runtime property of the host CPU.
void packed_backend_bench(benchmark::State& state,
                          brsmn::simd::Backend backend) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  const std::string prefix =
      std::string("packed.") + brsmn::simd::to_string(backend) + ".route";
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.profiler = g_profiler;
  options.engine = brsmn::RouteEngine::Packed;
  options.simd_backend = backend;
  options.metrics_prefix = prefix;
  if (g_metrics != nullptr) g_metrics->reset(prefix);
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void register_backend_route_benches() {
  for (const brsmn::simd::Backend b : brsmn::simd::available_backends()) {
    const std::string name =
        std::string("BM_PackedBackendRoute_") + brsmn::simd::to_string(b);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [b](benchmark::State& state) { packed_backend_bench(state, b); })
        ->RangeMultiplier(4)
        ->Range(64, 4096);
  }
}

// The cold-compile gate families: the identical workload to
// BM_PackedRoute / BM_PackedBackendRoute (every iteration is a full cold
// compile — configuration sweeps plus datapath), recorded under the
// compile.route.* / compile.<backend>.route.* prefixes and profiled by
// the dedicated compile PhaseProfiler. The separate names let
// BENCH_baseline.json freeze the *pre-refactor* compile cost under
// these families while the packed.*.route.* families track the current
// code — the CI compile gate then proves compile p50 <= 0.7x the frozen
// reference via bench_diff's negative-threshold checks (see
// docs/EXPERIMENTS.md). Per-backend variants are registered from main()
// like the packed backend families.
void compile_route_bench(benchmark::State& state,
                         std::optional<brsmn::simd::Backend> backend) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  const std::string prefix =
      backend.has_value()
          ? std::string("compile.") + brsmn::simd::to_string(*backend) +
                ".route"
          : std::string("compile.route");
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.profiler = g_compile_profiler;
  options.engine = brsmn::RouteEngine::Packed;
  if (backend.has_value()) options.simd_backend = *backend;
  options.metrics_prefix = prefix;
  if (g_metrics != nullptr) g_metrics->reset(prefix);
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["lines_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_CompileRoute(benchmark::State& state) {
  compile_route_bench(state, std::nullopt);
}
BENCHMARK(BM_CompileRoute)->Arg(1024);

void register_backend_compile_benches() {
  for (const brsmn::simd::Backend b : brsmn::simd::available_backends()) {
    const std::string name =
        std::string("BM_CompileBackendRoute_") + brsmn::simd::to_string(b);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [b](benchmark::State& state) { compile_route_bench(state, b); })
        ->Arg(1024);
  }
}

// Same workload as BM_PackedRoute with a FabricHeatmap attached, under
// the packed_heat.route.* prefix: the packed_heat.route/packed.route p50
// ratio measures the cost of live fabric observation (CI gates it at
// 1.10x — see the telemetry-smoke job).
void BM_PackedRouteHeatmap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  // Not engine_options(): that resets the packed.route family this
  // family's ratio gate compares against.
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.profiler = g_profiler;
  options.engine = brsmn::RouteEngine::Packed;
  options.metrics_prefix = "packed_heat.route";
  if (g_metrics != nullptr) g_metrics->reset(options.metrics_prefix);
  brsmn::obs::FabricHeatmap heatmap(n);
  options.heatmap = &heatmap;
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["heatmap_routes"] =
      static_cast<double>(heatmap.routes());
}
BENCHMARK(BM_PackedRouteHeatmap)->RangeMultiplier(4)->Range(64, 4096);

void feedback_engine_bench(benchmark::State& state,
                           brsmn::RouteEngine engine) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::FeedbackBrsmn net(n);
  brsmn::Rng rng(1);
  const auto a = brsmn::random_multicast(n, 0.9, rng);
  // Feedback metrics stay outside the packed.route.*/scalar.route.*
  // histograms the regression gate reads (one engine pair per prefix).
  brsmn::RouteOptions options;
  options.engine = engine;
  options.tracer = g_tracer;
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
}

void BM_ScalarFeedbackRoute(benchmark::State& state) {
  feedback_engine_bench(state, brsmn::RouteEngine::Scalar);
}
BENCHMARK(BM_ScalarFeedbackRoute)->RangeMultiplier(4)->Range(256, 4096);

void BM_PackedFeedbackRoute(benchmark::State& state) {
  feedback_engine_bench(state, brsmn::RouteEngine::Packed);
}
BENCHMARK(BM_PackedFeedbackRoute)->RangeMultiplier(4)->Range(256, 4096);

// The stage primitive in isolation: one masked word-shuffle pass over a
// full tag+code plane set, the unit of work the kernel repeats per stage.
void BM_PackedApplyStage(benchmark::State& state) {
  namespace pk = brsmn::packed;
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t width = 16;  // typical m+1 code planes + 3 tag planes
  pk::PackedLines lines(n, width);
  pk::PackedLines scratch(n, width);
  pk::StageMasks masks;
  masks.resize(pk::words_for(n));
  for (std::size_t w = 0; w < pk::words_for(n); ++w) {
    masks.su[w] = 0x5555555555555555ull;
    masks.sl[w] = 0xaaaaaaaaaaaaaaaaull;
  }
  masks.su[pk::words_for(n) - 1] &= pk::tail_mask(n);
  masks.sl[pk::words_for(n) - 1] &= pk::tail_mask(n);
  for (auto _ : state) {
    pk::apply_stage(lines, scratch, masks, 1);
    benchmark::DoNotOptimize(lines);
  }
  state.counters["line_bits_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n) *
          static_cast<double>(width),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PackedApplyStage)->RangeMultiplier(4)->Range(64, 4096);

// The perfect-shuffle of bit-planes: the Morton interleave underlying
// the topology's inter-stage wiring.
void BM_ShufflePlanes(benchmark::State& state) {
  namespace pk = brsmn::packed;
  const auto n = static_cast<std::size_t>(state.range(0));
  pk::PackedLines lines(n, 16);
  pk::PackedLines out(n, 16);
  for (auto _ : state) {
    pk::shuffle_planes(lines, out);
    pk::unshuffle_planes(out, lines);
    benchmark::DoNotOptimize(lines);
  }
}
BENCHMARK(BM_ShufflePlanes)->RangeMultiplier(4)->Range(64, 4096);

}  // namespace

int main(int argc, char** argv) {
  brsmn::obs::MetricRegistry registry;
  brsmn::obs::Tracer tracer;
  brsmn::obs::PhaseProfiler profiler;
  brsmn::obs::PhaseProfiler compile_profiler;
  const auto metrics_path = brsmn::obs::consume_metrics_out_flag(argc, argv);
  const auto trace_path = brsmn::obs::consume_trace_out_flag(argc, argv);
  if (metrics_path) g_metrics = &registry;
  if (trace_path) g_tracer = &tracer;
  g_profiler = &profiler;
  g_compile_profiler = &compile_profiler;
  const bool dump_to_stdout = brsmn::obs::claims_stdout(metrics_path) ||
                              brsmn::obs::claims_stdout(trace_path);
  std::FILE* report = dump_to_stdout ? stderr : stdout;
  std::fprintf(report,
               "Packed word-parallel kernel vs scalar reference engine.\n"
               "Metric prefixes: scalar.route.* / packed.route.* (auto "
               "dispatch) / packed.<backend>.route.* / compile.route.* / "
               "compile.<backend>.route.* — compare with tools/bench_diff "
               "(docs/EXPERIMENTS.md).\n"
               "SIMD backends on this host:");
  for (const brsmn::simd::Backend b : brsmn::simd::available_backends()) {
    std::fprintf(report, " %s", brsmn::simd::to_string(b));
  }
  std::fprintf(report, " (auto -> %s)\n\n",
               brsmn::simd::to_string(brsmn::simd::ops().kind));
  register_backend_route_benches();
  register_backend_compile_benches();
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
  // Per-phase hardware counters accumulated across every route above;
  // degrades to a single fallback line when perf_event_open is denied.
  std::fprintf(report, "\n%s", profiler.to_table().c_str());
  if (g_metrics != nullptr) profiler.export_gauges(registry, "perf");
  // The compile families' own attribution: where the cold-compile cycles
  // go per phase (the scatter / eps_divide / quasisort configuration
  // sweeps vs the datapath), unpolluted by the other families.
  std::fprintf(report, "\ncold-compile phases (BM_Compile* families):\n%s",
               compile_profiler.to_table().c_str());
  if (g_metrics != nullptr)
    compile_profiler.export_gauges(registry, "perf.compile");
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
