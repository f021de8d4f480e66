// Cold route vs warm replay of the plans the plan cache holds
// (core/route_plan.hpp, api/plan_cache.hpp).
//
// The cold families route a fixed dense multicast from scratch through
// the packed engine (cold.route.* / cold.feedback.* metric prefixes);
// the warm families replay the compiled plan of the same assignment
// (warm.route.* / warm.feedback.*), so one --metrics-out dump carries
// the pair and tools/bench_diff can gate the warm/cold ratio, e.g.
//   warm.route.phase.replay_ns/cold.route.phase.total_ns:p50
// (the CI bound is 0.33 at n=1024 — see docs/PERFORMANCE.md). The warm
// families also count heap allocations across steady-state replays into
// the warm.*.replay_allocs counters, giving CI its alloc-count=0 gate.
//
// Each family resets its own metric prefix at benchmark entry
// (MetricRegistry::reset(prefix)), so the exported histograms describe
// exactly the last size the family ran — at the CI filter that is
// n=1024 — instead of pooling every size.
//
// --metrics-out=<path> / --trace-out=<path> as in bench_routing_time.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

// --- allocation counter ---------------------------------------------------
//
// Counting global operator new, as in tests/test_route_plan.cpp: the
// warm benches measure the allocation count of steady-state replays and
// export it for the CI zero-allocation gate.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

brsmn::obs::MetricRegistry* g_metrics = nullptr;  // set when --metrics-out
brsmn::obs::Tracer* g_tracer = nullptr;           // set when --trace-out

brsmn::RouteOptions family_options(std::string_view prefix) {
  brsmn::RouteOptions options;
  options.metrics = g_metrics;
  options.tracer = g_tracer;
  options.engine = brsmn::RouteEngine::Packed;
  options.metrics_prefix = prefix;
  if (g_metrics != nullptr) g_metrics->reset(prefix);
  return options;
}

brsmn::MulticastAssignment bench_assignment(std::size_t n) {
  brsmn::Rng rng(1);
  return brsmn::random_multicast(n, 0.9, rng);
}

/// Measure the heap-allocation count of one steady-state replay
/// (uninstrumented options — attaching a registry allocates histogram
/// names by design) and export it as <prefix>.replay_allocs.
template <typename Net>
void export_replay_allocs(Net& net, const brsmn::RoutePlan& plan,
                          std::string_view prefix) {
  if (g_metrics == nullptr) return;
  const brsmn::RouteOptions plain;
  brsmn::RouteResult out;
  net.route_replay_into(plan, plain, out);  // warm the workspace
  net.route_replay_into(plan, plain, out);
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) net.route_replay_into(plan, plain, out);
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  g_metrics->counter(std::string(prefix) + ".replay_allocs").add(allocs);
}

// --- unrolled network -----------------------------------------------------

void BM_ColdUnrolledRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  const auto a = bench_assignment(n);
  const auto options = family_options("cold.route");
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ColdUnrolledRoute)->RangeMultiplier(4)->Range(64, 1024);

void BM_WarmUnrolledReplay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::Brsmn net(n);
  const auto a = bench_assignment(n);
  brsmn::RoutePlan plan;
  brsmn::planner::compile_route(net, a, {}, plan);
  const auto options = family_options("warm.route");
  brsmn::RouteResult out;
  for (auto _ : state) {
    net.route_replay_into(plan, options, out);
    benchmark::DoNotOptimize(out);
  }
  export_replay_allocs(net, plan, "warm.route");
}
BENCHMARK(BM_WarmUnrolledReplay)->RangeMultiplier(4)->Range(64, 1024);

// --- feedback network -----------------------------------------------------

void BM_ColdFeedbackRoute(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::FeedbackBrsmn net(n);
  const auto a = bench_assignment(n);
  const auto options = family_options("cold.feedback");
  for (auto _ : state) {
    auto result = net.route(a, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ColdFeedbackRoute)->RangeMultiplier(4)->Range(64, 1024);

void BM_WarmFeedbackReplay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  brsmn::FeedbackBrsmn net(n);
  const auto a = bench_assignment(n);
  brsmn::RoutePlan plan;
  brsmn::planner::compile_route(net, a, {}, plan);
  const auto options = family_options("warm.feedback");
  brsmn::RouteResult out;
  for (auto _ : state) {
    net.route_replay_into(plan, options, out);
    benchmark::DoNotOptimize(out);
  }
  export_replay_allocs(net, plan, "warm.feedback");
}
BENCHMARK(BM_WarmFeedbackReplay)->RangeMultiplier(4)->Range(64, 1024);

}  // namespace

int main(int argc, char** argv) {
  brsmn::obs::MetricRegistry registry;
  brsmn::obs::Tracer tracer;
  const auto metrics_path = brsmn::obs::consume_metrics_out_flag(argc, argv);
  const auto trace_path = brsmn::obs::consume_trace_out_flag(argc, argv);
  if (metrics_path) g_metrics = &registry;
  if (trace_path) g_tracer = &tracer;
  const bool dump_to_stdout = brsmn::obs::claims_stdout(metrics_path) ||
                              brsmn::obs::claims_stdout(trace_path);
  std::FILE* report = dump_to_stdout ? stderr : stdout;
  std::fprintf(report,
               "Cold route vs warm plan replay.\n"
               "Metric prefixes: cold.route.* / warm.route.* / "
               "cold.feedback.* / warm.feedback.* — gate the warm/cold "
               "ratio with tools/bench_diff (docs/PERFORMANCE.md).\n\n");
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
