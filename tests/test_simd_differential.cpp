// Cross-backend differential test of the runtime-dispatched SIMD layer
// (core/simd_backend.hpp): every backend compiled into this binary and
// runnable on this host must be bit-identical to every other — primitive
// word loops, whole routes (outputs, stats, fabric grids, explanations,
// heatmaps), compiled-plan internals (masks, events, checkpoints), plan
// replay across backends (compile under A, replay under B with the
// self-check comparing every datapath checkpoint), incremental patches,
// and fault-injection outcomes. On a host with only the portable
// fallback the pair set degenerates to {(Portable, Portable)} and the
// suite still proves the fallback against the scalar reference engine.
#include "core/simd_backend.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "core/packed_kernel.hpp"
#include "core/route_plan.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_report.hpp"
#include "obs/fabric_heatmap.hpp"

namespace brsmn {
namespace {

namespace pk = packed;

std::vector<simd::Backend> backends() { return simd::available_backends(); }

std::string backend_tag(simd::Backend b) { return simd::to_string(b); }

// --- dispatch layer --------------------------------------------------------

TEST(SimdDispatch, PortableIsAlwaysCompiledAndAvailable) {
  EXPECT_TRUE(simd::compiled(simd::Backend::Portable));
  EXPECT_TRUE(simd::available(simd::Backend::Portable));
  const auto avail = backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), simd::Backend::Portable);
}

TEST(SimdDispatch, AvailableBackendsResolveToThemselves) {
  for (const simd::Backend b : backends()) {
    const simd::SimdOps& o = simd::ops(b);
    EXPECT_EQ(o.kind, b) << backend_tag(b);
    EXPECT_STREQ(o.name, simd::to_string(b));
    EXPECT_NE(o.stage_shift, nullptr);
    EXPECT_NE(o.stage_offset, nullptr);
    EXPECT_NE(o.census_split, nullptr);
    EXPECT_NE(o.or_andnot, nullptr);
    EXPECT_NE(o.count_cascade, nullptr);
    EXPECT_NE(o.tag_pack, nullptr);
    EXPECT_NE(o.tag_unpack, nullptr);
    EXPECT_NE(o.pair_sum_u32, nullptr);
  }
}

TEST(SimdDispatch, UnavailableRequestsDegradeToPortable) {
  for (const simd::Backend b : {simd::Backend::Portable, simd::Backend::Avx2}) {
    const simd::Backend expected =
        simd::available(b) ? b : simd::Backend::Portable;
    EXPECT_EQ(simd::ops(b).kind, expected) << backend_tag(b);
  }
}

TEST(SimdDispatch, AutoResolvesToAnAvailableBackend) {
  const simd::SimdOps& o = simd::ops(simd::Backend::Auto);
  EXPECT_NE(o.kind, simd::Backend::Auto);
  EXPECT_TRUE(simd::available(o.kind)) << backend_tag(o.kind);
}

TEST(SimdDispatch, ParseRoundTripsEveryBackendName) {
  for (const simd::Backend b :
       {simd::Backend::Auto, simd::Backend::Portable, simd::Backend::Avx2}) {
    const auto parsed = simd::parse(simd::to_string(b));
    ASSERT_TRUE(parsed.has_value()) << backend_tag(b);
    EXPECT_EQ(*parsed, b);
  }
  EXPECT_EQ(simd::parse("swar"), simd::Backend::Portable);
  EXPECT_EQ(simd::parse("scalar-words"), simd::Backend::Portable);
  EXPECT_FALSE(simd::parse("sse9").has_value());
  EXPECT_FALSE(simd::parse("").has_value());
}

TEST(SimdDispatch, ForcedEnvironmentOverrideIsHonored) {
  // In the CI forced-backend legs BRSMN_FORCE_BACKEND pins the Auto
  // resolution; this test proves the pin actually takes effect in the
  // very process the suite runs in. Without the variable, forced() must
  // report no override.
  const char* env = std::getenv("BRSMN_FORCE_BACKEND");
  if (env == nullptr) {
    EXPECT_EQ(simd::forced(), simd::Backend::Auto);
    GTEST_SKIP() << "BRSMN_FORCE_BACKEND not set";
  }
  const auto requested = simd::parse(env);
  if (!requested || !simd::available(*requested)) {
    // Invalid/unavailable values are warned about and ignored. Skip
    // rather than pass: the forced backend never ran in this process.
    EXPECT_EQ(simd::forced(), simd::Backend::Auto);
    GTEST_SKIP() << "BRSMN_FORCE_BACKEND='" << env
                 << "' is not a backend available on this host";
  }
  if (*requested == simd::Backend::Auto) {
    EXPECT_EQ(simd::forced(), simd::Backend::Auto);
    return;
  }
  EXPECT_EQ(simd::forced(), *requested);
  EXPECT_EQ(simd::ops(simd::Backend::Auto).kind, *requested);
}

// --- primitive word-loop differential --------------------------------------
//
// Drive each backend's raw op table against the portable reference on
// random planes: same words in, same words out, for every plane count,
// stride, shift distance and word offset the kernel can produce.

pk::Words random_words(std::size_t count, Rng& rng) {
  pk::Words w(count);
  for (auto& x : w) {
    x = (static_cast<std::uint64_t>(rng.uniform(0, 0xffffffffu)) << 32) |
        rng.uniform(0, 0xffffffffu);
  }
  return w;
}

/// Random mask pair with pads (words beyond `wpl` in each stride block)
/// forced to zero, matching the production invariant.
void random_masks(pk::Words& su, pk::Words& sl, std::size_t stride,
                  std::size_t wpl, Rng& rng) {
  su = random_words(stride, rng);
  sl = random_words(stride, rng);
  for (std::size_t w = wpl; w < stride; ++w) su[w] = sl[w] = 0;
  // su and sl select disjoint switch roles in production; keep them
  // disjoint here so the formula's term structure matches real use.
  for (std::size_t w = 0; w < stride; ++w) sl[w] &= ~su[w];
}

TEST(SimdPrimitives, StageShiftMatchesPortableForAllDistances) {
  const simd::SimdOps& ref = simd::ops(simd::Backend::Portable);
  Rng rng(test_seed(9100));
  for (const std::size_t planes : {1u, 3u, 8u, 13u}) {
    for (const std::size_t wpl : {1u, 2u, 5u, 8u}) {
      const std::size_t stride =
          (wpl + simd::kPlaneStrideWords - 1) / simd::kPlaneStrideWords *
          simd::kPlaneStrideWords;
      pk::Words in = random_words(planes * stride, rng);
      // Zero the pads of every plane: production state keeps them zero.
      for (std::size_t p = 0; p < planes; ++p) {
        for (std::size_t w = wpl; w < stride; ++w) in[p * stride + w] = 0;
      }
      pk::Words su, sl;
      random_masks(su, sl, stride, wpl, rng);
      for (const unsigned d : {1u, 2u, 4u, 8u, 16u, 32u}) {
        pk::Words expect(planes * stride, 0xdeadbeefULL);
        ref.stage_shift(in.data(), expect.data(), su.data(), sl.data(),
                        planes, stride, d);
        for (const simd::Backend b : backends()) {
          pk::Words got(planes * stride, 0x12345678ULL);
          simd::ops(b).stage_shift(in.data(), got.data(), su.data(),
                                   sl.data(), planes, stride, d);
          EXPECT_EQ(got, expect) << backend_tag(b) << " planes=" << planes
                                 << " wpl=" << wpl << " d=" << d;
        }
      }
    }
  }
}

TEST(SimdPrimitives, StageOffsetMatchesPortableForAllOffsets) {
  const simd::SimdOps& ref = simd::ops(simd::Backend::Portable);
  Rng rng(test_seed(9200));
  for (const std::size_t planes : {1u, 4u, 11u}) {
    // wpl is always a power of two >= 2 when the offset variant runs
    // (pair distance >= 64 implies n >= 128).
    for (const std::size_t wpl : {2u, 4u, 8u, 16u}) {
      const std::size_t stride =
          (wpl + simd::kPlaneStrideWords - 1) / simd::kPlaneStrideWords *
          simd::kPlaneStrideWords;
      pk::Words in = random_words(planes * stride, rng);
      for (std::size_t p = 0; p < planes; ++p) {
        for (std::size_t w = wpl; w < stride; ++w) in[p * stride + w] = 0;
      }
      pk::Words su, sl;
      random_masks(su, sl, stride, wpl, rng);
      for (std::size_t offset = 1; offset <= wpl / 2; offset *= 2) {
        pk::Words expect = in;  // pads must pass through untouched
        ref.stage_offset(in.data(), expect.data(), su.data(), sl.data(),
                         planes, stride, wpl, offset);
        for (const simd::Backend b : backends()) {
          pk::Words got = in;
          simd::ops(b).stage_offset(in.data(), got.data(), su.data(),
                                    sl.data(), planes, stride, wpl, offset);
          EXPECT_EQ(got, expect) << backend_tag(b) << " planes=" << planes
                                 << " wpl=" << wpl << " offset=" << offset;
        }
      }
    }
  }
}

TEST(SimdPrimitives, CensusSplitAndOrAndnotMatchPortable) {
  const simd::SimdOps& ref = simd::ops(simd::Backend::Portable);
  Rng rng(test_seed(9300));
  // Deliberately odd word counts: the vector backends' scalar tails must
  // agree with the vector body.
  for (const std::size_t words : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 23u}) {
    const pk::Words t0 = random_words(words, rng);
    const pk::Words t1 = random_words(words, rng);
    const pk::Words t2 = random_words(words, rng);
    pk::Words alpha_ref(words), eps_ref(words), ones_ref(words);
    ref.census_split(t0.data(), t1.data(), t2.data(), alpha_ref.data(),
                     eps_ref.data(), ones_ref.data(), words);
    pk::Words dst_ref = random_words(words, rng);
    const pk::Words dst_seed = dst_ref;
    ref.or_andnot(dst_ref.data(), t0.data(), t1.data(), words);
    for (const simd::Backend b : backends()) {
      pk::Words alpha(words), eps(words), ones(words);
      simd::ops(b).census_split(t0.data(), t1.data(), t2.data(),
                                alpha.data(), eps.data(), ones.data(), words);
      EXPECT_EQ(alpha, alpha_ref) << backend_tag(b) << " words=" << words;
      EXPECT_EQ(eps, eps_ref) << backend_tag(b) << " words=" << words;
      EXPECT_EQ(ones, ones_ref) << backend_tag(b) << " words=" << words;
      pk::Words dst = dst_seed;
      simd::ops(b).or_andnot(dst.data(), t0.data(), t1.data(), words);
      EXPECT_EQ(dst, dst_ref) << backend_tag(b) << " words=" << words;
    }
  }
}

TEST(SimdPrimitives, CountCascadeMatchesPortable) {
  const simd::SimdOps& ref = simd::ops(simd::Backend::Portable);
  Rng rng(test_seed(9400));
  for (const std::size_t words : {1u, 3u, 4u, 7u, 8u, 16u, 21u}) {
    const pk::Words in = random_words(words, rng);
    for (int nlevels = 1; nlevels <= 6; ++nlevels) {
      std::vector<pk::Words> expect(static_cast<std::size_t>(nlevels),
                                    pk::Words(words, 0));
      std::uint64_t* expect_ptrs[6] = {};
      for (int j = 0; j < nlevels; ++j) {
        expect_ptrs[j] = expect[static_cast<std::size_t>(j)].data();
      }
      ref.count_cascade(in.data(), expect_ptrs, nlevels, words);
      for (const simd::Backend b : backends()) {
        std::vector<pk::Words> got(static_cast<std::size_t>(nlevels),
                                   pk::Words(words, 0));
        std::uint64_t* got_ptrs[6] = {};
        for (int j = 0; j < nlevels; ++j) {
          got_ptrs[j] = got[static_cast<std::size_t>(j)].data();
        }
        simd::ops(b).count_cascade(in.data(), got_ptrs, nlevels, words);
        EXPECT_EQ(got, expect) << backend_tag(b) << " words=" << words
                               << " nlevels=" << nlevels;
      }
    }
  }
}

// --- whole-route bit-identity ----------------------------------------------

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  expect_stats_eq(a.stats, b.stats);
  EXPECT_EQ(a.broadcasts_per_level, b.broadcasts_per_level);
  ASSERT_EQ(a.level_inputs.size(), b.level_inputs.size());
  for (std::size_t L = 0; L < a.level_inputs.size(); ++L) {
    EXPECT_EQ(a.level_inputs[L], b.level_inputs[L])
        << "level_inputs differ at level " << L;
  }
  ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
  if (a.explanation) {
    EXPECT_EQ(*a.explanation, *b.explanation);
  }
}

std::vector<SwitchSetting> fabric_grid(const Rbn& rbn) {
  std::vector<SwitchSetting> grid;
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < rbn.size() / 2; ++sw) {
      grid.push_back(rbn.setting(stage, sw));
    }
  }
  return grid;
}

std::vector<std::vector<SwitchSetting>> unrolled_grids(const Brsmn& net) {
  std::vector<std::vector<SwitchSetting>> grids;
  for (int k = 1; k < net.levels(); ++k) {
    for (const Bsn& bsn : net.level_bsns(k)) {
      grids.push_back(fabric_grid(bsn.scatter_fabric()));
      grids.push_back(fabric_grid(bsn.quasisort_fabric()));
    }
  }
  return grids;
}

RouteOptions full_options(RouteEngine engine, simd::Backend backend) {
  RouteOptions options;
  options.capture_levels = true;
  options.explain = true;
  options.engine = engine;
  options.simd_backend = backend;
  return options;
}

/// Route `a` under every available backend (unrolled and feedback
/// fabrics) and require full bit-identity with the scalar reference:
/// results, captured levels, explanations, and the switch grids left in
/// the physical fabrics.
void check_backends(std::size_t n, const MulticastAssignment& a) {
  Brsmn net(n);
  const RouteResult scalar =
      net.route(a, full_options(RouteEngine::Scalar, simd::Backend::Auto));
  const auto scalar_grids = unrolled_grids(net);
  FeedbackBrsmn fb(n);
  const RouteResult fb_scalar =
      fb.route(a, full_options(RouteEngine::Scalar, simd::Backend::Auto));
  const auto fb_scalar_grid = fabric_grid(fb.fabric());

  for (const simd::Backend b : backends()) {
    SCOPED_TRACE("backend " + backend_tag(b));
    const RouteResult packed =
        net.route(a, full_options(RouteEngine::Packed, b));
    expect_results_eq(scalar, packed);
    EXPECT_EQ(scalar_grids, unrolled_grids(net));

    const RouteResult fb_packed =
        fb.route(a, full_options(RouteEngine::Packed, b));
    expect_results_eq(fb_scalar, fb_packed);
    EXPECT_EQ(fb_scalar_grid, fabric_grid(fb.fabric()));
  }
}

MulticastAssignment random_fanout(std::size_t n, std::size_t max_fanout,
                                  Rng& rng) {
  MulticastAssignment a(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(1.0 / 3.0)) continue;
    const std::size_t fan = rng.uniform(1, max_fanout);
    for (std::size_t f = 0; f < fan; ++f) {
      std::size_t d = rng.uniform(0, n - 1);
      std::size_t probes = 0;
      while (a.output_claimed(d) && probes++ < n) d = (d + 1) % n;
      if (a.output_claimed(d)) break;
      a.connect(i, d);
    }
  }
  return a;
}

class SimdDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdDifferential, SeededWorkloadsBitIdenticalAcrossBackends) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(9500 + n));
  const int trials = n <= 64 ? 4 : 2;
  for (int t = 0; t < trials; ++t) {
    check_backends(n, random_fanout(n, 1 + n / 4, rng));
    check_backends(n, random_multicast(n, 0.6, rng));
  }
  check_backends(n, full_broadcast(n));
  check_backends(n, MulticastAssignment(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimdDifferential,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

// --- heatmap bit-identity --------------------------------------------------

TEST(SimdDifferentialObs, HeatmapsBitIdenticalAcrossBackends) {
  for (const std::size_t n : {16u, 128u}) {
    Rng rng(test_seed(9600 + n));
    std::vector<MulticastAssignment> batch;
    batch.push_back(random_multicast(n, 0.8, rng));
    batch.push_back(full_broadcast(n));

    obs::FabricHeatmap reference(n);
    {
      Brsmn net(n);
      RouteOptions options;
      options.heatmap = &reference;
      for (const auto& a : batch) net.route(a, options);
    }
    for (const simd::Backend b : backends()) {
      obs::FabricHeatmap map(n);
      Brsmn net(n);
      RouteOptions options;
      options.engine = RouteEngine::Packed;
      options.simd_backend = b;
      options.heatmap = &map;
      for (const auto& a : batch) net.route(a, options);
      EXPECT_EQ(reference.to_csv(), map.to_csv())
          << backend_tag(b) << " diverged at n=" << n;
    }
  }
}

// --- compiled-plan internals -----------------------------------------------
//
// The plan checkpoint format is backend-portable: the stored masks,
// events, and full-state checkpoints a compile captures must be the same
// words no matter which backend's loops produced them.

void expect_masks_eq(const std::vector<pk::StageMasks>& a,
                     const std::vector<pk::StageMasks>& b,
                     const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].su, b[j].su) << what << " su stage " << j + 1;
    EXPECT_EQ(a[j].sl, b[j].sl) << what << " sl stage " << j + 1;
  }
}

void expect_plan_levels_eq(const PlanLevel& a, const PlanLevel& b) {
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.entry_t0, b.entry_t0);
  EXPECT_EQ(a.entry_t1, b.entry_t1);
  EXPECT_EQ(a.entry_t2, b.entry_t2);
  expect_masks_eq(a.scatter_masks, b.scatter_masks, "scatter");
  expect_masks_eq(a.quasisort_masks, b.quasisort_masks, "quasisort");
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t s = 0; s < a.events.size(); ++s) {
    ASSERT_EQ(a.events[s].size(), b.events[s].size()) << "stage " << s + 1;
    for (std::size_t e = 0; e < a.events[s].size(); ++e) {
      EXPECT_EQ(a.events[s][e].upper, b.events[s][e].upper);
      EXPECT_EQ(a.events[s][e].alpha_upper, b.events[s][e].alpha_upper);
      EXPECT_EQ(a.events[s][e].ord, b.events[s][e].ord);
    }
  }
  EXPECT_EQ(a.num_events, b.num_events);
  EXPECT_EQ(a.parent_codes, b.parent_codes);
  EXPECT_EQ(a.post_scatter, b.post_scatter);
  EXPECT_EQ(a.divided_t2, b.divided_t2);
  EXPECT_EQ(a.post_quasisort, b.post_quasisort);
  expect_stats_eq(a.stats_delta, b.stats_delta);
}

void expect_plans_eq(const RoutePlan& a, const RoutePlan& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.impl, b.impl);
  EXPECT_EQ(a.wcode, b.wcode);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t k = 0; k < a.levels.size(); ++k) {
    SCOPED_TRACE("plan level " + std::to_string(k + 1));
    expect_plan_levels_eq(*a.levels[k], *b.levels[k]);
  }
  EXPECT_EQ(a.final_t0, b.final_t0);
  EXPECT_EQ(a.final_t1, b.final_t1);
  EXPECT_EQ(a.final_t2, b.final_t2);
  EXPECT_EQ(a.delivered, b.delivered);
  expect_stats_eq(a.stats, b.stats);
  EXPECT_EQ(a.broadcasts_per_level, b.broadcasts_per_level);
  ASSERT_EQ(a.explanation.has_value(), b.explanation.has_value());
  if (a.explanation) {
    EXPECT_EQ(*a.explanation, *b.explanation);
  }
}

RouteOptions backend_options(simd::Backend b, bool explain = false) {
  RouteOptions options;
  options.simd_backend = b;
  options.explain = explain;
  return options;
}

class SimdPlanDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdPlanDifferential, CompiledPlansBitIdenticalAcrossBackends) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(9700 + n));
  const MulticastAssignment a = random_multicast(n, 0.6, rng);

  const auto avail = backends();
  Brsmn net(n);
  RoutePlan reference;
  planner::compile_route(net, a, backend_options(avail.front(), true),
                         reference);
  for (std::size_t i = 1; i < avail.size(); ++i) {
    SCOPED_TRACE("backend " + backend_tag(avail[i]));
    RoutePlan plan;
    planner::compile_route(net, a, backend_options(avail[i], true), plan);
    expect_plans_eq(reference, plan);
  }
}

TEST_P(SimdPlanDifferential, CompileUnderAReplayUnderBEveryOrderedPair) {
  // The replay self-check (on by default) compares the datapath state
  // against the stored checkpoints after every pass — so a green replay
  // is itself the proof that backend B reproduced backend A's words.
  const std::size_t n = GetParam();
  Rng rng(test_seed(9800 + n));
  const MulticastAssignment a = random_multicast(n, 0.7, rng);
  const auto expected = expected_delivery(a);

  for (const simd::Backend compile_b : backends()) {
    Brsmn net(n);
    RoutePlan plan;
    const RouteResult cold =
        planner::compile_route(net, a, backend_options(compile_b), plan);
    EXPECT_EQ(cold.delivered, expected);
    for (const simd::Backend replay_b : backends()) {
      SCOPED_TRACE("compile " + backend_tag(compile_b) + " replay " +
                   backend_tag(replay_b));
      const RouteResult replayed =
          net.route_replay(plan, backend_options(replay_b));
      EXPECT_EQ(replayed.delivered, cold.delivered);
      expect_stats_eq(replayed.stats, cold.stats);
      EXPECT_EQ(replayed.broadcasts_per_level, cold.broadcasts_per_level);
    }
  }
}

TEST_P(SimdPlanDifferential, PatchUnderBEqualsColdCompileEveryOrderedPair) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(9900 + n));
  const MulticastAssignment base_a = random_multicast(n, 0.6, rng);
  MulticastAssignment delta_a = base_a;
  // Move one connection so some levels recompile: claim a free output
  // for input 0 (dropping its old set keeps the assignment valid).
  std::size_t free_out = 0;
  while (free_out < n && delta_a.output_claimed(free_out)) ++free_out;
  if (free_out < n) delta_a.connect(0, free_out);

  for (const simd::Backend compile_b : backends()) {
    Brsmn net(n);
    RoutePlan base;
    planner::compile_route(net, base_a, backend_options(compile_b), base);
    RoutePlan cold;
    planner::compile_route(net, delta_a, backend_options(compile_b), cold);
    for (const simd::Backend patch_b : backends()) {
      SCOPED_TRACE("compile " + backend_tag(compile_b) + " patch " +
                   backend_tag(patch_b));
      RoutePlan patched;
      const planner::PatchOutcome outcome = planner::patch_route(
          net, delta_a, base, backend_options(patch_b), patched);
      ASSERT_TRUE(outcome.patched);
      expect_plans_eq(cold, patched);
      EXPECT_EQ(outcome.result.delivered, cold.delivered);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SimdPlanDifferential,
                         ::testing::Values(4, 16, 64, 256),
                         [](const auto& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

// --- fault-injection parity ------------------------------------------------

TEST(SimdFaultParity, SwitchFlipOutcomesAgreeAcrossBackends) {
  // A representative slice of the n=16 stuck-at space (the exhaustive
  // 144-site sweep per backend lives in test_fault_injection.cpp): each
  // site's outcome class and delivery must be the same under every
  // backend, and identical to the scalar engine's.
  const std::size_t n = 16;
  MulticastAssignment a(n);
  a.connect(0, 0);
  a.connect(0, n - 1);
  a.connect(2, 1);
  a.connect(2, 2);
  a.connect(5, n / 2);
  const auto expected = expected_delivery(a);

  for (int level = 1; level <= 3; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (const std::size_t sw : {0u, 3u, 7u}) {
        SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                     std::string(pass_name(pass)) + " switch " +
                     std::to_string(sw));
        fault::FaultPlan fplan;
        fplan.n = n;
        fault::FaultSpec f;
        f.kind = fault::FaultKind::TransientFlip;
        f.level = level;
        f.pass = pass;
        f.stage = 1;
        f.index = sw;
        fplan.faults.push_back(f);

        auto run = [&](RouteEngine engine, simd::Backend b)
            -> std::optional<std::vector<std::optional<std::size_t>>> {
          fault::FaultInjector injector(fplan);
          Brsmn net(n);
          RouteOptions options;
          options.engine = engine;
          options.simd_backend = b;
          options.faults = &injector;
          try {
            return net.route(a, options).delivered;
          } catch (const fault::FaultDetected&) {
            return std::nullopt;
          }
        };

        const auto scalar = run(RouteEngine::Scalar, simd::Backend::Auto);
        for (const simd::Backend b : backends()) {
          const auto packed = run(RouteEngine::Packed, b);
          ASSERT_EQ(scalar.has_value(), packed.has_value()) << backend_tag(b);
          if (scalar) {
            EXPECT_EQ(*packed, expected) << backend_tag(b);
            EXPECT_EQ(*packed, *scalar) << backend_tag(b);
          }
        }
      }
    }
  }
}

TEST(SimdFaultParity, ReplayUnderFaultDetectsOnEveryBackend) {
  // Kill the line carrying input 0 at level 1 and replay a clean plan
  // compiled under each backend: every (compile, replay) backend pair
  // must raise FaultDetected — a fault can never slip through because
  // the replaying backend differs from the compiling one.
  const std::size_t n = 16;
  MulticastAssignment a(n);
  a.connect(0, 1);
  a.connect(3, 7);

  fault::FaultPlan fplan;
  fplan.n = n;
  fault::FaultSpec f;
  f.kind = fault::FaultKind::DeadLink;
  f.level = 1;
  f.index = 0;
  fplan.faults.push_back(f);

  for (const simd::Backend compile_b : backends()) {
    Brsmn net(n);
    RoutePlan plan;
    planner::compile_route(net, a, backend_options(compile_b), plan);
    for (const simd::Backend replay_b : backends()) {
      SCOPED_TRACE("compile " + backend_tag(compile_b) + " replay " +
                   backend_tag(replay_b));
      fault::FaultInjector injector(fplan);
      RouteOptions options = backend_options(replay_b);
      options.faults = &injector;
      EXPECT_THROW(net.route_replay(plan, options), fault::FaultDetected);
    }
  }
}

}  // namespace
}  // namespace brsmn
