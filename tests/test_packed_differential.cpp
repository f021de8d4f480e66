// Differential test of the packed word-parallel engine against the
// scalar reference engine: over seeded sweeps of fanout-bounded, sparse,
// dense, permutation and broadcast workloads, both engines must produce
// bit-identical results — delivered outputs, routing stats, per-level
// broadcast counts, captured level states (packet identities and streams
// included), the full RouteExplanation decision grids, and the switch
// settings installed in the physical fabrics.
#include "core/packed_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "api/parallel_router.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/multicast_assignment.hpp"
#include "core/route_plan.hpp"
#include "obs/fabric_heatmap.hpp"

namespace brsmn {
namespace {

// --- equality helpers ----------------------------------------------------

void expect_stats_eq(const RoutingStats& a, const RoutingStats& b) {
  EXPECT_EQ(a.switch_traversals, b.switch_traversals);
  EXPECT_EQ(a.broadcast_ops, b.broadcast_ops);
  EXPECT_EQ(a.tree_fwd_ops, b.tree_fwd_ops);
  EXPECT_EQ(a.tree_bwd_ops, b.tree_bwd_ops);
  EXPECT_EQ(a.fabric_passes, b.fabric_passes);
  EXPECT_EQ(a.gate_delay, b.gate_delay);
}

void expect_results_eq(const RouteResult& scalar, const RouteResult& packed) {
  EXPECT_EQ(scalar.delivered, packed.delivered);
  expect_stats_eq(scalar.stats, packed.stats);
  EXPECT_EQ(scalar.broadcasts_per_level, packed.broadcasts_per_level);
  ASSERT_EQ(scalar.level_inputs.size(), packed.level_inputs.size());
  for (std::size_t L = 0; L < scalar.level_inputs.size(); ++L) {
    EXPECT_EQ(scalar.level_inputs[L], packed.level_inputs[L])
        << "level_inputs differ at level " << L;
  }
  ASSERT_EQ(scalar.explanation.has_value(), packed.explanation.has_value());
  if (scalar.explanation) {
    EXPECT_EQ(*scalar.explanation, *packed.explanation);
  }
}

/// Every switch setting of one Rbn, stage-major.
std::vector<SwitchSetting> fabric_grid(const Rbn& rbn) {
  std::vector<SwitchSetting> grid;
  for (int stage = 1; stage <= rbn.stages(); ++stage) {
    for (std::size_t sw = 0; sw < rbn.size() / 2; ++sw) {
      grid.push_back(rbn.setting(stage, sw));
    }
  }
  return grid;
}

/// The settings grids of every fabric of an unrolled network, in level /
/// BSN / pass order — the state inspection via level_bsns() sees.
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

RouteOptions full_options(RouteEngine engine) {
  RouteOptions options;
  options.capture_levels = true;
  options.explain = true;
  options.engine = engine;
  return options;
}

/// Route `a` through both engines of a Brsmn and a FeedbackBrsmn and
/// check full bit-identity, including the fabric grids each engine left
/// behind.
void check_assignment(std::size_t n, const MulticastAssignment& a) {
  Brsmn net(n);
  const RouteResult scalar = net.route(a, full_options(RouteEngine::Scalar));
  const auto scalar_grids = unrolled_grids(net);
  const RouteResult packed = net.route(a, full_options(RouteEngine::Packed));
  const auto packed_grids = unrolled_grids(net);
  expect_results_eq(scalar, packed);
  EXPECT_EQ(scalar_grids, packed_grids);

  FeedbackBrsmn fb(n);
  const RouteResult fb_scalar = fb.route(a, full_options(RouteEngine::Scalar));
  const auto fb_scalar_grid = fabric_grid(fb.fabric());
  const RouteResult fb_packed = fb.route(a, full_options(RouteEngine::Packed));
  const auto fb_packed_grid = fabric_grid(fb.fabric());
  expect_results_eq(fb_scalar, fb_packed);
  EXPECT_EQ(fb_scalar_grid, fb_packed_grid);

  // The two engines must agree across network architectures too.
  EXPECT_EQ(packed.delivered, fb_packed.delivered);
}

// --- workload generators -------------------------------------------------

/// Random assignment with per-input fanout bounded by `max_fanout`.
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

class PackedDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PackedDifferential, SeededFanoutSweep) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(7100 + n));
  const int trials = n <= 64 ? 12 : 6;
  for (int t = 0; t < trials; ++t) {
    check_assignment(n, random_fanout(n, 1 + n / 4, rng));
  }
}

TEST_P(PackedDifferential, SeededSparseMulticast) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(7200 + n));
  const int trials = n <= 64 ? 8 : 4;
  for (int t = 0; t < trials; ++t) {
    check_assignment(n, random_multicast(n, 0.2, rng));
  }
}

TEST_P(PackedDifferential, SeededDenseMulticast) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(7300 + n));
  const int trials = n <= 64 ? 8 : 4;
  for (int t = 0; t < trials; ++t) {
    check_assignment(n, random_multicast(n, 0.9, rng));
  }
}

TEST_P(PackedDifferential, SeededPermutations) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(7400 + n));
  for (int t = 0; t < 4; ++t) {
    check_assignment(n, random_permutation(n, 1.0, rng));
  }
}

TEST_P(PackedDifferential, BroadcastPatterns) {
  const std::size_t n = GetParam();
  check_assignment(n, full_broadcast(n));
  check_assignment(n, broadcast_assignment(n, 2));
  check_assignment(n, MulticastAssignment(n));  // empty assignment
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedDifferential,
                         ::testing::Values(4, 8, 16, 32, 64, 128, 256),
                         [](const auto& param_info) {
                           std::string name = "n";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(PackedDifferentialEdge, SmallestNetwork) {
  // n = 2 has no BSN levels — just the final 2x2 switch.
  check_assignment(2, full_broadcast(2));
  MulticastAssignment swap2(2);
  swap2.connect(0, 1);
  swap2.connect(1, 0);
  check_assignment(2, swap2);
}

TEST(PackedDifferentialEdge, PaperExample) {
  check_assignment(8, paper_example_assignment());
}

// --- stage-mask decode ------------------------------------------------------
//
// The configuration sweeps write only the packed stage masks; the fabric
// grids and plan rows are decoded from them. The decode must invert both
// mask writers — the sweeps' run writer (fill_masks) and the fault seam's
// single-switch writer (set_mask_switch) — at every stage of every width
// the word layout distinguishes (in-word pairs, whole-word halves, and a
// partial word below n = 64).

constexpr SwitchSetting kAllSettings[] = {
    SwitchSetting::Parallel, SwitchSetting::Cross, SwitchSetting::UpperBcast,
    SwitchSetting::LowerBcast};

std::vector<SwitchSetting> decoded(const packed::StageMasks& mk, int stage,
                                   std::size_t n) {
  std::vector<SwitchSetting> row(n / 2);
  pkern::decode_stage_settings(mk, stage, n, row);
  return row;
}

TEST(StageMaskDecode, InvertsFillMasksOnEveryRunExhaustively) {
  for (std::size_t n = 2; n <= 256; n *= 2) {
    packed::StageMasks mk;
    mk.resize(packed::words_for(n));
    std::vector<SwitchSetting> want(n / 2);
    std::size_t mismatches = 0;
    for (int stage = 1; (std::size_t{1} << stage) <= n; ++stage) {
      const std::size_t d = std::size_t{1} << (stage - 1);
      for (std::size_t g = 0; g < n / (2 * d); ++g) {
        for (std::size_t first = 0; first <= d; ++first) {
          for (std::size_t count = 0; first + count <= d; ++count) {
            for (SwitchSetting s : kAllSettings) {
              mk.clear();
              pkern::fill_masks(mk, stage, g, first, count, s);
              std::fill(want.begin(), want.end(), SwitchSetting::Parallel);
              const auto run = want.begin() +
                               static_cast<std::ptrdiff_t>(g * d + first);
              std::fill(run, run + static_cast<std::ptrdiff_t>(count), s);
              if (decoded(mk, stage, n) != want && ++mismatches <= 5) {
                ADD_FAILURE() << "n=" << n << " stage=" << stage << " g=" << g
                              << " run=[" << first << "," << first + count
                              << ") s=" << s;
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "n=" << n;
  }
}

TEST(StageMaskDecode, InvertsSetMaskSwitchOnRandomSwitches) {
  Rng rng(test_seed(9100));
  for (std::size_t n = 2; n <= 256; n *= 2) {
    for (int stage = 1; (std::size_t{1} << stage) <= n; ++stage) {
      const std::size_t d = std::size_t{1} << (stage - 1);
      packed::StageMasks mk;
      mk.resize(packed::words_for(n));
      std::vector<SwitchSetting> want(n / 2, SwitchSetting::Parallel);
      // Overwrites land on switches whose bits are already set, as a
      // stuck-at fault does on a configured stage.
      for (int step = 0; step < 200; ++step) {
        const std::size_t sw = rng.uniform(0, n / 2 - 1);
        const SwitchSetting s = kAllSettings[rng.uniform(0, 3)];
        pkern::set_mask_switch(mk, (sw / d) * 2 * d + sw % d, d, s);
        want[sw] = s;
        ASSERT_EQ(decoded(mk, stage, n), want)
            << "n=" << n << " stage=" << stage << " step=" << step;
      }
    }
  }
}

// --- SIMD backend property sweep -------------------------------------------
//
// The packed engine dispatches its word loops through a runtime-selected
// SIMD backend (core/simd_backend.hpp). These sweeps hold every backend
// available on this host — not just the auto-selected one — to full
// bit-identity with the scalar reference on the shapes most likely to
// expose lane/tail bugs: non-power-of-two numbers of active inputs
// (partial words in every plane), a single input fanned out to all n
// outputs, the identity permutation, and a single unicast connection.

RouteOptions backend_options(simd::Backend backend) {
  RouteOptions options = full_options(RouteEngine::Packed);
  options.simd_backend = backend;
  return options;
}

/// Route `a` under every available backend and require bit-identity with
/// the scalar reference on both fabrics, grids included.
void check_assignment_every_backend(std::size_t n,
                                    const MulticastAssignment& a) {
  Brsmn net(n);
  const RouteResult scalar = net.route(a, full_options(RouteEngine::Scalar));
  const auto scalar_grids = unrolled_grids(net);
  FeedbackBrsmn fb(n);
  const RouteResult fb_scalar = fb.route(a, full_options(RouteEngine::Scalar));
  const auto fb_scalar_grid = fabric_grid(fb.fabric());

  for (const simd::Backend b : simd::available_backends()) {
    SCOPED_TRACE(std::string("backend ") + simd::to_string(b));
    const RouteResult packed = net.route(a, backend_options(b));
    expect_results_eq(scalar, packed);
    EXPECT_EQ(scalar_grids, unrolled_grids(net));
    const RouteResult fb_packed = fb.route(a, backend_options(b));
    expect_results_eq(fb_scalar, fb_packed);
    EXPECT_EQ(fb_scalar_grid, fabric_grid(fb.fabric()));
  }
}

/// Random assignment with exactly `active` sources, each with a random
/// destination set drawn from the still-unclaimed outputs.
MulticastAssignment random_active_count(std::size_t n, std::size_t active,
                                        Rng& rng) {
  MulticastAssignment a(n);
  const auto sources = rng.subset(n, active);
  for (const std::size_t i : sources) {
    const std::size_t fan = rng.uniform(1, 1 + n / (2 * active));
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

TEST_P(PackedDifferential, PropertySweepNonPowerOfTwoActiveCounts) {
  const std::size_t n = GetParam();
  Rng rng(test_seed(7800 + n));
  for (const std::size_t active : {1u, 3u, 5u, 7u}) {
    if (active > n) continue;
    SCOPED_TRACE("active inputs " + std::to_string(active));
    for (int t = 0; t < 3; ++t) {
      check_assignment_every_backend(n, random_active_count(n, active, rng));
    }
  }
}

TEST_P(PackedDifferential, PropertySweepDegenerateShapes) {
  const std::size_t n = GetParam();

  // One source fans out to every output (maximal broadcast tree).
  MulticastAssignment fanout_all(n);
  for (std::size_t d = 0; d < n; ++d) fanout_all.connect(n / 2, d);
  check_assignment_every_backend(n, fanout_all);

  // Identity permutation: every line routes straight through.
  MulticastAssignment identity(n);
  for (std::size_t i = 0; i < n; ++i) identity.connect(i, i);
  check_assignment_every_backend(n, identity);

  // Single source, single destination: one occupied line in the fabric.
  MulticastAssignment single(n);
  single.connect(0, n - 1);
  check_assignment_every_backend(n, single);
}

// --- fabric heatmap bit-identity ------------------------------------------
//
// Heatmaps sample line occupancy at stage entry, where all four drivers
// see the same state — so the accumulated planes must be bit-identical
// across scalar/packed x unrolled/feedback, and a replayed plan must
// leave the same planes as the cold route that compiled it.

std::string heatmap_csv(RouteEngine engine, bool feedback_fabric,
                        std::size_t n,
                        const std::vector<MulticastAssignment>& batch) {
  obs::FabricHeatmap map(n);
  RouteOptions options;
  options.engine = engine;
  options.heatmap = &map;
  if (feedback_fabric) {
    FeedbackBrsmn net(n);
    for (const MulticastAssignment& a : batch) net.route(a, options);
  } else {
    Brsmn net(n);
    for (const MulticastAssignment& a : batch) net.route(a, options);
  }
  return map.to_csv();
}

TEST(PackedDifferential, HeatmapsBitIdenticalAcrossAllFourDrivers) {
  for (const std::size_t n : {8u, 16u, 64u}) {
    Rng rng(test_seed(7600 + n));
    std::vector<MulticastAssignment> batch;
    batch.push_back(random_multicast(n, 0.9, rng));
    batch.push_back(random_permutation(n, 1.0, rng));
    batch.push_back(full_broadcast(n));
    const std::string reference =
        heatmap_csv(RouteEngine::Scalar, false, n, batch);
    EXPECT_EQ(reference, heatmap_csv(RouteEngine::Packed, false, n, batch))
        << "packed unrolled diverged at n=" << n;
    EXPECT_EQ(reference, heatmap_csv(RouteEngine::Scalar, true, n, batch))
        << "scalar feedback diverged at n=" << n;
    EXPECT_EQ(reference, heatmap_csv(RouteEngine::Packed, true, n, batch))
        << "packed feedback diverged at n=" << n;
  }
}

TEST(PackedDifferential, ReplayHeatmapMatchesColdRoute) {
  const std::size_t n = 64;
  Rng rng(test_seed(7700));
  const MulticastAssignment a = random_multicast(n, 0.7, rng);

  obs::FabricHeatmap cold(n);
  Brsmn net(n);
  RoutePlan plan;
  RouteOptions copts;
  copts.heatmap = &cold;
  planner::compile_route(net, a, copts, plan);

  obs::FabricHeatmap replayed(n);
  RouteOptions ropts;
  ropts.heatmap = &replayed;
  net.route_replay(plan, ropts);
  EXPECT_EQ(cold.to_csv(), replayed.to_csv());
}

TEST(PackedDifferential, ParallelRouterComposesWorkerAndWordParallelism) {
  const std::size_t n = 64;
  Rng rng(test_seed(7500));
  std::vector<MulticastAssignment> batch;
  for (int t = 0; t < 16; ++t) {
    batch.push_back(random_multicast(n, 0.5, rng));
  }
  api::ParallelRouter scalar_router(n, 4);
  api::ParallelRouter packed_router(n, 4);
  packed_router.set_engine(RouteEngine::Packed);
  const auto scalar_results = scalar_router.route_batch(batch);
  const auto packed_results = packed_router.route_batch(batch);
  ASSERT_EQ(scalar_results.size(), packed_results.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(scalar_results[i].delivered, packed_results[i].delivered);
    expect_stats_eq(scalar_results[i].stats, packed_results[i].stats);
  }
}

}  // namespace
}  // namespace brsmn
