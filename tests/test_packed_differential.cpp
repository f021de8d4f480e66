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

#include "common/rng.hpp"
#include "core/block_tables.hpp"
#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/merge_lemmas.hpp"
#include "core/multicast_assignment.hpp"
#include "core/rbn.hpp"
#include "core/route_plan.hpp"
#include "core/scatter.hpp"
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
// grids copy them in (Rbn::install) and read each switch back from its two
// bits. The read-back must invert both mask writers — the sweeps' run
// writer (fill_masks) and the fault seam's single-switch writer
// (set_mask_switch) — at every stage of every width the word layout
// distinguishes (in-word pairs, whole-word halves, and a partial word
// below n = 64).

constexpr SwitchSetting kAllSettings[] = {
    SwitchSetting::Parallel, SwitchSetting::Cross, SwitchSetting::UpperBcast,
    SwitchSetting::LowerBcast};

/// Stage `stage`'s n/2 settings as a fabric holding `mk` reads them back.
std::vector<SwitchSetting> decoded(const packed::StageMasks& mk, int stage,
                                   std::size_t n) {
  Rbn fabric(n);
  fabric.install(stage, mk.su, mk.sl);
  std::vector<SwitchSetting> row(n / 2);
  for (std::size_t sw = 0; sw < n / 2; ++sw) {
    row[sw] = fabric.setting(stage, sw);
  }
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

// --- bottom-stage tables -----------------------------------------------------
//
// The packed sweeps settle scatter stages 1-2 of each 4-line block and
// quasisort stages 1-3 of each 8-line block with one table lookup. Every
// entry must equal a per-node evaluation of the same block: the lemma
// plan of each node, its settings materialized one switch at a time, and
// the masks those switches write through fill_masks — plus the broadcast
// events the sweeps read back from the entry's masks.

/// One switch-level view of a block: per stage, the settings of its
/// switches in block-local order (switch g * d + t joins lines
/// g * 2d + t and g * 2d + t + d).
struct BlockReference {
  std::vector<std::vector<SwitchSetting>> stages;  ///< stages[j-1]
  std::uint8_t su[3] = {};
  std::uint8_t sl[3] = {};

  /// Write the settings through fill_masks, one switch at a time.
  void derive_masks(std::size_t lines) {
    for (std::size_t j = 1; j <= stages.size(); ++j) {
      packed::StageMasks mk;
      mk.resize(1);
      const std::size_t d = std::size_t{1} << (j - 1);
      for (std::size_t sw = 0; sw < lines / 2; ++sw) {
        pkern::fill_masks(mk, static_cast<int>(j), sw / d, sw % d, 1,
                          stages[j - 1][sw]);
      }
      su[j - 1] = static_cast<std::uint8_t>(mk.su[0]);
      sl[j - 1] = static_cast<std::uint8_t>(mk.sl[0]);
    }
  }
};

using EventList = std::vector<std::pair<std::size_t, bool>>;

/// The broadcast switches of a settings row, in line order.
EventList reference_events(const std::vector<SwitchSetting>& row, std::size_t d) {
  EventList out;
  for (std::size_t sw = 0; sw < row.size(); ++sw) {
    if (row[sw] == SwitchSetting::UpperBcast ||
        row[sw] == SwitchSetting::LowerBcast) {
      out.emplace_back((sw / d) * 2 * d + sw % d,
                       row[sw] == SwitchSetting::UpperBcast);
    }
  }
  return out;
}

/// The events the packed sweeps read back from one stage's mask fields.
EventList read_back_events(std::uint8_t su, std::uint8_t sl, unsigned d,
                           std::uint64_t upper) {
  EventList out;
  pkern::for_each_broadcast(su, sl, d, upper, [&](unsigned t, bool aup) {
    out.emplace_back(t, aup);
  });
  return out;
}

/// Table 4's forward combine (the scalar engine's), over leaf values.
ScatterNodeValue combine_values(const ScatterNodeValue& c0,
                                const ScatterNodeValue& c1) {
  if (c0.type == c1.type) return {c0.type, c0.surplus + c1.surplus};
  if (c0.surplus >= c1.surplus) return {c0.type, c0.surplus - c1.surplus};
  return {c1.type, c1.surplus - c0.surplus};
}

TEST(BlockTables, ScatterEntriesMatchPerNodeReference) {
  std::size_t checked = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    for (unsigned a = 0; a < 16; ++a) {
      for (unsigned e = 0; e < 16; ++e) {
        const pkern::ScatterBlockEntry& entry =
            pkern::kScatterBlocks[pkern::scatter_index(s, a, e)];
        SCOPED_TRACE("s=" + std::to_string(s) + " alpha=" + std::to_string(a) +
                     " eps=" + std::to_string(e));
        if ((a & e) != 0) {  // no line is both α and ε: unused, kept zero
          EXPECT_EQ(entry, pkern::ScatterBlockEntry{});
          continue;
        }
        ScatterNodeValue leaf[4];
        for (unsigned i = 0; i < 4; ++i) {
          const bool is_a = (a >> i) & 1u;
          const bool is_e = (e >> i) & 1u;
          leaf[i] = {is_a ? Tag::Alpha : Tag::Eps,
                     (is_a || is_e) ? std::size_t{1} : 0};
        }
        const ScatterNodeValue mid[2] = {combine_values(leaf[0], leaf[1]),
                                         combine_values(leaf[2], leaf[3])};
        const ScatterNodeValue root = combine_values(mid[0], mid[1]);
        const ScatterBlockPlan top = scatter_block_plan(mid[0], mid[1], 4, s);
        BlockReference ref;
        ref.stages.resize(2);
        ref.stages[1] = scatter_block_settings(top, 4, s);
        const std::size_t starts[2] = {top.s0, top.s1};
        std::uint8_t elim =
            top.rule == RouteRule::ScatterElimination ? 1 : 0;
        for (unsigned t = 0; t < 2; ++t) {
          const ScatterBlockPlan low =
              scatter_block_plan(leaf[2 * t], leaf[2 * t + 1], 2, starts[t]);
          const auto row = scatter_block_settings(low, 2, starts[t]);
          ref.stages[0].push_back(row.at(0));
          if (low.rule == RouteRule::ScatterElimination) elim |= 2u << t;
        }
        ref.derive_masks(4);
        EXPECT_EQ(entry.su[0], ref.su[0]);
        EXPECT_EQ(entry.sl[0], ref.sl[0]);
        EXPECT_EQ(entry.su[1], ref.su[1]);
        EXPECT_EQ(entry.sl[1], ref.sl[1]);
        EXPECT_EQ(entry.elim, elim);
        EXPECT_EQ(entry.alpha, root.type == Tag::Alpha ? 1 : 0);
        EXPECT_EQ(read_back_events(entry.su[1], entry.sl[1], 2, 0x3),
                  reference_events(ref.stages[1], 2));
        EXPECT_EQ(read_back_events(entry.su[0], entry.sl[0], 1, 0x5),
                  reference_events(ref.stages[0], 1));
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 4u * 81u);  // 3^4 valid (α, ε) line patterns per s
}

TEST(BlockTables, QuasisortEntriesMatchPerNodeReference) {
  for (std::size_t s = 0; s < 8; ++s) {
    for (unsigned ones = 0; ones < 256; ++ones) {
      const pkern::QuasisortBlockEntry& entry =
          pkern::kQuasisortBlocks[pkern::quasisort_index(s, ones)];
      SCOPED_TRACE("s=" + std::to_string(s) + " ones=" + std::to_string(ones));
      BlockReference ref;
      ref.stages.resize(3);
      std::vector<std::size_t> start = {s};
      for (int j = 3; j >= 1; --j) {
        const std::size_t half = std::size_t{1} << (j - 1);
        std::vector<std::size_t> next;
        for (std::size_t b = 0; b < (std::size_t{8} >> j); ++b) {
          std::size_t l[2] = {0, 0};
          for (std::size_t i = 0; i < 2 * half; ++i) {
            l[i / half] += (ones >> (2 * half * b + i)) & 1u;
          }
          const lemmas::Lemma1Geometry g =
              lemmas::lemma1_geometry(2 * half, start[b], l[0], l[1]);
          next.push_back(g.s0);
          next.push_back(g.s1);
          for (std::size_t t = 0; t < half; ++t) {
            ref.stages[static_cast<std::size_t>(j - 1)].push_back(
                t < g.s1 ? g.run : opposite_unicast(g.run));
          }
        }
        start = next;
      }
      ref.derive_masks(8);
      for (int j = 0; j < 3; ++j) {
        EXPECT_EQ(entry.su[j], ref.su[j]) << "stage " << j + 1;
        EXPECT_EQ(entry.sl[j], ref.sl[j]) << "stage " << j + 1;
      }
      // The quasisort only ever sets unicast switches.
      EXPECT_TRUE(read_back_events(entry.su[0], entry.sl[0], 1, 0x55).empty());
      EXPECT_TRUE(read_back_events(entry.su[1], entry.sl[1], 2, 0x33).empty());
      EXPECT_TRUE(read_back_events(entry.su[2], entry.sl[2], 4, 0x0f).empty());
    }
  }
}

TEST(BlockTables, ExplanationsMatchScalarOnEveryTableShape) {
  // n = 4: every assignment (each output idle or fed by one of the four
  // inputs) — a single S = 2 level, whose scatter takes the 4-line table
  // at s = 0 and whose quasisort takes the 4-line slice at s = 2.
  for (std::size_t code = 0; code < 625; ++code) {
    MulticastAssignment a(4);
    std::size_t rest = code;
    for (std::size_t out = 0; out < 4; ++out, rest /= 5) {
      if (rest % 5 != 0) a.connect(rest % 5 - 1, out);
    }
    check_assignment(4, a);
  }
  // n = 8..64: S = 3 levels (the 8-line quasisort table at s = 4) and
  // deeper ones, whose table starts come from the per-node sweep above.
  Rng rng(test_seed(9300));
  for (std::size_t n = 8; n <= 64; n *= 2) {
    for (const double density : {0.3, 0.7, 1.0}) {
      for (int t = 0; t < 6; ++t) check_assignment(n, random_multicast(n, density, rng));
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

TEST(TagCensus, CountsMatchPlanePopcounts) {
  // Every stored level (2..log2 n) and every block of each class count
  // equals a direct popcount of the class plane over the block's lines,
  // on every backend; one census is reused across sizes, as the compile
  // workspace reuses it.
  Rng rng(test_seed(9400));
  for (const simd::Backend backend : simd::available_backends()) {
    SCOPED_TRACE(simd::to_string(backend));
    const simd::SimdOps& ops = simd::ops(backend);
    packed::TagCensus census;
    const packed::Words two_lines{rng.uniform(0, 3)};
    EXPECT_NO_THROW(census.build(two_lines, two_lines, two_lines, 2, ops));
    for (std::size_t n = 4; n <= 4096; n *= 2) {
      SCOPED_TRACE("n = " + std::to_string(n));
      const std::size_t wpl = packed::words_for(n);
      packed::Words t0(wpl), t1(wpl), t2(wpl);
      for (packed::Words* plane : {&t0, &t1, &t2}) {
        for (auto& w : *plane) w = rng.engine()();
        plane->back() &= packed::tail_mask(n);
      }
      census.build(t0, t1, t2, n, ops);
      for (std::size_t w = 0; w < wpl; ++w) {
        ASSERT_EQ(census.alpha()[w], t0[w] & ~t1[w]);
        ASSERT_EQ(census.eps()[w], t0[w] & t1[w]);
        ASSERT_EQ(census.ones()[w], t2[w]);
      }
      for (int j = 2; (std::size_t{1} << j) <= n; ++j) {
        const std::size_t size = std::size_t{1} << j;
        for (std::size_t b = 0; b < n / size; ++b) {
          const std::size_t lo = b * size;
          ASSERT_EQ(census.count_alpha(j, b),
                    packed::plane_popcount(census.alpha(), lo, lo + size))
              << "level " << j << " block " << b;
          ASSERT_EQ(census.count_eps(j, b),
                    packed::plane_popcount(census.eps(), lo, lo + size))
              << "level " << j << " block " << b;
          ASSERT_EQ(census.count_ones(j, b),
                    packed::plane_popcount(census.ones(), lo, lo + size))
              << "level " << j << " block " << b;
        }
      }
    }
  }
}

}  // namespace
}  // namespace brsmn
