// Failure injection: corrupt one switch setting after a correct
// configuration and verify that the library's invariants catch it — no
// silent misrouting, no silent packet loss. The FullRoute tests extend
// the single-fabric sweeps to whole-BRSMN routes through the fault
// seam: every reachable (level, pass, stage, switch) site at n = 16,
// every dead line, with the scalar and packed engines required to agree
// on every outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <span>

#include "common/bits.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/bit_sorter.hpp"
#include "core/brsmn.hpp"
#include "core/compact_sequence.hpp"
#include "core/feedback.hpp"
#include "core/scatter.hpp"
#include "core/tag_sequence.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/fault_report.hpp"
#include "fault/self_check.hpp"
#include "helpers.hpp"

namespace brsmn {
namespace {

TEST(FaultInjection, FlippedSorterSwitchBreaksCompactness) {
  // For every single-switch corruption of a configured bit sorter, the
  // output must either remain correct (the corruption may be masked when
  // both switch inputs carry equal keys) or fail the compactness check —
  // it can never deliver a *different valid-looking* compact run.
  const std::size_t n = 16;
  Rng rng(test_seed(8));
  std::vector<int> keys(n);
  for (auto& k : keys) k = static_cast<int>(rng.uniform(0, 1));
  const std::size_t l = static_cast<std::size_t>(
      std::count(keys.begin(), keys.end(), 1));
  const std::size_t s = 3;

  std::size_t masked = 0, detected = 0;
  for (int stage = 1; stage <= 4; ++stage) {
    for (std::size_t sw = 0; sw < n / 2; ++sw) {
      Rbn rbn(n);
      configure_bit_sorter(rbn, keys, s);
      rbn.set(stage, sw, opposite_unicast(rbn.setting(stage, sw)));
      const auto out = rbn.propagate(keys, unicast_switch<int>);
      std::vector<bool> ones(n);
      for (std::size_t i = 0; i < n; ++i) ones[i] = out[i] == 1;
      if (matches_compact(ones, s, l)) {
        ++masked;  // swapped equal keys: harmless
      } else {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_EQ(masked + detected, 4u * (n / 2));
}

TEST(FaultInjection, SpuriousBroadcastIsTrappedNotSilent) {
  // Corrupting a unicast switch into a broadcast would duplicate or drop
  // a packet; the scatter switch function must trap it.
  const std::size_t n = 8;
  const std::vector<Tag> tags{Tag::Alpha, Tag::Zero, Tag::Eps, Tag::One,
                              Tag::Eps,   Tag::Eps,  Tag::Zero, Tag::One};
  std::vector<LineValue> lines(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_empty(tags[i])) continue;
    Packet p{i, i + 1, i + 1, {tags[i]}};
    lines[i] = occupied_line(tags[i], std::move(p));
  }

  Rbn rbn(n);
  configure_scatter(rbn, tags, 0);
  // Find a switch currently set to parallel in stage 3 and corrupt it to
  // a broadcast: its inputs are not an (alpha, eps) pair everywhere, so
  // some corruption must throw.
  std::size_t trapped = 0;
  for (std::size_t sw = 0; sw < n / 2; ++sw) {
    Rbn corrupted(n);
    configure_scatter(corrupted, tags, 0);
    corrupted.set(3, sw, SwitchSetting::UpperBcast);
    ScatterExec exec{100, nullptr};
    try {
      corrupted.propagate(lines, [&exec](const SwitchContext& ctx,
                                         SwitchSetting st, LineValue a,
                                         LineValue b) {
        return apply_scatter_switch(ctx, st, std::move(a), std::move(b),
                                    exec);
      });
    } catch (const ContractViolation&) {
      ++trapped;
    }
  }
  EXPECT_GT(trapped, 0u);
}

TEST(FaultInjection, CorruptedQuasisortViolatesHalfSplit) {
  // A final-stage corruption in the quasisort must surface as a broken
  // half-split (the invariant Bsn::route checks).
  const std::size_t n = 8;
  std::vector<int> keys{0, 1, 0, 1, 0, 1, 0, 1};
  Rbn rbn(n);
  configure_bit_sorter(rbn, keys, n / 2);
  // Corrupt the last stage: swap a 0 into the lower half.
  rbn.set(3, 0, opposite_unicast(rbn.setting(3, 0)));
  const auto out = rbn.propagate(keys, unicast_switch<int>);
  bool split_ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    split_ok = split_ok && (out[i] == (i < n / 2 ? 0 : 1));
  }
  EXPECT_FALSE(split_ok);
}

/// Route `assignment` through a fresh n x n network with a single-fault
/// plan: returns the delivered vector on success, nullopt when the fault
/// was detected (FaultDetected). Any other escape fails the test.
struct RouteUnderFault {
  std::optional<std::vector<std::optional<std::size_t>>> delivered;
  fault::FaultActivity activity;
};

RouteUnderFault route_unrolled(const MulticastAssignment& assignment,
                               const fault::FaultPlan& plan,
                               RouteEngine engine, bool explain = false,
                               simd::Backend backend = simd::Backend::Auto) {
  RouteUnderFault out;
  fault::FaultInjector injector(plan);
  Brsmn net(plan.n);
  RouteOptions options;
  options.engine = engine;
  options.simd_backend = backend;
  options.faults = &injector;
  options.fault_activity = &out.activity;
  options.explain = explain;
  try {
    out.delivered = net.route(assignment, options).delivered;
  } catch (const fault::FaultDetected&) {
    out.delivered = std::nullopt;
  }
  return out;
}

RouteUnderFault route_feedback(const MulticastAssignment& assignment,
                               const fault::FaultPlan& plan,
                               RouteEngine engine) {
  RouteUnderFault out;
  fault::FaultInjector injector(plan);
  FeedbackBrsmn net(plan.n);
  RouteOptions options;
  options.engine = engine;
  options.faults = &injector;
  options.fault_activity = &out.activity;
  try {
    out.delivered = net.route(assignment, options).delivered;
  } catch (const fault::FaultDetected&) {
    out.delivered = std::nullopt;
  }
  return out;
}

/// A fixed multicast mixing unicast, fan-out and idle inputs, so sweeps
/// hit occupied and empty lines alike.
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

TEST(FaultInjectionFullRoute, ExhaustiveSwitchSweepBothEnginesAgree) {
  // Every reachable switch site of a 16-wide BRSMN: 2 passes x (4 + 3 +
  // 2 stages) x 8 switches = 144 single-flip plans. Each must be masked
  // (delivered exactly the expected vector, both engines bit-identical)
  // or detected (FaultDetected in BOTH engines) — never a
  // plausible-but-wrong delivery.
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t sites = 0, masked = 0, detected = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          ++sites;
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          const RouteUnderFault scalar =
              route_unrolled(assignment, plan, RouteEngine::Scalar);
          const RouteUnderFault packed =
              route_unrolled(assignment, plan, RouteEngine::Packed);

          // Engine parity: same outcome class, and bit-identical
          // delivery on success.
          ASSERT_EQ(scalar.delivered.has_value(),
                    packed.delivered.has_value());
          if (scalar.delivered.has_value()) {
            ++masked;
            EXPECT_EQ(*scalar.delivered, expected);
            EXPECT_EQ(*scalar.delivered, *packed.delivered);
          } else {
            ++detected;
          }
          // The audit trail saw the fault exactly once per attempt.
          EXPECT_LE(scalar.activity.applied.size(), 1u);
        }
      }
    }
  }
  EXPECT_EQ(sites, 144u);
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
}

TEST(FaultInjectionFullRoute, DetectedFaultsLocalizeToTheInjectedSite) {
  // Re-run each detected single-fault case with provenance enabled: the
  // report's earliest mismatching site must be exactly the injected
  // switch (single fault => single corrupted site on the unrolled
  // implementation, whose grids persist).
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  std::size_t localized = 0;

  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          fault::FaultInjector injector(plan);
          Brsmn net(n);
          RouteOptions options;
          options.faults = &injector;
          options.explain = true;
          try {
            net.route(assignment, options);
          } catch (const fault::FaultDetected& e) {
            SCOPED_TRACE(e.report().to_string());
            ASSERT_FALSE(e.report().sites.empty());
            const fault::FaultSiteMismatch* site = e.report().earliest_site();
            EXPECT_EQ(site->level, level);
            EXPECT_EQ(site->pass, pass);
            EXPECT_EQ(site->stage, stage);
            EXPECT_EQ(site->index, sw);
            EXPECT_EQ(e.report().sites.size(), 1u);
            ++localized;
          }
        }
      }
    }
  }
  EXPECT_GT(localized, 0u);
}

TEST(FaultInjectionFullRoute, DeadLinkSweepBothEnginesAgree) {
  // Every (level, line) dead-link at n = 16: an occupied line dying is
  // detected at the delivery oracle; an empty line dying is masked. The
  // two engines and both implementations must agree throughout.
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t masked = 0, detected = 0;
  for (int level = 1; level <= m; ++level) {
    for (std::size_t line = 0; line < n; ++line) {
      SCOPED_TRACE("level " + std::to_string(level) + " line " +
                   std::to_string(line));
      fault::FaultPlan plan;
      plan.n = n;
      fault::FaultSpec f;
      f.kind = fault::FaultKind::DeadLink;
      f.level = level;
      f.index = line;
      plan.faults.push_back(f);

      const RouteUnderFault scalar =
          route_unrolled(assignment, plan, RouteEngine::Scalar);
      const RouteUnderFault packed =
          route_unrolled(assignment, plan, RouteEngine::Packed);
      const RouteUnderFault fb_scalar =
          route_feedback(assignment, plan, RouteEngine::Scalar);
      const RouteUnderFault fb_packed =
          route_feedback(assignment, plan, RouteEngine::Packed);

      ASSERT_EQ(scalar.delivered.has_value(), packed.delivered.has_value());
      ASSERT_EQ(scalar.delivered.has_value(),
                fb_scalar.delivered.has_value());
      ASSERT_EQ(scalar.delivered.has_value(),
                fb_packed.delivered.has_value());
      if (scalar.delivered.has_value()) {
        ++masked;
        EXPECT_EQ(*scalar.delivered, expected);
        EXPECT_EQ(*packed.delivered, expected);
        EXPECT_EQ(*fb_scalar.delivered, expected);
        EXPECT_EQ(*fb_packed.delivered, expected);
      } else {
        ++detected;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);  // idle lines dying is harmless
}

TEST(FaultInjectionFullRoute, FeedbackEnginesAgreeOnSwitchFaults) {
  // The feedback implementation under the same 144-site sweep: scalar
  // and packed must agree on every outcome class and every successful
  // delivery. (Feedback localization may legitimately return no sites —
  // the corrupted grid is overwritten by later passes — so only outcome
  // parity is asserted here.)
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t masked = 0, detected = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          const RouteUnderFault fb_scalar =
              route_feedback(assignment, plan, RouteEngine::Scalar);
          const RouteUnderFault fb_packed =
              route_feedback(assignment, plan, RouteEngine::Packed);
          ASSERT_EQ(fb_scalar.delivered.has_value(),
                    fb_packed.delivered.has_value());
          if (fb_scalar.delivered.has_value()) {
            ++masked;
            EXPECT_EQ(*fb_scalar.delivered, expected);
            EXPECT_EQ(*fb_scalar.delivered, *fb_packed.delivered);
          } else {
            ++detected;
          }
        }
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
}

// --- SIMD backend parity ---------------------------------------------------
//
// The packed engine's word loops dispatch through a runtime-selected
// SIMD backend (core/simd_backend.hpp); fault handling must not depend
// on which one runs. The full 144-site stuck-at sweep repeats per
// available backend: every site must be masked or detected exactly as
// the scalar engine decides, never misdelivered — and when a fault is
// detected with provenance enabled, localization must name the same
// (the injected) switch on every backend.

class FaultInjectionBackendSweep
    : public ::testing::TestWithParam<simd::Backend> {};

TEST_P(FaultInjectionBackendSweep, ExhaustiveSwitchSweepMatchesScalar) {
  const simd::Backend backend = GetParam();
  const std::size_t n = 16;
  const int m = 4;
  const MulticastAssignment assignment = sweep_assignment(n);
  const auto expected = expected_delivery(assignment);

  std::size_t sites = 0, masked = 0, detected = 0, localized = 0;
  for (int level = 1; level <= m - 1; ++level) {
    for (const PassKind pass : {PassKind::Scatter, PassKind::Quasisort}) {
      for (int stage = 1; stage <= m - level + 1; ++stage) {
        for (std::size_t sw = 0; sw < n / 2; ++sw) {
          SCOPED_TRACE("level " + std::to_string(level) + " pass " +
                       std::string(pass_name(pass)) + " stage " +
                       std::to_string(stage) + " switch " +
                       std::to_string(sw));
          ++sites;
          fault::FaultPlan plan;
          plan.n = n;
          fault::FaultSpec f;
          f.kind = fault::FaultKind::TransientFlip;
          f.level = level;
          f.pass = pass;
          f.stage = stage;
          f.index = sw;
          plan.faults.push_back(f);

          const RouteUnderFault scalar =
              route_unrolled(assignment, plan, RouteEngine::Scalar);

          // Packed under this backend, with provenance so a detection
          // can be localized.
          fault::FaultInjector injector(plan);
          Brsmn net(n);
          RouteOptions options;
          options.engine = RouteEngine::Packed;
          options.simd_backend = backend;
          options.faults = &injector;
          options.explain = true;
          std::optional<std::vector<std::optional<std::size_t>>> packed;
          try {
            packed = net.route(assignment, options).delivered;
          } catch (const fault::FaultDetected& e) {
            packed = std::nullopt;
            // Single fault on the unrolled fabric: the report must name
            // exactly the injected switch, whichever backend ran.
            ASSERT_FALSE(e.report().sites.empty());
            const fault::FaultSiteMismatch* site = e.report().earliest_site();
            EXPECT_EQ(site->level, level);
            EXPECT_EQ(site->pass, pass);
            EXPECT_EQ(site->stage, stage);
            EXPECT_EQ(site->index, sw);
            ++localized;
          }

          ASSERT_EQ(scalar.delivered.has_value(), packed.has_value())
              << "outcome class diverged from scalar";
          if (packed.has_value()) {
            ++masked;
            EXPECT_EQ(*packed, expected);
            EXPECT_EQ(*packed, *scalar.delivered);
          } else {
            ++detected;
          }
        }
      }
    }
  }
  EXPECT_EQ(sites, 144u);
  EXPECT_GT(detected, 0u);
  EXPECT_GT(masked, 0u);
  EXPECT_EQ(localized, detected);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FaultInjectionBackendSweep,
    ::testing::ValuesIn(simd::available_backends()),
    [](const auto& param_info) {
      return std::string(simd::to_string(param_info.param));
    });

TEST(FaultInjectionFullRoute, RandomPlansDifferentialAtN32) {
  // Seeded multi-fault plans at n = 32 across random assignments: the
  // scalar and packed engines agree on the outcome of every route, for
  // both implementations.
  const std::size_t n = 32;
  Rng rng(test_seed(1234));
  for (int round = 0; round < 10; ++round) {
    const fault::FaultPlan plan = fault::random_fault_plan(n, rng);
    const MulticastAssignment assignment = random_multicast(n, 0.7, rng);
    const auto expected = expected_delivery(assignment);

    const RouteUnderFault scalar =
        route_unrolled(assignment, plan, RouteEngine::Scalar);
    const RouteUnderFault packed =
        route_unrolled(assignment, plan, RouteEngine::Packed);
    ASSERT_EQ(scalar.delivered.has_value(), packed.delivered.has_value())
        << "round " << round;
    if (scalar.delivered.has_value()) {
      EXPECT_EQ(*scalar.delivered, expected);
      EXPECT_EQ(*scalar.delivered, *packed.delivered);
    }

    const RouteUnderFault fb_scalar =
        route_feedback(assignment, plan, RouteEngine::Scalar);
    const RouteUnderFault fb_packed =
        route_feedback(assignment, plan, RouteEngine::Packed);
    ASSERT_EQ(fb_scalar.delivered.has_value(),
              fb_packed.delivered.has_value())
        << "round " << round;
    if (fb_scalar.delivered.has_value()) {
      EXPECT_EQ(*fb_scalar.delivered, expected);
    }
  }
}

TEST(FaultInjectionFullRoute, SelfCheckOffRaisesBareContractViolation) {
  // With self_check explicitly off and no injector, a corrupted route is
  // impossible; but with an injector the wrapping is implied — and with
  // self_check off *and* no faults, the options plumb through unchanged.
  const std::size_t n = 16;
  const MulticastAssignment assignment = sweep_assignment(n);
  Brsmn net(n);
  RouteOptions options;
  options.self_check = false;
  const RouteResult result = net.route(assignment, options);
  EXPECT_EQ(result.delivered, expected_delivery(assignment));
}

/// The packed drivers' line records equivalent to `lines`, the state
/// leaving level k (= entering level k+1) of a route of `assignment`:
/// each copy keeps the range of its source's destinations inside the
/// address block its line serves at level k+1 (n >> k outputs), and the
/// exit tag of level k is the block's side of that level's midpoint.
/// `dests` receives the flat destination array the ranges index.
std::vector<LineRecord> records_leaving_level(
    const MulticastAssignment& assignment, const std::vector<LineValue>& lines,
    int k, std::vector<std::uint32_t>& dests) {
  const std::size_t n = assignment.size();
  const int m = log2_exact(n);
  const std::size_t block = n >> k;
  std::vector<std::uint32_t> offset(n);
  dests.clear();
  for (std::size_t s = 0; s < n; ++s) {
    offset[s] = static_cast<std::uint32_t>(dests.size());
    for (const std::size_t d : assignment.destinations(s)) {
      dests.push_back(static_cast<std::uint32_t>(d));
    }
  }
  std::vector<LineRecord> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!lines[i].packet.has_value()) continue;
    const Packet& p = *lines[i].packet;
    const auto& own = assignment.destinations(p.source);
    const std::size_t base = i / block * block;
    const auto lo = std::lower_bound(own.begin(), own.end(), base);
    const auto hi = std::lower_bound(own.begin(), own.end(), base + block);
    // The stream the scalar view carries is exactly that range, rebased.
    std::vector<std::size_t> rebased;
    for (auto it = lo; it != hi; ++it) rebased.push_back(*it - base);
    EXPECT_EQ(decode_sequence(p.stream), rebased) << "line " << i;
    LineRecord& r = recs[i];
    r.source = static_cast<std::uint32_t>(p.source);
    r.lo = offset[p.source] + static_cast<std::uint32_t>(lo - own.begin());
    r.hi = offset[p.source] + static_cast<std::uint32_t>(hi - own.begin());
    r.exit = ((base >> (m - k)) & 1u) ? Tag::One : Tag::Zero;
    r.copy_id = p.copy_id;
    r.parent_id = p.parent_id;
  }
  return recs;
}

/// The detection point `check` raises, or nullopt when it passes.
std::optional<fault::DetectPoint> detection(
    const std::function<void()>& check) {
  try {
    check();
  } catch (const fault::FaultDetected& e) {
    return e.report().at;
  }
  return std::nullopt;
}

TEST(SelfCheckMutation, RecordCheckNamesTheSameLevelAsTheScalarCheck) {
  // Corrupt the line state leaving each level in the four ways the
  // per-level self-check exists to catch — on the packed drivers' line
  // records and, equivalently, on the scalar engine's LineValues — and
  // require both checks to fire at that level.
  Rng rng(test_seed(4242));
  for (const std::size_t n : {16u, 64u}) {
    const int m = log2_exact(n);
    const MulticastAssignment assignment =
        n == 16 ? sweep_assignment(n) : random_multicast(n, 0.9, rng);
    Brsmn net(n);
    RouteOptions options;
    options.engine = RouteEngine::Packed;
    options.capture_levels = true;
    const RouteResult cold = net.route(assignment, options);
    ASSERT_EQ(cold.level_inputs.size(), static_cast<std::size_t>(m));
    for (int k = 1; k <= m - 1; ++k) {
      SCOPED_TRACE("n " + std::to_string(n) + " level " + std::to_string(k));
      const std::vector<LineValue>& lines =
          cold.level_inputs[static_cast<std::size_t>(k)];
      std::vector<std::uint32_t> dests;
      const std::vector<LineRecord> recs =
          records_leaving_level(assignment, lines, k, dests);
      auto record_check = [&](const std::vector<LineRecord>& r) {
        return detection([&] {
          fault::self_check_level(std::span<const LineRecord>(r), k, 0);
        });
      };
      auto scalar_check = [&](const std::vector<LineValue>& l) {
        return detection([&] { fault::self_check_level(l, k, 0); });
      };
      ASSERT_FALSE(record_check(recs).has_value());
      ASSERT_FALSE(scalar_check(lines).has_value());

      std::vector<std::size_t> occupied;
      std::vector<std::size_t> idle;
      for (std::size_t i = 0; i < n; ++i) {
        (recs[i].empty() ? idle : occupied).push_back(i);
      }
      ASSERT_GE(occupied.size(), 2u);
      ASSERT_FALSE(idle.empty());
      const std::size_t a = occupied.front();
      const std::size_t b = occupied.back();
      const std::size_t e = idle.front();

      auto expect_same_level = [&](const char* what,
                                   const std::vector<LineRecord>& r,
                                   const std::vector<LineValue>& l) {
        SCOPED_TRACE(what);
        const auto packed = record_check(r);
        const auto scalar = scalar_check(l);
        ASSERT_TRUE(packed.has_value());
        ASSERT_TRUE(scalar.has_value());
        EXPECT_EQ(packed->level, k);
        EXPECT_EQ(packed->level, scalar->level);
        EXPECT_EQ(packed->pass, scalar->pass);
        EXPECT_EQ(packed->fabric_settled, scalar->fabric_settled);
      };

      {  // An occupied line with no source / packet.
        auto r = recs;
        auto l = lines;
        r[a].source = LineRecord::kNoSource;
        l[a].packet.reset();
        expect_same_level("occupied line without a source", r, l);
      }
      {  // Two live copies with one copy id.
        auto r = recs;
        auto l = lines;
        r[b].copy_id = r[a].copy_id;
        l[b].packet->copy_id = l[a].packet->copy_id;
        expect_same_level("duplicated copy id", r, l);
      }
      {  // A copy sent into the half holding none of its destinations:
         // its range narrows to nothing, its stream to all-ε.
        auto r = recs;
        auto l = lines;
        r[a].lo = r[a].hi;
        std::fill(l[a].packet->stream.begin(), l[a].packet->stream.end(),
                  Tag::Eps);
        l[a].tag = Tag::Eps;
        expect_same_level("copy sent into an empty half", r, l);
      }
      {  // An ε line that keeps a source.
        auto r = recs;
        auto l = lines;
        r[e].source = r[a].source;
        r[e].copy_id = 1000000;
        l[e].packet = *l[a].packet;
        l[e].packet->copy_id = 1000000;
        expect_same_level("eps line keeping a source", r, l);
      }
    }
  }
}

TEST(FaultInjection, OracleRejectsMisalignedBroadcastPlans) {
  // The test oracle itself must notice when a broadcast switch is fed
  // anything but an aligned (alpha, eps) pair — guarding the guards.
  using testing::Sym;
  const std::vector<Sym> in{Sym::Chi, Sym::Alpha, Sym::Eps, Sym::Chi};
  const std::vector<SwitchSetting> settings{SwitchSetting::UpperBcast,
                                            SwitchSetting::Parallel};
  std::vector<Sym> out;
  EXPECT_FALSE(testing::apply_merging_stage(in, settings, out));
}

}  // namespace
}  // namespace brsmn
