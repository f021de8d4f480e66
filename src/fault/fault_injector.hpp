// The injection seam: resolves a FaultPlan against a concrete route and
// mutates fabric state the way a physical defect would.
//
// Faults strike *after* a pass's configuration is computed and *before*
// its datapath runs — the routing algorithms decide with full integrity
// (and record their intent into the explanation grid when enabled), then
// the fabric silently disobeys. That ordering is what makes provenance
// localization (fault/locate.hpp) possible: intent and actual are two
// separate artifacts that can be diffed.
//
// The same seam serves both engines on both implementations. Scalar
// engines patch the Rbn settings the datapath reads; the packed engine
// patches the stage bitmasks its word-parallel datapath consumes, before
// its fabric binding (core/fabric_binding.hpp) copies them into the Rbn
// fabrics — so post-route inspection agrees and the two engines stay
// bit-identical under the same plan.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/brsmn.hpp"
#include "core/packed_kernel.hpp"
#include "core/rbn.hpp"
#include "fault/fault_plan.hpp"

namespace brsmn::fault {

/// One fault application attempt on a concrete route, for audit trails
/// and tests. `changed == false` means the fault was a no-op at its site
/// (stuck value equal to the configured setting, or the site was
/// configured as a broadcast — the fault model leaves broadcast switches
/// alone, see docs/FAULT_TOLERANCE.md) and is therefore masked by
/// construction.
struct AppliedFault {
  std::size_t spec_index = 0;
  FaultKind kind = FaultKind::StuckSetting;
  int level = 0;
  std::optional<PassKind> pass;  ///< nullopt for dead links
  int stage = 0;                 ///< 0 for dead links
  std::size_t index = 0;         ///< switch index, or line for dead links
  SwitchSetting from = SwitchSetting::Parallel;
  SwitchSetting to = SwitchSetting::Parallel;
  bool changed = false;
};

/// Where the faults of one route actually landed.
struct FaultActivity {
  std::vector<AppliedFault> applied;

  std::size_t changed_count() const noexcept {
    std::size_t c = 0;
    for (const AppliedFault& a : applied) c += a.changed;
    return c;
  }
  void clear() { applied.clear(); }
};

class FaultInjector {
 public:
  /// Validates the plan (throws ContractViolation on malformed specs).
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }
  std::size_t size() const noexcept { return plan_.n; }

  /// Claim the next route ordinal. Called once per route() by the
  /// engines; atomic so the workers of one cluster shard share one
  /// schedule.
  std::uint64_t begin_route() noexcept {
    return next_route_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t routes_begun() const noexcept {
    return next_route_.load(std::memory_order_relaxed);
  }

  struct ArmedSwitchFault {
    std::size_t spec_index = 0;
    FaultKind kind = FaultKind::StuckSetting;
    int stage = 0;
    std::size_t index = 0;  ///< full-width stage-switch index
    SwitchSetting stuck = SwitchSetting::Cross;  ///< StuckSetting only
  };
  struct ArmedDeadLink {
    std::size_t spec_index = 0;
    std::size_t line = 0;
  };

  /// The switch faults active for (route, level, pass) under the given
  /// implementation and engine. Stateless const read: thread-safe.
  std::vector<ArmedSwitchFault> switch_faults(std::uint64_t route, int level,
                                              PassKind pass, ImplKind impl,
                                              RouteEngine engine) const;

  /// The lines dead at entry of `level` for this route/impl/engine.
  std::vector<ArmedDeadLink> dead_lines(std::uint64_t route, int level,
                                        ImplKind impl,
                                        RouteEngine engine) const;

 private:
  FaultPlan plan_;
  std::atomic<std::uint64_t> next_route_{0};
};

/// Full-width upper line of (stage, switch): switches are block-major
/// with d = 2^(stage-1) per block, block b joining lines
/// (b*2d + t, b*2d + t + d). Shared by injection and localization so the
/// two sides of the seam agree on site addressing.
std::size_t fault_site_upper_line(int stage, std::size_t switch_index);

/// Stage-switch index of full-width line `u` inside a sub-fabric whose
/// first line is `base` (base is 2^stage-aligned for every addressable
/// stage, so the in-block offset is preserved).
std::size_t fault_site_local_switch(int stage, std::size_t u,
                                    std::size_t base);

/// What a configured setting becomes at a faulted switch. Broadcast
/// configurations are immune — the fault model corrupts the unicast
/// exchange bit only — so the configured setting comes back unchanged
/// and the fault counts as masked at that site.
SwitchSetting faulted_setting(SwitchSetting configured, FaultKind kind,
                              SwitchSetting stuck);

/// Kill the scheduled dead lines at entry of `level`: each becomes an
/// empty ε. Shared verbatim by every driver (before the level's
/// packed load / scalar slicing), which keeps dead links trivially
/// engine-identical; the packed drivers pass their line records.
void apply_dead_lines(const FaultInjector* injector, std::uint64_t route,
                      int level, ImplKind impl, RouteEngine engine,
                      std::vector<LineValue>& lines, FaultActivity* activity);
void apply_dead_lines(const FaultInjector* injector, std::uint64_t route,
                      int level, ImplKind impl, RouteEngine engine,
                      std::vector<LineRecord>& lines, FaultActivity* activity);

/// The per-(level, pass) seam handed into the engines. A null injector
/// makes every apply a no-op, so the seam doubles as plumbing for
/// self-check-only routes.
struct PassSeam {
  const FaultInjector* injector = nullptr;
  FaultActivity* activity = nullptr;
  std::uint64_t route = 0;
  /// Full network width, for FaultReport::n in detections raised inside
  /// a sub-fabric (which only knows its own size).
  std::size_t net_width = 0;
  int level = 1;
  ImplKind impl = ImplKind::Unrolled;
  RouteEngine engine = RouteEngine::Scalar;
  /// First full-width line covered by the local fabric being patched:
  /// b * bsn_size for the unrolled engine's per-BSN fabrics, 0 for the
  /// feedback engine's full-width fabric.
  std::size_t line_base = 0;

  bool armed() const noexcept { return injector != nullptr; }

  /// Scalar engines: patch the settings of `fabric` (covering lines
  /// [line_base, line_base + fabric.size())) for this level's `pass`.
  void apply_local(Rbn& fabric, PassKind pass) const;

  /// Packed engine, either implementation: patch the level-wide stage
  /// masks of the level kernel (faults address full-width lines). The
  /// fabric binding installs the patched masks into the Rbn grids
  /// afterwards, so post-route inspection sees what the datapath ran.
  void apply_packed(PassKind pass,
                    std::vector<packed::StageMasks>& masks) const;
};

}  // namespace brsmn::fault
