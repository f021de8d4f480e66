// The per-implementation half of the packed drivers.
//
// The feedback implementation (paper Section 7.3, Fig. 13) runs on its
// one physical RBN exactly the unrolled network's sequence of passes —
// per level a scatter pass and an ε-divide + quasisort pass, then the
// 2x2 delivery level — so the two implementations differ only in which
// fabric each pass configures. The packed driver frame (cold compile and
// incremental patch, drive_packed in core/packed_kernel.cpp) and the
// plan replay (core/route_plan.cpp) are therefore each written once, over
// a binding that names that fabric: UnrolledFabric configures level k's
// BSNs (Brsmn::levels_[k-1]), FeedbackFabric the single RBN.
//
// A binding is a reference to its network plus: the implementation's
// ImplKind, its total-span name, one install of a pass's stage rows, the
// fault seam, its level body (which keeps the implementation's own
// Eq. 2-4 contracts, stats and gate-delay accounting, and guard
// placement), and the final level's fabric-pass accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

namespace brsmn {
struct PlanLevel;
}  // namespace brsmn

namespace brsmn::pkern {

/// One packed route's driver state (core/packed_kernel.cpp).
struct RouteFrame;

/// One pass's stage rows, [j-1] for j = 1..S, each stage's n/2 settings
/// level-wide in the block-major order Rbn::install_stage takes.
using SettingRows = std::span<const std::vector<SwitchSetting>>;

/// The packed fault seam of level k: the injector's armed faults for
/// `impl`, recorded into options.fault_activity.
inline fault::PassSeam packed_seam(const RouteOptions& options,
                                   std::uint64_t route_ord, std::size_t n,
                                   int k, fault::ImplKind impl) {
  fault::PassSeam seam;
  seam.injector = options.faults;
  seam.activity = options.fault_activity;
  seam.route = route_ord;
  seam.net_width = n;
  seam.level = k;
  seam.impl = impl;
  seam.engine = RouteEngine::Packed;
  return seam;
}

/// The workspace in `slot`, created on first use: the networks own their
/// compile and replay scratch, so warm routes allocate nothing.
template <typename Workspace>
Workspace& lazy_workspace(std::unique_ptr<Workspace>& slot, std::size_t n,
                          int m) {
  if (slot == nullptr) slot = std::make_unique<Workspace>(n, m);
  return *slot;
}

struct UnrolledFabric {
  static constexpr fault::ImplKind kImpl = fault::ImplKind::Unrolled;
  static constexpr std::string_view kRouteSpan = "brsmn.route";
  /// The delivery switches are a level of their own, not a fabric pass.
  static constexpr std::size_t kFinalPasses = 0;

  Brsmn& net;

  std::size_t n() const { return net.n_; }
  int m() const { return net.m_; }

  CompileWorkspace& compile_ws() {
    return lazy_workspace(net.compile_ws_, n(), m());
  }
  ReplayWorkspace& replay_ws() {
    return lazy_workspace(net.replay_ws_, n(), m());
  }

  /// Install `pass`'s rows into level k's BSN fabrics: each BSN owns the
  /// contiguous 2^(S-1)-wide slice of every row, so this is one copy per
  /// (BSN, stage) and fully overwrites the level's stale grids.
  void install(PassKind pass, int k, SettingRows rows) {
    std::vector<Bsn>& level = net.levels_[static_cast<std::size_t>(k - 1)];
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const std::span<const SwitchSetting> row(rows[j]);
      const std::size_t bsn_row = row.size() / level.size();
      for (std::size_t bb = 0; bb < level.size(); ++bb) {
        Rbn& fabric = pass == PassKind::Scatter
                          ? level[bb].mutable_scatter_fabric()
                          : level[bb].mutable_quasisort_fabric();
        fabric.install_stage(static_cast<int>(j + 1),
                             row.subspan(bb * bsn_row, bsn_row));
      }
    }
  }

  /// Patch level seam.level's BSN fabrics and the pass's masks in
  /// lockstep.
  void apply_seam(const fault::PassSeam& seam, PassKind pass,
                  std::vector<packed::StageMasks>& masks) {
    seam.apply_unrolled_packed(
        net.levels_[static_cast<std::size_t>(seam.level - 1)], pass, masks);
  }

  /// The unrolled level body (core/packed_kernel.cpp).
  void compile_level(RouteFrame& f, int k, PlanLevel* pl);
};

struct FeedbackFabric {
  static constexpr fault::ImplKind kImpl = fault::ImplKind::Feedback;
  static constexpr std::string_view kRouteSpan = "feedback.route";
  /// The final 2x2 level is one more pass, over stage 1 of the fabric.
  static constexpr std::size_t kFinalPasses = 1;

  FeedbackBrsmn& net;

  std::size_t n() const { return net.size(); }
  int m() const { return net.levels(); }

  CompileWorkspace& compile_ws() {
    return lazy_workspace(net.compile_ws_, n(), m());
  }
  ReplayWorkspace& replay_ws() {
    return lazy_workspace(net.replay_ws_, n(), m());
  }

  /// Reset the fabric and install the pass's rows: the rows cover
  /// exactly the level's S reconfigured stages and the stages above stay
  /// identity, so the grid ends each pass as a cold route leaves it.
  void install(PassKind /*pass*/, int /*k*/, SettingRows rows) {
    net.fabric_.reset();
    for (std::size_t j = 0; j < rows.size(); ++j) {
      net.fabric_.install_stage(static_cast<int>(j + 1), rows[j]);
    }
  }

  /// Patch the full-width fabric and the pass's masks in lockstep.
  void apply_seam(const fault::PassSeam& seam, PassKind pass,
                  std::vector<packed::StageMasks>& masks) {
    seam.apply_full_packed(net.fabric_, pass, masks);
  }

  /// The feedback level body (core/packed_kernel.cpp).
  void compile_level(RouteFrame& f, int k, PlanLevel* pl);
};

}  // namespace brsmn::pkern
