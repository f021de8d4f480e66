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
// ImplKind, its total-span name, one install of a pass's stage masks,
// its level body (which keeps the implementation's own Eq. 2-4
// contracts, stats and gate-delay accounting, and guard placement), and
// the final level's fabric-pass accounting.
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

/// One pass's stage masks, [j-1] for j = 1..S, each level-wide: the
/// kernel's (after the fault seam) or a stored plan's.
using PassMasks = std::span<const packed::StageMasks>;

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

  /// Install `pass`'s masks into level k's BSN fabrics: each BSN takes
  /// its 2^S-line slice of every stage, which fully overwrites the
  /// level's stale grids.
  void install(PassKind pass, int k, PassMasks masks) {
    std::vector<Bsn>& level = net.levels_[static_cast<std::size_t>(k - 1)];
    const std::size_t bsn_size = n() / level.size();
    for (std::size_t bb = 0; bb < level.size(); ++bb) {
      Rbn& fabric = pass == PassKind::Scatter
                        ? level[bb].mutable_scatter_fabric()
                        : level[bb].mutable_quasisort_fabric();
      for (std::size_t j = 0; j < masks.size(); ++j) {
        fabric.install(static_cast<int>(j + 1), masks[j].su, masks[j].sl,
                       bb * bsn_size);
      }
    }
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

  /// Install the pass's masks over the level's S reconfigured stages
  /// and reset the stages above to identity, so the grid ends each pass
  /// as a cold route leaves it. The fabric is not cleared first: install
  /// overwrites every stage.
  void install(PassKind /*pass*/, int /*k*/, PassMasks masks) {
    for (std::size_t j = 0; j < masks.size(); ++j) {
      net.fabric_.install(static_cast<int>(j + 1), masks[j].su, masks[j].sl);
    }
    net.fabric_.reset(static_cast<int>(masks.size()) + 1);
  }

  /// The feedback level body (core/packed_kernel.cpp).
  void compile_level(RouteFrame& f, int k, PlanLevel* pl);
};

}  // namespace brsmn::pkern
