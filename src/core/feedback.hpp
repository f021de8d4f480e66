// The feedback implementation of the BRSMN (paper Section 7.3, Fig. 13).
//
// Instead of unrolling log n levels of BSNs, a single physical n x n RBN
// is reused: every output feeds back to the input with the same address.
// Pass 2k-1 configures the fabric as the level-k scatter networks and
// pass 2k as the level-k quasisorting networks; the level-k BSNs of size
// n' = n/2^{k-1} are exactly the contiguous sub-RBNs of the fabric
// (stages 1..log n'), with the remaining stages set to parallel
// (identity). The final level of 2x2 switches is one more pass. Total:
// 2(log n - 1) + 1 passes over one fabric of (n/2) log n switches, giving
// the O(n log n) cost row of Table 2.
#pragma once

#include <cstddef>
#include <memory>

#include "core/brsmn.hpp"
#include "core/rbn.hpp"

namespace brsmn {

class FeedbackBrsmn {
 public:
  /// An n x n feedback BRSMN, n a power of two >= 2.
  explicit FeedbackBrsmn(std::size_t n);

  // Out-of-line where pkern::ReplayWorkspace is complete
  // (core/route_plan.cpp). Move-only, like Brsmn.
  ~FeedbackBrsmn();
  FeedbackBrsmn(FeedbackBrsmn&&) noexcept;
  FeedbackBrsmn& operator=(FeedbackBrsmn&&) noexcept;

  std::size_t size() const noexcept { return fabric_.size(); }
  int levels() const noexcept { return fabric_.stages(); }

  /// Passes over the physical fabric per routed assignment:
  /// 2(log n - 1) + 1.
  std::size_t passes_per_route() const;

  /// Physical switches: (n/2) log2(n) — one RBN, reused.
  std::size_t switch_count() const {
    return fabric_.topology().switch_count();
  }

  /// Route a multicast assignment; produces results identical to
  /// Brsmn::route on the same assignment (verified by tests). When
  /// capture_levels is set, level_inputs[k-1] holds the line state
  /// entering level k, exactly as for the unrolled network.
  RouteResult route(const MulticastAssignment& assignment,
                    const RouteOptions& options = {});

  /// Replay a compiled plan on this fabric: each pass's stored masks are
  /// installed (stages above the level's reset, as in a cold route) and
  /// only the datapath runs. Same self-check / fault semantics as
  /// Brsmn::route_replay; requires plan.impl == Feedback.
  RouteResult route_replay(const RoutePlan& plan,
                           const RouteOptions& options = {});

  /// route_replay writing into a caller-owned result (see
  /// Brsmn::route_replay_into for the zero-allocation contract).
  void route_replay_into(const RoutePlan& plan, const RouteOptions& options,
                         RouteResult& out);

  const Rbn& fabric() const noexcept { return fabric_; }

 private:
  /// The packed engines' binding (core/fabric_binding.hpp): the packed
  /// compile, patch and replay install each pass's settings into fabric_
  /// through it, so fabric() inspection sees the last pass's grid exactly
  /// as the scalar engine leaves it.
  friend struct pkern::FeedbackFabric;

  Rbn fabric_;
  /// Lazily created by route_replay (see Brsmn::replay_ws_).
  std::unique_ptr<pkern::ReplayWorkspace> replay_ws_;
  /// Lazily created by the packed compile and patch (see
  /// Brsmn::compile_ws_).
  std::unique_ptr<pkern::CompileWorkspace> compile_ws_;
};

RouteResult packed_route(FeedbackBrsmn& net,
                         const MulticastAssignment& assignment,
                         const RouteOptions& options,
                         RoutePlan* plan = nullptr);

}  // namespace brsmn
