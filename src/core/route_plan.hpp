// Compiled route plans: the replayable artifact of one route().
//
// A cold route spends most of its time deciding — quasisort merges, tag
// trees, eps-division, scatter planning — and comparatively little time
// moving bits through the fabric. A RoutePlan freezes every decision of
// one route over one assignment: the per-(level, pass) switch settings,
// stored once as the packed StageMasks (two bits per switch — all the
// state a 2x2 switch has, Fig. 7), the broadcast events with their
// copy-id allocation order, the expected state checkpoints after each
// pass, and the output mapping. route_replay() (Brsmn / FeedbackBrsmn)
// then skips the configuration phases entirely: it installs the stored
// masks into the datapath and the Rbn grids, drives the datapath, and
// validates the resulting state against the checkpoints — so a replay
// under an active fault still raises fault::FaultDetected, and a clean
// replay is bit-identical to a cold route (outputs, fabric grids, stats,
// explanations).
//
// Plans are engine-agnostic (the Scalar and Packed engines are
// bit-identical, so one plan serves both) but implementation-specific:
// the unrolled and feedback fabrics take different setting runs and
// allocate copy ids in different orders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/brsmn.hpp"
#include "core/feedback.hpp"
#include "core/level_kernel.hpp"
#include "core/packed_kernel.hpp"
#include "fault/fault_plan.hpp"

namespace brsmn {

/// Everything needed to replay one BRSMN level (a scatter pass plus a
/// quasisort pass) without re-deciding it.
struct PlanLevel {
  int stages = 0;  ///< S = log2 of this level's BSN size

  /// Tag planes of the line state entering the level (codes are always
  /// the identity and are reloaded, not stored).
  packed::Words entry_t0;
  packed::Words entry_t1;
  packed::Words entry_t2;

  /// Per-stage datapath masks, per pass: [j-1] holds stage j's su and
  /// sl bits level-wide, exactly as the compile's configuration sweeps
  /// wrote them. Compile, replay and patching install them into the Rbn
  /// grids with Rbn::install (each unrolled BSN takes its 2^stages-line
  /// slice), so the masks are the only stored form of a decision.
  std::vector<packed::StageMasks> scatter_masks;
  std::vector<packed::StageMasks> quasisort_masks;

  /// Broadcast events with finalized copy-id allocation order.
  std::vector<std::vector<pkern::BcastEvent>> events;
  std::size_t num_events = 0;
  /// Parent code (by event ord) latched by the scatter datapath; restoring
  /// it lets a later level's gather materialize this level's copies without
  /// re-running the datapath (see planner::patch_route).
  std::vector<std::size_t> parent_codes;

  /// Full kernel-state checkpoint (all code + tag planes) after the
  /// scatter datapath; replay compares against it under the self-check.
  packed::Words post_scatter;
  /// The t2 plane after eps-division (the division is a decision, so it
  /// is part of the plan, not re-derived).
  packed::Words divided_t2;
  /// Full kernel-state checkpoint after the quasisort datapath.
  packed::Words post_quasisort;
  /// This level's contribution to RoutePlan::stats (traversals, tree ops,
  /// gate delay, ...), so a patch that reuses the level verbatim can
  /// accumulate the same totals a cold compile would.
  RoutingStats stats_delta;
};

struct RoutePlan {
  std::size_t n = 0;
  int m = 0;  ///< log2(n)
  fault::ImplKind impl = fault::ImplKind::Unrolled;
  std::size_t wcode = 0;  ///< code-plane count the checkpoints were taken at

  /// levels[k-1], k = 1..m-1. Immutable and shared, never copied: a
  /// patch adopts a clean level by taking another reference to its
  /// base's, and evicting a plan frees only the levels no other plan
  /// still holds.
  std::vector<std::shared_ptr<const PlanLevel>> levels;

  /// Tag planes of the line state entering the final 2x2-switch level,
  /// used to screen dead-line faults at delivery.
  packed::Words final_t0;
  packed::Words final_t1;
  packed::Words final_t2;

  /// The cold route's outputs, copied verbatim on a clean replay.
  std::vector<std::optional<std::size_t>> delivered;
  RoutingStats stats;
  std::vector<std::size_t> broadcasts_per_level;
  /// Present only when compiled with RouteOptions::explain.
  std::optional<RouteExplanation> explanation;
};

/// Canonical 64-bit fingerprint of (assignment):
/// MulticastAssignment::fingerprint, computed once per assignment and
/// carried by its copies. Shared by shard placement, the plan cache's
/// bucket hash and group routes.
std::uint64_t assignment_fingerprint(const MulticastAssignment& a);

namespace planner {

/// Cold-route `net` on `assignment` (always through the packed driver —
/// the engines are bit-identical, so the captured plan serves both) while
/// filling `plan`. Requires options.faults == nullptr: a plan compiled
/// under an armed injector could freeze corrupted checkpoints.
RouteResult compile_route(Brsmn& net, const MulticastAssignment& assignment,
                          const RouteOptions& options, RoutePlan& plan);
RouteResult compile_route(FeedbackBrsmn& net,
                          const MulticastAssignment& assignment,
                          const RouteOptions& options, RoutePlan& plan);

/// Incremental recompilation: a level's compile products are a pure
/// function of the tag planes entering it (codes are identity-loaded per
/// level), so patch_route walks the levels of a fresh compile of
/// `assignment` and, whenever a level's entry tag planes match `base`'s
/// stored checkpoint, adopts the base level instead of re-deriving it:
/// `out` takes another reference to the base's immutable PlanLevel
/// (masks, events, parent codes, checkpoints, stats delta), and the
/// fabric and line state are advanced from it. Only levels whose entry
/// planes diverge (and always the final 2x2 delivery level) are
/// recompiled, through the exact cold code path, into fresh levels, so a
/// patched plan is bit-identical to a cold compile of `assignment`
/// (verified exhaustively by tests/test_group_manager.cpp) and outlives
/// `base`: the levels it shares stay alive as long as either plan does.
///
/// A join or leave changes one source's tag tree (Figs. 9/11), and only
/// along the path to the changed output: a node's tag flips only where
/// the change empties or populates one of its halves. Near the root a
/// high-fanout source's nodes read α either way, so a delta dirties the
/// *deep* levels and leaves the shallow ones clean (on the
/// group_churn_n256 shape — 8 sources sharing 3/4 of 256 outputs — the
/// share of patches adopting level k verbatim is 1.00, 1.00, 0.95, 0.77,
/// 0.51, 0.28, 0.10 for k = 1..7). A delta that preserves a level's
/// half-splits never dirties it at all. The walk budgets *actual* dirty
/// levels as it discovers them: when recompiling one more would exceed
/// `max_dirty_fraction` of the switch levels, the patch is abandoned
/// (`patched == false`, `out` unspecified) and the caller should
/// cold-compile instead — having spent at most that fraction of a cold
/// compile finding out.
struct PatchConfig {
  /// Abandon the patch when more than this fraction of switch levels
  /// must recompile. 1.0 never abandons (a full recompile through the
  /// patch driver still equals a cold compile).
  double max_dirty_fraction = 1.0;
};

struct PatchOutcome {
  bool patched = false;            ///< false: caller must cold-compile
  std::size_t levels_reused = 0;   ///< switch levels adopted from `base`
  std::size_t levels_recompiled = 0;
  /// First level whose entry planes diverged from `base` (1-based);
  /// 0 when every switch level was reused.
  int first_dirty_level = 0;
  RouteResult result;  ///< valid only when `patched`
};

/// Patch `base` (a plan for a *different* assignment on the same fabric)
/// into `out`, a plan for `assignment`. Requirements mirror
/// compile_route — options.faults must be null — plus: `base` must have
/// been compiled on the same implementation with the same n, and when
/// options.explain is set the base must carry an explanation (otherwise
/// the patch is abandoned). On success `out` serves route_replay exactly
/// like a compile_route product.
PatchOutcome patch_route(Brsmn& net, const MulticastAssignment& assignment,
                         const RoutePlan& base, const RouteOptions& options,
                         RoutePlan& out, const PatchConfig& config = {});
PatchOutcome patch_route(FeedbackBrsmn& net,
                         const MulticastAssignment& assignment,
                         const RoutePlan& base, const RouteOptions& options,
                         RoutePlan& out, const PatchConfig& config = {});

}  // namespace planner

}  // namespace brsmn
