// Online self-check predicates and the typed-detection guard.
//
// The routing engines already assert the paper's invariants (Eq. 2-4
// occupancy arithmetic, quasisort half-split, delivery-vs-assignment);
// those throw plain ContractViolation with no idea *where* in the route
// they fired. When RouteOptions::self_check (default on) or a fault
// injector is active, the drivers wrap each region in guard(), which
// rethrows any ContractViolation as a FaultDetected carrying the
// (level, pass, settled) detection point — and add the two checks below,
// which close the gaps the per-pass contracts leave between levels and
// at delivery.
//
// Cost: O(n log n) per route (one sort per level) against the O(n log^2 n)
// routing work — cheap enough to leave on by default; gated at <= 1.10x
// route p50 in CI.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/line_value.hpp"
#include "fault/fault_report.hpp"

namespace brsmn::fault {

/// Per-level line-state invariants, run after advance_streams in every
/// driver: occupied lines carry a packet whose stream front equals the
/// line tag, empty lines carry none, and no two live copies share a copy
/// id. Throws FaultDetected naming the level.
void self_check_level(const std::vector<LineValue>& lines, int level,
                      std::uint64_t route);

/// The packed drivers' form of self_check_level, over the line records
/// a level's gather produced (exit tags set, ranges already narrowed to
/// the branch taken): an ε line carries no source, every occupied line
/// carries one, leaves its BSN tagged 0 or 1, and still has destinations
/// in the half it was sent to, and no two live copies share a copy id.
/// Throws FaultDetected naming the level.
void self_check_level(std::span<const LineRecord> lines, int level,
                      std::uint64_t route);

/// Typed delivery oracle: `delivered` must match the assignment's
/// src_of array (MulticastAssignment::kIdle: nothing). Throws
/// FaultDetected naming the first mismatching output; the drivers' legacy
/// delivery ENSURES stays behind it as a belt-and-braces check.
void self_check_delivery(
    const std::vector<std::optional<std::size_t>>& delivered,
    std::span<const std::uint32_t> src_of, int level, std::uint64_t route);

/// Run `fn`, rethrowing ContractViolation as FaultDetected tagged with
/// the detection point. An inner FaultDetected passes through untouched
/// (it already carries a more precise point). With checking == false the
/// body runs unwrapped — the fault-free hot path stays exception-scope
/// free.
template <typename Fn>
decltype(auto) guard(bool checking, std::size_t n, std::uint64_t route,
                     int level, std::optional<PassKind> pass,
                     bool fabric_settled, Fn&& fn) {
  if (!checking) return std::forward<Fn>(fn)();
  try {
    return std::forward<Fn>(fn)();
  } catch (FaultDetected&) {
    throw;
  } catch (const ContractViolation& e) {
    FaultReport report;
    report.n = n;
    report.route = route;
    report.at = DetectPoint{level, pass, fabric_settled};
    report.check = e.what();
    throw FaultDetected(std::move(report));
  }
}

}  // namespace brsmn::fault
