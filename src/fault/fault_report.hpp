// Typed fault reports: what the online self-check caught, and where.
//
// A detection has two coordinates. The *detection point* is the first
// check that failed — a (level, pass) region of the route, plus whether
// that pass's fabric configuration had settled when the check ran. The
// *fault sites* are the provenance-localized switches whose installed
// settings disagree with the recorded routing intent (core/explain.hpp):
// the explanation grid is written by the configuration algorithms before
// injection touches the fabric, so diffing it against the fabric names
// the corrupted switches exactly (fault/locate.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/explain.hpp"
#include "core/switch_setting.hpp"

namespace brsmn::fault {

/// Where in a route a check failed. `pass` is nullopt for checks that run
/// between passes (inter-level line-state advance and self-check),
/// in which case both passes of `level` are settled iff fabric_settled.
struct DetectPoint {
  int level = 0;
  std::optional<PassKind> pass;
  /// Whether the named pass's configuration (including any injected
  /// faults) had been installed when the check fired. Localization only
  /// diffs settled passes — an unsettled grid is half-written by design.
  bool fabric_settled = false;
  /// The scalar unrolled engine routes a level block by block (both
  /// passes per BSN); when a block-local check fires, grids of later
  /// blocks at this level are still stale. block_size == 0 means the
  /// whole level configures at once (feedback and packed engines), so
  /// the settled flag covers the full width.
  std::size_t block_base = 0;
  std::size_t block_size = 0;
};

/// One switch whose installed setting disagrees with the recorded intent.
struct FaultSiteMismatch {
  int level = 0;
  PassKind pass = PassKind::Scatter;
  int stage = 0;          ///< 1-based stage within the level
  std::size_t index = 0;  ///< full-width stage-switch index
  SwitchSetting intended = SwitchSetting::Parallel;
  SwitchSetting actual = SwitchSetting::Parallel;

  friend bool operator==(const FaultSiteMismatch&,
                         const FaultSiteMismatch&) = default;
};

struct FaultReport {
  std::size_t n = 0;          ///< network width
  std::uint64_t route = 0;    ///< injector route ordinal (0 when no injector)
  DetectPoint at{};           ///< the check that fired
  std::string check;          ///< the violated predicate's message
  /// Provenance-localized mismatches, earliest (level, pass, stage,
  /// switch) first. Filled by fault/locate.hpp when the route ran with
  /// RouteOptions::explain; empty otherwise.
  std::vector<FaultSiteMismatch> sites;

  /// The earliest localized site, if any.
  const FaultSiteMismatch* earliest_site() const noexcept {
    return sites.empty() ? nullptr : &sites.front();
  }

  /// Human-readable summary (detection point, check, earliest sites).
  std::string to_string() const;
};

/// Thrown by the online self-check in place of a bare ContractViolation.
/// IS-A ContractViolation, so existing catch sites and EXPECT_THROW
/// assertions keep working; callers that care about provenance catch the
/// derived type and read report().
class FaultDetected : public ContractViolation {
 public:
  explicit FaultDetected(FaultReport report);

  const FaultReport& report() const noexcept { return report_; }

 private:
  FaultReport report_;
};

}  // namespace brsmn::fault
