#include "fault/fault_injector.hpp"

#include "common/contracts.hpp"
#include "core/level_kernel.hpp"

namespace brsmn::fault {

namespace {

bool scope_matches(const FaultSpec& f, ImplKind impl, RouteEngine engine) {
  if (f.impl && *f.impl != impl) return false;
  if (f.engine && *f.engine != engine) return false;
  return true;
}

/// Resolve one armed fault against the configured setting, log it into
/// the seam's activity trail, and return the new setting when it differs.
std::optional<SwitchSetting> resolve_and_record(
    const PassSeam& seam, PassKind pass,
    const FaultInjector::ArmedSwitchFault& fault, SwitchSetting configured) {
  const SwitchSetting resolved =
      faulted_setting(configured, fault.kind, fault.stuck);
  if (seam.activity != nullptr) {
    AppliedFault a;
    a.spec_index = fault.spec_index;
    a.kind = fault.kind;
    a.level = seam.level;
    a.pass = pass;
    a.stage = fault.stage;
    a.index = fault.index;
    a.from = configured;
    a.to = resolved;
    a.changed = resolved != configured;
    seam.activity->applied.push_back(a);
  }
  if (resolved == configured) return std::nullopt;
  return resolved;
}

}  // namespace

std::size_t fault_site_upper_line(int stage, std::size_t switch_index) {
  const std::size_t d = std::size_t{1} << (stage - 1);
  return (switch_index / d) * 2 * d + switch_index % d;
}

std::size_t fault_site_local_switch(int stage, std::size_t u,
                                    std::size_t base) {
  const std::size_t d = std::size_t{1} << (stage - 1);
  const std::size_t lu = u - base;
  return (lu >> stage) * d + lu % (2 * d);
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  validate(plan_);
}

std::vector<FaultInjector::ArmedSwitchFault> FaultInjector::switch_faults(
    std::uint64_t route, int level, PassKind pass, ImplKind impl,
    RouteEngine engine) const {
  std::vector<ArmedSwitchFault> armed;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind == FaultKind::DeadLink) continue;
    if (f.level != level || f.pass != pass) continue;
    if (!f.when.active(route) || !scope_matches(f, impl, engine)) continue;
    armed.push_back({i, f.kind, f.stage, f.index, f.stuck});
  }
  return armed;
}

std::vector<FaultInjector::ArmedDeadLink> FaultInjector::dead_lines(
    std::uint64_t route, int level, ImplKind impl, RouteEngine engine) const {
  std::vector<ArmedDeadLink> armed;
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const FaultSpec& f = plan_.faults[i];
    if (f.kind != FaultKind::DeadLink || f.level != level) continue;
    if (!f.when.active(route) || !scope_matches(f, impl, engine)) continue;
    armed.push_back({i, f.index});
  }
  return armed;
}

SwitchSetting faulted_setting(SwitchSetting configured, FaultKind kind,
                              SwitchSetting stuck) {
  if (configured != SwitchSetting::Parallel &&
      configured != SwitchSetting::Cross) {
    return configured;  // broadcast sites are immune (masked)
  }
  switch (kind) {
    case FaultKind::StuckSetting: return stuck;
    case FaultKind::TransientFlip: return opposite_unicast(configured);
    case FaultKind::DeadLink: break;
  }
  BRSMN_ENSURES_MSG(false, "dead links are not switch faults");
  return configured;
}

namespace {

template <typename Line>
void kill_dead_lines(const FaultInjector* injector, std::uint64_t route,
                     int level, ImplKind impl, RouteEngine engine,
                     std::vector<Line>& lines, FaultActivity* activity) {
  if (injector == nullptr) return;
  for (const auto& dead : injector->dead_lines(route, level, impl, engine)) {
    const bool was_occupied = !lines[dead.line].empty();
    lines[dead.line] = Line{};
    if (activity != nullptr) {
      AppliedFault a;
      a.spec_index = dead.spec_index;
      a.kind = FaultKind::DeadLink;
      a.level = level;
      a.index = dead.line;
      a.changed = was_occupied;
      activity->applied.push_back(a);
    }
  }
}

}  // namespace

void apply_dead_lines(const FaultInjector* injector, std::uint64_t route,
                      int level, ImplKind impl, RouteEngine engine,
                      std::vector<LineValue>& lines, FaultActivity* activity) {
  kill_dead_lines(injector, route, level, impl, engine, lines, activity);
}

void apply_dead_lines(const FaultInjector* injector, std::uint64_t route,
                      int level, ImplKind impl, RouteEngine engine,
                      std::vector<LineRecord>& lines, FaultActivity* activity) {
  kill_dead_lines(injector, route, level, impl, engine, lines, activity);
}

void PassSeam::apply_local(Rbn& fabric, PassKind pass) const {
  if (!armed()) return;
  for (const auto& fault :
       injector->switch_faults(route, level, pass, impl, engine)) {
    const std::size_t u = fault_site_upper_line(fault.stage, fault.index);
    if (u < line_base || u >= line_base + fabric.size()) continue;
    const std::size_t lsw = fault_site_local_switch(fault.stage, u, line_base);
    const auto resolved = resolve_and_record(
        *this, pass, fault, fabric.setting(fault.stage, lsw));
    if (resolved) fabric.set(fault.stage, lsw, *resolved);
  }
}

void PassSeam::apply_packed(PassKind pass,
                            std::vector<packed::StageMasks>& masks) const {
  if (!armed()) return;
  for (const auto& fault :
       injector->switch_faults(route, level, pass, impl, engine)) {
    const std::size_t u = fault_site_upper_line(fault.stage, fault.index);
    const std::size_t d = std::size_t{1} << (fault.stage - 1);
    packed::StageMasks& mk = masks[static_cast<std::size_t>(fault.stage - 1)];
    const auto resolved = resolve_and_record(
        *this, pass, fault,
        setting_from_bits(packed::plane_get(mk.su, u),
                          packed::plane_get(mk.sl, u + d)));
    if (resolved) pkern::set_mask_switch(mk, u, d, *resolved);
  }
}

}  // namespace brsmn::fault
