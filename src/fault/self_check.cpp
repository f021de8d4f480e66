#include "fault/self_check.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "core/multicast_assignment.hpp"

namespace brsmn::fault {

namespace {

[[noreturn]] void fail(std::size_t n, std::uint64_t route, int level,
                       std::optional<PassKind> pass, const std::string& what) {
  FaultReport report;
  report.n = n;
  report.route = route;
  report.at = DetectPoint{level, pass, /*fabric_settled=*/true};
  report.check = what;
  throw FaultDetected(std::move(report));
}

}  // namespace

void self_check_level(const std::vector<LineValue>& lines, int level,
                      std::uint64_t route) {
  const std::size_t n = lines.size();
  // Scratch reused across calls: the check runs once per level on every
  // route, so per-call allocation would dominate its cost at small n.
  thread_local std::vector<std::uint64_t> ids;
  ids.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const LineValue& lv = lines[i];
    if (lv.empty()) {
      if (lv.packet.has_value()) {
        std::ostringstream os;
        os << "self-check: empty line " << i << " carries a packet";
        fail(n, route, level, std::nullopt, os.str());
      }
      continue;
    }
    if (!lv.packet.has_value()) {
      std::ostringstream os;
      os << "self-check: occupied line " << i << " lost its packet";
      fail(n, route, level, std::nullopt, os.str());
    }
    if (lv.packet->stream.empty() || lv.packet->stream.front() != lv.tag) {
      std::ostringstream os;
      os << "self-check: line " << i
         << " tag disagrees with its packet's routing stream";
      fail(n, route, level, std::nullopt, os.str());
    }
    ids.push_back(lv.packet->copy_id);
  }
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  if (dup != ids.end()) {
    std::ostringstream os;
    os << "self-check: duplicate live copy id " << *dup;
    fail(n, route, level, std::nullopt, os.str());
  }
}

void self_check_level(std::span<const LineRecord> lines, int level,
                      std::uint64_t route) {
  const std::size_t n = lines.size();
  // A route hands out copy ids densely from 1 (at most n initial copies
  // plus two per split, and a route splits fewer than n times), so one
  // pass marks each live id in a bitmap over that bound and finds a
  // duplicate on the way. The first repeat is only reported after every
  // line passed its own checks, as those take precedence. An id beyond
  // the bound only comes from a corrupted state: fall back to sorting.
  const std::uint64_t bound = 4 * static_cast<std::uint64_t>(n) + 64;
  thread_local std::vector<std::uint64_t> seen;
  seen.assign(bound / 64 + 1, 0);
  std::optional<std::uint64_t> dup;
  bool beyond = false;
  for (std::size_t i = 0; i < n; ++i) {
    const LineRecord& r = lines[i];
    if (is_empty(r.exit)) {
      if (!r.empty()) {
        std::ostringstream os;
        os << "self-check: empty line " << i << " carries a packet";
        fail(n, route, level, std::nullopt, os.str());
      }
      continue;
    }
    if (r.empty()) {
      std::ostringstream os;
      os << "self-check: occupied line " << i << " lost its packet";
      fail(n, route, level, std::nullopt, os.str());
    }
    if (r.exit != Tag::Zero && r.exit != Tag::One) {
      std::ostringstream os;
      os << "self-check: line " << i << " left its BSN tagged "
         << tag_char(r.exit) << ", not 0 or 1";
      fail(n, route, level, std::nullopt, os.str());
    }
    if (r.lo >= r.hi) {
      std::ostringstream os;
      os << "self-check: line " << i
         << " was sent into a half holding none of its destinations";
      fail(n, route, level, std::nullopt, os.str());
    }
    const std::uint64_t id = r.copy_id;
    if (id > bound) {
      beyond = true;
      continue;
    }
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((seen[id / 64] & bit) != 0 && !dup.has_value()) dup = id;
    seen[id / 64] |= bit;
  }
  if (beyond) {
    thread_local std::vector<std::uint64_t> ids;
    ids.clear();
    for (const LineRecord& r : lines) {
      if (!is_empty(r.exit)) ids.push_back(r.copy_id);
    }
    std::sort(ids.begin(), ids.end());
    const auto it = std::adjacent_find(ids.begin(), ids.end());
    dup = it != ids.end() ? std::optional<std::uint64_t>(*it) : std::nullopt;
  }
  if (dup.has_value()) {
    std::ostringstream os;
    os << "self-check: duplicate live copy id " << *dup;
    fail(n, route, level, std::nullopt, os.str());
  }
}

void self_check_delivery(
    const std::vector<std::optional<std::size_t>>& delivered,
    std::span<const std::uint32_t> src_of, int level, std::uint64_t route) {
  const std::size_t n = src_of.size();
  for (std::size_t out = 0; out < n; ++out) {
    const bool idle = src_of[out] == MulticastAssignment::kIdle;
    if (delivered[out].has_value() != idle &&
        (idle || *delivered[out] == src_of[out])) {
      continue;
    }
    const auto name = [](bool some, std::size_t input) {
      return some ? "input " + std::to_string(input) : std::string("nothing");
    };
    std::ostringstream os;
    os << "self-check: output " << out << " received "
       << name(delivered[out].has_value(), delivered[out].value_or(0))
       << " (expected " << name(!idle, src_of[out]) << ")";
    fail(n, route, level, PassKind::Final, os.str());
  }
}

}  // namespace brsmn::fault
