#include "sim/verification.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/tag_sequence.hpp"
#include "sim/trace.hpp"

namespace brsmn::sim {

namespace {

std::string describe(std::size_t level, std::size_t line,
                     const std::string& what) {
  std::ostringstream os;
  os << "level " << level << " line " << line << ": " << what;
  return os.str();
}

}  // namespace

VerificationReport verify_route(const MulticastAssignment& assignment,
                                const RouteResult& result) {
  VerificationReport report;
  const std::size_t n = assignment.size();

  // 1) Delivery matches the assignment exactly.
  if (!assignment.matches_delivery(result.delivered)) {
    report.fail("delivered vector does not match the assignment");
  }

  // 2) Split accounting.
  const std::size_t want_splits =
      assignment.total_connections() - assignment.active_inputs();
  if (result.stats.broadcast_ops != want_splits) {
    report.fail("broadcast count != connections - active inputs");
  }
  std::size_t histogram_sum = 0;
  for (const std::size_t s : result.broadcasts_per_level) histogram_sum += s;
  if (histogram_sum != result.stats.broadcast_ops) {
    report.fail("per-level split histogram does not sum to the total");
  }

  // 3) Captured-level checks.
  if (!result.level_inputs.empty()) {
    DestinationLists lists;
    assignment.destination_lists(lists);
    if (!trace::copies_monotone(result)) {
      report.fail("per-source copy counts not monotone across levels");
    }
    for (std::size_t k = 0; k < result.level_inputs.size(); ++k) {
      const auto& lines = result.level_inputs[k];
      const std::size_t block_size = n >> k;
      std::map<std::size_t, std::set<std::size_t>> owed;  // source -> dests
      for (std::size_t line = 0; line < lines.size(); ++line) {
        const LineValue& lv = lines[line];
        if (!lv.packet) continue;
        const Packet& p = *lv.packet;
        if (p.stream.empty() ||
            collapse_eps(p.stream.front()) != collapse_eps(lv.tag)) {
          report.fail(describe(k + 1, line, "line tag != stream head"));
          continue;
        }
        std::vector<std::size_t> local;
        try {
          local = decode_sequence(p.stream);
        } catch (const ContractViolation&) {
          report.fail(describe(k + 1, line, "undecodable tag stream"));
          continue;
        }
        const std::size_t base = (line / block_size) * block_size;
        for (const std::size_t d : local) {
          if (!owed[p.source].insert(base + d).second) {
            report.fail(describe(k + 1, line, "duplicate owed destination"));
          }
        }
      }
      // The owed destinations at every level must be exactly I_source.
      for (std::size_t src = 0; src < n; ++src) {
        const auto dests = lists.of(src);
        const auto it = owed.find(src);
        const std::set<std::size_t> got =
            it == owed.end() ? std::set<std::size_t>{}
                             : it->second;
        if (!std::equal(got.begin(), got.end(), dests.begin(),
                        dests.end()) ||
            got.size() != dests.size()) {
          report.fail(describe(k + 1, src,
                               "owed destinations drifted from I_i"));
        }
      }
    }
  }
  return report;
}

}  // namespace brsmn::sim
