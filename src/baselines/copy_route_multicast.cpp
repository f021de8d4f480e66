#include "baselines/copy_route_multicast.hpp"

#include "common/contracts.hpp"

namespace brsmn::baselines {

CopyRouteMulticast::CopyRouteMulticast(std::size_t n)
    : copy_(n), benes_(n) {}

std::vector<std::optional<std::size_t>> CopyRouteMulticast::route(
    const MulticastAssignment& assignment, RoutingStats* stats) const {
  const std::size_t n = size();
  BRSMN_EXPECTS(assignment.size() == n);

  // Stage 1: make |I_i| copies of each input's packet.
  DestinationLists lists;
  assignment.destination_lists(lists);
  std::vector<std::size_t> copies(n);
  for (std::size_t i = 0; i < n; ++i) copies[i] = lists.of(i).size();
  const auto copied = copy_.route(copies, stats);

  // Stage 2: each copy line takes one destination of its source (copies
  // of a source are contiguous, so consume the source's sorted
  // destination list in order); idle lines absorb the unused outputs so
  // the Beneš stage sees a full permutation.
  std::vector<std::size_t> cursor(n, 0);
  std::vector<std::size_t> dest(n, n);  // n = unassigned marker
  std::vector<bool> output_used(n, false);
  for (std::size_t line = 0; line < n; ++line) {
    if (!copied[line]) continue;
    const std::size_t src = *copied[line];
    const auto dests = lists.of(src);
    BRSMN_ENSURES(cursor[src] < dests.size());
    dest[line] = dests[cursor[src]++];
    output_used[dest[line]] = true;
  }
  std::size_t spare = 0;
  for (std::size_t line = 0; line < n; ++line) {
    if (dest[line] != n) continue;
    while (output_used[spare]) ++spare;
    dest[line] = spare;
    output_used[spare] = true;
  }

  // Stage 3: Beneš delivers every copy to its output.
  const std::vector<std::size_t> per_output = benes_.route(dest, stats);

  // Translate copy lines back to original sources; idle filler lines
  // deliver nothing.
  std::vector<std::optional<std::size_t>> delivered(n);
  for (std::size_t out = 0; out < n; ++out) {
    const std::size_t line = per_output[out];
    if (copied[line]) delivered[out] = *copied[line];
  }
  return delivered;
}

}  // namespace brsmn::baselines
