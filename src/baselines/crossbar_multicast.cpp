#include "baselines/crossbar_multicast.hpp"

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace brsmn::baselines {

CrossbarMulticast::CrossbarMulticast(std::size_t n) : n_(n) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
}

std::vector<std::optional<std::size_t>> CrossbarMulticast::route(
    const MulticastAssignment& assignment) const {
  BRSMN_EXPECTS(assignment.size() == n_);
  std::vector<std::optional<std::size_t>> delivered(n_);
  const auto src_of = assignment.src_of();
  for (std::size_t out = 0; out < n_; ++out) {
    if (src_of[out] != MulticastAssignment::kIdle) delivered[out] = src_of[out];
  }
  return delivered;
}

}  // namespace brsmn::baselines
