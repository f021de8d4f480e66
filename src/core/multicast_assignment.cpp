#include "core/multicast_assignment.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace brsmn {

MulticastAssignment::MulticastAssignment(std::size_t n) : src_of_(n, kIdle) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2 && n <= kIdle);
}

MulticastAssignment::MulticastAssignment(
    std::size_t n, std::vector<std::vector<std::size_t>> destination_sets)
    : MulticastAssignment(n) {
  BRSMN_EXPECTS(destination_sets.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t out : destination_sets[i]) connect(i, out);
  }
}

std::vector<std::size_t> MulticastAssignment::destinations(
    std::size_t input) const {
  BRSMN_EXPECTS(input < size());
  std::vector<std::size_t> dests;
  for (std::size_t out = 0; out < size(); ++out) {
    if (src_of_[out] == input) dests.push_back(out);
  }
  return dests;
}

void MulticastAssignment::destination_lists(DestinationLists& out) const {
  const std::size_t n = size();
  // Idle outputs count as input n (kIdle is above every input), so no
  // pass branches on them; they land after every list.
  const auto bin = [n](std::uint32_t src) {
    return std::min<std::size_t>(src, n);
  };
  out.offsets.assign(n + 1, 0);
  out.outputs.resize(n);
  for (const std::uint32_t src : src_of_) ++out.offsets[bin(src)];
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  // offsets[i] is now input i's end. Placing the outputs in descending
  // order, each one slot below the last, moves it down to input i's
  // start and leaves every list ascending.
  for (std::size_t o = n; o-- > 0;) {
    out.outputs[--out.offsets[bin(src_of_[o])]] = static_cast<std::uint32_t>(o);
  }
}

void MulticastAssignment::connect(std::size_t input, std::size_t output) {
  BRSMN_EXPECTS(input < size() && output < size());
  BRSMN_EXPECTS_MSG(src_of_[output] == kIdle,
                    "destination sets must be pairwise disjoint");
  src_of_[output] = static_cast<std::uint32_t>(input);
  memo_.fp.store(0, std::memory_order_relaxed);
}

void MulticastAssignment::disconnect(std::size_t input, std::size_t output) {
  BRSMN_EXPECTS(input < size() && output < size());
  BRSMN_EXPECTS_MSG(src_of_[output] == input,
                    "disconnect of a connection that does not exist");
  src_of_[output] = kIdle;
  memo_.fp.store(0, std::memory_order_relaxed);
}

bool MulticastAssignment::output_claimed(std::size_t output) const {
  BRSMN_EXPECTS(output < size());
  return src_of_[output] != kIdle;
}

std::size_t MulticastAssignment::active_inputs() const {
  std::vector<bool> active(size(), false);
  std::size_t count = 0;
  for (const std::uint32_t src : src_of_) {
    if (src == kIdle || active[src]) continue;
    active[src] = true;
    ++count;
  }
  return count;
}

std::size_t MulticastAssignment::total_connections() const {
  return size() -
         static_cast<std::size_t>(
             std::count(src_of_.begin(), src_of_.end(), kIdle));
}

bool MulticastAssignment::matches_delivery(
    const std::vector<std::optional<std::size_t>>& delivered) const {
  if (delivered.size() != size()) return false;
  for (std::size_t out = 0; out < size(); ++out) {
    const bool idle = src_of_[out] == kIdle;
    if (delivered[out].has_value() == idle ||
        (!idle && *delivered[out] != src_of_[out])) {
      return false;
    }
  }
  return true;
}

bool MulticastAssignment::is_permutation_assignment() const {
  return total_connections() == active_inputs();
}

std::uint64_t MulticastAssignment::memoized(std::size_t tag) const {
  BRSMN_EXPECTS(tag <= 2);
  const std::uint64_t fp = memo_.fp.load(std::memory_order_acquire);
  if (fp != 0) {
    return tag == 2 ? fp : memo_.tagged[tag].load(std::memory_order_relaxed);
  }
  // FNV-1a 64 over [n, per input: destination count, destinations...],
  // in h[2]; h[0] and h[1] hash the tag in after n. The three chains are
  // independent, so they run side by side in about the time of one.
  constexpr std::uint64_t kBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h[3] = {kBasis, kBasis, kBasis};
  const auto mix = [&h](std::uint64_t v) {
    for (std::uint64_t& hk : h) hk = (hk ^ v) * kPrime;
  };
  mix(size());
  for (std::size_t t = 0; t < 2; ++t) h[t] = (h[t] ^ t) * kPrime;
  DestinationLists lists;
  destination_lists(lists);
  for (std::size_t i = 0; i < size(); ++i) {
    mix(lists.offsets[i + 1] - lists.offsets[i]);
    for (const std::uint32_t d : lists.of(i)) mix(d);
  }
  memo_.tagged[0].store(h[0], std::memory_order_relaxed);
  memo_.tagged[1].store(h[1], std::memory_order_relaxed);
  memo_.fp.store(h[2], std::memory_order_release);
  return h[tag];
}

bool MulticastAssignment::operator==(const MulticastAssignment& other) const {
  return src_of_ == other.src_of_;
}

std::string MulticastAssignment::to_string() const {
  DestinationLists lists;
  destination_lists(lists);
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < size(); ++i) {
    if (i) os << ", ";
    os << '{';
    const auto dests = lists.of(i);
    for (std::size_t k = 0; k < dests.size(); ++k) {
      if (k) os << ',';
      os << dests[k];
    }
    os << '}';
  }
  os << '}';
  return os.str();
}

MulticastAssignment paper_example_assignment() {
  return MulticastAssignment(
      8, {{0, 1}, {}, {3, 4, 7}, {2}, {}, {}, {}, {5, 6}});
}

MulticastAssignment random_multicast(std::size_t n, double density, Rng& rng) {
  BRSMN_EXPECTS(density >= 0.0 && density <= 1.0);
  MulticastAssignment a(n);
  for (std::size_t out = 0; out < n; ++out) {
    if (rng.chance(density)) {
      a.connect(rng.uniform(0, n - 1), out);
    }
  }
  return a;
}

MulticastAssignment random_permutation(std::size_t n, double density,
                                       Rng& rng) {
  BRSMN_EXPECTS(density >= 0.0 && density <= 1.0);
  MulticastAssignment a(n);
  const auto connections =
      static_cast<std::size_t>(density * static_cast<double>(n) + 0.5);
  const auto inputs = rng.permutation(n);
  const auto outputs = rng.permutation(n);
  for (std::size_t k = 0; k < connections && k < n; ++k) {
    a.connect(inputs[k], outputs[k]);
  }
  return a;
}

MulticastAssignment broadcast_assignment(std::size_t n, std::size_t sources) {
  BRSMN_EXPECTS(sources >= 1 && sources <= n);
  MulticastAssignment a(n);
  for (std::size_t out = 0; out < n; ++out) {
    a.connect(out % sources, out);
  }
  return a;
}

MulticastAssignment full_broadcast(std::size_t n) {
  return broadcast_assignment(n, 1);
}

}  // namespace brsmn
