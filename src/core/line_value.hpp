// Values carried on network lines: a routing tag plus, for non-empty
// lines, the packet (message) with its remaining routing-tag stream.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/tag.hpp"

namespace brsmn {

/// A (copy of a) multicast message travelling through the network.
///
/// `stream` is the remaining routing-tag sequence (Section 7.1): stream[0]
/// is the tag a_0 consumed by the BSN level the packet is currently in;
/// when the packet leaves a BSN the stream is popped and split into the
/// odd/even interleaving for the sub-network it enters.
struct Packet {
  std::size_t source = 0;        ///< originating network input
  std::uint64_t copy_id = 0;     ///< unique per copy, for tracing
  std::uint64_t parent_id = 0;   ///< copy this one was duplicated from
  std::vector<Tag> stream;       ///< remaining routing tags (a_0 first)

  friend bool operator==(const Packet&, const Packet&) = default;
};

/// One line's worth of state. Empty lines (ε / ε0 / ε1) carry no packet.
struct LineValue {
  Tag tag = Tag::Eps;
  std::optional<Packet> packet;

  bool empty() const { return is_empty(tag); }

  friend bool operator==(const LineValue&, const LineValue&) = default;
};

/// One line of the packed drivers' state between levels. A BSN level
/// only ever reads a packet's head tag a_0, and that tag is a pure
/// function of the packet's destination set and the tag-tree node
/// (Figs. 9/11) the copy has reached. So instead of the (n-1)-tag header
/// stream, the packed drivers carry the half-open range [lo, hi) of the
/// source's sorted destinations still under that node (indices into a
/// flat per-route destination array). A copy at level k sits at the node
/// whose address block all of dests[lo, hi) share above bit m-k; its head
/// tag is 0 / 1 / α when the range lies below / above / across that
/// bit's midpoint (pkern::head_tag), and leaving the level keeps the half
/// named by the exit tag. The scalar engine carries the Section 7.1
/// streams; LineValue is the view both engines agree on.
struct LineRecord {
  static constexpr std::uint32_t kNoSource = ~std::uint32_t{0};

  std::uint32_t source = kNoSource;  ///< kNoSource: the line is empty
  std::uint32_t lo = 0;              ///< destination range [lo, hi)
  std::uint32_t hi = 0;
  /// The tag the line left its last level with (ε family for an empty
  /// line); the level self-check reads it.
  Tag exit = Tag::Eps;
  std::uint64_t copy_id = 0;
  std::uint64_t parent_id = 0;

  bool empty() const { return source == kNoSource; }
};

/// An empty (ε) line.
inline LineValue eps_line() { return LineValue{}; }

/// A non-empty line with the given tag and packet.
inline LineValue occupied_line(Tag t, Packet p) {
  return LineValue{t, std::move(p)};
}

}  // namespace brsmn
