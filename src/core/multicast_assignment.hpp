// Multicast assignments (paper Section 2): a family {I_0, ..., I_{n-1}}
// of pairwise-disjoint destination sets, I_i being the network outputs
// input i must reach. Because the sets are disjoint, an assignment is
// exactly a function from outputs to inputs ∪ {idle}; it is stored in
// that form, as one flat n-entry array src_of[out], and the per-input
// sets are derived from it in O(n) (DestinationLists). Includes
// validation and the workload generators used by tests, examples and
// benchmarks.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace brsmn {

/// The per-input view of an assignment, built by a counting sort over
/// src_of: input i's destinations, ascending, are
/// outputs[offsets[i], offsets[i + 1]).
struct DestinationLists {
  std::vector<std::uint32_t> offsets;  ///< n + 1 entries
  std::vector<std::uint32_t> outputs;  ///< the lists, then the idle outputs

  std::span<const std::uint32_t> of(std::size_t input) const {
    return {outputs.data() + offsets[input],
            outputs.data() + offsets[input + 1]};
  }
};

class MulticastAssignment {
 public:
  /// src_of entry of an output no input is connected to.
  static constexpr std::uint32_t kIdle = UINT32_MAX;

  /// The empty assignment on an n x n network (n a power of two >= 2).
  explicit MulticastAssignment(std::size_t n);

  /// Build from explicit destination sets; validates disjointness and
  /// range. destination_sets.size() must equal n.
  MulticastAssignment(std::size_t n,
                      std::vector<std::vector<std::size_t>> destination_sets);

  std::size_t size() const noexcept { return src_of_.size(); }

  /// src_of()[out] is the input connected to `out`, or kIdle.
  std::span<const std::uint32_t> src_of() const noexcept { return src_of_; }

  /// Destination set of input i (sorted ascending). O(n): a caller that
  /// visits every input builds destination_lists() once instead.
  std::vector<std::size_t> destinations(std::size_t input) const;

  /// Every input's destination set at once, in O(n). `out` keeps its
  /// capacity, so a caller reusing one DestinationLists allocates only
  /// on the first call.
  void destination_lists(DestinationLists& out) const;

  /// Add `output` to input i's destination set. Throws if the output is
  /// already claimed by any input.
  void connect(std::size_t input, std::size_t output);

  /// Remove `output` from input i's destination set, releasing the
  /// output's claim. Throws if input i is not connected to `output`.
  void disconnect(std::size_t input, std::size_t output);

  /// True when some input's destination set already contains `output`.
  bool output_claimed(std::size_t output) const;

  /// Number of inputs with a non-empty destination set.
  std::size_t active_inputs() const;

  /// Total number of (input, output) connections.
  std::size_t total_connections() const;

  /// True when `delivered[out]` names exactly src_of()[out] for every
  /// output (nothing for an idle one).
  bool matches_delivery(
      const std::vector<std::optional<std::size_t>>& delivered) const;

  /// True when every destination set has at most one element.
  bool is_permutation_assignment() const;

  /// Canonical 64-bit FNV-1a fingerprint over the size and the per-input
  /// destination lists. Computed on first use and kept: copies carry it,
  /// connect/disconnect drop it. Safe to call concurrently on a shared
  /// const assignment.
  std::uint64_t fingerprint() const { return memoized(2); }

  /// The same FNV-1a stream with `tag` (0 or 1) hashed in after the
  /// size: the plan cache's bucket hash of (assignment, implementation).
  /// Computed in fingerprint()'s pass and kept with it.
  std::uint64_t tagged_fingerprint(std::size_t tag) const {
    return memoized(tag);
  }

  /// Equal sizes and equal src_of arrays (one memcmp).
  bool operator==(const MulticastAssignment& other) const;

  /// Renders the paper's set notation, e.g. "{{0,1}, {}, {3,4,7}, ...}".
  std::string to_string() const;

 private:
  /// The memoized fingerprints; fp == 0 means not yet computed (a
  /// fingerprint that is really 0 is recomputed on each call, which is
  /// still correct). Concurrent first calls store the same values; fp is
  /// published last, so a reader that sees it sees the tagged ones too.
  struct Memo {
    mutable std::atomic<std::uint64_t> fp{0};
    mutable std::atomic<std::uint64_t> tagged[2] = {0, 0};
    Memo() = default;
    Memo(const Memo& o) { *this = o; }
    Memo& operator=(const Memo& o) {
      const std::uint64_t f = o.fp.load(std::memory_order_acquire);
      for (std::size_t t = 0; t < 2; ++t) {
        tagged[t].store(f != 0 ? o.tagged[t].load(std::memory_order_relaxed)
                               : 0,
                        std::memory_order_relaxed);
      }
      fp.store(f, std::memory_order_release);
      return *this;
    }
  };
  /// fingerprint() for tag == 2, tagged_fingerprint(tag) for 0 and 1.
  std::uint64_t memoized(std::size_t tag) const;

  std::vector<std::uint32_t> src_of_;
  Memo memo_;
};

/// The worked example of Section 2 / Fig. 2:
/// {{0,1}, ∅, {3,4,7}, {2}, ∅, ∅, ∅, {5,6}} on an 8 x 8 network.
MulticastAssignment paper_example_assignment();

/// Each output is, independently with probability `density`, assigned to
/// a uniformly random input: the natural dense-multicast workload.
MulticastAssignment random_multicast(std::size_t n, double density, Rng& rng);

/// A (partial) permutation: a random subset of ceil(density * n) outputs
/// matched to distinct random inputs.
MulticastAssignment random_permutation(std::size_t n, double density,
                                       Rng& rng);

/// `sources` inputs evenly broadcast all n outputs between them (the
/// video-distribution / barrier pattern of the paper's introduction).
MulticastAssignment broadcast_assignment(std::size_t n, std::size_t sources);

/// Input 0 broadcasts to every output: the extreme single-source case.
MulticastAssignment full_broadcast(std::size_t n);

}  // namespace brsmn
