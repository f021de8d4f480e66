// Bit-packed word-parallel routing kernel.
//
// The paper's hardware evaluates every switch of a stage simultaneously
// (Section 7.2's stage-parallel adder trees and switch planes). The
// scalar engines walk the same stages one 2x2 switch at a time. This
// kernel is the software analogue of the hardware's stage parallelism:
// one bit-plane of all n lines is packed into ceil(n/64) uint64_t words,
// so applying a stage to a plane — or counting a tag predicate over a
// whole block — is a handful of bitwise operations per word instead of
// n per-line steps.
//
// Layout guarantees exploited throughout (topology/rbn_topology.hpp):
// stage j pairs line u with u + 2^(j-1) inside 2^j-aligned blocks, so for
// 2^j <= 64 a block never straddles a word (in-word shifts suffice) and
// for 2^j > 64 the pair distance is a whole number of words.
//
// The primitives here are engine-agnostic; the packed driver frame
// (drive_packed in packed_kernel.cpp, behind packed_route and
// planner::patch_route) composes them into full BRSMN routing that is
// bit-identical to the scalar engines — outputs, settings grids,
// explanations, and stats (verified by tests/test_packed_differential).
// The frame is written once; a per-fabric binding (core/fabric_binding.hpp)
// supplies what differs between the unrolled and feedback networks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/simd_backend.hpp"

namespace brsmn::packed {

inline constexpr std::size_t kWordBits = 64;

/// Words needed for one n-line bit-plane.
constexpr std::size_t words_for(std::size_t n) {
  return (n + kWordBits - 1) / kWordBits;
}

/// Storage stride of one plane: words_for(n) rounded up to a whole
/// 512-bit vector (simd::kPlaneStrideWords), so every backend's stage
/// loop runs whole vectors with no tail. The pad words past words_for(n)
/// are zero at all times — maintained by every primitive here and relied
/// on by the backend kernels and the plan checkpoint format (a stored
/// plan's packed snapshots are stride-padded and identical no matter
/// which backend produced them).
constexpr std::size_t plane_stride_for(std::size_t n) {
  const std::size_t wpl = words_for(n);
  return (wpl + simd::kPlaneStrideWords - 1) / simd::kPlaneStrideWords *
         simd::kPlaneStrideWords;
}

/// Mask of the valid bits in the last word of an n-line plane.
constexpr std::uint64_t tail_mask(std::size_t n) {
  const std::size_t rem = n % kWordBits;
  return rem == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << rem) - 1;
}

using Words = std::vector<std::uint64_t>;

bool plane_get(std::span<const std::uint64_t> plane, std::size_t i);
void plane_set(std::span<std::uint64_t> plane, std::size_t i, bool v);

/// Mask of bits [lo, hi) within one word, lo < 64, hi <= 64.
constexpr std::uint64_t word_range_mask(std::size_t lo, std::size_t hi) {
  const std::uint64_t upto =
      hi >= kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1;
  return upto & ~((std::uint64_t{1} << lo) - 1);
}

/// Set every bit in [first, last): one OR when the range lies inside one
/// word (inline, since the configuration sweeps call it once per run).
inline void plane_fill(std::span<std::uint64_t> plane, std::size_t first,
                       std::size_t last) {
  if (first >= last) return;
  const std::size_t fw = first / kWordBits;
  const std::size_t lw = (last - 1) / kWordBits;
  if (fw == lw) {
    plane[fw] |= word_range_mask(first % kWordBits, last - fw * kWordBits);
    return;
  }
  plane[fw] |= word_range_mask(first % kWordBits, kWordBits);
  for (std::size_t w = fw + 1; w < lw; ++w) plane[w] = ~std::uint64_t{0};
  plane[lw] |= word_range_mask(0, last - lw * kWordBits);
}

/// Population count of bits [first, last).
std::size_t plane_popcount(std::span<const std::uint64_t> plane,
                           std::size_t first, std::size_t last);

/// n lines x width bits, stored as `width` bit-planes of words_for(n)
/// logical words each (plane-major, plane_stride_for(n) words apart so
/// vector kernels never need tails; the pad words are always zero).
/// Value bit p of line i lives at bit (i % 64) of word i/64 of plane p.
class PackedLines {
 public:
  PackedLines() = default;
  PackedLines(std::size_t n, std::size_t width);

  std::size_t size() const noexcept { return n_; }
  std::size_t width() const noexcept { return width_; }
  std::size_t words_per_plane() const noexcept { return wpl_; }
  std::size_t plane_stride() const noexcept { return stride_; }

  std::span<std::uint64_t> plane(std::size_t p) {
    return {words_.data() + p * stride_, wpl_};
  }
  std::span<const std::uint64_t> plane(std::size_t p) const {
    return {words_.data() + p * stride_, wpl_};
  }

  /// Read/write the value formed by planes [first_plane, first_plane +
  /// count) at `line`, least-significant plane first.
  std::uint64_t get(std::size_t line, std::size_t first_plane,
                    std::size_t count) const;
  void set(std::size_t line, std::size_t first_plane, std::size_t count,
           std::uint64_t value);

  /// Whole-width convenience accessors.
  std::uint64_t get(std::size_t line) const { return get(line, 0, width_); }
  void set(std::size_t line, std::uint64_t value) {
    set(line, 0, width_, value);
  }

  void clear();

  /// The whole plane-major storage (width * plane_stride words, pads
  /// included), for snapshotting and comparing full kernel states at
  /// once. Pads are deterministically zero, so snapshots are
  /// backend-portable.
  std::span<const std::uint64_t> words() const noexcept {
    return {words_.data(), words_.size()};
  }
  std::span<std::uint64_t> words() noexcept {
    return {words_.data(), words_.size()};
  }

  /// Swap storage with another PackedLines of identical shape (the
  /// double-buffer step of stage application).
  void swap(PackedLines& other) noexcept { words_.swap(other.words_); }

 private:
  std::size_t n_ = 0;
  std::size_t width_ = 0;
  std::size_t wpl_ = 0;
  std::size_t stride_ = 0;
  Words words_;
};

/// Stage-wide switch settings as two full-width bitmasks:
///   su — bit at the *upper* line of a pair: the upper output takes the
///        lower (partner) input;
///   sl — bit at the *lower* line of a pair: the lower output takes the
///        upper input.
/// Per pair (su, sl) encodes Parallel (0,0), Cross (1,1), UpperBcast
/// (0,1) and LowerBcast (1,0) — a broadcast keeps the surviving input on
/// one output and duplicates it onto the other, which is exactly "one
/// port forwards, the other port forwards its partner".
struct StageMasks {
  Words su;
  Words sl;

  /// Sizes for `words` logical words, padded up to a whole vector stride
  /// (simd::kPlaneStrideWords) so the backend stage kernels can process
  /// whole vectors; the pad words stay zero.
  void resize(std::size_t words) {
    const std::size_t padded = (words + simd::kPlaneStrideWords - 1) /
                               simd::kPlaneStrideWords *
                               simd::kPlaneStrideWords;
    su.assign(padded, 0);
    sl.assign(padded, 0);
  }
  void clear() {
    std::fill(su.begin(), su.end(), 0);
    std::fill(sl.begin(), sl.end(), 0);
  }
};

/// Apply one RBN stage (pair distance d = 2^(stage-1)) to a single
/// bit-plane: out = in routed through the stage's switches per `masks`.
/// `out` must not alias `in`.
void apply_stage_plane(std::span<const std::uint64_t> in,
                       std::span<std::uint64_t> out, const StageMasks& masks,
                       std::size_t pair_distance);

/// Apply one stage to every plane of `state` through the given backend's
/// word kernels, double-buffering through `scratch` (same shape; contents
/// overwritten; the two are swapped). `masks` must be sized by
/// StageMasks::resize for this state's word count (i.e. padded to the
/// state's plane_stride).
void apply_stage(PackedLines& state, PackedLines& scratch,
                 const StageMasks& masks, std::size_t pair_distance,
                 const simd::SimdOps& ops);

/// apply_stage through the auto-selected backend (BRSMN_FORCE_BACKEND or
/// the widest the CPU supports).
void apply_stage(PackedLines& state, PackedLines& scratch,
                 const StageMasks& masks, std::size_t pair_distance);

/// Perfect-shuffle permutation of every plane: out[topo::shuffle(i, n)] =
/// in[i] — a word-level bit interleave of the lower and upper halves.
/// `out` must have the same shape as `in`.
void shuffle_planes(const PackedLines& in, PackedLines& out);

/// Inverse permutation: out[i] = in[topo::shuffle(i, n)].
void unshuffle_planes(const PackedLines& in, PackedLines& out);

/// Structure-of-arrays tag census: the three class indicator planes
/// (alpha = t0 & ~t1, eps = t0 & t1, ones = t2) plus flat per-class
/// count arrays covering tree levels 2..log2(n) at once — the software
/// analogue of Section 7.2's per-stage adder trees. Level j's n/2^j
/// counts start at offset n/2 - n/2^(j-1), so the scatter/quasisort
/// configuration sweeps read their counts as plain array loads with no
/// shifting or masking. Level 2 comes from a two-step in-word cascade
/// (4-bit fields); every coarser level is built by the backend's
/// pair_sum_u32 kernel, one whole level per call. Level 1 (pair counts)
/// is not stored: the smallest block any sweep asks about is a 4-line
/// BSN. All buffers are reused across build() calls (zero steady-state
/// allocations in the compile hot path).
class TagCensus {
 public:
  /// Build from the three tag planes (words_for(n) logical words each;
  /// bits past n must be zero); n a power of two >= 2.
  void build(std::span<const std::uint64_t> t0,
             std::span<const std::uint64_t> t1,
             std::span<const std::uint64_t> t2, std::size_t n,
             const simd::SimdOps& ops);

  /// The class indicator planes (words_for(n) words, valid until the
  /// next build).
  std::span<const std::uint64_t> alpha() const { return {alpha_.data(), wpl_}; }
  std::span<const std::uint64_t> eps() const { return {eps_.data(), wpl_}; }
  std::span<const std::uint64_t> ones() const { return {ones_.data(), wpl_}; }

  /// Number of class members among lines [block*2^level,
  /// (block+1)*2^level), for 2 <= level <= log2(n).
  std::size_t count_alpha(int level, std::size_t block) const {
    return counts_[0][offset(level) + block];
  }
  std::size_t count_eps(int level, std::size_t block) const {
    return counts_[1][offset(level) + block];
  }
  std::size_t count_ones(int level, std::size_t block) const {
    return counts_[2][offset(level) + block];
  }

 private:
  /// Start of level j's counts in the flat per-class arrays: levels are
  /// stored contiguously coarsening upward from level 2, so level j
  /// begins after the n/4 + n/8 + ... + n/2^(j-1) = n/2 - n/2^(j-1)
  /// finer counts.
  std::size_t offset(int level) const {
    return (n_ >> 1) - (n_ >> (level - 1));
  }

  std::size_t n_ = 0;
  std::size_t wpl_ = 0;
  int levels_ = 0;
  Words alpha_;
  Words eps_;
  Words ones_;
  Words step_;  ///< two-step cascade scratch: 2-bit, then 4-bit fields
  std::vector<std::uint32_t> counts_[3];  ///< flat counts, n/2-1 per class
};

/// Select the first `k` set bits (in line order) of `plane` within
/// [first, last) and OR them into `out` (same word count as plane).
/// Precondition: k <= popcount of the range.
void select_prefix(std::span<const std::uint64_t> plane,
                   std::span<std::uint64_t> out, std::size_t first,
                   std::size_t last, std::size_t k);

}  // namespace brsmn::packed
