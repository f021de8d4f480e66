// Runtime-dispatched SIMD backends for the packed word-parallel kernel.
//
// The packed kernel stores line state as uint64_t bit-plane words
// (core/packed_kernel.hpp); every backend operates on that same word
// layout, so results — and compiled-plan checkpoints — are bit-identical
// regardless of which backend produced them. What a backend changes is
// only how many 64-bit switch columns one instruction advances: the
// portable fallback is multi-word SWAR, AVX2 moves 4 words per
// instruction. A plan compiled under one backend replays bit-identically
// under the other (proven pairwise by tests/test_simd_differential.cpp).
//
// Selection is per route via RouteOptions::simd_backend: Auto (the
// default) resolves the BRSMN_FORCE_BACKEND environment variable
// ("portable"/"swar", "avx2", "auto") if set, else probes the CPU once
// (cpuid) and picks AVX2 where the hardware supports it, else portable.
// An explicit request for a backend this build or CPU cannot run
// degrades silently to the portable fallback, which is always compiled
// in; only an unusable BRSMN_FORCE_BACKEND value warns, once, on stderr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace brsmn::simd {

enum class Backend : std::uint8_t {
  /// Resolve at runtime: BRSMN_FORCE_BACKEND if set, else AVX2 where
  /// available, else Portable.
  Auto = 0,
  /// Multi-word SWAR over plain uint64_t — always compiled, every host.
  Portable,
  /// 256-bit planes, 4 switch columns per instruction (x86 AVX2).
  Avx2,
};

/// Every plane's word storage is padded to this stride multiple (8 words
/// = 512 bits, a cache line's worth), the tile the stage kernels walk:
/// the AVX2 stage_shift covers one tile with two registers and no tail
/// handling. Pad words are zero at all times on every backend — part of
/// the checkpoint format.
inline constexpr std::size_t kPlaneStrideWords = 8;

/// The word-loop kernels one backend provides. All implementations are
/// bit-exact: they compute the same words in the same places, differing
/// only in how many words one instruction covers.
struct SimdOps {
  Backend kind;
  const char* name;

  /// In-word stage application (pair distance d < 64) over the whole
  /// plane-major state: `planes * stride` words processed, pads
  /// included (mask pads are zero, so out-pads stay zero). The masks
  /// repeat with period `stride`:
  ///   out[w] = (in[w] & ~(su|sl)) | ((in[w] >> d) & su) | ((in[w] << d) & sl)
  void (*stage_shift)(const std::uint64_t* in, std::uint64_t* out,
                      const std::uint64_t* su, const std::uint64_t* sl,
                      std::size_t planes, std::size_t stride, unsigned d);

  /// Word-offset stage application (pair distance >= 64, offset =
  /// distance/64 words): per plane, only the `wpl` logical words are
  /// written (pads untouched — they are already zero). Blocks of
  /// 2*offset words are 2*offset-aligned: the first half reads the
  /// partner at +offset under su, the second half at -offset under sl.
  void (*stage_offset)(const std::uint64_t* in, std::uint64_t* out,
                       const std::uint64_t* su, const std::uint64_t* sl,
                       std::size_t planes, std::size_t stride,
                       std::size_t wpl, std::size_t offset);

  /// Tag census over `words` words: alpha = t0 & ~t1, eps = t0 & t1,
  /// ones = t2.
  void (*census_split)(const std::uint64_t* t0, const std::uint64_t* t1,
                       const std::uint64_t* t2, std::uint64_t* alpha,
                       std::uint64_t* eps, std::uint64_t* ones,
                       std::size_t words);

  /// dst[w] |= a[w] & ~b[w] over `words` words (the ε1 promotion of the
  /// word-parallel ε-division).
  void (*or_andnot)(std::uint64_t* dst, const std::uint64_t* a,
                    const std::uint64_t* b, std::size_t words);

  /// The in-word counting cascade (packed::TagCensus): starting from the
  /// indicator word, apply `nlevels` (1..6) masked-add steps per word and
  /// store step j's result to levels[j-1][w] — fields of 2^j bits each.
  void (*count_cascade)(const std::uint64_t* in,
                        std::uint64_t* const* levels, int nlevels,
                        std::size_t words);

  /// Transpose byte-encoded tags into the three tag bit-planes (the
  /// branch-free structure-of-arrays load of the compile path): for each
  /// of `words` output words, 64 input bytes carrying the 3-bit Table 1
  /// encoding b0 b1 b2 produce one word per plane —
  ///   bit i of t0[w] = (enc[64w+i] >> 2) & 1   (b0)
  ///   bit i of t1[w] = (enc[64w+i] >> 1) & 1   (b1)
  ///   bit i of t2[w] = enc[64w+i] & 1          (b2)
  /// enc must hold 64*words bytes (pad the tail with zero bytes — the
  /// zero encoding contributes no plane bits).
  void (*tag_pack)(const std::uint8_t* enc, std::uint64_t* t0,
                   std::uint64_t* t1, std::uint64_t* t2, std::size_t words);

  /// Inverse of tag_pack: gather the three planes back into one byte per
  /// line, enc[64w+i] = b0 b1 b2. Used to decode whole tag planes at
  /// once instead of three bit-probes per line.
  void (*tag_unpack)(const std::uint64_t* t0, const std::uint64_t* t1,
                     const std::uint64_t* t2, std::uint8_t* enc,
                     std::size_t words);

  /// Pairwise u32 reduction: out[i] = in[2i] + in[2i+1] for i < pairs.
  /// The census count planes build every pyramid level above the in-word
  /// cascade with this (structure-of-arrays counts, one level per call).
  void (*pair_sum_u32)(const std::uint32_t* in, std::uint32_t* out,
                       std::size_t pairs);
};

/// Whether this binary carries code for `b` (compile-time: arch +
/// compiler support). Portable is always true; Auto is never "a backend".
bool compiled(Backend b) noexcept;

/// compiled(b) and the running CPU supports it (cpuid on x86).
bool available(Backend b) noexcept;

/// The widest available backend on this host: Avx2 where the CPU has
/// it, else Portable (never Auto).
Backend detect() noexcept;

/// The BRSMN_FORCE_BACKEND override, parsed once per process: the forced
/// backend when set, valid and available; Auto otherwise (an unknown or
/// unavailable value warns once on stderr and is ignored).
Backend forced() noexcept;

/// Resolve `request` to a concrete op table. Auto resolves through
/// forced() then detect(); an unavailable explicit request degrades to
/// Portable so callers can never dispatch into illegal instructions.
const SimdOps& ops(Backend request = Backend::Auto) noexcept;

/// Every backend this binary can actually run here, Portable first —
/// the set tests/test_simd_differential.cpp enumerates pairwise.
std::vector<Backend> available_backends();

const char* to_string(Backend b) noexcept;

/// Parse a backend name ("auto", "portable"/"swar"/"scalar-words",
/// "avx2"); nullopt on anything else.
std::optional<Backend> parse(std::string_view name) noexcept;

}  // namespace brsmn::simd
