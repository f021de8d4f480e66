// Backend implementations for the packed kernel's word loops.
//
// Two backends: the portable multi-word SWAR loops, always compiled, and
// AVX2. Both backends compute exactly the word recurrences documented
// on SimdOps — the vector bodies are plain lane-wise and/or/shift/add
// plus byte<->plane transposes, so there is no rounding, ordering, or
// carry behaviour to diverge on; the differential harness
// (tests/test_simd_differential.cpp) holds them to bit-identity anyway.
// The AVX2 bodies use GCC/Clang function multiversioning
// (`__attribute__((target("avx2")))`) so no global architecture flags
// are needed and the portable build keeps running on CPUs without the
// extension; dispatch happens once per route through ops().
//
// The stage kernels are cache-blocked: plane storage is padded to
// kPlaneStrideWords (8 words = 64 bytes = two AVX2 registers), and
// the loops walk tile-outer / plane-inner so a mask tile is loaded once
// and applied to the matching tile of every plane before moving on.
#include "core/simd_backend.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define BRSMN_SIMD_X86 1
#include <immintrin.h>
#else
#define BRSMN_SIMD_X86 0
#endif

namespace brsmn::simd {
namespace {

using u64 = std::uint64_t;

/// The three word regions of an offset stage within one plane row
/// (offset <= wpl/2 — pair distance is at most n/2 lines): words
/// [0, offset) read only the +offset partner, [offset, wpl - offset)
/// both partners, [wpl - offset, wpl) only the -offset partner. Shared
/// by every backend so the region bounds — and therefore the words each
/// recurrence touches — cannot drift between them.
struct OffsetRegion {
  std::size_t lo, hi;
  bool up, down;
};

std::array<OffsetRegion, 3> offset_regions(std::size_t wpl,
                                           std::size_t offset) {
  return {{{0, offset, true, false},
           {offset, wpl - offset, true, true},
           {wpl - offset, wpl, false, true}}};
}

// --- portable SWAR --------------------------------------------------------

void stage_shift_portable(const u64* in, u64* out, const u64* su,
                          const u64* sl, std::size_t planes,
                          std::size_t stride, unsigned d) {
  // stride is always a whole number of 8-word tiles; tile-outer /
  // plane-inner keeps one mask tile hot across all planes.
  for (std::size_t t = 0; t < stride; t += kPlaneStrideWords) {
    const u64* ut = su + t;
    const u64* lt = sl + t;
    for (std::size_t p = 0; p < planes; ++p) {
      const u64* ip = in + p * stride + t;
      u64* op = out + p * stride + t;
      for (std::size_t w = 0; w < kPlaneStrideWords; ++w) {
        const u64 x = ip[w];
        const u64 u = ut[w];
        const u64 l = lt[w];
        op[w] = (x & ~(u | l)) | ((x >> d) & u) | ((x << d) & l);
      }
    }
  }
}

void stage_offset_portable(const u64* in, u64* out, const u64* su,
                           const u64* sl, std::size_t planes,
                           std::size_t stride, std::size_t wpl,
                           std::size_t offset) {
  // Column-outer / plane-inner per region: each mask word is loaded
  // once per column instead of once per plane.
  for (const OffsetRegion& r : offset_regions(wpl, offset)) {
    for (std::size_t w = r.lo; w < r.hi; ++w) {
      const u64 u = su[w];
      const u64 l = sl[w];
      const u64 nk = ~(u | l);
      for (std::size_t p = 0; p < planes; ++p) {
        const u64* ip = in + p * stride;
        u64 v = ip[w] & nk;
        if (r.up) v |= ip[w + offset] & u;
        if (r.down) v |= ip[w - offset] & l;
        out[p * stride + w] = v;
      }
    }
  }
}

void census_split_portable(const u64* t0, const u64* t1, const u64* t2,
                           u64* alpha, u64* eps, u64* ones,
                           std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    alpha[w] = t0[w] & ~t1[w];
    eps[w] = t0[w] & t1[w];
    ones[w] = t2[w];
  }
}

void or_andnot_portable(u64* dst, const u64* a, const u64* b,
                        std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) dst[w] |= a[w] & ~b[w];
}

constexpr u64 kFieldMask[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0f0f0f0f0f0f0f0full,
    0x00ff00ff00ff00ffull, 0x0000ffff0000ffffull, 0x00000000ffffffffull,
};

void count_cascade_portable(const u64* in, u64* const* levels, int nlevels,
                            std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    u64 c = in[w];
    for (int j = 1; j <= nlevels; ++j) {
      const u64 m = kFieldMask[j - 1];
      const unsigned sh = 1u << (j - 1);
      c = (c & m) + ((c >> sh) & m);
      levels[j - 1][w] = c;
    }
  }
}

/// Scalar tail for the vector count cascades: runs the portable cascade
/// over words [w, words), offsetting the input *and every level output*.
[[maybe_unused]] void count_cascade_tail(const u64* in, u64* const* levels,
                                         int nlevels, std::size_t w,
                                         std::size_t words) {
  u64* shifted[6] = {};
  for (int j = 0; j < nlevels; ++j) shifted[j] = levels[j] + w;
  count_cascade_portable(in + w, shifted, nlevels, words - w);
}

constexpr u64 kLsbBytes = 0x0101010101010101ull;

/// Gather the least-significant bit of each of the 8 bytes of x into the
/// low 8 bits of the result (bit i <- byte i), the classic SWAR
/// multiply-gather: byte i's LSB sits at position 8i, the multiplier bit
/// at 56 - 7i lifts it to 56 + i, and no two (byte, multiplier-bit)
/// products collide, so the top byte is exactly the gathered mask.
u64 gather_byte_lsb(u64 x) {
  return ((x & kLsbBytes) * 0x0102040810204080ull) >> 56;
}

/// Spread the low 8 bits of b to the least-significant bit of each of 8
/// bytes (byte i <- bit i): replicate b into every byte (no carries — b
/// fits a byte), keep bit i in byte i, then fold each byte's single bit
/// down to its LSB.
u64 spread_byte_lsb(unsigned b) {
  u64 x = (static_cast<u64>(b) * kLsbBytes) & 0x8040201008040201ull;
  x |= x >> 4;
  x |= x >> 2;
  x |= x >> 1;
  return x & kLsbBytes;
}

void tag_pack_portable(const std::uint8_t* enc, u64* t0, u64* t1, u64* t2,
                       std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    u64 r0 = 0, r1 = 0, r2 = 0;
    for (unsigned c = 0; c < 8; ++c) {
      u64 x;
      std::memcpy(&x, enc + 64 * w + 8 * c, sizeof x);
      r2 |= gather_byte_lsb(x) << (8 * c);
      r1 |= gather_byte_lsb(x >> 1) << (8 * c);
      r0 |= gather_byte_lsb(x >> 2) << (8 * c);
    }
    t0[w] = r0;
    t1[w] = r1;
    t2[w] = r2;
  }
}

void tag_unpack_portable(const u64* t0, const u64* t1, const u64* t2,
                         std::uint8_t* enc, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    const u64 r0 = t0[w];
    const u64 r1 = t1[w];
    const u64 r2 = t2[w];
    for (unsigned c = 0; c < 8; ++c) {
      const u64 chunk =
          (spread_byte_lsb((r0 >> (8 * c)) & 0xff) << 2) |
          (spread_byte_lsb((r1 >> (8 * c)) & 0xff) << 1) |
          spread_byte_lsb((r2 >> (8 * c)) & 0xff);
      std::memcpy(enc + 64 * w + 8 * c, &chunk, sizeof chunk);
    }
  }
}

void pair_sum_u32_portable(const std::uint32_t* in, std::uint32_t* out,
                           std::size_t pairs) {
  for (std::size_t i = 0; i < pairs; ++i) out[i] = in[2 * i] + in[2 * i + 1];
}

// --- x86 AVX2 (4 words / op) ---------------------------------------------

#if BRSMN_SIMD_X86

__attribute__((target("avx2"))) void stage_shift_avx2(
    const u64* in, u64* out, const u64* su, const u64* sl, std::size_t planes,
    std::size_t stride, unsigned d) {
  const __m128i cnt = _mm_cvtsi32_si128(static_cast<int>(d));
  for (std::size_t t = 0; t < stride; t += kPlaneStrideWords) {
    const __m256i u0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(su + t));
    const __m256i u1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(su + t + 4));
    const __m256i l0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sl + t));
    const __m256i l1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sl + t + 4));
    const __m256i nk0 = _mm256_or_si256(u0, l0);
    const __m256i nk1 = _mm256_or_si256(u1, l1);
    for (std::size_t p = 0; p < planes; ++p) {
      const u64* ip = in + p * stride + t;
      u64* op = out + p * stride + t;
      const __m256i x0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ip));
      const __m256i x1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ip + 4));
      const __m256i r0 = _mm256_or_si256(
          _mm256_andnot_si256(nk0, x0),
          _mm256_or_si256(_mm256_and_si256(_mm256_srl_epi64(x0, cnt), u0),
                          _mm256_and_si256(_mm256_sll_epi64(x0, cnt), l0)));
      const __m256i r1 = _mm256_or_si256(
          _mm256_andnot_si256(nk1, x1),
          _mm256_or_si256(_mm256_and_si256(_mm256_srl_epi64(x1, cnt), u1),
                          _mm256_and_si256(_mm256_sll_epi64(x1, cnt), l1)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(op), r0);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(op + 4), r1);
    }
  }
}

__attribute__((target("avx2"))) void stage_offset_avx2(
    const u64* in, u64* out, const u64* su, const u64* sl, std::size_t planes,
    std::size_t stride, std::size_t wpl, std::size_t offset) {
  for (const OffsetRegion& r : offset_regions(wpl, offset)) {
    std::size_t w = r.lo;
    for (; w + 4 <= r.hi; w += 4) {
      const __m256i u =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(su + w));
      const __m256i l =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sl + w));
      const __m256i nk = _mm256_or_si256(u, l);
      for (std::size_t p = 0; p < planes; ++p) {
        const u64* ip = in + p * stride;
        __m256i acc = _mm256_andnot_si256(
            nk, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ip + w)));
        if (r.up) {
          acc = _mm256_or_si256(
              acc, _mm256_and_si256(
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           ip + w + offset)),
                       u));
        }
        if (r.down) {
          acc = _mm256_or_si256(
              acc, _mm256_and_si256(
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                           ip + w - offset)),
                       l));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p * stride + w),
                            acc);
      }
    }
    for (; w < r.hi; ++w) {
      const u64 u = su[w];
      const u64 l = sl[w];
      const u64 nk = ~(u | l);
      for (std::size_t p = 0; p < planes; ++p) {
        const u64* ip = in + p * stride;
        u64 v = ip[w] & nk;
        if (r.up) v |= ip[w + offset] & u;
        if (r.down) v |= ip[w - offset] & l;
        out[p * stride + w] = v;
      }
    }
  }
}

__attribute__((target("avx2"))) void census_split_avx2(
    const u64* t0, const u64* t1, const u64* t2, u64* alpha, u64* eps,
    u64* ones, std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t0 + w));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t1 + w));
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t2 + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(alpha + w),
                        _mm256_andnot_si256(b, a));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(eps + w),
                        _mm256_and_si256(a, b));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ones + w), c);
  }
  for (; w < words; ++w) {
    alpha[w] = t0[w] & ~t1[w];
    eps[w] = t0[w] & t1[w];
    ones[w] = t2[w];
  }
}

__attribute__((target("avx2"))) void or_andnot_avx2(u64* dst, const u64* a,
                                                    const u64* b,
                                                    std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i y =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(d, _mm256_andnot_si256(y, x)));
  }
  for (; w < words; ++w) dst[w] |= a[w] & ~b[w];
}

__attribute__((target("avx2"))) void count_cascade_avx2(
    const u64* in, u64* const* levels, int nlevels, std::size_t words) {
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + w));
    for (int j = 1; j <= nlevels; ++j) {
      const __m256i m = _mm256_set1_epi64x(
          static_cast<long long>(kFieldMask[j - 1]));
      const __m128i sh = _mm_cvtsi32_si128(1 << (j - 1));
      c = _mm256_add_epi64(
          _mm256_and_si256(c, m),
          _mm256_and_si256(_mm256_srl_epi64(c, sh), m));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(levels[j - 1] + w), c);
    }
  }
  if (w < words) count_cascade_tail(in, levels, nlevels, w, words);
}

// tag_pack via pmovmskb: shifting the 16-bit lanes left by 7-k moves bit
// k of each byte to that byte's MSB (bit 8+k of the lane lands on the
// upper byte's MSB likewise), so one movemask per encoded bit per
// 32-byte half yields the plane words directly.
__attribute__((target("avx2"))) void tag_pack_avx2(const std::uint8_t* enc,
                                                   u64* t0, u64* t1, u64* t2,
                                                   std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(enc + 64 * w));
    const __m256i hi = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(enc + 64 * w + 32));
    const auto m2l = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_slli_epi16(lo, 7)));
    const auto m2h = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_slli_epi16(hi, 7)));
    const auto m1l = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_slli_epi16(lo, 6)));
    const auto m1h = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_slli_epi16(hi, 6)));
    const auto m0l = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_slli_epi16(lo, 5)));
    const auto m0h = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_slli_epi16(hi, 5)));
    t0[w] = m0l | (static_cast<u64>(m0h) << 32);
    t1[w] = m1l | (static_cast<u64>(m1h) << 32);
    t2[w] = m2l | (static_cast<u64>(m2h) << 32);
  }
}

// tag_unpack: broadcast the 32-bit mask, shuffle each mask byte across
// its 8 output bytes, compare against the per-byte bit selector to turn
// mask bits into 0xFF lanes, then merge the three planes' lanes under
// their encoding weights 4/2/1.
__attribute__((target("avx2"))) void tag_unpack_avx2(
    const u64* t0, const u64* t1, const u64* t2, std::uint8_t* enc,
    std::size_t words) {
  const __m256i byte_sel = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bit_sel =
      _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ull));
  for (std::size_t w = 0; w < words; ++w) {
    for (unsigned h = 0; h < 2; ++h) {
      const __m256i e0 = _mm256_cmpeq_epi8(
          _mm256_and_si256(
              _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(
                                      t0[w] >> (32 * h))),
                                  byte_sel),
              bit_sel),
          bit_sel);
      const __m256i e1 = _mm256_cmpeq_epi8(
          _mm256_and_si256(
              _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(
                                      t1[w] >> (32 * h))),
                                  byte_sel),
              bit_sel),
          bit_sel);
      const __m256i e2 = _mm256_cmpeq_epi8(
          _mm256_and_si256(
              _mm256_shuffle_epi8(_mm256_set1_epi32(static_cast<int>(
                                      t2[w] >> (32 * h))),
                                  byte_sel),
              bit_sel),
          bit_sel);
      const __m256i bytes = _mm256_or_si256(
          _mm256_or_si256(_mm256_and_si256(e0, _mm256_set1_epi8(4)),
                          _mm256_and_si256(e1, _mm256_set1_epi8(2))),
          _mm256_and_si256(e2, _mm256_set1_epi8(1)));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(enc + 64 * w + 32 * h), bytes);
    }
  }
}

__attribute__((target("avx2"))) void pair_sum_u32_avx2(
    const std::uint32_t* in, std::uint32_t* out, std::size_t pairs) {
  std::size_t i = 0;
  for (; i + 8 <= pairs; i += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + 2 * i));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in + 2 * i + 8));
    // hadd interleaves the two sources' 128-bit lanes; the 64-bit
    // permute 0,2,1,3 restores pair order.
    const __m256i s = _mm256_permute4x64_epi64(_mm256_hadd_epi32(a, b),
                                               _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), s);
  }
  for (; i < pairs; ++i) out[i] = in[2 * i] + in[2 * i + 1];
}

#endif  // BRSMN_SIMD_X86

// --- dispatch tables ------------------------------------------------------

constexpr SimdOps kPortableOps = {
    Backend::Portable,      "portable",
    stage_shift_portable,   stage_offset_portable,
    census_split_portable,  or_andnot_portable,
    count_cascade_portable, tag_pack_portable,
    tag_unpack_portable,    pair_sum_u32_portable,
};

#if BRSMN_SIMD_X86
constexpr SimdOps kAvx2Ops = {
    Backend::Avx2,      "avx2",
    stage_shift_avx2,   stage_offset_avx2,
    census_split_avx2,  or_andnot_avx2,
    count_cascade_avx2, tag_pack_avx2,
    tag_unpack_avx2,    pair_sum_u32_avx2,
};
#endif

}  // namespace

bool compiled(Backend b) noexcept {
  switch (b) {
    case Backend::Portable:
      return true;
    case Backend::Avx2:
      return BRSMN_SIMD_X86 != 0;
    case Backend::Auto:
      return false;
  }
  return false;
}

bool available(Backend b) noexcept {
  if (!compiled(b)) return false;
#if BRSMN_SIMD_X86
  if (b == Backend::Avx2) return __builtin_cpu_supports("avx2") != 0;
#endif
  return true;  // Portable always.
}

Backend detect() noexcept {
  static const Backend widest =
      available(Backend::Avx2) ? Backend::Avx2 : Backend::Portable;
  return widest;
}

Backend forced() noexcept {
  static const Backend cached = [] {
    const char* env = std::getenv("BRSMN_FORCE_BACKEND");
    if (env == nullptr || *env == '\0') return Backend::Auto;
    const auto parsed = parse(env);
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "brsmn: BRSMN_FORCE_BACKEND='%s' is not a backend name "
                   "(auto/portable/avx2) — ignoring\n",
                   env);
      return Backend::Auto;
    }
    if (*parsed != Backend::Auto && !available(*parsed)) {
      std::fprintf(stderr,
                   "brsmn: BRSMN_FORCE_BACKEND='%s' is not available on this "
                   "host — falling back to auto\n",
                   env);
      return Backend::Auto;
    }
    return *parsed;
  }();
  return cached;
}

const SimdOps& ops(Backend request) noexcept {
  if (request == Backend::Auto) {
    const Backend f = forced();
    request = f == Backend::Auto ? detect() : f;
  }
#if BRSMN_SIMD_X86
  if (request == Backend::Avx2 && available(request)) return kAvx2Ops;
#endif
  return kPortableOps;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out{Backend::Portable};
  if (available(Backend::Avx2)) out.push_back(Backend::Avx2);
  return out;
}

const char* to_string(Backend b) noexcept {
  switch (b) {
    case Backend::Auto:
      return "auto";
    case Backend::Portable:
      return "portable";
    case Backend::Avx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<Backend> parse(std::string_view name) noexcept {
  if (name == "auto") return Backend::Auto;
  if (name == "portable" || name == "swar" || name == "scalar-words") {
    return Backend::Portable;
  }
  if (name == "avx2") return Backend::Avx2;
  return std::nullopt;
}

}  // namespace brsmn::simd
