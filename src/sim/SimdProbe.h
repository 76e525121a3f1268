//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vectorized 4-way VPN probe of the TLB model. The TLB keeps its set
/// storage as structure-of-arrays u64 rows, so one probe is "which of
/// these four contiguous 64-bit keys equals mine" — exactly two 128-bit
/// compares. (The LLC model probes one-byte tag fingerprints instead; see
/// CacheSim.h.) The SSE2 path emulates the 64-bit
/// equality (SSE4.1's pcmpeqq is above the x86-64 baseline) by matching
/// both 32-bit halves; the NEON path uses the native vceqq_u64.
///
/// The probe's contract mirrors the scalar loops it replaces: the LOWEST
/// matching way index is returned, so even in the impossible case of a
/// duplicated key the verdict is bit-identical to a first-match scan.
/// Callers guarantee at most one real match (sets never hold duplicate
/// keys — inserts happen only on a miss).
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SIM_SIMDPROBE_H
#define ATMEM_SIM_SIMDPROBE_H

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#define ATMEM_SIMD_PROBE 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define ATMEM_SIMD_PROBE 1
#else
#define ATMEM_SIMD_PROBE 0
#endif

namespace atmem {
namespace sim {

/// Index (0..3) of the first element of \p Row equal to \p Key, or -1
/// when none matches. \p Row need not be 16-byte aligned (the set rows
/// live in std::vector storage whose 4-way groups are only 8-aligned).
inline int probeWay4(const uint64_t *Row, uint64_t Key) {
#if defined(__SSE2__)
  __m128i K = _mm_set1_epi64x(static_cast<long long>(Key));
  __m128i A = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Row));
  __m128i B = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Row + 2));
  // 64-bit equality out of 32-bit compares: a lane is equal iff both of
  // its halves are, so AND each half's verdict with its neighbour's.
  __m128i EqA32 = _mm_cmpeq_epi32(A, K);
  __m128i EqB32 = _mm_cmpeq_epi32(B, K);
  __m128i EqA =
      _mm_and_si128(EqA32, _mm_shuffle_epi32(EqA32, _MM_SHUFFLE(2, 3, 0, 1)));
  __m128i EqB =
      _mm_and_si128(EqB32, _mm_shuffle_epi32(EqB32, _MM_SHUFFLE(2, 3, 0, 1)));
  unsigned Mask = static_cast<unsigned>(_mm_movemask_epi8(EqA)) |
                  (static_cast<unsigned>(_mm_movemask_epi8(EqB)) << 16);
  if (Mask == 0)
    return -1;
  // Eight mask bits per 64-bit lane; the lowest set bit is the first way.
  return __builtin_ctz(Mask) >> 3;
#elif defined(__aarch64__) && defined(__ARM_NEON)
  uint64x2_t K = vdupq_n_u64(Key);
  uint64x2_t EqA = vceqq_u64(vld1q_u64(Row), K);
  uint64x2_t EqB = vceqq_u64(vld1q_u64(Row + 2), K);
  uint64_t H0 = vgetq_lane_u64(EqA, 0);
  uint64_t H1 = vgetq_lane_u64(EqA, 1);
  uint64_t H2 = vgetq_lane_u64(EqB, 0);
  uint64_t H3 = vgetq_lane_u64(EqB, 1);
  if (H0)
    return 0;
  if (H1)
    return 1;
  if (H2)
    return 2;
  if (H3)
    return 3;
  return -1;
#else
  for (int I = 0; I < 4; ++I)
    if (Row[I] == Key)
      return I;
  return -1;
#endif
}

} // namespace sim
} // namespace atmem

#endif // ATMEM_SIM_SIMDPROBE_H
