//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic pseudo-random number generation used by the graph
/// generators and tests. Two generators are provided: SplitMix64 (seed
/// expansion) and Xoshiro256** (bulk stream). Determinism across platforms
/// is a hard requirement: every experiment in EXPERIMENTS.md must be exactly
/// reproducible from a seed.
///
//===----------------------------------------------------------------------===//

#ifndef ATMEM_SUPPORT_PRNG_H
#define ATMEM_SUPPORT_PRNG_H

#include <cstdint>

namespace atmem {

/// SplitMix64: tiny, fast generator mainly used to expand a user seed into
/// the state of a larger generator. Passes BigCrush when used directly.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64-bit value in the stream.
  uint64_t next();

private:
  uint64_t State;
};

/// Xoshiro256**: the project's workhorse generator. Small state, very fast,
/// and high statistical quality for the Monte-Carlo style workloads in the
/// graph generators.
class Xoshiro256 {
public:
  /// Seeds the four-word state via SplitMix64 expansion of \p Seed.
  explicit Xoshiro256(uint64_t Seed);

  /// Returns the next 64-bit value in the stream.
  uint64_t next();

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble();

  /// Returns a uniformly distributed integer in [0, Bound) using Lemire's
  /// unbiased multiply-shift rejection method. \p Bound must be non-zero.
  uint64_t nextBounded(uint64_t Bound);

  /// Advances the stream as \p N calls of next() would, in O(log N)
  /// polynomial steps plus 256 next() calls, so independent workers can
  /// each start at their own offset of one stream.
  void discard(uint64_t N);

private:
  uint64_t State[4];
};

} // namespace atmem

#endif // ATMEM_SUPPORT_PRNG_H
