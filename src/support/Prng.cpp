#include "support/Prng.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

using namespace atmem;

uint64_t SplitMix64::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

Xoshiro256::Xoshiro256(uint64_t Seed) {
  SplitMix64 SM(Seed);
  for (uint64_t &Word : State)
    Word = SM.next();
}

uint64_t Xoshiro256::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

double Xoshiro256::nextDouble() {
  // 53 high-quality bits mapped into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t Xoshiro256::nextBounded(uint64_t Bound) {
  assert(Bound != 0 && "nextBounded requires a non-zero bound");
  // Lemire's multiply-shift with rejection to remove modulo bias.
  uint64_t X = next();
  __uint128_t M = static_cast<__uint128_t>(X) * Bound;
  auto Low = static_cast<uint64_t>(M);
  if (Low < Bound) {
    uint64_t Threshold = -Bound % Bound;
    while (Low < Threshold) {
      X = next();
      M = static_cast<__uint128_t>(X) * Bound;
      Low = static_cast<uint64_t>(M);
    }
  }
  return static_cast<uint64_t>(M >> 64);
}

namespace {

/// A polynomial over GF(2) of degree below 256: bit I % 64 of word I / 64
/// is the coefficient of x^I.
using Poly256 = std::array<uint64_t, 4>;

/// The characteristic polynomial of the xoshiro256 state transition T,
/// less its x^256 term (found with Berlekamp–Massey over one state bit).
/// x^(2^128) modulo it is the published jump() constant and x^(2^192) the
/// published long_jump() constant.
constexpr Poly256 CharPoly = {0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
                              0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/// Returns \p A * x modulo CharPoly.
Poly256 timesX(Poly256 A) {
  bool Overflow = A[3] >> 63;
  for (int Word = 3; Word > 0; --Word)
    A[Word] = (A[Word] << 1) | (A[Word - 1] >> 63);
  A[0] <<= 1;
  if (Overflow)
    for (int Word = 0; Word < 4; ++Word)
      A[Word] ^= CharPoly[Word];
  return A;
}

/// Returns \p A * \p B modulo CharPoly (Horner over A's coefficients).
Poly256 mulMod(const Poly256 &A, const Poly256 &B) {
  Poly256 Product = {};
  for (int Bit = 255; Bit >= 0; --Bit) {
    Product = timesX(Product);
    if ((A[Bit / 64] >> (Bit % 64)) & 1)
      for (int Word = 0; Word < 4; ++Word)
        Product[Word] ^= B[Word];
  }
  return Product;
}

} // namespace

void Xoshiro256::discard(uint64_t N) {
  // x^N modulo CharPoly, by square-and-multiply from N's top bit.
  Poly256 Jump = {1, 0, 0, 0};
  for (int Bit = std::bit_width(N) - 1; Bit >= 0; --Bit) {
    Jump = mulMod(Jump, Jump);
    if ((N >> Bit) & 1)
      Jump = timesX(Jump);
  }
  // CharPoly(T) = 0 (Cayley–Hamilton), so T^N = sum of Jump_I * T^I: the
  // state after N steps is the XOR of the states after each step I whose
  // coefficient is set, accumulated the way the published jump() does.
  uint64_t Sum[4] = {0, 0, 0, 0};
  for (int Bit = 0; Bit < 256; ++Bit) {
    if ((Jump[Bit / 64] >> (Bit % 64)) & 1)
      for (int Word = 0; Word < 4; ++Word)
        Sum[Word] ^= State[Word];
    next();
  }
  std::copy(Sum, Sum + 4, State);
}
