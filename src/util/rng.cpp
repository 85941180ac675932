#include "src/util/rng.h"

#include <cmath>

#include "src/util/check.h"

namespace minuet {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  Next();
  state_ += seed;
  Next();
}

uint32_t Pcg32::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

uint32_t Pcg32::NextBounded(uint32_t bound) {
  MINUET_CHECK_GT(bound, 0u);
  // Lemire's rejection method.
  uint32_t threshold = (0u - bound) % bound;
  while (true) {
    uint32_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int32_t Pcg32::NextInt(int32_t lo, int32_t hi) {
  MINUET_CHECK_LE(lo, hi);
  // In int64: hi - lo, and lo plus a draw, can pass INT32_MAX.
  uint32_t span = static_cast<uint32_t>(static_cast<int64_t>(hi) - lo + 1);
  return static_cast<int32_t>(lo + static_cast<int64_t>(NextBounded(span)));
}

double Pcg32::NextDouble() { return Next() * (1.0 / 4294967296.0); }

double Pcg32::NextGaussian() {
  // Box-Muller; guard against log(0).
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-12) {
    u1 = 1e-12;
  }
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace minuet
