// Shared hashing primitives: a strong 64-bit string hash, an
// order-sensitive combiner and a 128-bit streaming digest. Used by the
// query/ struct hashers and by the sub-plan fingerprints, where weak mixing
// would translate directly into cache-entry collisions in the serving layer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace fj {

/// SplitMix64 finalizer (Vigna): full-avalanche mixing of a 64-bit value.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// FNV-1a over bytes, seeded so independent hash streams can be derived from
/// the same input (Fingerprint uses two streams for its 128 bits).
inline uint64_t Fnv1a64(std::string_view s, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Asymmetric combiner: HashCombine(a, b) != HashCombine(b, a), so
/// ("a","b") and ("b","a") pairs land in different buckets.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

/// Streaming 128-bit digest of a structured value. Every token goes into two
/// independently built 64-bit streams: byte-wise FNV-1a, and a word-wise
/// HashCombine chain, so a structural weakness of one does not carry into the
/// other. Strings are length-prefixed and every other token has a fixed
/// width, so distinct token sequences never feed the same bytes.
class Digest128 {
 public:
  Digest128& Tag(uint8_t tag) {
    lo_ = (lo_ ^ tag) * kFnvPrime;
    hi_ = HashCombine(hi_, 0x7a6c000000000000ULL | tag);
    return *this;
  }

  Digest128& U64(uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      lo_ = (lo_ ^ ((v >> shift) & 0xff)) * kFnvPrime;
    }
    hi_ = HashCombine(hi_, v);
    return *this;
  }

  Digest128& Str(std::string_view s) {
    U64(s.size());
    lo_ = Fnv1a64(s, lo_);
    for (size_t i = 0; i < s.size(); i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, s.data() + i, std::min<size_t>(8, s.size() - i));
      hi_ = HashCombine(hi_, word);
    }
    return *this;
  }

  /// Fully mixed halves, ready to be summed with other digests.
  uint64_t lo() const { return Mix64(lo_); }
  uint64_t hi() const { return Mix64(hi_ ^ 0x5851f42d4c957f2dULL); }

 private:
  static constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

  uint64_t lo_ = 0xcbf29ce484222325ULL;
  uint64_t hi_ = 0x9ae16a3b2f90404fULL;
};

}  // namespace fj
