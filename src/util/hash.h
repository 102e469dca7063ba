// 64-bit FNV-1a hashing and mixing primitives for the hot-path digests.
//
// Everything in the analyzer that wants a cheap, run-stable fingerprint —
// interned strings, symbolic values, whole executor states — funnels through
// these helpers. Two properties matter and are load-bearing:
//
//   1. Content stability. Digests hash string *bytes*, never interner ids or
//      pointers, so the same script produces the same digests in every run
//      and under any thread interleaving (the batch driver analyzes files on
//      a thread pool, so intern ids are not reproducible).
//   2. Domain separation. Composite digests seed each field with a distinct
//      tag constant before mixing, so e.g. a concrete value "a" can never
//      collide structurally with a language whose pattern is "a".
#ifndef SASH_UTIL_HASH_H_
#define SASH_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace sash::util {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// FNV-1a over a byte range, continuing from `h`.
constexpr uint64_t Fnv1a(std::string_view bytes, uint64_t h = kFnvOffsetBasis) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Mixes a 64-bit word into a running FNV hash, byte by byte (little-endian).
constexpr uint64_t FnvMix64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// A strong finalizer (splitmix64) — run over per-element hashes before they
// enter a commutative sum so that low-entropy inputs don't cancel.
constexpr uint64_t HashFinalize(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Order-independent accumulator for digests of set/map-like containers
// (variable bindings, filesystem facts): elements may be added in any order
// and removal is exact (subtract what was added). Each element hash is
// finalized first so the sum is not trivially cancellable.
struct CommutativeDigest {
  uint64_t sum = 0;

  constexpr void Add(uint64_t element_hash) { sum += HashFinalize(element_hash); }
  constexpr void Remove(uint64_t element_hash) { sum -= HashFinalize(element_hash); }
  constexpr uint64_t value() const { return sum; }
};

}  // namespace sash::util

#endif  // SASH_UTIL_HASH_H_
