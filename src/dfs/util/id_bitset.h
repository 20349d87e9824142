#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace dfs::util::bits {

/// Word-level helpers for dense id sets (node ids, task indexes): id `i`
/// is bit `i % 64` of word `i / 64`. Callers own the word arrays; every
/// function takes the word count so arrays of one universe combine
/// bitwise.
using Word = std::uint64_t;
inline constexpr int kWordBits = 64;

inline std::size_t words_for(int ids) {
  assert(ids >= 0);
  return (static_cast<std::size_t>(ids) + kWordBits - 1) / kWordBits;
}

inline Word mask_of(int id) { return Word{1} << (id % kWordBits); }

inline void set(Word* w, int id) {
  w[static_cast<std::size_t>(id / kWordBits)] |= mask_of(id);
}

inline void clear(Word* w, int id) {
  w[static_cast<std::size_t>(id / kWordBits)] &= ~mask_of(id);
}

/// |a & b|.
inline long count_and(const Word* a, const Word* b, std::size_t words) {
  long count = 0;
  for (std::size_t i = 0; i < words; ++i) count += std::popcount(a[i] & b[i]);
  return count;
}

/// The id of the r-th (0-based) member of a & b in ascending id order.
/// Requires r < count_and(a, b, words).
inline int select_and(const Word* a, const Word* b, std::size_t words,
                      long r) {
  for (std::size_t i = 0; i < words; ++i) {
    Word x = a[i] & b[i];
    const int here = std::popcount(x);
    if (r >= here) {
      r -= here;
      continue;
    }
    for (; r > 0; --r) x &= x - 1;  // drop the r lowest members
    return static_cast<int>(i) * kWordBits + std::countr_zero(x);
  }
  assert(false && "select_and: rank out of range");
  return -1;
}

}  // namespace dfs::util::bits
