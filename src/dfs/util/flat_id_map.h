#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dfs::util {

/// Fibonacci hashing: spreads sequential ids (the common case: flow ids are
/// handed out by a counter) over the high bits, which FlatIdMap indexes by.
struct FibonacciIdHash {
  std::uint64_t operator()(std::uint64_t key) const {
    return key * 0x9e3779b97f4a7c15ull;
  }
};

/// Map from a nonzero 64-bit id to a 32-bit value, by open addressing with
/// linear probing and backward-shift deletion: one flat array, no
/// per-entry allocation and no tombstones. Key 0 marks an empty cell, so
/// keys must be nonzero. The table starts empty and doubles to keep the
/// load at most 1/2. `Hash` maps a key to 64 bits whose top bits choose the
/// home cell (tests substitute a clustering hash to force wrapping runs).
template <typename Hash = FibonacciIdHash>
class FlatIdMap {
 public:
  std::size_t size() const { return size_; }

  /// Insert `key -> value`; false (and no change) if `key` is present.
  bool insert(std::uint64_t key, std::uint32_t value) {
    assert(key != 0);
    if (2 * (size_ + 1) > cells_.size()) grow();
    std::size_t i = home(key);
    while (cells_[i].key != 0) {
      if (cells_[i].key == key) return false;
      i = (i + 1) & mask_;
    }
    cells_[i] = Cell{key, value};
    ++size_;
    return true;
  }

  /// The value stored for `key`, or nullptr.
  const std::uint32_t* find(std::uint64_t key) const {
    const std::size_t i = locate(key);
    return i == kNotFound ? nullptr : &cells_[i].value;
  }

  /// Remove `key`; false if it was not present.
  bool erase(std::uint64_t key) {
    std::size_t hole = locate(key);
    if (hole == kNotFound) return false;
    // Backward shift: pull every later member of the probe run whose home
    // does not lie cyclically in (hole, j] back into the hole, so lookups
    // never need a tombstone to keep probing.
    for (std::size_t j = (hole + 1) & mask_; cells_[j].key != 0;
         j = (j + 1) & mask_) {
      const std::size_t h = home(cells_[j].key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return true;
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
  };
  static constexpr std::size_t kNotFound = ~std::size_t{0};
  static constexpr std::size_t kMinCells = 16;

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }

  std::size_t locate(std::uint64_t key) const {
    if (cells_.empty() || key == 0) return kNotFound;
    for (std::size_t i = home(key); cells_[i].key != 0; i = (i + 1) & mask_) {
      if (cells_[i].key == key) return i;
    }
    return kNotFound;
  }

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    const std::size_t cells = old.empty() ? kMinCells : 2 * old.size();
    cells_.assign(cells, Cell{});
    mask_ = cells - 1;
    shift_ = 64;
    for (std::size_t c = cells; c > 1; c >>= 1) --shift_;
    for (const Cell& cell : old) {
      if (cell.key == 0) continue;
      std::size_t i = home(cell.key);
      while (cells_[i].key != 0) i = (i + 1) & mask_;
      cells_[i] = cell;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace dfs::util
