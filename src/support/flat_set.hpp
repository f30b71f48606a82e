// A flat set of integer keys below a fixed universe bound.
//
// While sparse it is an open-addressing hash table (one array of slots,
// linear probing, Fibonacci hashing, power-of-two capacity kept at most
// half full), so memory is O(size()) however large the universe is. When
// the next table would take more bytes than a bitset over the universe,
// it becomes that bitset instead. Memory is therefore never more than the
// hash table would take, and never more than universe/8 bytes.
//
// The universal MaxIS program dedups its u*n+v edge keys with it: a node
// of a sparse graph stores the few edges it has learned, a node of a dense
// graph gets a compact, cache-resident n^2-bit map.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/expect.hpp"

namespace congestlb {

class FlatU64Set {
 public:
  /// Keys must be < universe.
  explicit FlatU64Set(std::uint64_t universe = ~std::uint64_t{0})
      : universe_(universe) {}

  /// Insert `key`; false if it was already present.
  bool insert(std::uint64_t key) {
    CLB_EXPECT(key < universe_, "FlatU64Set: key outside the universe");
    if (bits_.empty() && 2 * (size_ + 1) > slots_.size()) grow();
    const bool added = bits_.empty() ? place(key + 1) : set_bit(key);
    if (added) ++size_;
    return added;
  }

  std::size_t size() const { return size_; }
  /// Bytes held by the table or the bitset.
  std::size_t memory_bytes() const {
    return 8 * (slots_.capacity() + bits_.capacity());
  }

 private:
  /// Put a stored value (key + 1; 0 marks an empty slot) into the table.
  bool place(std::uint64_t stored) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (stored * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i] != 0) {
      if (slots_[i] == stored) return false;
      i = (i + 1) & mask;
    }
    slots_[i] = stored;
    return true;
  }

  bool set_bit(std::uint64_t key) {
    std::uint64_t& word = bits_[key / 64];
    const std::uint64_t bit = std::uint64_t{1} << (key % 64);
    const bool added = (word & bit) == 0;
    word |= bit;
    return added;
  }

  void grow() {
    const std::size_t next = slots_.empty() ? 16 : 2 * slots_.size();
    std::vector<std::uint64_t> old;
    old.swap(slots_);
    const std::uint64_t bitset_words = universe_ / 64 + (universe_ % 64 != 0);
    if (next >= bitset_words) {
      // A bitset over the universe is no bigger than the next table.
      bits_.assign(bitset_words, 0);
      for (std::uint64_t stored : old) {
        if (stored != 0) set_bit(stored - 1);
      }
      return;
    }
    slots_.assign(next, 0);
    shift_ = 64;
    for (std::size_t c = slots_.size(); c > 1; c >>= 1) --shift_;
    for (std::uint64_t stored : old) {
      if (stored != 0) place(stored);
    }
  }

  std::uint64_t universe_;
  std::vector<std::uint64_t> slots_;  ///< hash mode: key + 1, 0 = empty
  std::vector<std::uint64_t> bits_;   ///< bitset mode (slots_ then empty)
  std::size_t size_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
};

}  // namespace congestlb
