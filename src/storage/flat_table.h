// Open-addressing hash table for the storage hot paths.
//
// A minimal flat map from 64-bit keys to an arbitrary value type: one
// contiguous slot array, linear probing, power-of-two capacity, backward-
// shift deletion (no tombstones, so probe chains never rot). It replaces
// std::unordered_map where the per-node allocation and pointer chasing
// dominate (MVStore::get/put, the certification index): a probe touches
// one cache line in the common case instead of a bucket head plus a heap
// node.
//
// DETERMINISM. The table deliberately exposes no iterators. The only way
// to walk it is for_each(), which visits slots in hash/probe order — an
// order that depends on insertion history and must never leak into
// protocol decisions or serialized state. Callers either sort what they
// collect (MVStore::encode) or perform provably order-insensitive per-key
// mutations (MVStore::gc). The certification index (cert_index.h) never
// iterates at all — probes only — and tools/analyze enforces
// that (rule cert-index-iteration).
#pragma once

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace sdur::storage {

template <typename V>
class FlatTable {
 public:
  using KeyType = std::uint64_t;

  FlatTable() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pointer to the value for `k`, or nullptr if absent.
  const V* find(KeyType k) const {
    if (slots_.empty()) return nullptr;
    std::size_t i = bucket(k);
    while (slots_[i].used) {
      if (slots_[i].key == k) return &slots_[i].value;
      i = (i + 1) & mask();
    }
    return nullptr;
  }
  V* find(KeyType k) { return const_cast<V*>(std::as_const(*this).find(k)); }

  /// Value for `k`, default-constructed and inserted if absent.
  V& operator[](KeyType k) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = bucket(k);
    while (slots_[i].used) {
      if (slots_[i].key == k) return slots_[i].value;
      i = (i + 1) & mask();
    }
    slots_[i].used = true;
    slots_[i].key = k;
    slots_[i].value = V{};
    ++size_;
    return slots_[i].value;
  }

  /// Removes `k`; returns false if absent. Backward-shift deletion keeps
  /// every remaining probe chain contiguous.
  bool erase(KeyType k) {
    if (slots_.empty()) return false;
    std::size_t i = bucket(k);
    while (true) {
      if (!slots_[i].used) return false;
      if (slots_[i].key == k) break;
      i = (i + 1) & mask();
    }
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask();
      if (!slots_[j].used) break;
      const std::size_t home = bucket(slots_[j].key);
      // Slot j may fill the hole at i only if i lies on j's probe path
      // (cyclically between j's home bucket and j).
      if (((j - i) & mask()) <= ((j - home) & mask())) {
        slots_[i].key = slots_[j].key;
        slots_[i].value = std::move(slots_[j].value);
        i = j;
      }
    }
    slots_[i].used = false;
    slots_[i].value = V{};  // release any heap buffers the value held
    --size_;
    return true;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    std::size_t cap = 16;
    while (n * 4 > cap * 3) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  /// Visits every (key, value) in HASH ORDER — see the determinism note in
  /// the header comment. `fn(key, value)`; the mutable overload may change
  /// values but must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    KeyType key = 0;
    V value{};
    bool used = false;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t bucket(KeyType k) const { return util::mix64(k) & mask(); }

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  void rehash(std::size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    size_ = 0;
    for (Slot& s : old) {
      if (s.used) (*this)[s.key] = std::move(s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace sdur::storage
