// Bloom filters for certification (paper Section V).
//
// The SDUR prototype broadcasts only hashes of a transaction's readset and
// keeps the last K committed writesets as bloom filters. Intersection tests
// between read/write sets then become bloom-filter queries, which trades a
// small false-positive abort rate for large bandwidth and memory savings.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/hash.h"

namespace sdur::util {

/// A fixed-size bloom filter over 64-bit keys.
///
/// Bit count and hash count are chosen at construction; `for_capacity`
/// picks near-optimal parameters for a target element count and false
/// positive rate.
class BloomFilter {
 public:
  /// The two base hashes a key's bit positions derive from (double
  /// hashing: position i is nth_hash(h1, h2, i) % bits). They depend on
  /// the key alone, not on a filter's geometry, so one KeyHash serves
  /// probes against any number of filters: hash once, probe many.
  struct KeyHash {
    std::uint64_t h1;
    std::uint64_t h2;
  };
  static KeyHash hash(std::uint64_t key) {
    return {mix64(key), mix64(key ^ 0x9E3779B97F4A7C15ULL)};
  }

  BloomFilter() : BloomFilter(64, 4) {}
  BloomFilter(std::uint32_t bits, std::uint32_t hashes);

  /// Sizes the filter for `n` expected elements at false-positive rate `fp`.
  static BloomFilter for_capacity(std::size_t n, double fp);

  void insert(std::uint64_t key);

  /// Membership probe. Positions are derived one at a time, in insert()'s
  /// order, and the probe returns at the first clear bit: same verdict as
  /// testing every position, but a sparse filter usually answers "no"
  /// after one or two of its `hashes` modulo operations.
  bool may_contain(const KeyHash& h) const;
  bool may_contain(std::uint64_t key) const { return may_contain(hash(key)); }

  /// True if no element of `other` can be in this filter (guaranteed empty
  /// intersection). False means the intersection *may* be non-empty.
  bool disjoint(const BloomFilter& other) const;

  bool empty() const { return count_ == 0; }
  std::size_t count() const { return count_; }
  std::uint32_t bit_count() const { return bits_; }
  std::size_t byte_size() const { return words_.size() * 8; }

  /// Estimated false-positive probability at the current fill level.
  double estimated_fp_rate() const;

  void clear();

  void encode(Writer& w) const;
  static BloomFilter decode(Reader& r);

  bool operator==(const BloomFilter& other) const = default;

 private:
  /// Bit position `i` of a key (0 <= i < hashes_).
  std::uint32_t position(const KeyHash& h, std::uint32_t i) const {
    return static_cast<std::uint32_t>(nth_hash(h.h1, h.h2, i) % bits_);
  }

  std::uint32_t bits_;
  std::uint32_t hashes_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

/// A set of 64-bit keys with a pluggable exact/bloom representation, used
/// for certification records. In exact mode intersection tests are precise;
/// in bloom mode they may report spurious overlap (false-positive aborts,
/// as in the paper's prototype).
class KeySet {
 public:
  /// Default: an empty exact set.
  KeySet() = default;

  /// Exact representation (sorted vector).
  static KeySet exact(std::vector<std::uint64_t> keys);
  /// Bloom representation sized for the given keys.
  static KeySet bloom(const std::vector<std::uint64_t>& keys, double fp_rate = 0.01);

  bool is_bloom() const { return is_bloom_; }
  bool empty() const { return is_bloom_ ? bloom_.empty() : keys_.empty(); }
  std::size_t size_hint() const { return is_bloom_ ? bloom_.count() : keys_.size(); }

  /// True if the intersection with `other` is (possibly) non-empty.
  bool intersects(const KeySet& other) const;

  /// Membership test for a single key (may false-positive in bloom mode).
  bool may_contain(std::uint64_t key) const;

  /// Wire size: bloom mode ships only the filter bits.
  void encode(Writer& w) const;
  static KeySet decode(Reader& r);

  /// Exact keys (only valid in exact mode; used by tests).
  const std::vector<std::uint64_t>& keys() const { return keys_; }

 private:
  friend class HashedKeys;

  bool is_bloom_ = false;
  std::vector<std::uint64_t> keys_;  // sorted, exact mode
  BloomFilter bloom_;                // bloom mode
};

/// A probe set whose keys' bloom hashes are computed once, for testing one
/// set against many bloom-encoded sets (a certification walks a window
/// of bloom readsets with the same write keys). intersects() returns
/// exactly KeySet::intersects(other) and probes keys in the same order;
/// only the per-key hashing is shared. The hashes live inline, so the
/// first kInline keys are hashed once and any further keys are hashed per
/// probe as before — no allocation either way. Holds a reference to
/// `keys`, which must outlive it.
class HashedKeys {
 public:
  static constexpr std::size_t kInline = 16;

  explicit HashedKeys(const KeySet& keys);

  bool intersects(const KeySet& other) const;

 private:
  const KeySet& set_;
  std::size_t hashed_ = 0;  // keys with a precomputed hash (exact mode)
  std::array<BloomFilter::KeyHash, kInline> hashes_;
};

}  // namespace sdur::util
