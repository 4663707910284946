#include "util/bloom.h"

#include <algorithm>
#include <cmath>

namespace sdur::util {

BloomFilter::BloomFilter(std::uint32_t bits, std::uint32_t hashes)
    : bits_(std::max<std::uint32_t>(bits, 64)),
      hashes_(std::clamp<std::uint32_t>(hashes, 1, 16)),
      words_((bits_ + 63) / 64, 0) {}

BloomFilter BloomFilter::for_capacity(std::size_t n, double fp) {
  n = std::max<std::size_t>(n, 1);
  fp = std::clamp(fp, 1e-9, 0.5);
  const double ln2 = 0.6931471805599453;
  auto bits = static_cast<std::uint32_t>(
      std::ceil(-static_cast<double>(n) * std::log(fp) / (ln2 * ln2)));
  auto hashes = static_cast<std::uint32_t>(std::round(ln2 * bits / static_cast<double>(n)));
  return BloomFilter(bits, std::max<std::uint32_t>(hashes, 1));
}

void BloomFilter::insert(std::uint64_t key) {
  const KeyHash h = hash(key);
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    const std::uint32_t pos = position(h, i);
    words_[pos >> 6] |= 1ULL << (pos & 63);
  }
  ++count_;
}

bool BloomFilter::may_contain(const KeyHash& h) const {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    const std::uint32_t pos = position(h, i);
    if ((words_[pos >> 6] & (1ULL << (pos & 63))) == 0) return false;
  }
  return true;
}

bool BloomFilter::disjoint(const BloomFilter& other) const {
  if (empty() || other.empty()) return true;
  if (bits_ == other.bits_) {
    // Same geometry: filters are disjoint if their bit sets do not overlap.
    // This is conservative (may report overlap without a common element),
    // which is the safe direction for certification.
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return false;
    }
    return true;
  }
  // Different geometries cannot be compared bitwise; conservatively assume
  // a possible intersection.
  return false;
}

double BloomFilter::estimated_fp_rate() const {
  const double k = hashes_;
  const double n = static_cast<double>(count_);
  const double m = static_cast<double>(bits_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

void BloomFilter::clear() {
  std::fill(words_.begin(), words_.end(), 0);
  count_ = 0;
}

void BloomFilter::encode(Writer& w) const {
  w.u32(bits_);
  w.u32(hashes_);
  w.varint(count_);
  for (std::uint64_t word : words_) w.u64(word);
}

BloomFilter BloomFilter::decode(Reader& r) {
  const std::uint32_t bits = r.u32();
  const std::uint32_t hashes = r.u32();
  BloomFilter f(bits, hashes);
  f.count_ = r.varint();
  for (auto& word : f.words_) word = r.u64();
  return f;
}

KeySet KeySet::exact(std::vector<std::uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  KeySet s;
  s.is_bloom_ = false;
  s.keys_ = std::move(keys);
  return s;
}

KeySet KeySet::bloom(const std::vector<std::uint64_t>& keys, double fp_rate) {
  KeySet s;
  s.is_bloom_ = true;
  s.bloom_ = BloomFilter::for_capacity(std::max<std::size_t>(keys.size(), 4), fp_rate);
  for (std::uint64_t k : keys) s.bloom_.insert(k);
  return s;
}

bool KeySet::may_contain(std::uint64_t key) const {
  if (is_bloom_) return bloom_.may_contain(key);
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

bool KeySet::intersects(const KeySet& other) const {
  if (empty() || other.empty()) return false;
  if (!is_bloom_ && !other.is_bloom_) {
    // Exact/exact: merge-scan of two sorted vectors.
    auto a = keys_.begin();
    auto b = other.keys_.begin();
    while (a != keys_.end() && b != other.keys_.end()) {
      if (*a == *b) return true;
      if (*a < *b) ++a; else ++b;
    }
    return false;
  }
  if (is_bloom_ && other.is_bloom_) return !bloom_.disjoint(other.bloom_);
  // Mixed: probe the exact side's keys against the bloom side.
  const KeySet& exact_side = is_bloom_ ? other : *this;
  const KeySet& bloom_side = is_bloom_ ? *this : other;
  return std::any_of(exact_side.keys_.begin(), exact_side.keys_.end(),
                     [&](std::uint64_t k) { return bloom_side.bloom_.may_contain(k); });
}

void KeySet::encode(Writer& w) const {
  w.u8(is_bloom_ ? 1 : 0);
  if (is_bloom_) {
    bloom_.encode(w);
  } else {
    w.varint(keys_.size());
    for (std::uint64_t k : keys_) w.u64(k);
  }
}

KeySet KeySet::decode(Reader& r) {
  KeySet s;
  s.is_bloom_ = r.u8() != 0;
  if (s.is_bloom_) {
    s.bloom_ = BloomFilter::decode(r);
  } else {
    const std::uint64_t n = r.varint();
    s.keys_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) s.keys_.push_back(r.u64());
  }
  return s;
}

HashedKeys::HashedKeys(const KeySet& keys) : set_(keys) {
  if (keys.is_bloom_) return;  // a bloom probe set has no keys to hash
  hashed_ = std::min(keys.keys_.size(), kInline);
  for (std::size_t i = 0; i < hashed_; ++i) hashes_[i] = BloomFilter::hash(keys.keys_[i]);
}

bool HashedKeys::intersects(const KeySet& other) const {
  // Only exact-vs-bloom probes hash; every other mode pairing is
  // KeySet::intersects itself.
  if (set_.is_bloom_ || !other.is_bloom_ || set_.empty() || other.empty()) {
    return set_.intersects(other);
  }
  const BloomFilter& filter = other.bloom_;
  for (std::size_t i = 0; i < hashed_; ++i) {
    if (filter.may_contain(hashes_[i])) return true;
  }
  const std::vector<std::uint64_t>& keys = set_.keys_;
  for (std::size_t i = hashed_; i < keys.size(); ++i) {
    if (filter.may_contain(keys[i])) return true;
  }
  return false;
}

}  // namespace sdur::util
