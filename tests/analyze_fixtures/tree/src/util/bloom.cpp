// Fixture: the bloom probe path. In src/util/bloom.cpp the may_contain*,
// intersects* and disjoint bodies are hot; insert is not, so identical
// constructs there must stay silent. Line 26 is exactly 100 columns: the
// line-length negative (bypass.cpp carries the positive).

namespace util {

bool BloomFilter::may_contain(const KeyHash& h) const {
  auto* scratch = new Word[4];  // positive: hotpath-alloc
  return probe(h, scratch);
}

bool KeySet::intersects(KeySet other) const {  // positive: by-value param
  if (other.empty()) {
    throw std::logic_error("empty");  // positive: hotpath-throw
  }
  const KeySet& ref = other;  // negative: reference
  return overlap(ref);
}

bool BloomFilter::disjoint(const BloomFilter& other) const {
  std::vector<std::uint64_t> words = other.words_;  // positive: container deep-copy
  return none_shared(words);
}

void BloomFilter::insert(std::uint64_t bits) { auto own = std::make_unique<Word>(bits); (void)own; }

}  // namespace util
