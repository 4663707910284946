#include "storage/cert_index.h"

namespace sdur::storage {

namespace {

/// A set participates in the key index iff it can be enumerated. Empty
/// bloom sets are treated as exact: they intersect nothing either way.
bool indexable(const util::KeySet& s) { return !s.is_bloom() || s.empty(); }

}  // namespace

void CertIndex::insert(Version v, const util::KeySet& readset, const util::KeySet& writeset) {
  if (indexable(readset)) {
    for (std::uint64_t k : readset.keys()) table_[k].reader = v;
  } else {
    bloom_rs_.push_back(v);
  }
  if (indexable(writeset)) {
    for (std::uint64_t k : writeset.keys()) table_[k].writer = v;
  } else {
    bloom_ws_.push_back(v);
  }
}

void CertIndex::evict(Version v, const util::KeySet& readset, const util::KeySet& writeset) {
  if (indexable(readset)) {
    for (std::uint64_t k : readset.keys()) {
      Entry* e = table_.find(k);
      // The entry survives eviction iff a newer record also reads k (its
      // recorded version then exceeds the evicted one).
      if (e != nullptr && e->reader == v) {
        e->reader = kNone;
        if (e->writer == kNone) table_.erase(k);
      }
    }
  } else {
    while (!bloom_rs_.empty() && bloom_rs_.front() <= v) bloom_rs_.pop_front();
  }
  if (indexable(writeset)) {
    for (std::uint64_t k : writeset.keys()) {
      Entry* e = table_.find(k);
      if (e != nullptr && e->writer == v) {
        e->writer = kNone;
        if (e->reader == kNone) table_.erase(k);
      }
    }
  } else {
    while (!bloom_ws_.empty() && bloom_ws_.front() <= v) bloom_ws_.pop_front();
  }
}

void CertIndex::clear() {
  table_.clear();
  bloom_rs_.clear();
  bloom_ws_.clear();
}

bool CertIndex::reads_conflict(const util::KeySet& readset, Version st) const {
  for (std::uint64_t k : readset.keys()) {
    const Entry* e = table_.find(k);
    if (e != nullptr && e->writer > st) return true;
  }
  return false;
}

bool CertIndex::writes_conflict(const util::KeySet& writeset, Version st) const {
  for (std::uint64_t k : writeset.keys()) {
    const Entry* e = table_.find(k);
    if (e != nullptr && e->reader > st) return true;
  }
  return false;
}

}  // namespace sdur::storage
