#include "storage/commit_window.h"

#include <stdexcept>

namespace sdur::storage {

void CommitWindow::push(Version version, CommitRecord rec) {
  // The window is a contiguous suffix of the commit sequence: a gap would
  // silently exempt the missing commit from every later certification.
  SDUR_AUDIT_CHECK("storage", "commit-window-contiguous",
                   count_ == 0 || version == newest() + 1,
                   "commit record for tx " << rec.txid << " pushed at version " << version
                                           << ", window newest is " << newest());
  if (count_ != 0 && version != newest() + 1) {
    throw std::logic_error("CommitWindow::push: versions must be contiguous");
  }
  if (count_ == 0) {
    base_ = version;
    head_ = 0;
  }
  index_.insert(version, rec.readset, rec.writeset);
  if (count_ == capacity_) {
    // Saturated: evict the oldest record and recycle its arena slot (the
    // tail position equals head_ when the ring is full).
    const CommitRecord& oldest_rec = ring_[head_];
    index_.evict(base_, oldest_rec.readset, oldest_rec.writeset);
    ring_[head_] = std::move(rec);
    head_ = (head_ + 1) % ring_.size();
    ++base_;
    return;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));  // arena still filling up
  } else {
    ring_[(head_ + count_) % ring_.size()] = std::move(rec);
  }
  ++count_;
}

/// The ring as CertIndex::conflicts() reads it.
struct CommitWindow::Records {
  const CommitWindow& w;

  RecordSets at(Version v) const {
    const CommitRecord& r = w.at(v);
    return {r.readset, r.writeset};
  }

  template <typename Fn>
  bool any_after(Version st, Fn&& fn) const {
    return !w.scan_after(st, [&](const CommitRecord& r) {
      return !fn(RecordSets{r.readset, r.writeset});
    });
  }
};

bool CommitWindow::conflicts_indexed(const util::KeySet& rs, const util::KeySet& ws, bool global,
                                     Version st) const {
  if (count_ == 0 || st >= newest()) return false;
  return index_.conflicts(rs, ws, global, st, Records{*this});
}

}  // namespace sdur::storage
