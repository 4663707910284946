// Certification window: the recent committed-transaction list "DB" of
// Algorithm 2.
//
// Certifying a delivered transaction t compares it against every
// transaction committed after t's snapshot (DB[t.st[p]..SC]). Servers only
// keep the last `capacity` records (the paper's prototype keeps the last K
// bloom filters); a transaction whose snapshot predates the window can no
// longer be certified and must abort.
//
// Records store both the readset and writeset (as exact or bloom KeySets):
// local certification needs committed writesets, global certification
// additionally intersects against committed readsets (Section III-B).
//
// STORAGE. Records live in a ring-buffer arena sized to the capacity:
// eviction recycles the oldest slot in place for the incoming record
// instead of churning deque nodes, so a saturated window performs zero
// container allocations per push.
//
// CONFLICT CHECKS. conflicts() answers the certification question through
// the per-key CertIndex (storage/cert_index.h) — O(|rs| + |ws|) probes
// plus a scan of only the bloom-encoded suffix — with an SDUR_AUDIT
// cross-check against the legacy full scan. conflicts_scan() and
// conflicts_indexed() expose the two strategies separately for the
// equivalence property tests and bench/cert_perf.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "audit/audit.h"
#include "storage/cert_index.h"
#include "storage/mvstore.h"
#include "util/bloom.h"

namespace sdur::storage {

struct CommitRecord {
  std::uint64_t txid = 0;
  bool global = false;
  util::KeySet readset;
  util::KeySet writeset;
};

class CommitWindow {
 public:
  explicit CommitWindow(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Appends the record for the commit that produced snapshot `version`.
  /// Versions must be pushed in strictly increasing order.
  void push(Version version, CommitRecord rec);

  /// Oldest / newest record versions in the window (0 if empty).
  Version oldest() const { return count_ == 0 ? 0 : base_; }
  Version newest() const {
    return count_ == 0 ? 0 : base_ + static_cast<Version>(count_) - 1;
  }

  /// True if a transaction with snapshot `st` can still be certified, i.e.
  /// every commit record in (st, newest] is in the window. Written without
  /// `st + 1` so st == INT64_MAX cannot overflow.
  bool covers(Version st) const { return count_ == 0 || st >= base_ - 1; }

  /// Invokes `fn(record)` for every commit with version in (st, newest],
  /// stopping early if `fn` returns false. Returns false if it stopped
  /// early, true otherwise. Precondition: covers(st) — violating it is an
  /// audit violation (the scan then starts at the window base, silently
  /// exempting the evicted records).
  template <typename Fn>
  bool scan_after(Version st, Fn&& fn) const {
    if (count_ == 0 || st >= newest()) return true;
    // st < newest <= INT64_MAX, so st + 1 cannot overflow here.
    Version from = st + 1;
    SDUR_AUDIT_CHECK("storage", "scan-covers-precondition", from >= base_,
                     "scan_after(st=" << st << ") predates window base " << base_
                                      << ": evicted commits are exempt from this scan");
    if (from < base_) from = base_;
    for (Version v = from; v <= newest(); ++v) {
      if (!fn(at(v))) return false;
    }
    return true;
  }

  /// Certification conflict check for a transaction with readset `rs`,
  /// writeset `ws` and snapshot `st`: true iff some record in (st, newest]
  /// wrote a key in `rs`, or — for a global transaction — read a key in
  /// `ws` (Section III-B). Indexed; audit builds cross-check the verdict
  /// against the legacy scan. Precondition: covers(st).
  bool conflicts(const util::KeySet& rs, const util::KeySet& ws, bool global, Version st) const {
    const bool indexed = conflicts_indexed(rs, ws, global, st);
    SDUR_AUDIT_CHECK("storage", "index-scan-equivalence",
                     indexed == conflicts_scan(rs, ws, global, st),
                     "indexed certification verdict " << (indexed ? "conflict" : "clear")
                                                      << " diverges from window scan (st=" << st
                                                      << ", window [" << oldest() << ", "
                                                      << newest() << "])");
    return indexed;
  }

  /// The legacy strategy: full scan of (st, newest].
  bool conflicts_scan(const util::KeySet& rs, const util::KeySet& ws, bool global,
                      Version st) const {
    bool hit = false;
    scan_after(st, [&](const CommitRecord& r) {
      if (rs.intersects(r.writeset) || (global && ws.intersects(r.readset))) {
        hit = true;
        return false;
      }
      return true;
    });
    return hit;
  }

  /// The indexed strategy: key probes plus a scan over only the
  /// bloom-encoded suffix (bit-identical verdict to conflicts_scan).
  bool conflicts_indexed(const util::KeySet& rs, const util::KeySet& ws, bool global,
                         Version st) const;

  std::size_t size() const { return count_; }
  const CertIndex& index() const { return index_; }

 private:
  /// The ring as a record accessor for CertIndex::conflicts().
  struct Records;

  const CommitRecord& at(Version v) const {
    return ring_[(head_ + static_cast<std::size_t>(v - base_)) % ring_.size()];
  }

  std::size_t capacity_;
  std::vector<CommitRecord> ring_;  // arena; slot i reused as the window slides
  std::size_t head_ = 0;            // ring index of the oldest record
  std::size_t count_ = 0;
  Version base_ = 0;  // version of the oldest record
  CertIndex index_;
};

}  // namespace sdur::storage
