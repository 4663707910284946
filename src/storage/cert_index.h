// Indexed certification: per-key last-writer / last-reader version index
// over a window of commit records.
//
// Certifying a transaction t with snapshot st against a window of commit
// records asks two existence questions (Algorithm 2 lines 46-47 plus the
// Section III-B global check):
//
//   A. does any record with version > st have a writeset intersecting
//      rs(t)?
//   B. (global t only) does any record with version > st have a readset
//      intersecting ws(t)?
//
// The classic implementation scans every record in (st, SC] — O(window
// depth x set size) per delivery, the serial heart of deferred update
// replication. This index answers both questions with O(|rs| + |ws|) hash
// probes instead: for every key it tracks the *largest* window version
// whose writeset (resp. readset) contains the key, so question A becomes
// "exists k in rs(t) with last_writer[k] > st" — the same boolean, because
// an intersection with *some* record newer than st exists iff the newest
// writer of *some* probed key is newer than st.
//
// Bloom-encoded sets cannot be enumerated into a key index. The index
// keeps a per-mode strategy, preserving bit-identical verdicts:
//
//   * records with an exact set feed the key index;
//   * records with a bloom set are remembered in an ascending version list
//     (the "bloom suffix"); the caller scans only those records with the
//     original KeySet::intersects test;
//   * a *probe* set that is bloom-encoded cannot drive key probes at all —
//     the caller falls back to the legacy scan for that component.
//
// The index is maintained incrementally: insert() on commit, evict() when
// the window drops its oldest record (the evicted record's sets are
// re-presented, so a key's entry is erased exactly when its newest
// reader/writer leaves the window), clear()+reinsert on checkpoint
// install. Consumers (sdur::Certifier, storage::CommitWindow, the P-DUR
// pdur::ParallelWindow lanes) compose these pieces and cross-check the
// result against the legacy scan under SDUR_AUDIT
// ("index-scan-equivalence").
//
// DETERMINISM. The index is probe-only: no operation iterates the hash
// table (tools/analyze rule cert-index-iteration), so hash
// order cannot leak into verdicts. The bloom suffix lists are kept in
// version order by construction.
#pragma once

#include <cstdint>
#include <deque>

#include "storage/flat_table.h"
#include "storage/mvstore.h"
#include "util/bloom.h"

namespace sdur::storage {

class CertIndex {
 public:
  /// Registers the commit record for `v`. Versions must be inserted in
  /// strictly increasing order (they are: window pushes are ordered).
  void insert(Version v, const util::KeySet& readset, const util::KeySet& writeset);

  /// Unregisters the record for `v` as it leaves the window. Must be
  /// called with the window's *oldest* record (eviction order), with the
  /// same sets that were inserted.
  void evict(Version v, const util::KeySet& readset, const util::KeySet& writeset);

  void clear();

  /// Question A for an *exact* probe readset: true iff some indexed record
  /// with version > st wrote one of `readset`'s keys. Records whose
  /// writeset is bloom-encoded are not covered — scan bloom_write_versions().
  bool reads_conflict(const util::KeySet& readset, Version st) const;

  /// Question B for an *exact* probe writeset: true iff some indexed
  /// record with version > st read one of `writeset`'s keys. Records whose
  /// readset is bloom-encoded are not covered — scan bloom_read_versions().
  bool writes_conflict(const util::KeySet& writeset, Version st) const;

  /// Versions (ascending) of window records whose readset / writeset is
  /// bloom-encoded: the suffix the caller must still scan exactly.
  const std::deque<Version>& bloom_read_versions() const { return bloom_rs_; }
  const std::deque<Version>& bloom_write_versions() const { return bloom_ws_; }

  /// Distinct keys currently indexed (metrics / tests).
  std::size_t key_count() const { return table_.size(); }
  /// Cumulative key probes served (cost metric for benches).
  std::uint64_t probes() const { return probes_; }

 private:
  /// Sentinel "no record in the window reads/writes this key". All real
  /// window versions are >= 0 and snapshots are >= -1, so the sentinel
  /// never compares as newer than a snapshot.
  static constexpr Version kNone = INT64_MIN;

  struct Entry {
    Version writer = kNone;  // newest window version writing the key
    Version reader = kNone;  // newest window version reading the key
  };

  FlatTable<Entry> table_;
  std::deque<Version> bloom_rs_;
  std::deque<Version> bloom_ws_;
  mutable std::uint64_t probes_ = 0;
};

}  // namespace sdur::storage
