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
// conflicts() composes these pieces into the full A/B verdict over a
// caller-supplied record accessor: sdur::Certifier hands it its window
// slots, at every P-DUR core count. The certifier keeps its own legacy
// scan, which audit builds re-run as the independent reference
// ("index-scan-equivalence").
//
// HASH ONCE. A bloom-suffix walk tests the same exact probe keys against
// every suffix record's filter. The keys' base hashes depend on the key
// alone (util::BloomFilter::KeyHash), so the walk hashes them once per
// check (util::HashedKeys) rather than once per record; each filter probe
// then stops at its first clear bit. Both leave every verdict unchanged.
//
// The index is maintained incrementally: insert() on commit, evict() when
// the window drops its oldest record (the evicted record's sets are
// re-presented, so a key's entry is erased exactly when its newest
// reader/writer leaves the window), clear()+reinsert on checkpoint
// install.
//
// DETERMINISM. The index is probe-only: no operation iterates the hash
// table (tools/analyze rule cert-index-iteration), so hash
// order cannot leak into verdicts. The bloom suffix lists are kept in
// version order by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

#include "storage/flat_table.h"
#include "storage/mvstore.h"
#include "util/bloom.h"

namespace sdur::storage {

/// One window record's sets, as CertIndex::conflicts() reads them.
struct RecordSets {
  const util::KeySet& readset;
  const util::KeySet& writeset;
};

class CertIndex {
 public:
  /// True iff `probe` cannot drive key probes (a non-empty bloom set
  /// cannot be enumerated), so its component falls back to the scan.
  static bool scans(const util::KeySet& probe) { return probe.is_bloom() && !probe.empty(); }

  /// The certification verdict for a probe with readset `rs`, writeset
  /// `ws` and snapshot `st`: true iff some window record newer than st
  /// wrote a key of rs (component A) or, for a global probe, read a key
  /// of ws (component B). `records` is the window's record accessor:
  ///
  ///   records.at(v)             -> RecordSets of the record at version v
  ///                                (v from a bloom suffix list);
  ///   records.any_after(st, fn) -> true as soon as fn(RecordSets) does,
  ///                                visiting the records newer than st in
  ///                                ascending version order (the fallback
  ///                                scan for a bloom probe set).
  ///
  /// Bit-identical to testing KeySet::intersects against every record
  /// newer than st; the caller's audit re-runs exactly that scan.
  template <typename Records>
  bool conflicts(const util::KeySet& rs, const util::KeySet& ws, bool global, Version st,
                 const Records& records) const {
    if (scans(rs)) {
      if (records.any_after(st, [&](RecordSets r) { return rs.intersects(r.writeset); })) {
        return true;
      }
    } else if (reads_conflict(rs, st) ||
               suffix_conflict(bloom_ws_, rs, st,
                               [&](Version v) -> const util::KeySet& {
                                 return records.at(v).writeset;
                               })) {
      return true;
    }
    if (!global) return false;
    if (scans(ws)) {
      return records.any_after(st, [&](RecordSets r) { return ws.intersects(r.readset); });
    }
    return writes_conflict(ws, st) ||
           suffix_conflict(bloom_rs_, ws, st, [&](Version v) -> const util::KeySet& {
             return records.at(v).readset;
           });
  }

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

 private:
  /// The bloom-suffix walk: true iff the exact `probe` intersects the
  /// set `set_of(v)` of some suffix record with version > st. The probe
  /// keys are hashed once for the whole walk.
  template <typename SetOf>
  static bool suffix_conflict(const std::deque<Version>& suffix, const util::KeySet& probe,
                              Version st, SetOf&& set_of) {
    auto it = std::upper_bound(suffix.begin(), suffix.end(), st);
    if (it == suffix.end()) return false;
    const util::HashedKeys hashed(probe);
    for (; it != suffix.end(); ++it) {
      if (hashed.intersects(set_of(*it))) return true;
    }
    return false;
  }

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
};

}  // namespace sdur::storage
