// Per-core certification windows — the P-DUR decomposition of SDUR's
// conflict check (arXiv:1312.0742, Algorithm 1).
//
// The serial certifier scans every assigned version in (t.st, cc] and
// tests full read/write-set intersections. P-DUR splits that scan across
// cores: each core keeps, for the versions that touched it, only the
// projection of the certified read/write sets onto its own keys, and a
// delivered transaction is checked per core — each home core "votes" on
// its slice, the transaction aborts iff any core saw a conflict.
//
// The decomposition is exact, not approximate: a key belongs to exactly
// one core, so rs(t) ∩ ws(s) = ⋃_c (rs(t)|c ∩ ws(s)|c), and the union of
// the per-core verdicts over t's home cores equals the serial verdict.
// Bloom readsets cannot be split by key; the full filter is shared with
// every lane and probed with that lane's exact keys, which performs the
// same set of probes as the serial check. Certifier cross-checks this
// equivalence against the serial scan in SDUR_AUDIT builds.
//
// Version numbers are assigned by the (shared, delivery-ordered) certifier
// counter; the lanes only index their entries by it, so entries within a
// lane are version-sorted and the (st, cc] scan is a binary search plus a
// suffix walk over ~1/K of the window.
//
// INDEXED LANES. Each lane additionally maintains a storage::CertIndex
// sub-index over its projected entries, so a core's vote is O(projected
// set size) hash probes plus a scan of only the lane's bloom-encoded
// suffix — the per-core mirror of the serial certifier's index. Audit
// builds cross-check every lane vote against that lane's scan
// ("index-scan-equivalence"), on top of the certifier-level
// parallel-vs-serial cross-check.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "pdur/core_partitioner.h"
#include "storage/cert_index.h"
#include "storage/mvstore.h"
#include "util/bloom.h"

namespace sdur::pdur {

class ParallelWindow {
 public:
  explicit ParallelWindow(CoreId cores) : part_(cores), lanes_(part_.cores()) {}

  const CorePartitioner& partitioner() const { return part_; }

  /// Inserts the per-core projections of a certified transaction at
  /// version `v` into its home cores' lanes. Versions must be inserted in
  /// increasing order (they are: the certifier assigns them at delivery).
  void insert(storage::Version v, const util::KeySet& readset, const util::KeySet& write_keys,
              const std::vector<CoreId>& cores);

  /// Parallel certification check for a transaction with snapshot `st`:
  /// every home core probes its lane sub-index (falling back to a lane
  /// scan for bloom-mode sets) and votes; returns true iff any core
  /// detected a conflict. `global` adds the write/read check global
  /// transactions need (Section III-B of the SDUR paper).
  bool conflicts(const util::KeySet& readset, const util::KeySet& write_keys, bool global,
                 const std::vector<CoreId>& cores, storage::Version st) const;

  /// Drops every lane entry with version < `base` (window eviction).
  void evict_below(storage::Version base);

  void clear();

  // --- Out-of-order local commit (cfg.techniques.ooo_bypass) --------------
  /// Per-lane sub-indexes over the write keys of the still-pending
  /// entries — the per-core decomposition of the certifier's pending-write
  /// bypass gate. Write keys are always exact; versions arrive ascending
  /// per lane (assigned at delivery / sorted on rebuild). Only the
  /// certifier's bypass path calls these; legacy runs never touch them.
  void pending_insert(storage::Version v, const util::KeySet& write_keys);
  void pending_evict(storage::Version v, const util::KeySet& write_keys);
  void pending_clear();
  /// Gate trigger over the transaction's home cores (exact probe sets
  /// only; the certifier handles bloom readsets upstream). Each home lane
  /// probes with the full sets: a lane's pending index only holds keys
  /// homed on it, so foreign probe keys miss by construction and the union
  /// of lane verdicts equals the serial pending-index probe.
  bool pending_writes_conflict(const util::KeySet& readset, const util::KeySet& write_keys,
                               const std::vector<CoreId>& cores) const;

  /// Total lane entries currently held (across cores).
  std::size_t entry_count() const;
  /// Entries in one core's lane.
  std::size_t lane_size(CoreId c) const { return lanes_[c].entries.size(); }
  /// Cumulative certification work units: index key probes plus lane
  /// entries touched by bloom-suffix walks and fallback scans (the cost
  /// P-DUR divides by K).
  std::uint64_t scanned() const { return scanned_; }

 private:
  struct Entry {
    storage::Version version = 0;
    util::KeySet readset;     // projection onto the lane's keys (full bloom if bloom-encoded)
    util::KeySet write_keys;  // exact projection onto the lane's keys
  };

  struct Lane {
    std::deque<Entry> entries;        // version-ascending
    storage::CertIndex index;         // sub-index over the projections
    storage::CertIndex pending;       // bypass gate: pending write keys homed here
  };

  /// Lane vote via the legacy scan over the lane's (st, +inf) suffix.
  bool lane_scan_vote(const Lane& lane, const util::KeySet& rs_c, const util::KeySet& ws_c,
                      bool global, storage::Version st) const;
  /// Lane vote via the sub-index (bit-identical to lane_scan_vote).
  bool lane_indexed_vote(const Lane& lane, const util::KeySet& rs_c, const util::KeySet& ws_c,
                         bool global, storage::Version st) const;
  /// One lane as a record accessor for storage::CertIndex::conflicts().
  struct LaneRecords;
  /// Lane entry holding version `v` (binary search; must exist).
  const Entry& lane_entry(const Lane& lane, storage::Version v) const;

  CorePartitioner part_;
  std::vector<Lane> lanes_;
  mutable std::uint64_t scanned_ = 0;
};

}  // namespace sdur::pdur
