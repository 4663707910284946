#include "pdur/parallel_window.h"

#include <algorithm>

#include "audit/audit.h"
#include "trace/trace.h"

namespace sdur::pdur {

namespace {

/// Projects a KeySet onto one core's keys. Bloom sets are shared whole
/// (they cannot be enumerated); exact sets are filtered, preserving the
/// sorted order KeySet::exact expects.
util::KeySet project(const util::KeySet& s, const CorePartitioner& part, CoreId c) {
  if (s.is_bloom()) return s;
  return util::KeySet::exact(part.keys_of(s.keys(), c));
}

}  // namespace

void ParallelWindow::insert(storage::Version v, const util::KeySet& readset,
                            const util::KeySet& write_keys, const std::vector<CoreId>& cores) {
  for (CoreId c : cores) {
    Entry e;
    e.version = v;
    e.readset = project(readset, part_, c);
    e.write_keys = project(write_keys, part_, c);
    if (e.readset.empty() && e.write_keys.empty()) continue;
    lanes_[c].index.insert(v, e.readset, e.write_keys);
    lanes_[c].entries.push_back(std::move(e));
  }
}

const ParallelWindow::Entry& ParallelWindow::lane_entry(const Lane& lane,
                                                        storage::Version v) const {
  auto it = std::lower_bound(
      lane.entries.begin(), lane.entries.end(), v,
      [](const Entry& e, storage::Version version) { return e.version < version; });
  return *it;
}

bool ParallelWindow::lane_scan_vote(const Lane& lane, const util::KeySet& rs_c,
                                    const util::KeySet& ws_c, bool global,
                                    storage::Version st) const {
  // Lane entries are version-ascending; start past the snapshot. This is
  // Algorithm 2's check restricted to one sub-partition.
  auto it = std::lower_bound(
      lane.entries.begin(), lane.entries.end(), st + 1,
      [](const Entry& e, storage::Version v) { return e.version < v; });
  for (; it != lane.entries.end(); ++it) {
    if (rs_c.intersects(it->write_keys)) return true;
    if (global && ws_c.intersects(it->readset)) return true;
  }
  return false;
}

/// One lane as CertIndex::conflicts() reads it. Every entry it touches
/// counts one work unit in scanned_.
struct ParallelWindow::LaneRecords {
  const ParallelWindow& w;
  const Lane& lane;

  storage::RecordSets at(storage::Version v) const {
    ++w.scanned_;
    const Entry& e = w.lane_entry(lane, v);
    return {e.readset, e.write_keys};
  }

  template <typename Fn>
  bool any_after(storage::Version st, Fn&& fn) const {
    auto it = std::lower_bound(
        lane.entries.begin(), lane.entries.end(), st + 1,
        [](const Entry& e, storage::Version v) { return e.version < v; });
    for (; it != lane.entries.end(); ++it) {
      ++w.scanned_;
      if (fn(storage::RecordSets{it->readset, it->write_keys})) return true;
    }
    return false;
  }
};

bool ParallelWindow::lane_indexed_vote(const Lane& lane, const util::KeySet& rs_c,
                                       const util::KeySet& ws_c, bool global,
                                       storage::Version st) const {
  // The lane's projected sets against its entries: key probes into the
  // lane sub-index, the lane's bloom suffix, or a lane scan for a bloom
  // probe set. Index probes count as work units too.
  const std::uint64_t probes_before = lane.index.probes();
  const bool vote = lane.index.conflicts(rs_c, ws_c, global, st, LaneRecords{*this, lane});
  scanned_ += lane.index.probes() - probes_before;
  return vote;
}

bool ParallelWindow::conflicts(const util::KeySet& readset, const util::KeySet& write_keys,
                               bool global, const std::vector<CoreId>& cores,
                               storage::Version st) const {
  for (CoreId c : cores) {
    const Lane& lane = lanes_[c];
    if (lane.entries.empty() || lane.entries.back().version <= st) continue;
    const util::KeySet rs_c = project(readset, part_, c);
    const util::KeySet ws_c = project(write_keys, part_, c);
    // Per-lane strategy instant (aux = the lane): a bloom component in this
    // lane's projection forces the lane-suffix scan, mirroring
    // lane_indexed_vote; attributed to the current delivery via the tracer
    // context the dispatcher set.
    SDUR_TRACE_STMT({
      const bool scans = storage::CertIndex::scans(rs_c) ||
                         (global && storage::CertIndex::scans(ws_c));
      SDUR_TRACE_CONTEXT_INSTANT(scans ? trace::Point::kCertScanFallback
                                       : trace::Point::kCertIndexProbe,
                                 static_cast<std::uint64_t>(c));
    });
    const bool vote = lane_indexed_vote(lane, rs_c, ws_c, global, st);
    // Each lane's sub-index must reproduce that lane's scan vote exactly —
    // the per-core slice of the index-scan equivalence bar.
    SDUR_AUDIT_CHECK("pdur", "index-scan-equivalence",
                     vote == lane_scan_vote(lane, rs_c, ws_c, global, st),
                     "lane " << c << " indexed vote " << (vote ? "conflict" : "clear")
                             << " (st=" << st << ") diverges from the lane scan");
    if (vote) return true;
  }
  return false;
}

// --- Out-of-order local commit (cfg.techniques.ooo_bypass) --------------------

void ParallelWindow::pending_insert(storage::Version v, const util::KeySet& write_keys) {
  // One insert per home lane of the write set, carrying the lane's
  // projection (cold-ish path: once per committed delivery, same idiom as
  // insert() above).
  for (CoreId c = 0; c < part_.cores(); ++c) {
    util::KeySet ws_c = project(write_keys, part_, c);
    if (ws_c.empty()) continue;
    lanes_[c].pending.insert(v, util::KeySet(), ws_c);
  }
}

void ParallelWindow::pending_evict(storage::Version v, const util::KeySet& write_keys) {
  for (CoreId c = 0; c < part_.cores(); ++c) {
    util::KeySet ws_c = project(write_keys, part_, c);
    if (ws_c.empty()) continue;
    lanes_[c].pending.evict(v, util::KeySet(), ws_c);
  }
}

void ParallelWindow::pending_clear() {
  for (auto& lane : lanes_) lane.pending.clear();
}

bool ParallelWindow::pending_writes_conflict(const util::KeySet& readset,
                                             const util::KeySet& write_keys,
                                             const std::vector<CoreId>& cores) const {
  // Snapshot 0 turns the last-writer probe into an existence probe
  // (versions start at 1). Probe keys homed elsewhere cannot be in this
  // lane's table, so no projection is needed — and none is allocated.
  for (CoreId c : cores) {
    const Lane& lane = lanes_[c];
    if (lane.pending.reads_conflict(readset, 0)) return true;
    if (lane.pending.reads_conflict(write_keys, 0)) return true;
  }
  return false;
}

void ParallelWindow::evict_below(storage::Version base) {
  for (auto& lane : lanes_) {
    while (!lane.entries.empty() && lane.entries.front().version < base) {
      const Entry& e = lane.entries.front();
      lane.index.evict(e.version, e.readset, e.write_keys);
      lane.entries.pop_front();
    }
  }
}

void ParallelWindow::clear() {
  for (auto& lane : lanes_) {
    lane.entries.clear();
    lane.index.clear();
    lane.pending.clear();
  }
  scanned_ = 0;
}

std::size_t ParallelWindow::entry_count() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.entries.size();
  return n;
}

}  // namespace sdur::pdur
