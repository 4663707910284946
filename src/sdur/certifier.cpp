#include "sdur/certifier.h"

#include <algorithm>
#include <vector>

#include "audit/audit.h"
#include "trace/trace.h"

namespace sdur {

const Certifier::Slot* Certifier::slot(Version v) const {
  if (v < base_ || v > cc_) return nullptr;
  return &slots_[static_cast<std::size_t>(v - base_)];
}

bool Certifier::scan_conflict(const PartTx& t, Version st) const {
  // Certify against every assigned version in (st, cc] — committed,
  // pending AND vote-aborted alike. Slot status must not influence the
  // decision: at the moment a transaction is delivered, different replicas
  // may have resolved different prefixes (votes arrive at different
  // times), so any status-dependence would break determinism. Treating a
  // later-aborted global as a conflict source is conservative (an
  // unnecessary abort, retried with a fresh snapshot), never wrong.
  if (st >= cc_) return false;  // nothing serialized after the snapshot
  const Version from = std::max(st + 1, base_);
  for (Version v = from; v <= cc_; ++v) {
    const Slot& s = slots_[static_cast<std::size_t>(v - base_)];
    // ctest(t, t') (Algorithm 2, lines 46-47): a local transaction must
    // not have read anything a later-serialized transaction wrote; a
    // global transaction must additionally not write anything a
    // later-serialized transaction read, so that cross-partition delivery
    // orders cannot matter (Section III-B).
    if (t.readset.intersects(s.write_keys)) return true;
    if (t.is_global() && t.write_keys.intersects(s.readset)) return true;
  }
  return false;
}

/// The window slots as CertIndex::conflicts() reads them: the slot for
/// version v sits at slots_[v - base_], and every version in [base_, cc_]
/// has one.
struct Certifier::SlotRecords {
  const Certifier& c;

  storage::RecordSets at(Version v) const {
    const Slot& s = c.slots_[static_cast<std::size_t>(v - c.base_)];
    return {s.readset, s.write_keys};
  }

  template <typename Fn>
  bool any_after(Version st, Fn&& fn) const {
    for (Version v = std::max(st + 1, c.base_); v <= c.cc_; ++v) {
      if (fn(at(v))) return true;
    }
    return false;
  }
};

bool Certifier::indexed_conflict(const PartTx& t, Version st) const {
  if (st >= cc_) return false;  // nothing serialized after the snapshot
  // Write keys are always exact, so the last-writer index covers component
  // A for every slot; a bloom probe readset scans the slots instead.
  // Component B (globals) probes the last-reader index and walks only the
  // slots whose readsets are bloom-encoded (Section III-B).
  return index_.conflicts(t.readset, t.write_keys, t.is_global(), st, SlotRecords{*this});
}

bool Certifier::has_conflict(const PartTx& t, Version st) const {
  const bool indexed = indexed_conflict(t, st);
  // The index must reproduce the scan verdict bit for bit — same boolean
  // on every delivery, or replicas running different strategies would
  // diverge. Audit builds re-run the legacy scan in place.
  SDUR_AUDIT_CHECK("certifier", "index-scan-equivalence", indexed == scan_conflict(t, st),
                   "indexed certification verdict " << (indexed ? "conflict" : "clear")
                                                    << " for tx " << t.id << " (st=" << st
                                                    << ", window [" << base_ << ", " << cc_
                                                    << "]) diverges from the window scan");
  return indexed;
}

Certifier::Result Certifier::process(const PartTx& t, std::uint64_t rt, std::uint64_t dc) {
  Result result;

  // Snapshot bottom (a transaction that wrote without reading at this
  // partition) serializes after everything certified so far; cc_ is
  // deterministic at a given delivery, unlike the stable prefix.
  const Version st = t.snapshot < 0 ? cc_ : t.snapshot;
  if (st < base_ - 1) {
    result.stale_snapshot = true;
    return result;  // abort: snapshot predates the certification window
  }
  if (!test_skip_conflict_check_) {
    // Which strategy serves this check mirrors indexed_conflict: a bloom
    // probe set (or, for globals, a bloom write-key set) forces the window
    // scan for that component; otherwise the key index answers. aux is the
    // window depth actually certified against.
    SDUR_TRACE_STMT({
      const bool scans = storage::CertIndex::scans(t.readset) ||
                         (t.is_global() && storage::CertIndex::scans(t.write_keys));
      const std::uint64_t depth = st >= cc_ ? 0 : static_cast<std::uint64_t>(cc_ - st);
      SDUR_TRACE_CONTEXT_INSTANT(scans ? trace::Point::kCertScanFallback
                                       : trace::Point::kCertIndexProbe,
                                 depth);
    });
    if (has_conflict(t, st)) return result;  // abort
  }

  std::size_t position;
  if (t.is_global()) {
    // Globals append: only locals are reordered (Section IV-E).
    position = pl_.size();
  } else {
    // Leftmost pending-list position from which every later entry is a
    // leapable global: still below its reorder threshold (rt >= dc keeps
    // the decision deterministic — past the threshold the global may have
    // completed at other replicas) and commuting with t in both directions
    // (so the already-sent votes and the version order stay valid).
    std::size_t leftmost = pl_.size();
    // ws(t) is tested against the readset of every global it leaps; with
    // bloom readsets its keys are hashed once for the whole walk.
    const util::HashedKeys ws_hashed(t.write_keys);
    for (std::size_t k = pl_.size(); k-- > 0;) {
      const PendingEntry& pk = pl_[k];
      // Under the bypass gate a local must additionally be write-disjoint
      // from any global it leaps: a blind-write local leaping a global it
      // write-conflicts with would park behind an entry *behind* itself —
      // the head could never unblock. Without blind writes ws(t) is a
      // subset of rs(t) and the extra conjunct is implied; gated on the
      // config so the default-off path stays bit-identical.
      const bool leapable = pk.tx.is_global() && pk.rt >= dc &&
                            !ws_hashed.intersects(pk.tx.readset) &&
                            !t.readset.intersects(pk.tx.write_keys) &&
                            (!ooo_bypass_ || !t.write_keys.intersects(pk.tx.write_keys));
      if (!leapable) break;
      leftmost = k;
    }
    position = leftmost;
  }

  result.outcome = Outcome::kCommit;
  result.position = position;
  result.reordered = position < pl_.size();
  result.version = ++cc_;
  slots_.push_back(Slot{t.id, t.is_global(), SlotStatus::kPending, t.readset, t.write_keys});
  index_.insert(result.version, t.readset, t.write_keys);
  pl_.insert(pl_.begin() + static_cast<std::ptrdiff_t>(position),
             PendingEntry{t, rt, result.version, 0, 0, false, true});
  pending_ids_.insert(t.id);
  if (ooo_bypass_) {
    // Park gate first (the new entry must not probe its own writes), then
    // register the entry's write keys in the pending-write index.
    if (!t.is_global()) park_on_insert(position, t, result);
    pending_ws_.insert(result.version, util::KeySet(), t.write_keys);
  }
  // The window holds exactly one slot per assigned version in [base, cc]:
  // a gap would let a conflicting transaction escape certification.
  SDUR_AUDIT_CHECK("certifier", "window-contiguous",
                   base_ + static_cast<Version>(slots_.size()) - 1 == cc_,
                   "window [" << base_ << ", " << cc_ << "] holds " << slots_.size()
                              << " slots after certifying tx " << t.id);
  return result;
}

PendingEntry Certifier::pop_head() {
  PendingEntry e = std::move(pl_.front());
  pl_.pop_front();
  pending_ids_.erase(e.tx.id);
  if (ooo_bypass_) unpark_on_removal(e);
  return e;
}

// --- Out-of-order local commit (cfg.techniques.ooo_bypass) --------------------

bool Certifier::pending_writes_conflict(const PartTx& t) const {
  // O(sets) existence probe with snapshot 0: versions start at 1, so "some
  // indexed pending writer newer than 0" is exactly "some pending entry
  // writes a probed key". Pending write keys are always exact, so the
  // index's bloom suffixes stay empty and no fallback scan is needed here.
  return pending_ws_.reads_conflict(t.readset, 0) ||
         pending_ws_.reads_conflict(t.write_keys, 0);
}

Version Certifier::park_bound(std::size_t position, const PartTx& t) const {
  // Exact bound over the entries ahead. A pending global counts when t
  // reads or writes a key it writes (write-version order for ws cap ws;
  // delivery-order read equivalence for rs cap ws — the latter only
  // arises for snapshot-bottom blind writes, certification aborts every
  // other case). A pending local counts when write-conflicting, and
  // contributes its own bound: it must apply first (smaller version), so
  // t can go no earlier than it does.
  Version bound = 0;
  for (std::size_t k = 0; k < position; ++k) {
    const PendingEntry& pk = pl_[k];
    if (pk.tx.is_global()) {
      if (t.readset.intersects(pk.tx.write_keys) ||
          t.write_keys.intersects(pk.tx.write_keys)) {
        bound = std::max(bound, pk.version);
      }
    } else if (t.write_keys.intersects(pk.tx.write_keys)) {
      bound = std::max(bound, pk.park_until);
    }
  }
  return bound;
}

void Certifier::park_on_insert(std::size_t position, const PartTx& t, Result& result) {
  // A bloom probe readset cannot drive key probes; treat it as a hit and
  // let the exact bound decide (mirrors the certification fallback).
  const bool hit = (t.readset.is_bloom() && !t.readset.empty()) || pending_writes_conflict(t);
  // The trigger over-approximates the bound (it also hits on rs(t) vs
  // pending-local writes) but must cover it: a missed hit with a nonzero
  // bound would let a conflicting local bypass.
  SDUR_AUDIT_CHECK("certifier", "bypass-gate-coverage", hit || park_bound(position, t) == 0,
                   "pending-write probe missed a nonzero park bound for tx " << t.id);
  Version bound = hit ? park_bound(position, t) : 0;
  if (test_skip_park_gate_) bound = 0;
  pl_[position].park_until = bound;
  result.parked = bound > bypass_watermark_;
}

void Certifier::unpark_on_removal(const PendingEntry& e) {
  // Per-key eviction order stays ascending: the gate itself forbids a
  // newer pending writer of a key completing before an older one.
  pending_ws_.evict(e.version, util::KeySet(), e.tx.write_keys);
  if (e.tx.is_global() && e.version > bypass_watermark_) bypass_watermark_ = e.version;
}

std::size_t Certifier::next_bypassable(std::size_t from) const {
  for (std::size_t k = from; k < pl_.size(); ++k) {
    const PendingEntry& e = pl_[k];
    if (e.ready && !e.tx.is_global() && e.park_until <= bypass_watermark_) return k;
  }
  return npos;
}

PendingEntry Certifier::take_at(std::size_t pos) {
  PendingEntry e = std::move(pl_[pos]);
  pl_.erase(pl_.begin() + static_cast<std::ptrdiff_t>(pos));
  pending_ids_.erase(e.tx.id);
  if (ooo_bypass_) unpark_on_removal(e);
  return e;
}

void Certifier::park_rebuild() {
  // Checkpoints do not carry park bounds or the watermark (the format
  // predates the bypass and stays frozen); both are pure functions of the
  // restored pending list, so every replica recomputes identical state.
  // The watermark restarts at 0: completed globals left the list before
  // the checkpoint, so no restored local still waits on one.
  pending_ws_.clear();
  bypass_watermark_ = 0;
  // The pending-write index wants version-ascending inserts; pl_ is in
  // delivery/reorder order (leaped locals sit ahead of smaller versions).
  std::vector<std::size_t> by_version(pl_.size());
  for (std::size_t i = 0; i < pl_.size(); ++i) by_version[i] = i;
  std::sort(by_version.begin(), by_version.end(),
            [this](std::size_t a, std::size_t b) { return pl_[a].version < pl_[b].version; });
  for (std::size_t i : by_version) {
    pending_ws_.insert(pl_[i].version, util::KeySet(), pl_[i].tx.write_keys);
  }
  for (std::size_t i = 0; i < pl_.size(); ++i) {
    PendingEntry& e = pl_[i];
    e.park_until = e.tx.is_global() ? 0 : park_bound(i, e.tx);
  }
}

void Certifier::mark_ready(Version v) {
  for (PendingEntry& e : pl_) {
    if (e.version == v) {
      e.ready = true;
      return;
    }
  }
}

void Certifier::resolve(const PendingEntry& entry, bool committed) {
  const Version v = entry.version;
  if (v < base_ || v > cc_) return;
  // A slot is resolved exactly once, by the transaction that owns it.
  SDUR_AUDIT_CHECK("certifier", "resolve-once",
                   slots_[static_cast<std::size_t>(v - base_)].status == SlotStatus::kPending,
                   "version " << v << " (tx " << entry.tx.id << ") resolved twice");
  SDUR_AUDIT_CHECK("certifier", "resolve-owner",
                   slots_[static_cast<std::size_t>(v - base_)].txid == entry.tx.id,
                   "version " << v << " owned by tx "
                              << slots_[static_cast<std::size_t>(v - base_)].txid
                              << " resolved by tx " << entry.tx.id);
  slots_[static_cast<std::size_t>(v - base_)].status =
      committed ? SlotStatus::kCommitted : SlotStatus::kAborted;
  // Advance the stable prefix over contiguously resolved slots.
  SDUR_AUDIT(const Version stable_before = stable_);
  while (stable_ < cc_) {
    const Slot* s = slot(stable_ + 1);
    if (s == nullptr || s->status == SlotStatus::kPending) break;
    ++stable_;
  }
  // Reads are served at the stable version: it must never move backwards
  // (a client could observe a snapshot that then grows a hole).
  SDUR_AUDIT_CHECK("certifier", "stable-monotonic",
                   stable_ >= stable_before && stable_ <= cc_,
                   "stable prefix moved from " << stable_before << " to " << stable_
                                               << " (cc=" << cc_ << ")");
  // Evict old resolved slots beyond the window capacity.
  while (slots_.size() > window_capacity_ && base_ <= stable_) {
    const Slot& oldest = slots_.front();
    index_.evict(base_, oldest.readset, oldest.write_keys);
    slots_.pop_front();
    ++base_;
  }
}

void Certifier::encode(util::Writer& w) const {
  w.i64(base_);
  w.i64(cc_);
  w.i64(stable_);
  w.varint(slots_.size());
  for (const Slot& s : slots_) {
    w.u64(s.txid);
    w.u8(s.global ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(s.status));
    s.readset.encode(w);
    s.write_keys.encode(w);
  }
  w.varint(pl_.size());
  for (const PendingEntry& e : pl_) {
    const util::Bytes tx = e.tx.encode();
    w.bytes(tx);
    w.u64(e.rt);
    w.i64(e.version);
  }
}

void Certifier::install(util::Reader& r) {
  base_ = r.i64();
  cc_ = r.i64();
  stable_ = r.i64();
  slots_.clear();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Slot s;
    s.txid = r.u64();
    s.global = r.u8() != 0;
    s.status = static_cast<SlotStatus>(r.u8());
    s.readset = util::KeySet::decode(r);
    s.write_keys = util::KeySet::decode(r);
    slots_.push_back(std::move(s));
  }
  pl_.clear();
  pending_ids_.clear();
  const std::uint64_t np = r.varint();
  for (std::uint64_t i = 0; i < np; ++i) {
    const std::string tx_bytes = r.bytes();
    PendingEntry e;
    e.tx = PartTx::decode(
        util::Bytes(tx_bytes.begin(), tx_bytes.end()));
    e.rt = r.u64();
    e.version = r.i64();
    pending_ids_.insert(e.tx.id);
    pl_.push_back(std::move(e));
  }
  rebuild_index();
  if (ooo_bypass_) park_rebuild();
}

void Certifier::rebuild_index() {
  // The checkpoint carries the full keysets per slot; the key index is
  // recomputed — a pure function of the keysets, so every replica rebuilds
  // identical state.
  index_.clear();
  for (Version v = base_; v <= cc_; ++v) {
    const Slot& s = slots_[static_cast<std::size_t>(v - base_)];
    index_.insert(v, s.readset, s.write_keys);
  }
}

void Certifier::reset() {
  slots_.clear();
  base_ = 1;
  cc_ = 0;
  stable_ = 0;
  pl_.clear();
  pending_ids_.clear();
  index_.clear();
  pending_ws_.clear();
  bypass_watermark_ = 0;
}

}  // namespace sdur
