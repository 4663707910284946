// Certifier: the deterministic certification and reordering core of
// Algorithm 2, factored out of the server so the paper's central logic can
// be tested in isolation.
//
// DETERMINISM REFINEMENT (see DESIGN.md). The paper's pseudocode advances
// the snapshot counter SC when a transaction *completes* (Algorithm 2,
// line 39) and certifies a delivered transaction against DB[t.st[p]..SC]
// plus the pending list. Completion of a global transaction depends on
// when its votes arrive, which differs across replicas — so at the moment
// transaction t is delivered, one replica may have completed a global g
// (g in DB, excluded from the scan because its version is within t's
// snapshot) while another still has g pending (g caught by the pending
// check and flagged as a stale read). The two replicas would then certify
// t differently and diverge.
//
// This implementation closes the race by making version assignment purely
// delivery-ordered:
//
//   * every transaction that passes certification is assigned the next
//     version (cc) immediately, at delivery — deterministic;
//   * the window keeps one slot per assigned version with a status
//     (pending / committed / aborted) and the transaction's read/write
//     sets; certifying t scans versions in (t.st, cc] ignoring slot
//     status entirely — pending and even vote-aborted slots count as
//     conflict sources (resolution timing differs across replicas, so any
//     status-dependence would break determinism; the cost is an
//     occasional conservative abort, retried with a fresh snapshot);
//   * completion resolves the slot and applies the writes at the
//     *pre-assigned* version; reads are served at the "stable" version —
//     the largest v such that every slot <= v is resolved — so clients
//     never observe a snapshot that could still grow a hole.
//
// A local transaction reordered before a pending global completes (and is
// acknowledged) earlier but keeps its delivery-ordered version; this is
// sound because reordering requires their read/write sets to be disjoint
// in both directions, i.e. the two transactions commute.
//
// P-DUR (src/pdur/, arXiv:1312.0742) runs this same certifier at every
// core count: the verdict is a pure function of delivery order, and the
// per-core split only decides where the certification time is spent,
// which pdur::Executor models on the transaction's home cores.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_set>

#include "sdur/transaction.h"
#include "storage/cert_index.h"
#include "util/bloom.h"

namespace sdur {

/// A pending (certified, not yet completed) transaction. The trailing
/// fields are server-side liveness bookkeeping the certifier ignores.
struct PendingEntry {
  PartTx tx;
  std::uint64_t rt = 0;  // reorder threshold: complete only once dc >= rt
  Version version = 0;   // version pre-assigned at certification

  sim::Time delivered_at = 0;
  sim::Time last_vote_resend = 0;
  bool abort_requested = false;
  /// P-DUR: false while the transaction's simulated core work is still in
  /// flight; the pending list never completes an entry (not even a
  /// committed local) before its cores finished. Always true in the serial
  /// model.
  bool ready = true;
  /// Out-of-order bypass (cfg.techniques.ooo_bypass): the completed-global
  /// watermark this local must wait for before it may commit out of order
  /// — the largest version among pending entries ahead whose write set it
  /// conflicts with (inheriting the bound of conflicting pending locals).
  /// 0 = unparked (versions start at 1). Globals never bypass, so the
  /// field is meaningless for them. Computed at certification and
  /// recomputed on checkpoint install; not serialized.
  Version park_until = 0;
};

class Certifier {
 public:
  enum class SlotStatus : std::uint8_t { kPending = 0, kCommitted = 1, kAborted = 2 };

  /// One certified transaction, indexed by its assigned version.
  struct Slot {
    TxId txid = 0;
    bool global = false;
    SlotStatus status = SlotStatus::kPending;
    util::KeySet readset;
    util::KeySet write_keys;
  };

  /// `ooo_bypass` arms the out-of-order local-commit gate (park bounds and
  /// the pending-write index); off (default) leaves every bypass structure
  /// untouched — bit-identical legacy behavior.
  explicit Certifier(std::size_t window_capacity, bool ooo_bypass = false)
      : window_capacity_(window_capacity == 0 ? 1 : window_capacity),
        ooo_bypass_(ooo_bypass) {}

  struct Result {
    Outcome outcome = Outcome::kAbort;
    /// Insertion position in the pending list (only when committed).
    std::size_t position = 0;
    /// Version assigned to the transaction (only when committed).
    Version version = 0;
    /// True if a local transaction leaped at least one pending global.
    bool reordered = false;
    /// True if the abort was caused by the snapshot falling out of the
    /// certification window.
    bool stale_snapshot = false;
    /// Out-of-order bypass: true when a committed local conflicts with a
    /// pending write set and must park (park_until > watermark).
    bool parked = false;
  };

  /// Certifies transaction `t` delivered with reorder threshold `rt` when
  /// the delivery counter is `dc`; on success assigns the next version and
  /// inserts it into the pending list (Algorithm 2, reorder()).
  Result process(const PartTx& t, std::uint64_t rt, std::uint64_t dc);

  // --- Pending list -------------------------------------------------------
  bool empty() const { return pl_.empty(); }
  std::size_t size() const { return pl_.size(); }
  PendingEntry& head() { return pl_.front(); }
  const PendingEntry& at(std::size_t i) const { return pl_[i]; }
  PendingEntry& at(std::size_t i) { return pl_[i]; }
  PendingEntry pop_head();

  /// O(1) membership test for the pending list, keyed by transaction id
  /// (ids are unique in the list: the server's seen_ set dedups deliveries
  /// upstream). Lets handle_vote decide "still pending?" without the
  /// O(window) scan it used to run per incoming vote.
  bool pending_contains(TxId id) const { return pending_ids_.count(id) != 0; }

  /// P-DUR: marks the pending entry holding version `v` ready (its core
  /// work completed). No-op if the entry already left the list.
  void mark_ready(Version v);

  // --- Out-of-order local commit (cfg.techniques.ooo_bypass) --------------
  /// "No pending entry" sentinel for next_bypassable().
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// True when the bypass gate is armed.
  bool ooo_bypass() const { return ooo_bypass_; }
  /// Version of the newest completed global; a parked local unparks once
  /// the watermark reaches its park bound. Globals complete at the head in
  /// ascending version order, so the watermark is monotone.
  Version bypass_watermark() const { return bypass_watermark_; }
  /// Index (>= `from`) of the first pending local that is ready and
  /// unparked — eligible to commit past everything ahead of it — or npos.
  std::size_t next_bypassable(std::size_t from) const;
  /// Removes and returns the entry at `pos` (the bypass analogue of
  /// pop_head: maintains the id set, the pending-write index and the
  /// watermark).
  PendingEntry take_at(std::size_t pos);

  // --- Resolution ----------------------------------------------------------
  /// Resolves a completed transaction's slot (after the caller took it
  /// off the pending list — at completion, or earlier for a speculated
  /// global — and, on commit, applied its writes at entry.version).
  /// Advances the stable prefix.
  void resolve(const PendingEntry& entry, bool committed);

  /// Highest assigned version (certified, possibly unresolved).
  Version certified() const { return cc_; }
  /// Highest version v such that all slots <= v are resolved; reads are
  /// served at this snapshot.
  Version stable() const { return stable_; }

  /// True if a snapshot is still coverable by the window. Written without
  /// `st + 1` so st == INT64_MAX cannot overflow.
  bool covers(Version st) const {
    return slots_.empty() || (st < 0 ? stable_ : st) >= base_ - 1;
  }
  std::size_t window_size() const { return slots_.size(); }

  /// Slot accessor for tests (version must be in (base-1, cc]).
  const Slot* slot(Version v) const;

  /// TEST-ONLY fault injection: when set, certification skips the conflict
  /// check and commits every coverable transaction — a determinism bug
  /// (when enabled on a single replica) the audit layer must catch
  /// (tests/audit_test.cpp). Never set outside tests.
  void test_skip_conflict_check(bool v) { test_skip_conflict_check_ = v; }

  /// TEST-ONLY fault injection: when set (with ooo_bypass on), the park
  /// gate is skipped — every committed local is unparked, so a
  /// write-conflicting local bypasses the pending writer ahead of it. The
  /// store's version-order audit (and MVStore's regression throw) must
  /// catch the resulting out-of-order apply (tests/convoy_bypass_test.cpp).
  /// Never set outside tests.
  void test_skip_park_gate(bool v) { test_skip_park_gate_ = v; }

  /// Serializes the full certifier state (window slots + pending list)
  /// into a checkpoint; install() replaces the state from one. Pending
  /// entries lose their server-side liveness fields (votes are re-fetched
  /// by the server's vote-request repair).
  void encode(util::Writer& w) const;
  void install(util::Reader& r);

  void reset();

  // --- Conflict strategies --------------------------------------------------
  /// The two audit-free answers to "does `t` conflict with any version in
  /// (st, cc]?", for a snapshot the window covers. process() certifies
  /// with the indexed one; audit builds re-run the scan beside it. Public
  /// for the equivalence property tests and bench/cert_perf.
  /// Indexed strategy: key probes + bloom-suffix scan over the slots.
  bool indexed_conflict(const PartTx& t, Version st) const;
  /// The legacy O(window) scan — the reference the index must match.
  bool scan_conflict(const PartTx& t, Version st) const;

 private:
  /// Indexed conflict verdict (audit builds cross-check it against
  /// scan_conflict in place).
  bool has_conflict(const PartTx& t, Version st) const;
  /// slots_ as a record accessor for storage::CertIndex::conflicts().
  struct SlotRecords;
  /// Rebuilds the key index from slots_ (after install()).
  void rebuild_index();

  // --- Out-of-order local commit internals --------------------------------
  /// Bypass gate trigger: O(sets) probe of the pending-write index — does
  /// `t` read or write a key some pending entry will still write? A bloom
  /// probe readset cannot drive key probes; the caller treats it as a hit
  /// and lets park_bound decide. Over-approximate (it also hits on
  /// rs(t) vs pending-local writes); park_bound is authoritative.
  bool pending_writes_conflict(const PartTx& t) const;
  /// Exact park bound for a local inserted at `position`: the largest
  /// version among conflicting pending entries ahead (globals contribute
  /// their version; write-conflicting locals their own park bound). 0 =
  /// nothing to wait for.
  Version park_bound(std::size_t position, const PartTx& t) const;
  /// Computes the park bound for a freshly certified local and stamps the
  /// inserted entry (gate trigger + exact bound + audits).
  void park_on_insert(std::size_t position, const PartTx& t, Result& result);
  /// Maintains the pending-write index and the completed-global watermark
  /// as `e` leaves the pending list (pop_head and take_at).
  void unpark_on_removal(const PendingEntry& e);
  /// Recomputes every restored local's park bound after install() — a pure
  /// function of the restored pending list, so replicas agree.
  void park_rebuild();

  std::size_t window_capacity_;
  bool test_skip_conflict_check_ = false;
  bool test_skip_park_gate_ = false;
  /// Out-of-order local commit armed (cfg.techniques.ooo_bypass). When
  /// false, no bypass structure is ever touched — the legacy paths are
  /// bit-identical.
  bool ooo_bypass_ = false;
  std::deque<Slot> slots_;  // slot for version v at index v - base_
  Version base_ = 1;        // version of slots_.front()
  Version cc_ = 0;          // last assigned version
  Version stable_ = 0;      // resolved prefix
  std::deque<PendingEntry> pl_;
  /// Ids of the entries in pl_, mirrored on every insert/pop/install/reset.
  std::unordered_set<TxId> pending_ids_;
  /// Per-key last-writer / last-reader index over slots_, maintained on
  /// certification and eviction (see storage/cert_index.h).
  storage::CertIndex index_;
  /// Bypass gate: newest pending writer per key over pl_ (readset slots
  /// unused — inserted empty). Maintained on certification and on every
  /// pending-list removal; rebuilt (version-ascending) on install. Only
  /// touched when ooo_bypass_ is set.
  storage::CertIndex pending_ws_;
  /// Version of the newest completed global (see bypass_watermark()).
  Version bypass_watermark_ = 0;
};

}  // namespace sdur
