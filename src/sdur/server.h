// SDUR server: Algorithm 2 of the paper.
//
// One Server replicates one database partition. It embeds a Paxos engine
// (the partition's atomic broadcast instance) and a Certifier (the
// deterministic certification/reordering core) and implements:
//
//  - transaction submission: projecting a client transaction per partition
//    and broadcasting each projection to its partition, optionally delaying
//    the local broadcast (Section IV-D);
//  - the 2PC-like vote exchange that terminates global transactions, with
//    the reorder-threshold completion rule (Section IV-E);
//  - the abort-request recovery path for transactions whose submitter
//    failed between broadcasts (Section IV-F);
//  - multiversion reads at a snapshot, read routing for non-local keys, and
//    snapshot-counter gossip for global read-only snapshots;
//  - crash recovery: replaying the Paxos durable log rebuilds the replica
//    deterministically.
//
// Determinism: all state that certification depends on lives in the
// Certifier and changes only as a function of the delivered sequence,
// which atomic broadcast makes identical across the partition's replicas.
// Votes affect only *when* a global completes, never the certification
// outcome.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "paxos/engine.h"
#include "pdur/executor.h"
#include "sdur/certifier.h"
#include "sdur/config.h"
#include "sdur/messages.h"
#include "sdur/partitioning.h"
#include "sim/process.h"
#include "storage/mvstore.h"
#include "trace/trace.h"

namespace sdur {

class Server : public sim::Process {
 public:
  struct Stats {
    std::uint64_t delivered = 0;
    std::uint64_t committed_local = 0;
    std::uint64_t committed_global = 0;
    std::uint64_t aborted = 0;
    std::uint64_t stale_snapshot_aborts = 0;  // snapshot fell out of window
    std::uint64_t reordered = 0;              // locals that leaped >=1 global
    std::uint64_t ticks_sent = 0;
    std::uint64_t abort_requests_sent = 0;
    std::uint64_t reads_served = 0;
    std::uint64_t reads_routed = 0;
    std::uint64_t reads_deferred = 0;
    std::uint64_t pdur_single_core = 0;  // txns homed on one core (P-DUR fast path)
    std::uint64_t pdur_cross_core = 0;   // txns that paid the cross-core barrier
    std::uint64_t vote_batches_sent = 0;   // VoteBatchMsg flushes (per destination replica)
    std::uint64_t votes_batched = 0;       // votes carried by explicit batch flushes
    std::uint64_t votes_piggybacked = 0;   // votes that rode existing traffic for free
    std::uint64_t stale_votes_dropped = 0; // votes for already-completed transactions
    std::uint64_t bypassed_locals = 0;     // locals committed past pending entries (ooo_bypass)
    std::uint64_t parked_locals = 0;       // locals parked behind a pending write conflict
    std::uint64_t speculated_globals = 0;  // globals applied speculatively before their votes
    std::uint64_t spec_commits = 0;        // speculations finalized (versions promoted)
    std::uint64_t spec_aborts = 0;         // speculations rolled back on a remote abort vote
  };

  Server(sim::Network& net, sim::ProcessId pid, sim::Location loc, ServerConfig cfg,
         paxos::GroupConfig paxos_cfg, PartitioningPtr partitioning);

  /// Starts Paxos timers, gossip and liveness timers.
  void start();

  /// Atomically broadcasts a new reorder threshold to this partition; all
  /// replicas switch at the same point in the delivery sequence (Section
  /// IV-E: "replicas can change the reordering threshold by broadcasting a
  /// new value of k").
  void broadcast_reorder_threshold(std::uint32_t k);

  /// Bulk-loads a key at version 0 (initial database population; done on
  /// every replica of the partition before start()).
  void load(Key k, std::string v) { store_.load(k, std::move(v)); }

  PartitionId partition() const { return cfg_.partition; }
  /// Stable snapshot version: reads are served at this version.
  Version sc() const { return cert_.stable(); }
  /// Highest assigned (certified) version, possibly unresolved.
  Version certified() const { return cert_.certified(); }
  std::uint64_t dc() const { return dc_; }
  std::uint32_t reorder_threshold() const { return cfg_.techniques.reorder_threshold; }
  std::size_t pending_count() const { return cert_.size(); }
  const Stats& stats() const { return stats_; }
  const storage::MVStore& store() const { return store_; }
  paxos::PaxosEngine& engine() { return *engine_; }
  const ServerConfig& config() const { return cfg_; }

  /// TEST-ONLY access to the certifier, used by audit tests to inject a
  /// certification bug on a single replica (tests/audit_test.cpp).
  Certifier& certifier_for_test() { return cert_; }

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override;
  void on_recover() override;

 private:
  // --- Submission ---------------------------------------------------------
  void handle_commit_request(Transaction tx);
  PartTx project(const Transaction& tx, PartitionId p,
                 const std::vector<PartitionId>& involved) const;
  /// Sends an encoded PartTx into partition p's atomic broadcast.
  void abcast(PartitionId p, const PartTx& t);

  // --- Delivery (Algorithm 2, lines 15-33) ----------------------------------
  void adeliver(const paxos::Value& value);
  void process_delivery(PartTx t);
  /// Effects of a certification verdict leaving the replica: the own vote
  /// of a global, and for a failed certification (no version slot) the
  /// abort accounting and answer.
  void emit_verdict(const PartTx& t, Outcome vote);
  /// The single completion path (Algorithm 2, lines 34-39): fixes the
  /// outcome of an entry that left the pending list, lands its writes at
  /// its version (put for a pending entry; promote or rollback for a
  /// speculated one), resolves its slot, advances SC and replies.
  void finalize(const PendingEntry& e, Outcome outcome);
  void drain_pending();
  /// Out-of-order local commit (cfg.techniques.ooo_bypass): after the
  /// in-order drain stalls, commits every ready unparked local past the
  /// blocked prefix (see DESIGN.md "Out-of-order local commit").
  void bypass_sweep();
  /// In-order head drain (the legacy drain_pending loop body); factored
  /// out so the speculation sweep can interleave with it.
  void drain_in_order();
  void schedule_threshold_tick();

  // --- Speculative global commit (cfg.techniques.speculation) ---------------
  // A locally-certified global at the pending-list head applies its writes
  // as speculative MVStore versions immediately and leaves the pending
  // list; remote votes later finalize (promote + reply) or roll it back
  // (undo the versions mid-chain). No transaction ever depends on
  // speculative state — reads serve only the stable prefix, which stalls
  // below every unresolved speculative version — so there is nothing to
  // cascade. See DESIGN.md "Speculative global commit".
  /// Speculates the global at the pending-list head; true on progress.
  bool speculate_head();
  /// Post-drain sweep: speculate eligible heads, then finalize every
  /// speculated global whose votes are complete; true on any progress.
  bool spec_sweep();
  bool has_all_votes(const PartTx& t) const;
  Outcome combined_outcome(const PartTx& t) const;

  // --- P-DUR multi-core replica (src/pdur/) ---------------------------------
  /// True when this replica models pdur.cores > 1 simulated cores.
  bool parallel() const { return cfg_.pdur.cores > 1; }
  /// Runs once a transaction's per-core work finished: releases the
  /// pending entry, emits the deferred effects (votes, abort answers).
  void finish_core_work(const PartTx& t, Outcome vote, Version version);

  // --- Votes ----------------------------------------------------------------
  void record_own_vote(const PartTx& t, Outcome v);
  void send_vote_to_peers(const PartTx& t, Outcome v);
  void handle_vote(const VoteMsg& m);
  /// Records one vote; returns false when the vote was stale (transaction
  /// already completed here — dropped, exactly like the legacy early
  /// return, so callers only drain_pending on recorded votes). The
  /// stale-drop check is one probe of the certifier's id index instead of
  /// the O(pending) scan handle_vote used to run per vote.
  bool apply_vote(TxId id, PartitionId partition, Outcome vote);
  void handle_vote_batch(const VoteBatchMsg& m);

  // --- Vote batching (see DESIGN.md "Vote exchange & batching") --------------
  /// Batching is a cross-partition optimization; single-partition
  /// deployments have no vote exchange to batch.
  bool batching() const { return cfg_.techniques.vote_batching && cfg_.num_partitions > 1; }
  /// Queues a vote for partition p; flushes at vote_batch_max, else arms
  /// one vote_batch_interval timer covering all destination queues.
  void enqueue_vote(PartitionId p, TxId id, Outcome v);
  void flush_votes();
  void flush_votes_for(PartitionId p);
  /// Wraps a message headed to replica `replica_index` of partition `p` in
  /// a VotePiggybackMsg carrying that replica's pending vote suffix;
  /// returns the message unchanged when there is nothing to carry.
  sim::Message maybe_piggyback(PartitionId p, std::size_t replica_index, sim::Message m);
  /// Same, resolving an arbitrary destination process id (Paxos forwards,
  /// vote-request replies) to its (partition, replica) coordinates.
  sim::Message maybe_piggyback_pid(sim::ProcessId to, sim::Message m);

  // --- Reads ------------------------------------------------------------------
  void handle_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  /// Charges the read on the key's owning core (parallel mode) before
  /// answering; serial mode answers inline.
  void schedule_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  void answer_read(std::uint64_t reqid, sim::ProcessId client, Key key, Version snapshot);
  void service_deferred_reads();

  // --- Checkpointing ----------------------------------------------------------
  /// Serializes the server's deterministic state (store, certifier, dedup
  /// and vote tables, counters) into a checkpoint blob.
  paxos::Value encode_state() const;
  /// Replaces the server's state from a checkpoint blob (recovery / state
  /// transfer). Votes for pending globals are re-fetched via vote requests.
  void install_state(const paxos::Value& blob);

  // --- Timers -------------------------------------------------------------------
  void gossip_tick();
  void liveness_tick();
  /// Liveness for one global still awaiting votes (pending or speculated):
  /// resends the own vote and requests the missing ones every
  /// vote_resend_interval; after missing_vote_timeout the leader asks the
  /// silent partitions to abort (Section IV-F).
  void chase_votes(PendingEntry& p, sim::Time t_now);
  void checkpoint_tick();

  ServerConfig cfg_;
  PartitioningPtr partitioning_;

  storage::MVStore store_;
  Certifier cert_;
  std::uint64_t dc_ = 0;  // delivered-transactions counter

  /// VOTES: votes received per global transaction and partition.
  std::unordered_map<TxId, std::unordered_map<PartitionId, Outcome>> votes_;
  /// Abort requests delivered before their transaction.
  std::unordered_set<TxId> poisoned_;
  /// Delivered transaction ids (dedup across leader-change re-broadcasts).
  std::unordered_set<TxId> seen_;
  /// Own votes for globals, kept after completion so they can be resent
  /// (bounded FIFO).
  std::unordered_map<TxId, Outcome> own_votes_;
  std::deque<TxId> own_votes_order_;

  /// Final outcomes of completed transactions. Deterministic (every
  /// replica completes every transaction with the same outcome), so it is
  /// recorded on all replicas, carried in checkpoints, and used to answer
  /// duplicate commit requests (client retries after a lost outcome
  /// message) without re-executing (bounded FIFO).
  std::unordered_map<TxId, Outcome> outcomes_;
  std::deque<TxId> outcomes_order_;
  void remember_outcome(TxId id, Outcome o);

  /// Latest known snapshot counters of all partitions (gossip).
  std::vector<Version> gsc_;
  Version last_gossiped_sc_ = -1;

  struct DeferredRead {
    std::uint64_t reqid;
    sim::ProcessId client;
    Key key;
    Version snapshot;
  };
  std::deque<DeferredRead> deferred_reads_;

  /// Outstanding speculative entries by version (ordered: rollback and
  /// the spec-floor audit walk from the lowest). Deterministic: contents
  /// are a function of the delivered sequence plus vote outcomes, both
  /// identical across the partition's replicas.
  std::map<Version, PendingEntry> spec_;
  /// TxId -> speculative version, so the vote path can find speculated
  /// globals that already left the pending list.
  std::unordered_map<TxId, Version> spec_ids_;

  /// Per-destination-partition vote outbox. `cursor[i]` is the queue
  /// prefix already carried to replica i of that partition by a piggyback
  /// (every replica of every involved partition needs every vote; votes
  /// are idempotent, so over-delivery is harmless but under-delivery would
  /// stall completion until the vote-resend repair). The outbox is
  /// volatile — not checkpointed; after a crash the resend/vote-request
  /// machinery re-sources anything lost.
  struct VoteOutbox {
    std::vector<VoteBatchEntry> queue;
    std::vector<std::size_t> cursor;  // one per replica of the partition
  };
  std::vector<VoteOutbox> vote_outbox_;
  bool vote_flush_pending_ = false;
  /// Reused flush scratch so steady-state flushes allocate only on queue
  /// high-water growth.
  VoteBatchMsg scratch_batch_;
  /// Destination pid -> (partition, replica index), for piggybacking on
  /// unicasts addressed by process id.
  std::unordered_map<sim::ProcessId, std::pair<PartitionId, std::size_t>> peer_index_;

  std::unique_ptr<paxos::PaxosEngine> engine_;
  /// P-DUR core executor; null in the serial (cores == 1) model.
  std::unique_ptr<pdur::Executor> executor_;
  Stats stats_;
  bool tick_pending_ = false;
  /// Lifecycle trace track of this replica (kNoTrack in untraced runs).
  std::uint32_t trace_track_ = trace::kNoTrack;
};

}  // namespace sdur
