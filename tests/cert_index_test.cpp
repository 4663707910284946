// Indexed certification: equivalence of the per-key index with the legacy
// window scan, across every mode the engine supports.
//
//  * CertIndex units: last-writer/last-reader tracking, eviction erasing
//    exactly the entries whose newest owner left the window.
//  * Randomized property: over chaotic certification histories (exact,
//    bloom and mixed-mode windows, eviction pressure), every probe's
//    indexed verdict equals the scan verdict bit for bit — via the
//    Certifier's public indexed_conflict()/scan_conflict() pair.
//  * Window boundaries: the empty window, the exact base, a snapshot of
//    INT64_MAX, and eviction past capacity.
//  * Certifier chaos: a continuously-running certifier and one that is
//    round-tripped through encode()/install() (index rebuilt from the
//    checkpoint) stay verdict-identical; the in-place audit cross-check
//    ("index-scan-equivalence") watches every single verdict.
//  * Golden digest: end-to-end simulated runs (serial, bloom, and P-DUR at
//    4 cores with exact sets, all techniques, or the bypass gate) digest
//    replica state against pinned constants — the indexed engine must not
//    change any simulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "sdur/certifier.h"
#include "storage/cert_index.h"
#include "util/hash.h"
#include "workload/driver.h"
#include "workload/microbench.h"

namespace sdur::storage {
namespace {

util::KeySet exact(std::vector<std::uint64_t> ks) { return util::KeySet::exact(std::move(ks)); }

TEST(CertIndex, TracksLastWriterAndReader) {
  CertIndex idx;
  idx.insert(1, exact({1, 2}), exact({2}));
  idx.insert(2, exact({3}), exact({1}));

  // Key 2 written at 1: conflicts with snapshots older than 1 only.
  EXPECT_TRUE(idx.reads_conflict(exact({2}), 0));
  EXPECT_FALSE(idx.reads_conflict(exact({2}), 1));
  // Key 1 written at 2 (the read of key 1 at version 1 is tracked apart).
  EXPECT_TRUE(idx.reads_conflict(exact({1}), 1));
  EXPECT_FALSE(idx.reads_conflict(exact({9}), 0));
  // Reader side: key 3 read at version 2, key 1 read at version 1.
  EXPECT_TRUE(idx.writes_conflict(exact({3}), 1));
  EXPECT_TRUE(idx.writes_conflict(exact({1}), 0));
  EXPECT_FALSE(idx.writes_conflict(exact({1}), 1));
}

TEST(CertIndex, EvictionErasesOnlyNewestOwner) {
  CertIndex idx;
  idx.insert(1, exact({}), exact({7}));
  idx.insert(2, exact({}), exact({7}));
  // Version 1 leaves the window, but version 2 still writes key 7.
  idx.evict(1, exact({}), exact({7}));
  EXPECT_TRUE(idx.reads_conflict(exact({7}), 1));
  idx.evict(2, exact({}), exact({7}));
  EXPECT_FALSE(idx.reads_conflict(exact({7}), 0));
  EXPECT_EQ(idx.key_count(), 0u);
}

TEST(CertIndex, BloomRecordsLandInTheSuffixLists) {
  CertIndex idx;
  idx.insert(1, util::KeySet::bloom({1, 2}), exact({3}));
  idx.insert(2, exact({4}), exact({5}));
  ASSERT_EQ(idx.bloom_read_versions().size(), 1u);
  EXPECT_EQ(idx.bloom_read_versions().front(), 1);
  EXPECT_TRUE(idx.bloom_write_versions().empty());
  idx.evict(1, util::KeySet::bloom({1, 2}), exact({3}));
  EXPECT_TRUE(idx.bloom_read_versions().empty());
}

enum class Mode { kExact, kBloom, kMixed };

util::KeySet make_set(std::mt19937_64& rng, Mode mode, std::uint64_t key_space,
                      std::size_t max_size, bool force_exact = false) {
  std::uniform_int_distribution<std::size_t> size_dist(0, max_size);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, key_space - 1);
  std::vector<std::uint64_t> ks(size_dist(rng));
  for (auto& k : ks) k = key_dist(rng);
  const bool bloom = !force_exact && (mode == Mode::kBloom ||
                                      (mode == Mode::kMixed && (rng() & 1) != 0));
  // Match the server: bloom sets are only ever built for non-empty keysets
  // worth encoding; tiny fp rate keeps the property non-vacuous.
  if (bloom && !ks.empty()) return util::KeySet::bloom(ks, 0.01);
  return util::KeySet::exact(std::move(ks));
}

}  // namespace
}  // namespace sdur::storage

namespace sdur {
namespace {

using storage::Mode;

PartTx random_tx(std::mt19937_64& rng, TxId id, Mode mode, std::uint64_t key_space,
                 Version snapshot) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = (rng() & 1) != 0 ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.snapshot = snapshot;
  t.readset = storage::make_set(rng, mode, key_space, 5);
  t.write_keys = storage::make_set(rng, mode, key_space, 5, /*force_exact=*/true);
  return t;
}

/// A local that reads and writes exactly `keys`.
PartTx local_tx(TxId id, std::vector<Key> keys, Version snapshot) {
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = {0};
  t.snapshot = snapshot;
  t.readset = util::KeySet::exact(keys);
  t.write_keys = util::KeySet::exact(std::move(keys));
  return t;
}

/// A certifier of capacity `capacity` holding versions 1..n, each resolved
/// as committed: version v is tx 100 + v, which reads and writes key v.
Certifier filled_window(std::size_t capacity, Version n) {
  Certifier c(capacity);
  for (Version v = 1; v <= n; ++v) {
    const auto dc = static_cast<std::uint64_t>(v);
    const Key k = static_cast<Key>(v);
    c.process(local_tx(100 + k, {k}, c.certified()), dc, dc);
    c.resolve(c.pop_head(), true);
  }
  return c;
}

/// The indexed verdict for `t` at `st`, after checking the scan agrees.
bool checked_verdict(const Certifier& c, const PartTx& t, Version st) {
  const bool indexed = c.indexed_conflict(t, st);
  EXPECT_EQ(indexed, c.scan_conflict(t, st)) << "st=" << st;
  return indexed;
}

/// Randomized property over chaotic certification histories (exact, bloom
/// and mixed-mode windows, pending and resolved slots, eviction pressure):
/// every probe's indexed verdict equals the scan verdict bit for bit.
class CertifierWindowProperty : public ::testing::TestWithParam<Mode> {};

TEST_P(CertifierWindowProperty, IndexedVerdictEqualsScanVerdict) {
  const Mode mode = GetParam();
  audit::Auditor::instance().reset();
  std::mt19937_64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(mode));

  constexpr std::uint64_t kKeySpace = 96;  // small: plenty of collisions
  Certifier c(48);                         // eviction pressure past 48 resolved slots
  std::uint64_t dc = 0;
  for (int round = 0; round < 600; ++round) {
    // Certify a record at the newest snapshot, so it always commits.
    // Readsets may be bloom; write keys stay exact, as in the protocol —
    // but exercise bloom write keys too in mixed mode.
    PartTx t = random_tx(rng, static_cast<TxId>(round + 1), mode, kKeySpace, c.certified());
    if (mode == Mode::kMixed) t.write_keys = storage::make_set(rng, Mode::kMixed, kKeySpace, 6);
    ++dc;
    ASSERT_EQ(c.process(t, dc, dc).outcome, Outcome::kCommit) << "round " << round;
    // Resolve a random prefix; the rest stays pending in the window.
    while (!c.empty() && rng() % 4 != 0) c.resolve(c.pop_head(), (rng() & 1) != 0);

    // Probe with snapshots across the whole covered range, including the
    // exact window base and the empty suffix at newest.
    const Version base = c.certified() - static_cast<Version>(c.window_size()) + 1;
    for (int probe = 0; probe < 6; ++probe) {
      const PartTx p = random_tx(rng, 0, mode, kKeySpace, 0);
      std::uniform_int_distribution<Version> st_dist(base - 1, c.certified());
      const Version st = st_dist(rng);
      ASSERT_TRUE(c.covers(st));
      ASSERT_EQ(c.indexed_conflict(p, st), c.scan_conflict(p, st))
          << "mode=" << static_cast<int>(mode) << " round=" << round << " st=" << st
          << " global=" << p.is_global() << " window=[" << base << "," << c.certified() << "]";
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

INSTANTIATE_TEST_SUITE_P(Modes, CertifierWindowProperty,
                         ::testing::Values(Mode::kExact, Mode::kBloom, Mode::kMixed),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Mode::kExact: return "exact";
                             case Mode::kBloom: return "bloom";
                             default: return "mixed";
                           }
                         });

// --- Window boundaries ---------------------------------------------------------

TEST(CertifierWindow, EmptyWindowCoversEverySnapshot) {
  const Certifier c(4);
  EXPECT_TRUE(c.covers(0));
  EXPECT_TRUE(c.covers(-1));
  EXPECT_TRUE(c.covers(std::numeric_limits<Version>::max()));
  EXPECT_FALSE(checked_verdict(c, local_tx(1, {1}, 0), 0));
}

TEST(CertifierWindow, ExactBaseBoundary) {
  const Certifier c = filled_window(3, 5);
  // The window holds [3, 5]. st == base - 1 == 2 is the oldest coverable
  // snapshot, and certification must see the whole window from the base.
  ASSERT_EQ(c.window_size(), 3u);
  EXPECT_TRUE(c.covers(2));
  EXPECT_FALSE(c.covers(1));
  EXPECT_TRUE(checked_verdict(c, local_tx(1, {3}, 2), 2))
      << "the write at the base version is newer than st";
  EXPECT_FALSE(checked_verdict(c, local_tx(1, {3}, 3), 3))
      << "st == base: the base version is inside the snapshot";
}

TEST(CertifierWindow, MaxSnapshotDoesNotOverflow) {
  Certifier c = filled_window(3, 5);
  const Version huge = std::numeric_limits<Version>::max();
  // st >= newest: nothing to check, and st + 1 must never be computed.
  EXPECT_TRUE(c.covers(huge));
  PartTx g = local_tx(1, {5}, huge);
  g.involved = {0, 1};
  EXPECT_FALSE(checked_verdict(c, g, huge));
  const Certifier::Result r = c.process(g, 6, 6);
  EXPECT_EQ(r.outcome, Outcome::kCommit);
  EXPECT_FALSE(r.stale_snapshot);
}

TEST(CertifierWindow, CapacityEvictsOldest) {
  // Resolve far past capacity, then check the surviving slots are exactly
  // the newest `capacity` ones, and that certification at the oldest
  // coverable snapshot sees a survivor's write.
  const Certifier c = filled_window(4, 23);
  EXPECT_EQ(c.window_size(), 4u);
  EXPECT_EQ(c.slot(19), nullptr);
  ASSERT_NE(c.slot(20), nullptr);
  EXPECT_EQ(c.slot(20)->txid, 120u);
  EXPECT_EQ(c.slot(23)->txid, 123u);
  EXPECT_TRUE(c.covers(19));
  EXPECT_FALSE(c.covers(18));
  EXPECT_FALSE(checked_verdict(c, local_tx(1, {19}, 19), 19));
  EXPECT_TRUE(checked_verdict(c, local_tx(1, {21}, 19), 19));
}

/// A continuously-running certifier and one round-tripped through
/// encode()/install() after every burst must issue identical verdicts for
/// identical deliveries — the install path rebuilds the key index from the
/// checkpointed slots. The in-place "index-scan-equivalence" audit check
/// watches every verdict of both.
TEST(CertifierIndex, InstallRebuildKeepsVerdicts) {
  audit::Auditor::instance().reset();
  for (const storage::Mode mode :
       {storage::Mode::kExact, storage::Mode::kBloom, storage::Mode::kMixed}) {
    std::mt19937_64 rng(0xBEEF ^ static_cast<std::uint64_t>(mode));
    Certifier live(32);
    Certifier reinstalled(32);
    std::uint64_t dc = 0;
    for (int round = 0; round < 400; ++round) {
      ++dc;
      std::uniform_int_distribution<Version> st_dist(
          std::max<Version>(0, live.certified() - 40), live.certified());
      const PartTx t = random_tx(rng, dc, mode, 64, st_dist(rng));
      const auto a = live.process(t, dc, dc);
      const auto b = reinstalled.process(t, dc, dc);
      ASSERT_EQ(a.outcome, b.outcome) << "round " << round;
      ASSERT_EQ(a.version, b.version);
      ASSERT_EQ(a.stale_snapshot, b.stale_snapshot);
      // Resolve a random prefix so eviction happens on both sides.
      while (!live.empty() && (rng() & 3) == 0) {
        const bool committed = (rng() & 1) != 0;
        live.resolve(live.pop_head(), committed);
        reinstalled.resolve(reinstalled.pop_head(), committed);
      }
      if (round % 37 == 0) {
        util::Writer w;
        reinstalled.encode(w);
        util::Reader r(w.data());
        reinstalled.install(r);
      }
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

}  // namespace
}  // namespace sdur

namespace sdur::workload {
namespace {

/// Digest of all deterministic replica state after a fixed-seed run: the
/// indexed certification engine must leave every simulated result
/// bit-identical to the scan engine it replaced. The pinned runs execute
/// with the audit layer cross-checking every single verdict against the
/// legacy scan in place (and assert the auditor stayed clean), so these
/// constants are — by construction — exactly what the scan engine
/// produces. A change here means a verdict moved somewhere.
struct GoldenOut {
  std::uint64_t digest = 0;
  Server::Stats stats;
};

GoldenOut run_golden(const TechniqueConfig& techniques, std::uint32_t cores,
                     sim::Time checkpoint_interval = 0, double loss_rate = 0) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = MicroWorkload::make_partitioning(2, 80);
  spec.server.techniques = techniques;
  spec.server.checkpoint_interval = checkpoint_interval;
  spec.server.pdur.cores = cores;
  spec.seed = 47;
  Deployment dep(spec);
  dep.network().set_loss_rate(loss_rate);

  RunConfig cfg;
  cfg.clients = 12;
  cfg.seed = 47;
  cfg.warmup = sim::msec(300);
  cfg.measure = sim::msec(1500);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  MicroConfig mc;
  mc.items_per_partition = 80;
  mc.global_fraction = 0.25;
  mc.cores = cores;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  MicroWorkload wl(mc);
  run_experiment(dep, wl, cfg);

  util::Writer w;
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    for (std::uint32_t rep = 0; rep < dep.replica_count(); ++rep) {
      Server& s = dep.server(p, rep);
      w.i64(s.sc());
      w.i64(s.certified());
      w.u64(s.dc());
      s.store().encode(w);  // sorts keys: deterministic bytes
    }
  }
  const util::Bytes& b = w.data();
  return {util::fnv1a(std::string_view(reinterpret_cast<const char*>(b.data()), b.size())),
          dep.total_stats()};
}

/// Reordering at threshold 24; `bloom` adds bloom readsets at a high fp
/// rate, so false positives actually fire at this scale — the run must
/// diverge from the exact run through the bloom fallback paths, not
/// coincide with it.
TechniqueConfig reorder24(bool bloom) {
  TechniqueConfig t;
  t.reorder_threshold = 24;
  t.bloom_readsets = bloom;
  if (bloom) t.bloom_fp_rate = 0.02;
  return t;
}

std::uint64_t run_digest(bool bloom, std::uint32_t cores) {
  return run_golden(reorder24(bloom), cores).digest;
}

TEST(CertIndexGolden, EndToEndResultsUnchanged) {
  EXPECT_TRUE(audit::Auditor::instance().clean());
  const std::uint64_t exact_serial = run_digest(false, 1);
  const std::uint64_t bloom_serial = run_digest(true, 1);
  const std::uint64_t exact_pdur4 = run_digest(false, 4);
  EXPECT_EQ(exact_serial, 0x8e9dd518b52e50e8ULL)
      << "exact/serial digest changed: 0x" << std::hex << exact_serial;
  EXPECT_EQ(bloom_serial, 0x3c52ea20b7efd6c9ULL)
      << "bloom/serial digest changed: 0x" << std::hex << bloom_serial;
  EXPECT_EQ(exact_pdur4, 0xd049541a2625b7beULL)
      << "exact/pdur4 digest changed: 0x" << std::hex << exact_pdur4;
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

/// P-DUR at 4 cores with every technique on: bloom readsets (high fp
/// rate) home transactions on all cores, and speculation, batching and the
/// bypass gate all run over the multi-core certifier.
TEST(CertIndexGolden, PdurAllOnResultsUnchanged) {
  TechniqueConfig t = *TechniqueConfig::preset("all-on");
  t.bloom_fp_rate = 0.02;
  const GoldenOut r = run_golden(t, 4);
  EXPECT_EQ(r.digest, 0x0640e9ea8752c979ULL)
      << "all-on/pdur4 digest changed: 0x" << std::hex << r.digest;
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

/// P-DUR at 4 cores with the out-of-order bypass and a checkpoint every
/// 200 ms. A local parks only when its snapshot covers a global still
/// pending at the certifying replica; 1% message loss delays some
/// replicas' votes long enough for that, so the pending-write gate really
/// fires.
TEST(CertIndexGolden, PdurBypassCheckpointResultsUnchanged) {
  TechniqueConfig t = reorder24(false);
  t.ooo_bypass = true;
  const GoldenOut r = run_golden(t, 4, sim::msec(200), /*loss_rate=*/0.01);
  EXPECT_GT(r.stats.parked_locals, 0u) << "the pending-write gate never fired";
  EXPECT_EQ(r.digest, 0xc922b3c97074142dULL)
      << "bypass/pdur4 digest changed: 0x" << std::hex << r.digest;
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

}  // namespace
}  // namespace sdur::workload
