// Indexed certification: equivalence of the per-key index with the legacy
// window scan, across every mode the engine supports.
//
//  * CertIndex units: last-writer/last-reader tracking, eviction erasing
//    exactly the entries whose newest owner left the window.
//  * Randomized property: over chaotic histories of commit records (exact,
//    bloom and mixed-mode windows, eviction pressure), every probe's
//    indexed verdict equals the scan verdict bit for bit — via the public
//    CommitWindow conflicts_scan()/conflicts_indexed() split.
//  * Certifier chaos: a continuously-running certifier and one that is
//    round-tripped through encode()/install() (index rebuilt from the
//    checkpoint) stay verdict-identical; the in-place audit cross-check
//    ("index-scan-equivalence") watches every single verdict.
//  * P-DUR lanes: the per-lane sub-indexes at 1/4/8 cores reproduce the
//    serial full-set reference, with eviction and clear()+reinsert
//    (checkpoint-install rebuild) in the loop.
//  * Golden digest: an end-to-end simulated run (serial+bloom and P-DUR
//    multi-core) digests replica state against pinned constants — the
//    indexed engine must not change any simulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string_view>
#include <vector>

#include "audit/auditor.h"
#include "pdur/parallel_window.h"
#include "sdur/certifier.h"
#include "storage/cert_index.h"
#include "storage/commit_window.h"
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

class CommitWindowProperty : public ::testing::TestWithParam<Mode> {};

TEST_P(CommitWindowProperty, IndexedVerdictEqualsScanVerdict) {
  const Mode mode = GetParam();
  audit::Auditor::instance().reset();
  std::mt19937_64 rng(0xC0FFEE ^ static_cast<std::uint64_t>(mode));

  constexpr std::uint64_t kKeySpace = 96;  // small: plenty of collisions
  CommitWindow w(48);                      // eviction pressure after 48 pushes
  Version next = 1;
  for (int round = 0; round < 600; ++round) {
    // Push a record (readsets may be bloom; writesets stay exact, as in the
    // protocol — but exercise bloom writesets too in mixed mode).
    CommitRecord rec;
    rec.txid = static_cast<std::uint64_t>(round);
    rec.readset = make_set(rng, mode, kKeySpace, 6);
    rec.writeset = make_set(rng, mode == Mode::kMixed ? Mode::kMixed : Mode::kExact,
                            kKeySpace, 6);
    w.push(next++, std::move(rec));

    // Probe with snapshots across the whole covered range, including the
    // exact window base and the empty suffix at newest.
    for (int probe = 0; probe < 6; ++probe) {
      const util::KeySet rs = make_set(rng, mode, kKeySpace, 6);
      const util::KeySet ws = make_set(rng, Mode::kExact, kKeySpace, 6);
      const bool global = (rng() & 1) != 0;
      std::uniform_int_distribution<Version> st_dist(w.oldest() - 1, w.newest());
      const Version st = st_dist(rng);
      ASSERT_TRUE(w.covers(st));
      const bool scan = w.conflicts_scan(rs, ws, global, st);
      const bool indexed = w.conflicts_indexed(rs, ws, global, st);
      ASSERT_EQ(scan, indexed)
          << "mode=" << static_cast<int>(mode) << " round=" << round << " st=" << st
          << " global=" << global << " window=[" << w.oldest() << "," << w.newest() << "]";
      ASSERT_EQ(w.conflicts(rs, ws, global, st), scan);
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

INSTANTIATE_TEST_SUITE_P(Modes, CommitWindowProperty,
                         ::testing::Values(Mode::kExact, Mode::kBloom, Mode::kMixed),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case Mode::kExact: return "exact";
                             case Mode::kBloom: return "bloom";
                             default: return "mixed";
                           }
                         });

}  // namespace
}  // namespace sdur::storage

namespace sdur {
namespace {

PartTx random_tx(std::mt19937_64& rng, TxId id, storage::Mode mode, std::uint64_t key_space,
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

namespace sdur::pdur {
namespace {

/// Brute-force serial reference over the full (unprojected) record sets.
struct RefRecord {
  storage::Version version;
  util::KeySet rs;
  util::KeySet ws;
};

bool reference_conflict(const std::vector<RefRecord>& recs, const util::KeySet& rs,
                        const util::KeySet& ws, bool global, storage::Version st) {
  for (const RefRecord& r : recs) {
    if (r.version <= st) continue;
    if (rs.intersects(r.ws)) return true;
    if (global && ws.intersects(r.rs)) return true;
  }
  return false;
}

class ParallelWindowIndex : public ::testing::TestWithParam<CoreId> {};

TEST_P(ParallelWindowIndex, LaneSubIndexesMatchSerialReference) {
  const CoreId cores = GetParam();
  audit::Auditor::instance().reset();
  for (const storage::Mode mode :
       {storage::Mode::kExact, storage::Mode::kBloom, storage::Mode::kMixed}) {
    std::mt19937_64 rng(0xFEED ^ (static_cast<std::uint64_t>(mode) << 8) ^ cores);
    ParallelWindow w(cores);
    std::vector<RefRecord> recs;
    storage::Version base = 1;
    storage::Version next = 1;
    for (int round = 0; round < 300; ++round) {
      const util::KeySet rs = storage::make_set(rng, mode, 64, 5);
      const util::KeySet ws = storage::make_set(rng, mode, 64, 5, /*force_exact=*/true);
      const storage::Version v = next++;
      w.insert(v, rs, ws, w.partitioner().home_cores(rs, ws));
      recs.push_back(RefRecord{v, rs, ws});

      if (recs.size() > 40) {  // window eviction
        base = recs.front().version + 1;
        w.evict_below(base);
        recs.erase(recs.begin());
      }
      if (round % 97 == 0) {  // checkpoint-install rebuild: clear + reinsert
        w.clear();
        for (const RefRecord& r : recs) {
          w.insert(r.version, r.rs, r.ws, w.partitioner().home_cores(r.rs, r.ws));
        }
      }

      for (int probe = 0; probe < 4; ++probe) {
        const util::KeySet prs = storage::make_set(rng, mode, 64, 5);
        const util::KeySet pws = storage::make_set(rng, mode, 64, 5, /*force_exact=*/true);
        const bool global = (rng() & 1) != 0;
        std::uniform_int_distribution<storage::Version> st_dist(base - 1, next - 1);
        const storage::Version st = st_dist(rng);
        const auto home = w.partitioner().home_cores(prs, pws);
        ASSERT_EQ(w.conflicts(prs, pws, global, home, st),
                  reference_conflict(recs, prs, pws, global, st))
            << "cores=" << cores << " mode=" << static_cast<int>(mode) << " round=" << round
            << " st=" << st;
      }
    }
  }
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
}

INSTANTIATE_TEST_SUITE_P(Cores, ParallelWindowIndex, ::testing::Values(1u, 4u, 8u),
                         [](const auto& param_info) { return "c" + std::to_string(param_info.param); });

}  // namespace
}  // namespace sdur::pdur

namespace sdur::workload {
namespace {

/// Digest of all deterministic replica state after a fixed-seed run: the
/// indexed certification engine must leave every simulated result
/// bit-identical to the scan engine it replaced. The pinned runs execute
/// with the audit layer cross-checking every single verdict against the
/// legacy scan in place (and assert the auditor stayed clean), so these
/// constants are — by construction — exactly what the scan engine
/// produces. A change here means a verdict moved somewhere.
std::uint64_t run_digest(bool bloom, std::uint32_t cores) {
  DeploymentSpec spec;
  spec.partitions = 2;
  spec.partitioning = MicroWorkload::make_partitioning(2, 80);
  spec.server.techniques.reorder_threshold = 24;
  spec.server.techniques.bloom_readsets = bloom;
  // High fp rate so bloom false positives actually fire at this scale —
  // the run must diverge from the exact run through the bloom fallback
  // paths, not coincide with it.
  if (bloom) spec.server.techniques.bloom_fp_rate = 0.02;
  spec.server.pdur.cores = cores;
  spec.seed = 47;
  Deployment dep(spec);

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
  return util::fnv1a(std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
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

}  // namespace
}  // namespace sdur::workload
