// Unit tests for the storage layer: the multiversion store and its flat
// hash table.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "storage/flat_table.h"
#include "storage/mvstore.h"
#include "util/bytes.h"

namespace sdur::storage {
namespace {

TEST(MVStore, SnapshotReadsSeeRightVersion) {
  MVStore s;
  s.load(1, "v0");
  s.put(1, "v5", 5);
  s.put(1, "v9", 9);

  EXPECT_EQ(s.get(1, 0)->value, "v0");
  EXPECT_EQ(s.get(1, 4)->value, "v0");
  EXPECT_EQ(s.get(1, 5)->value, "v5");
  EXPECT_EQ(s.get(1, 8)->value, "v5");
  EXPECT_EQ(s.get(1, 9)->value, "v9");
  EXPECT_EQ(s.get(1, 100)->value, "v9");
  EXPECT_EQ(s.get_latest(1)->version, 9);
}

TEST(MVStore, MissingKey) {
  MVStore s;
  EXPECT_FALSE(s.get(42, 100).has_value());
  EXPECT_FALSE(s.get_latest(42).has_value());
}

TEST(MVStore, SameVersionOverwrites) {
  MVStore s;
  s.put(1, "a", 3);
  s.put(1, "b", 3);
  EXPECT_EQ(s.get(1, 3)->value, "b");
  EXPECT_EQ(s.version_count(), 1u);
}

TEST(MVStore, VersionRegressionThrows) {
  MVStore s;
  s.put(1, "a", 5);
  EXPECT_THROW(s.put(1, "b", 4), std::logic_error);
}

TEST(MVStore, GcKeepsNewestReadableAtHorizon) {
  MVStore s;
  s.put(1, "v1", 1);
  s.put(1, "v5", 5);
  s.put(1, "v9", 9);
  s.gc(6);
  // v5 is the newest version <= 6 and must stay readable; v1 may go.
  EXPECT_EQ(s.get(1, 6)->value, "v5");
  EXPECT_EQ(s.get(1, 100)->value, "v9");
  EXPECT_EQ(s.version_count(), 2u);
  EXPECT_FALSE(s.get(1, 1).has_value()) << "pre-horizon version was collected";
}

TEST(MVStore, TruncateAboveRollsBack) {
  MVStore s;
  s.load(1, "init");
  s.put(1, "v3", 3);
  s.put(2, "only-new", 2);
  s.truncate_above(0);
  EXPECT_EQ(s.get(1, 100)->value, "init");
  EXPECT_FALSE(s.get(2, 100).has_value());
}

TEST(MVStore, VersionsOfExposesOrder) {
  MVStore s;
  s.put(7, "a", 1);
  s.put(7, "b", 2);
  const auto* versions = s.versions_of(7);
  ASSERT_NE(versions, nullptr);
  ASSERT_EQ(versions->size(), 2u);
  EXPECT_EQ((*versions)[0].version, 1);
  EXPECT_EQ((*versions)[1].version, 2);
  EXPECT_EQ(s.versions_of(8), nullptr);
}

// --- FlatTable / VersionChain hot-path structures ----------------------------

TEST(FlatTable, InsertFindEraseAcrossGrowth) {
  FlatTable<int> t;
  for (std::uint64_t k = 0; k < 500; ++k) t[k * 977] = static_cast<int>(k);
  EXPECT_EQ(t.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const int* v = t.find(k * 977);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, static_cast<int>(k));
  }
  EXPECT_EQ(t.find(12345678901ull), nullptr);
  // Erase every other key; backward-shift deletion must keep the rest
  // reachable through their probe chains.
  for (std::uint64_t k = 0; k < 500; k += 2) EXPECT_TRUE(t.erase(k * 977));
  EXPECT_FALSE(t.erase(977 * 2));  // already gone
  EXPECT_EQ(t.size(), 250u);
  for (std::uint64_t k = 1; k < 500; k += 2) {
    ASSERT_NE(t.find(k * 977), nullptr) << "key " << k * 977 << " lost after neighbor erase";
  }
}

TEST(VersionChain, SpillsPastInlineSlots) {
  MVStore s;
  for (Version v = 1; v <= 6; ++v) {
    s.put(9, "v" + std::to_string(v), v);
  }
  const VersionChain* chain = s.versions_of(9);
  ASSERT_NE(chain, nullptr);
  ASSERT_EQ(chain->size(), 6u) << "inline slots plus spill";
  for (Version v = 1; v <= 6; ++v) {
    EXPECT_EQ(s.get(9, v)->value, "v" + std::to_string(v));
  }
  // GC across the inline/spill boundary.
  s.gc(5);
  EXPECT_EQ(s.get(9, 5)->value, "v5");
  EXPECT_EQ(s.get(9, 6)->value, "v6");
  EXPECT_FALSE(s.get(9, 3).has_value());
  // Truncate back down into the inline region.
  s.truncate_above(5);
  EXPECT_EQ(s.get_latest(9)->value, "v5");
}

TEST(MVStore, EncodeInstallRoundTripsFlatTable) {
  MVStore s;
  for (std::uint64_t k = 0; k < 40; ++k) {
    s.put(k, "a" + std::to_string(k), 1);
    if (k % 3 == 0) s.put(k, "b" + std::to_string(k), 2 + static_cast<Version>(k));
  }
  util::Writer w1;
  s.encode(w1);

  MVStore t;
  t.put(999, "stale", 7);  // install() must fully replace this
  util::Reader r(w1.data());
  t.install(r);
  EXPECT_EQ(t.key_count(), s.key_count());
  EXPECT_EQ(t.version_count(), s.version_count());
  EXPECT_FALSE(t.get_latest(999).has_value());

  // Canonical bytes: re-encoding the installed copy is bit-identical.
  util::Writer w2;
  t.encode(w2);
  EXPECT_EQ(w1.data(), w2.data());
}

}  // namespace
}  // namespace sdur::storage
