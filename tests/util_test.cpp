// Unit tests for util: byte codec, bloom filters, key sets, histograms,
// Zipf generator, RNG determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/bloom.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/zipf.h"

namespace sdur::util {
namespace {

TEST(Bytes, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTrip) {
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384, 1ULL << 32, UINT64_MAX};
  Writer w;
  for (std::uint64_t v : values) w.varint(v);
  Reader r(w.data());
  for (std::uint64_t v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, StringsRoundTrip) {
  Writer w;
  w.bytes(std::string_view(""));
  w.bytes(std::string_view("hello"));
  std::string big(10'000, 'z');
  w.bytes(std::string_view(big));
  Reader r(w.data());
  EXPECT_EQ(r.bytes(), "");
  EXPECT_EQ(r.bytes(), "hello");
  EXPECT_EQ(r.bytes(), big);
}

TEST(Bytes, TruncatedBufferThrows) {
  Writer w;
  w.u64(12345);
  Reader r(w.data().data(), 4);  // cut in half
  EXPECT_THROW(r.u64(), CodecError);
}

TEST(Bytes, TruncatedStringThrows) {
  Writer w;
  w.varint(100);  // claims 100 bytes follow
  w.raw("abc", 3);
  Reader r(w.data());
  EXPECT_THROW(r.bytes(), CodecError);
}

TEST(Bytes, MalformedVarintThrows) {
  Bytes bad(11, 0xFF);  // 11 continuation bytes > max varint length
  Reader r(bad);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Bloom, NoFalseNegatives) {
  BloomFilter f = BloomFilter::for_capacity(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) f.insert(k * 7919);
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(f.may_contain(k * 7919));
}

TEST(Bloom, FalsePositiveRateNearTarget) {
  BloomFilter f = BloomFilter::for_capacity(1000, 0.01);
  for (std::uint64_t k = 0; k < 1000; ++k) f.insert(k);
  int fp = 0;
  const int probes = 20'000;
  for (int i = 0; i < probes; ++i) {
    if (f.may_contain(1'000'000 + static_cast<std::uint64_t>(i))) ++fp;
  }
  const double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, 0.03) << "expected ~1% false positives, got " << rate;
}

TEST(Bloom, DisjointDetectsSharedElement) {
  BloomFilter a = BloomFilter::for_capacity(100, 0.01);
  BloomFilter b = BloomFilter::for_capacity(100, 0.01);
  a.insert(42);
  b.insert(42);
  EXPECT_FALSE(a.disjoint(b));
}

TEST(Bloom, DisjointOnEmpty) {
  BloomFilter a = BloomFilter::for_capacity(100, 0.01);
  BloomFilter b = BloomFilter::for_capacity(100, 0.01);
  a.insert(1);
  EXPECT_TRUE(a.disjoint(b));
  EXPECT_TRUE(b.disjoint(a));
}

TEST(Bloom, EncodeDecodeRoundTrip) {
  BloomFilter f = BloomFilter::for_capacity(50, 0.01);
  for (std::uint64_t k = 0; k < 50; ++k) f.insert(k * 3);
  Writer w;
  f.encode(w);
  Reader r(w.data());
  BloomFilter g = BloomFilter::decode(r);
  EXPECT_EQ(f, g);
}

// --- Early-exit / pre-hashed probes vs the all-positions reference --------

/// The probe as it was first written: derive every bit position, then
/// test them all. The production probe derives positions one at a time and
/// stops at the first clear bit; the verdicts, the bit positions and the
/// encoded bytes must match this reference exactly.
class ReferenceBloom {
 public:
  ReferenceBloom(std::uint32_t bits, std::uint32_t hashes)
      : bits_(std::max<std::uint32_t>(bits, 64)),
        hashes_(std::clamp<std::uint32_t>(hashes, 1, 16)),
        words_((bits_ + 63) / 64, 0) {}

  void insert(std::uint64_t key) {
    std::uint32_t pos[16];
    positions(key, pos);
    for (std::uint32_t i = 0; i < hashes_; ++i) words_[pos[i] >> 6] |= 1ULL << (pos[i] & 63);
    ++count_;
  }

  bool may_contain(std::uint64_t key) const {
    std::uint32_t pos[16];
    positions(key, pos);
    bool all = true;
    for (std::uint32_t i = 0; i < hashes_; ++i) {
      all = all && (words_[pos[i] >> 6] & (1ULL << (pos[i] & 63))) != 0;
    }
    return all;
  }

  bool overlaps(const ReferenceBloom& other) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// BloomFilter::encode's layout.
  Bytes encoded() const {
    Writer w;
    w.u32(bits_);
    w.u32(hashes_);
    w.varint(count_);
    for (std::uint64_t word : words_) w.u64(word);
    return w.data();
  }

  std::uint32_t bits() const { return bits_; }

 private:
  void positions(std::uint64_t key, std::uint32_t* out) const {
    const std::uint64_t h1 = mix64(key);
    const std::uint64_t h2 = mix64(key ^ 0x9E3779B97F4A7C15ULL);
    for (std::uint32_t i = 0; i < hashes_; ++i) {
      out[i] = static_cast<std::uint32_t>(nth_hash(h1, h2, i) % bits_);
    }
  }

  std::uint32_t bits_;
  std::uint32_t hashes_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> words_;
};

Bytes encoded(const BloomFilter& f) {
  Writer w;
  f.encode(w);
  return w.data();
}

/// The geometry KeySet::bloom chose, read back from its wire form (mode
/// byte, then the filter's bit and hash counts).
ReferenceBloom reference_for(const KeySet& s, const std::vector<std::uint64_t>& keys) {
  Writer w;
  s.encode(w);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 1);
  const std::uint32_t bits = r.u32();
  const std::uint32_t hashes = r.u32();
  ReferenceBloom ref(bits, hashes);
  for (std::uint64_t k : keys) ref.insert(k);
  return ref;
}

std::vector<std::uint64_t> random_keys(Rng& rng, std::size_t n, std::uint64_t space) {
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.below(space);
  return keys;
}

TEST(BloomEquivalence, RandomGeometriesMatchAllPositionsReference) {
  Rng rng(1401);
  std::size_t false_positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Bit counts 64..8192 (mostly not powers of two) and 1..16 hashes.
    const auto bits = static_cast<std::uint32_t>(64 + rng.below(8192 - 64 + 1));
    const auto hashes = static_cast<std::uint32_t>(1 + rng.below(16));
    BloomFilter f(bits, hashes);
    ReferenceBloom ref(bits, hashes);
    const auto members = random_keys(rng, 1 + rng.below(bits / 4), 1ULL << 40);
    for (std::uint64_t k : members) {
      f.insert(k);
      ref.insert(k);
    }
    ASSERT_EQ(encoded(f), ref.encoded()) << "insert moved a bit: bits=" << bits
                                         << " hashes=" << hashes;
    for (std::uint64_t k : members) {
      ASSERT_TRUE(f.may_contain(k));
      ASSERT_TRUE(f.may_contain(BloomFilter::hash(k)));
    }
    for (std::uint64_t k : random_keys(rng, 200, ~0ULL)) {
      const bool want = ref.may_contain(k);
      false_positives += want ? 1 : 0;
      ASSERT_EQ(f.may_contain(k), want) << "key " << k << " bits=" << bits;
      ASSERT_EQ(f.may_contain(BloomFilter::hash(k)), want) << "key " << k << " bits=" << bits;
    }
  }
  // Dense filters (up to bits/4 members at up to 16 hashes) must produce
  // false positives, or the probes above never exercised a full match.
  EXPECT_GT(false_positives, 0u);
}

TEST(BloomEquivalence, KeySetIntersectsMatchesReferenceInAllModes) {
  Rng rng(1402);
  for (int trial = 0; trial < 400; ++trial) {
    // fp rates 1e-9..0.5, log-uniform; set sizes straddle HashedKeys'
    // inline capacity so the unhashed tail is exercised too.
    const double fp = std::pow(10.0, -9.0 + 8.7 * static_cast<double>(rng.below(1001)) / 1000.0);
    const std::uint64_t space = 1 + rng.below(512);
    const auto ka = random_keys(rng, rng.below(40), space);
    const auto kb = random_keys(rng, rng.below(40), space);
    const KeySet ea = KeySet::exact(ka);
    const KeySet eb = KeySet::exact(kb);
    const KeySet ba = KeySet::bloom(ka, fp);
    const KeySet bb = KeySet::bloom(kb, fp);
    const ReferenceBloom ra = reference_for(ba, ka);
    const ReferenceBloom rb = reference_for(bb, kb);

    // Exact / exact: the true intersection.
    const std::set<std::uint64_t> sa(ka.begin(), ka.end());
    const bool exact_hit = std::any_of(kb.begin(), kb.end(), [&](auto k) { return sa.count(k); });
    ASSERT_EQ(ea.intersects(eb), exact_hit);
    // Mixed: every exact key probed against the reference filter.
    const bool mixed_ab = !ka.empty() && std::any_of(kb.begin(), kb.end(), [&](auto k) {
      return ra.may_contain(k);
    });
    const bool mixed_ba = !kb.empty() && std::any_of(ka.begin(), ka.end(), [&](auto k) {
      return rb.may_contain(k);
    });
    ASSERT_EQ(ba.intersects(eb), mixed_ab);
    ASSERT_EQ(eb.intersects(ba), mixed_ab);
    ASSERT_EQ(bb.intersects(ea), mixed_ba);
    ASSERT_EQ(ea.intersects(bb), mixed_ba);
    // Bloom / bloom: same geometry compares bits, different is conservative.
    const bool bloom_hit = !ka.empty() && !kb.empty() &&
                           (ra.bits() != rb.bits() || ra.overlaps(rb));
    ASSERT_EQ(ba.intersects(bb), bloom_hit);

    // HashedKeys reproduces KeySet::intersects for every pairing.
    for (const KeySet* probe : {&ea, &eb, &ba, &bb}) {
      const HashedKeys hashed(*probe);
      for (const KeySet* other : {&ea, &eb, &ba, &bb}) {
        ASSERT_EQ(hashed.intersects(*other), probe->intersects(*other)) << "trial " << trial;
      }
    }
  }
}

/// FNV-1a over the encoded bytes of a fixed family of filters, folded with
/// each filter's verdicts on 256 non-member probes: pins the wire format
/// and the false-positive set together.
std::uint64_t bloom_wire_digest() {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto fold = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ULL;
  };
  Rng rng(20121);
  for (std::size_t n : {1, 2, 4, 7, 16, 100, 1000}) {
    for (double fp : {1e-9, 1e-5, 1e-2, 0.3, 0.5}) {
      const KeySet s = KeySet::bloom(random_keys(rng, n, 1ULL << 32), fp);
      Writer w;
      s.encode(w);
      for (std::uint8_t b : w.data()) fold(b);
      for (std::uint64_t k : random_keys(rng, 256, 1ULL << 32)) {
        fold(s.may_contain((1ULL << 32) + k) ? 1 : 0);
      }
    }
  }
  return h;
}

TEST(BloomEquivalence, WireBytesAndFalsePositivesMatchPinnedDigest) {
  // Recorded with the all-positions probe (before early exit and hash
  // reuse); any drift in bit placement, encoding or verdicts changes it.
  EXPECT_EQ(bloom_wire_digest(), 0x10F3D111346F6483ULL);
}

TEST(KeySet, ExactIntersection) {
  KeySet a = KeySet::exact({1, 5, 9});
  KeySet b = KeySet::exact({2, 5, 8});
  KeySet c = KeySet::exact({3, 4});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  EXPECT_FALSE(c.intersects(a));
}

TEST(KeySet, EmptyNeverIntersects) {
  KeySet e = KeySet::exact({});
  KeySet a = KeySet::exact({1, 2, 3});
  EXPECT_FALSE(e.intersects(a));
  EXPECT_FALSE(a.intersects(e));
  EXPECT_TRUE(e.empty());
}

TEST(KeySet, BloomVsExactMixedIntersection) {
  KeySet bloom = KeySet::bloom({10, 20, 30});
  KeySet hit = KeySet::exact({20});
  KeySet miss = KeySet::exact({999'999});
  EXPECT_TRUE(bloom.intersects(hit));
  EXPECT_TRUE(hit.intersects(bloom));
  EXPECT_FALSE(bloom.intersects(miss)) << "unlucky false positive (extremely improbable)";
}

TEST(KeySet, BloomVsBloomSharedElement) {
  KeySet a = KeySet::bloom({7, 8, 9}, 0.01);
  KeySet b = KeySet::bloom({9, 100, 200}, 0.01);
  EXPECT_TRUE(a.intersects(b));
}

TEST(KeySet, EncodeDecodePreservesMode) {
  KeySet exact = KeySet::exact({4, 2, 4, 1});
  Writer w;
  exact.encode(w);
  Reader r(w.data());
  KeySet decoded = KeySet::decode(r);
  EXPECT_FALSE(decoded.is_bloom());
  EXPECT_EQ(decoded.keys(), (std::vector<std::uint64_t>{1, 2, 4}));

  KeySet bloom = KeySet::bloom({1, 2, 3});
  Writer w2;
  bloom.encode(w2);
  Reader r2(w2.data());
  KeySet decoded2 = KeySet::decode(r2);
  EXPECT_TRUE(decoded2.is_bloom());
  EXPECT_TRUE(decoded2.may_contain(2));
}

TEST(KeySet, BloomSmallerOnWireForLargeSets) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 500; ++k) keys.push_back(k);
  Writer we, wb;
  KeySet::exact(keys).encode(we);
  KeySet::bloom(keys, 0.01).encode(wb);
  EXPECT_LT(wb.size(), we.size()) << "bloom mode should reduce wire size (Section V)";
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 1.0);
  EXPECT_NEAR(static_cast<double>(h.percentile(50)), 50, 3);
  EXPECT_NEAR(static_cast<double>(h.percentile(99)), 99, 4);
}

TEST(Histogram, BoundedRelativeError) {
  Histogram h;
  const std::int64_t value = 123'456;
  h.record(value);
  const std::int64_t p = h.percentile(100);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value), 0.02 * value);
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) h.record(static_cast<std::int64_t>(rng.below(1'000'000)));
  auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  double prev = 0;
  for (const auto& [v, frac] : cdf) {
    EXPECT_GE(frac, prev);
    prev = frac;
  }
  EXPECT_NEAR(cdf.back().second, 1.0, 1e-9);
}

TEST(Histogram, MergeMatchesCombinedRecording) {
  Histogram a, b, all;
  for (int i = 0; i < 1000; ++i) {
    a.record(i);
    all.record(i);
  }
  for (int i = 5000; i < 6000; ++i) {
    b.record(i);
    all.record(i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.percentile(99), all.percentile(99));
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
}

TEST(Histogram, MergeAcrossSubBucketBits) {
  // Merging histograms with different sub-bucket resolution re-records the
  // source's bucket midpoints: counts are preserved exactly, the mean only
  // within the coarser histogram's relative-error bound.
  Histogram coarse(4);
  Histogram fine(8);
  for (int i = 0; i < 1000; ++i) coarse.record(100 + i);
  for (int i = 0; i < 500; ++i) fine.record(50'000 + 10 * i);
  const std::uint64_t total = coarse.count() + fine.count();
  const double expected_mean =
      (coarse.mean() * static_cast<double>(coarse.count()) +
       fine.mean() * static_cast<double>(fine.count())) /
      static_cast<double>(total);
  coarse.merge(fine);
  EXPECT_EQ(coarse.count(), total);
  // 4 sub-bucket bits => buckets are ~1/16 wide, midpoints within ~3%.
  EXPECT_NEAR(coarse.mean(), expected_mean, expected_mean * 0.04);
  EXPECT_GE(coarse.percentile(100), fine.percentile(100) * 95 / 100);

  // Merging an empty histogram is a no-op.
  const std::uint64_t before = coarse.count();
  const double mean_before = coarse.mean();
  Histogram empty(10);
  coarse.merge(empty);
  EXPECT_EQ(coarse.count(), before);
  EXPECT_DOUBLE_EQ(coarse.mean(), mean_before);

  // Merging into an empty histogram transfers everything.
  Histogram sink(6);
  Histogram src(9);
  for (int i = 1; i <= 100; ++i) src.record(i * 7);
  sink.merge(src);
  EXPECT_EQ(sink.count(), src.count());
  EXPECT_NEAR(sink.mean(), src.mean(), src.mean() * 0.04);
}

TEST(Histogram, EmptyHistogramQueries) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(h.cdf().empty());
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.percentile(99), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ZeroAndNegativeClamped) {
  Histogram h;
  h.record(0);
  h.record(-5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(100), 0);
}

TEST(Zipf, SkewsTowardLowRanks) {
  ZipfGenerator zipf(10'000, 0.99);
  Rng rng(1);
  std::uint64_t low = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 100) ++low;
  }
  // With theta=0.99 the first 100 of 10k ranks draw a large share.
  EXPECT_GT(static_cast<double>(low) / n, 0.3);
}

TEST(Zipf, UniformWhenThetaZero) {
  ZipfGenerator zipf(1000, 0.0);
  Rng rng(2);
  std::uint64_t low = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    if (zipf.sample(rng) < 100) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.1, 0.03);
}

TEST(Zipf, SamplesInRange) {
  ZipfGenerator zipf(50, 1.2);
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(zipf.sample(rng), 50u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5), b(5);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(FormatHelpers, Format) {
  EXPECT_EQ(format_ms(32'600), "32.6");
  EXPECT_EQ(format_k(6'300), "6.3K");
  EXPECT_EQ(format_k(42), "42");
}

}  // namespace
}  // namespace sdur::util
