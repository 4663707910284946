// Certification microbench: indexed conflict checks vs the legacy window
// scan.
//
// The certifier answers "does transaction t conflict with any version in
// (t.st, cc]?" once per delivered transaction. The legacy strategy scans
// every window slot; the indexed strategy (storage/cert_index.h) probes a
// per-key last-writer/last-reader table — O(|rs| + |ws|) regardless of
// window depth. This bench fills the window every server runs, a
// sdur::Certifier, and times both strategies through its public
// scan_conflict() / indexed_conflict() pair (both audit-free, so the
// numbers are meaningful even in SDUR_AUDIT builds, where process()
// re-runs the scan as a cross-check).
//
// Sweeps window depth x set size x readset encoding (exact / bloom) x
// local / global. Probe transactions use snapshot = window base - 1 (the
// worst case: the scan walks the entire window) and keys disjoint from
// the record keys (no early exit; index probes miss). Bloom rows keep the
// protocol's shape — record AND probe readsets bloom-encoded at the
// protocol's default false-positive rate (TechniqueConfig::bloom_fp_rate,
// the all-on preset's rate) — which forces the documented fallback: reads
// still scan, but global write-vs-reader checks walk only the bloom
// suffix. At a looser rate a false positive between two bloom readsets
// would end the "no early exit" scan a few dozen records in, and the rows
// would stop measuring window depth.
//
// Rows go to BENCH_cert_perf.json. `--smoke` (CTest: cert_perf_smoke)
// shrinks the sweep and cross-validates every probe's verdict between the
// two strategies before timing anything.
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <random>

#include "common.h"
#include "sdur/certifier.h"

namespace sdur::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Bloom readsets are encoded at the protocol's default rate.
const double kBloomFpRate = TechniqueConfig{}.bloom_fp_rate;

util::KeySet encode_readset(const std::vector<std::uint64_t>& keys, bool bloom) {
  return bloom ? util::KeySet::bloom(keys, kBloomFpRate) : util::KeySet::exact(keys);
}

std::vector<std::uint64_t> draw_keys(std::mt19937_64& rng, std::size_t n,
                                     std::uint64_t base, std::uint64_t space) {
  std::uniform_int_distribution<std::uint64_t> d(0, space - 1);
  std::vector<std::uint64_t> ks(n);
  for (auto& k : ks) k = base + d(rng);
  return ks;
}

/// A transaction with `set_size`-key read/write sets drawn from
/// [base, base + 2^20). Write keys stay exact (they always are in the
/// protocol); readsets are bloom-encoded when `bloom` is set, mirroring
/// server bloom_readsets. `global` adds a second partition, which turns on
/// the write-vs-reader check.
PartTx make_tx(TxId id, std::size_t set_size, bool bloom, bool global, std::uint64_t base,
               std::mt19937_64& rng) {
  constexpr std::uint64_t kSpace = 1u << 20;
  PartTx t;
  t.kind = PartTx::Kind::kTxn;
  t.id = id;
  t.involved = global ? std::vector<PartitionId>{0, 1} : std::vector<PartitionId>{0};
  t.readset = encode_readset(draw_keys(rng, set_size, base, kSpace), bloom);
  t.write_keys = util::KeySet::exact(draw_keys(rng, set_size, base, kSpace));
  return t;
}

/// Fills `c` with `depth` committed local slots. Each is certified at the
/// newest snapshot, so nothing it could conflict with exists yet, and is
/// resolved right away; a capacity of `depth` keeps every slot.
void fill_window(Certifier& c, std::size_t depth, std::size_t set_size, bool bloom,
                 std::mt19937_64& rng) {
  for (std::size_t i = 0; i < depth; ++i) {
    PartTx t = make_tx(i + 1, set_size, bloom, false, 0, rng);
    t.snapshot = c.certified();
    c.process(t, i + 1, i + 1);
    c.resolve(c.pop_head(), true);
  }
}

/// Probe sets live in a key range disjoint from the records, so the scan
/// pays full depth and index probes miss — the worst case for both.
std::vector<PartTx> make_probes(std::size_t n, std::size_t set_size, bool bloom, bool global,
                                std::mt19937_64& rng) {
  constexpr std::uint64_t kProbeBase = 1ull << 32;
  std::vector<PartTx> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_tx(0, set_size, bloom, global, kProbeBase, rng));
  }
  return out;
}

/// Runs `fn(probe)` over the probe set until `min_wall_sec` elapsed;
/// returns nanoseconds per call. `sink` defeats dead-code elimination.
template <typename Fn>
double time_probes(const std::vector<PartTx>& probes, double min_wall_sec, Fn&& fn) {
  std::uint64_t calls = 0;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (const PartTx& p : probes) sink += fn(p) ? 1 : 0;
    calls += probes.size();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_wall_sec);
  if (sink == ~0ull) std::printf("impossible\n");
  return elapsed * 1e9 / static_cast<double>(calls);
}

struct SweepPoint {
  std::size_t depth;
  std::size_t set_size;
  bool bloom;
  bool global;
};

int run_point(const SweepPoint& s, bool smoke) {
  std::mt19937_64 rng(0x5EED ^ (s.depth * 31 + s.set_size * 7 + (s.bloom ? 2 : 0) +
                                (s.global ? 1 : 0)));
  Certifier c(s.depth);
  fill_window(c, s.depth, s.set_size, s.bloom, rng);
  const Version newest = c.certified();
  const Version st = newest - static_cast<Version>(c.window_size());  // full-depth scans

  // Verdict cross-validation on probes that CAN conflict (shared key
  // space), plus the disjoint timing probes. Any divergence is a bug the
  // equivalence tests should have caught; fail loudly here too.
  std::mt19937_64 vrng(7);
  for (int i = 0; i < (smoke ? 400 : 50); ++i) {
    const PartTx p = make_tx(0, s.set_size, s.bloom, s.global, 0, vrng);
    std::uniform_int_distribution<Version> st_dist(st, newest);
    const Version vst = st_dist(vrng);
    const bool scan = c.scan_conflict(p, vst);
    const bool indexed = c.indexed_conflict(p, vst);
    if (scan != indexed) {
      std::fprintf(stderr,
                   "cert_perf: VERDICT MISMATCH depth=%zu set=%zu bloom=%d global=%d st=%" PRId64
                   " scan=%d indexed=%d\n",
                   s.depth, s.set_size, s.bloom, s.global, vst, scan, indexed);
      return 1;
    }
  }

  const auto probes = make_probes(smoke ? 64 : 256, s.set_size, s.bloom, s.global, rng);
  const double budget = smoke ? 0.01 : 0.12 * bench_scale() / 0.5;
  const double scan_ns =
      time_probes(probes, budget, [&](const PartTx& p) { return c.scan_conflict(p, st); });
  const double index_ns =
      time_probes(probes, budget, [&](const PartTx& p) { return c.indexed_conflict(p, st); });
  const double speedup = scan_ns / index_ns;

  std::printf("  depth=%6zu set=%2zu %-5s %-6s scan=%9.0f ns  index=%8.0f ns  speedup=%7.1fx\n",
              s.depth, s.set_size, s.bloom ? "bloom" : "exact", s.global ? "global" : "local",
              scan_ns, index_ns, speedup);
  if (auto* rep = report()) {
    rep->row()
        .num("depth", static_cast<double>(s.depth))
        .num("set_size", static_cast<double>(s.set_size))
        .str("mode", s.bloom ? "bloom" : "exact")
        .str("txn", s.global ? "global" : "local")
        .num("scan_ns", scan_ns)
        .num("index_ns", index_ns)
        .num("speedup", speedup);
  }
  return 0;
}

}  // namespace
}  // namespace sdur::bench

int main(int argc, char** argv) {
  using namespace sdur::bench;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  auto& rep = report_open("cert_perf");
  (void)rep;

  std::printf("\n==== Certification conflict check: window scan vs key index ====\n");
  const std::vector<std::size_t> depths =
      smoke ? std::vector<std::size_t>{64, 512}
            : std::vector<std::size_t>{64, 256, 1024, 4096, 16384};
  const std::vector<std::size_t> set_sizes =
      smoke ? std::vector<std::size_t>{8} : std::vector<std::size_t>{4, 16};
  int rc = 0;
  for (const bool bloom : {false, true}) {
    print_header(bloom ? "bloom readsets" : "exact readsets");
    for (const std::size_t depth : depths) {
      for (const std::size_t set_size : set_sizes) {
        for (const bool global : {false, true}) {
          rc |= run_point(SweepPoint{depth, set_size, bloom, global}, smoke);
        }
      }
    }
  }
  if (rc == 0) std::printf("\nall verdicts cross-validated (indexed == scan)\n");
  return rc;
}
