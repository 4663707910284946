// SDUR benchmark program: runs one named workload on the deterministic
// simulator, checks the run for correctness, and prints one JSON object
// with the end-to-end metrics (--mode e2e) or the per-layer metrics
// (--mode layers). perfbench/run.py builds this binary, runs it and turns
// its output into the benchmark's result line; README.md explains the
// workloads and metrics.
//
// The program uses the system only through its public API: Deployment,
// Workload::populate / make_session, Simulator::run_until, Server::stats(),
// engine().stats(), Network::stats(), trace::Tracer, trace::build_breakdown
// and audit::Auditor. It never changes anything under src/.
//
// Usage: sdur_bench --workload NAME --seed N --seconds S --mode e2e|layers
//
// --seconds sizes the measured window: each workload converts host seconds
// to simulated seconds with its own measured run cost (Spec::sim_per_host),
// so every workload's run takes about S host seconds. Simulated results are
// a pure function of (workload, seed, seconds).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "paxos/messages.h"
#include "sdur/certifier.h"
#include "sdur/messages.h"
#include "sdur/technique_config.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "workload/driver.h"
#include "workload/history.h"
#include "workload/microbench.h"
#include "workload/social.h"

namespace sdur::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::MicroConfig;
using workload::MicroWorkload;
using workload::Recorder;
using workload::SocialConfig;
using workload::SocialWorkload;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- Workloads -----------------------------------------------------------------

enum class Mix { kMicro, kSocial };

/// One benchmark workload. Client counts are fixed here, below each
/// deployment's saturation knee (see README.md for the knee and why).
struct Spec {
  const char* name;
  DeploymentSpec::Kind kind;
  Mix mix;
  const char* techniques;
  std::uint32_t clients;
  /// Closed-loop read-only clients added to the micro mixes, so the
  /// read-only class (and its metrics) exists on every workload.
  std::uint32_t ro_clients;
  double global_fraction;    // micro
  std::uint64_t items;       // micro: items per partition
  std::size_t ops;           // micro: items read and written per transaction
  std::size_t value_size;    // micro
  std::uint64_t users;       // social: users per partition
  /// Simulated seconds of measured window per host second of run time,
  /// measured on a 4-core x86 VM with the default (audit-on) build.
  double sim_per_host;
  /// Exponent by which this workload's host time follows the speed probe
  /// under memory contention (see SpeedProbe), measured on the same VM.
  double probe_sensitivity;
};

constexpr Spec kSpecs[] = {
    {"wan1_allon", DeploymentSpec::Kind::kWan1, Mix::kMicro, "all-on", 128, 4, 0.1, 100'000, 2,
     4, 0, 0.30, 1.0},
    {"lan_wide", DeploymentSpec::Kind::kLan, Mix::kMicro, "baseline", 32, 1, 0.3, 20'000, 8, 256,
     0, 0.90, 1.25},
    {"wan1_social", DeploymentSpec::Kind::kWan1, Mix::kSocial, "all-on", 96, 0, 0, 0, 0, 0,
     20'000, 0.90, 1.5},
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// Class names each workload records, grouped as the end-to-end metrics
/// group them.
bool is_local(const std::string& cls) {
  return cls == "local" || cls == "post" || cls == "follow";
}
bool is_global(const std::string& cls) { return cls == "global" || cls == "follow_global"; }
bool is_read_only(const std::string& cls) { return cls == "ro" || cls == "timeline"; }

/// Read-only probe for the micro mixes: a global read-only transaction
/// reading one item of the home partition and one of another partition
/// at a consistent snapshot (paper Section III-A).
class ReadOnlySession final : public workload::Session {
 public:
  ReadOnlySession(Client& client, util::Rng rng, Recorder& rec, const Spec& spec,
                  PartitionId home, PartitionId partitions, const bool& running)
      : client_(client),
        rng_(rng),
        rec_(rec),
        spec_(spec),
        home_(home),
        partitions_(partitions),
        running_(running) {}

  void start() override { next(); }

 private:
  void next() {
    if (!running_) return;
    const sim::Time begin = client_.now();
    client_.begin_read_only([this, begin] {
      PartitionId other = home_;
      if (partitions_ > 1) {
        other = static_cast<PartitionId>(rng_.below(partitions_ - 1));
        if (other >= home_) ++other;
      }
      const std::vector<Key> keys{home_ * spec_.items + rng_.below(spec_.items),
                                  other * spec_.items + rng_.below(spec_.items)};
      client_.read_many(keys, [this, begin](std::vector<std::optional<std::string>>) {
        client_.commit([this, begin](Outcome o) {
          const sim::Time now = client_.now();
          rec_.record("ro", o, now - begin, now);
          next();
        });
      });
    });
  }

  Client& client_;
  util::Rng rng_;
  Recorder& rec_;
  const Spec& spec_;
  PartitionId home_;
  PartitionId partitions_;
  const bool& running_;
};

// --- Machine-speed probe ----------------------------------------------------------

/// Scales host times for the speed of the machine's memory, which the other
/// tenants of a shared host slow down by 20-40% for minutes at a time (see
/// README.md, "Host times and the speed probe"). The probe is fixed memory
/// work that belongs to the benchmark, not to the program: scattered
/// read-modify-writes over a 32 MiB table and lookups with a string
/// overwrite in a 20k-node ordered map. It repeats the same keys and string
/// sizes, so after its first run it allocates nothing and the program's
/// heap does not affect it. A host time t with a probe time p next to it
/// becomes t * (kProbeRefMs / p) ^ sensitivity.
///
/// The sensitivity is measured per workload, not derived: it is the slope of
/// log(wall us per transaction) against log(probe ms) across runs of that
/// workload on a 4-core x86 VM (README.md lists the fits).
class SpeedProbe {
 public:
  static constexpr double kProbeRefMs = 10.0;

  explicit SpeedProbe(double sensitivity)
      : sensitivity_(sensitivity), table_(std::size_t{1} << 22) {
    run_ms();
  }

  /// Runs the probe once; returns its wall time in milliseconds.
  double run_ms() {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL, acc = 0;
    for (int i = 0; i < 200'000; ++i) {
      x = xorshift(x);
      std::uint64_t& slot = table_[x & (table_.size() - 1)];
      acc += slot;
      slot = x;
    }
    for (int i = 0; i < 20'000; ++i) {
      x = xorshift(x);
      nodes_[x % 200'000].assign(64 + x % 256, static_cast<char>('a' + acc % 26));
    }
    sink_ = acc;
    return seconds_since(t0) * 1e3;
  }

  /// `host` rescaled to the reference probe time, using a probe run now.
  double scale(double host) { return host * std::pow(kProbeRefMs / run_ms(), sensitivity_); }

 private:
  static std::uint64_t xorshift(std::uint64_t x) {
    x ^= x << 13;
    x ^= x >> 7;
    return x ^ (x << 17);
  }

  double sensitivity_;
  std::vector<std::uint64_t> table_;
  std::map<std::uint64_t, std::string> nodes_;
  volatile std::uint64_t sink_ = 0;
};

// --- One run -------------------------------------------------------------------

constexpr sim::Time kSettle = sim::msec(1000);  // leader election + staggered client starts
constexpr sim::Time kWarmup = sim::msec(500);
// Setup repetitions per run (setup_s is the median of their probe-scaled
// times): at least kMinSetups, then more while they have taken less than
// kSetupBudgetS host seconds, so that cheap setups get enough samples to be
// steady.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 15;
constexpr double kSetupBudgetS = 1.5;
constexpr int kSlices = 100;  // host-time samples over the measured window

/// Everything one run measured. Counter fields are deltas over the
/// measured window.
struct RunOut {
  std::map<std::string, Recorder::ClassStats> classes;
  double window_s = 0;
  std::vector<double> setup_s, populate_s;
  // Per slice: wall time per transaction, and the same scaled by the probe.
  std::vector<double> slice_wall_us_per_txn, slice_us_per_txn;
  double host_window_s = 0;  // probe-scaled
  std::uint64_t events = 0;
  sim::NetworkStats net;        // window delta of the per-type counters too
  Server::Stats srv;            // window delta, summed over servers
  std::uint64_t decided = 0, delivered_values = 0;
  double versions_per_key = 0;
  double p0_versions_per_s = 0;  // versions certified per second, partition 0
  std::vector<std::string> errors;
  std::string digest;
  // Traced runs only.
  trace::Breakdown breakdown;
  std::uint64_t index_probes = 0, scan_fallbacks = 0;
};

Server::Stats stats_delta(const Server::Stats& a, const Server::Stats& b) {
  // Field-wise b - a. Server::Stats is a plain aggregate of uint64 fields.
  constexpr std::size_t n = sizeof(Server::Stats) / sizeof(std::uint64_t);
  static_assert(sizeof(Server::Stats) == n * sizeof(std::uint64_t));
  std::uint64_t x[n], y[n];
  std::memcpy(x, &a, sizeof(x));
  std::memcpy(y, &b, sizeof(y));
  for (std::size_t i = 0; i < n; ++i) y[i] -= x[i];
  Server::Stats out;
  std::memcpy(&out, y, sizeof(out));
  return out;
}

sim::NetworkStats net_delta(const sim::NetworkStats& a, const sim::NetworkStats& b) {
  sim::NetworkStats d;
  d.messages_sent = b.messages_sent - a.messages_sent;
  d.messages_delivered = b.messages_delivered - a.messages_delivered;
  d.messages_dropped = b.messages_dropped - a.messages_dropped;
  d.bytes_sent = b.bytes_sent - a.bytes_sent;
  for (sim::MsgType t = 0; t < sim::PerTypeCounters::kBuckets; ++t) {
    d.per_type_count[t] = b.per_type_count.at(t) - a.per_type_count.at(t);
    d.per_type_bytes[t] = b.per_type_bytes.at(t) - a.per_type_bytes.at(t);
  }
  return d;
}

std::uint64_t recorded(const Recorder& rec) {
  std::uint64_t n = 0;
  for (const auto& [cls, st] : rec.classes()) n += st.committed + st.aborted + st.unknown;
  return n;
}

std::unique_ptr<workload::Workload> make_workload(const Spec& spec,
                                                  workload::SerializabilityChecker& checker,
                                                  const bool& running) {
  if (spec.mix == Mix::kSocial) {
    SocialConfig sc;
    sc.users_per_partition = spec.users;
    sc.keep_running = [&running] { return running; };
    return std::make_unique<SocialWorkload>(sc);
  }
  MicroConfig mc;
  mc.items_per_partition = spec.items;
  mc.global_fraction = spec.global_fraction;
  mc.ops_per_txn = spec.ops;
  mc.value_size = spec.value_size;
  mc.commit_hook = [&checker](TxId id, std::vector<std::pair<Key, TxId>> reads,
                              std::vector<Key> writes) {
    checker.add_committed(id, std::move(reads), std::move(writes));
  };
  mc.keep_running = [&running] { return running; };
  return std::make_unique<MicroWorkload>(mc);
}

DeploymentSpec make_deployment_spec(const Spec& spec, std::uint64_t seed) {
  DeploymentSpec ds;
  ds.kind = spec.kind;
  ds.partitions = 2;
  ds.partitioning = spec.mix == Mix::kSocial
                        ? SocialWorkload::make_partitioning(2)
                        : MicroWorkload::make_partitioning(2, spec.items);
  ds.server.techniques = *TechniqueConfig::preset(spec.techniques);
  ds.seed = seed;
  return ds;
}

/// Correctness gate, run after the system quiesced: nothing pending,
/// every replica of a partition holds identical version chains, the MVSG
/// of the micro mixes is acyclic, and the online audit stayed clean.
void check_run(const Spec& spec, Deployment& dep, workload::SerializabilityChecker& checker,
               std::vector<std::string>& errors) {
  for (Server* s : dep.servers()) {
    if (s->pending_count() != 0 || s->sc() != s->certified()) {
      errors.push_back(s->name() + ": " + std::to_string(s->pending_count()) +
                       " pending, stable " + std::to_string(s->sc()) + " < certified " +
                       std::to_string(s->certified()) + " after quiesce");
    }
  }
  const bool mvsg = spec.mix == Mix::kMicro;
  const auto window = static_cast<Version>(dep.server(0, 0).config().window_capacity);
  for (PartitionId p = 0; p < dep.partition_count(); ++p) {
    Server& ref = dep.server(p, 0);
    // The MVSG needs every key's full version order; the store drops
    // versions older than (stable - window) once a run certifies that many.
    if (mvsg && ref.sc() >= window) {
      errors.push_back("partition " + std::to_string(p) +
                       " passed the store GC horizon; MVSG input incomplete");
    }
    for (std::uint32_t r = 1; r < dep.replica_count(); ++r) {
      if (dep.server(p, r).store().key_count() != ref.store().key_count()) {
        errors.push_back("partition " + std::to_string(p) + " replica " + std::to_string(r) +
                         ": key count differs from replica 0");
      }
    }
    for (Key k : ref.store().keys()) {
      const storage::VersionChain* chain = ref.store().versions_of(k);
      if (mvsg) {
        std::vector<TxId> order;
        for (const auto& vv : *chain) {
          if (vv.version != 0) order.push_back(MicroWorkload::decode_writer(vv.value));
        }
        checker.set_key_order(k, std::move(order));
      }
      for (std::uint32_t r = 1; r < dep.replica_count(); ++r) {
        const storage::VersionChain* other = dep.server(p, r).store().versions_of(k);
        bool same = other != nullptr && other->size() == chain->size();
        for (std::size_t i = 0; same && i < chain->size(); ++i) {
          same = (*chain)[i].version == (*other)[i].version &&
                 (*chain)[i].value == (*other)[i].value;
        }
        if (!same) {
          errors.push_back("partition " + std::to_string(p) + " replica " + std::to_string(r) +
                           ": version chain of key " + std::to_string(k) + " diverges");
          return;
        }
      }
    }
  }
  if (mvsg) {
    std::string why;
    if (checker.committed_count() == 0) errors.push_back("no committed transaction recorded");
    if (!checker.check(&why)) errors.push_back("MVSG: " + why);
  }
#if SDUR_AUDIT_ON
  if (!audit::Auditor::instance().clean()) {
    errors.push_back("online audit: " +
                     std::to_string(audit::Auditor::instance().total_violations()) +
                     " violation(s)");
  }
#endif
}

/// Simulated results that must be bit-identical across tracing, audit
/// flavours and repeated runs of one seed.
std::string digest(const RunOut& r) {
  std::string d;
  char buf[256];
  for (const auto& [cls, st] : r.classes) {
    std::snprintf(buf, sizeof(buf), "%s:%llu/%llu/%llu/%.17g/%lld;", cls.c_str(),
                  static_cast<unsigned long long>(st.committed),
                  static_cast<unsigned long long>(st.aborted),
                  static_cast<unsigned long long>(st.unknown), st.latency.mean(),
                  static_cast<long long>(st.latency.percentile(99)));
    d += buf;
  }
  std::snprintf(buf, sizeof(buf), "ev=%llu msgs=%llu bytes=%llu deliv=%llu commit=%llu+%llu",
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.net.messages_sent),
                static_cast<unsigned long long>(r.net.bytes_sent),
                static_cast<unsigned long long>(r.srv.delivered),
                static_cast<unsigned long long>(r.srv.committed_local),
                static_cast<unsigned long long>(r.srv.committed_global));
  return d + buf;
}

RunOut run(const Spec& spec, std::uint64_t seed, sim::Time measure, bool traced,
           SpeedProbe& probe) {
  RunOut out;
  bool running = true;
  workload::SerializabilityChecker checker;
  auto wl = make_workload(spec, checker, running);
  const DeploymentSpec ds = make_deployment_spec(spec, seed);

  // The last deployment set up is the one that runs. Each setup replays the
  // same seed, so every deployment is identical.
  std::unique_ptr<Deployment> dep;
  util::Rng rng(seed);
  auto& tracer = trace::Tracer::instance();
  double setup_total = 0;
  while (out.setup_s.size() < kMinSetups ||
         (out.setup_s.size() < kMaxSetups && setup_total < kSetupBudgetS)) {
    dep.reset();
    if (traced) {
      // Armed before the deployment is built: servers, clients and Paxos
      // engines register their tracks in their constructors. The reset
      // drops the tracks of the deployments set up before.
      tracer.reset();
      tracer.set_ring_capacity(std::size_t{1} << 21);
      tracer.set_enabled(true);
    }
    rng = util::Rng(seed);
    const auto t0 = Clock::now();
    dep = std::make_unique<Deployment>(ds);
    const auto t1 = Clock::now();
    wl->populate(*dep, rng);
    const auto t2 = Clock::now();
    dep->start();
    const double setup = seconds_since(t0);
    setup_total += setup;
    out.setup_s.push_back(probe.scale(setup));
    out.populate_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  }

  auto rec = std::make_shared<Recorder>();
  dep->retain(rec);
  const PartitionId parts = dep->partition_count();
  const sim::Time t0 = dep->simulator().now();
  const sim::Time begin = t0 + kSettle + kWarmup;
  const sim::Time end = begin + measure;
  rec->set_window(begin, end);
  const std::uint32_t total = spec.clients + spec.ro_clients;
  for (std::uint32_t i = 0; i < total; ++i) {
    const bool ro = i >= spec.clients;
    const PartitionId home = wl->client_home(i, parts);
    Client& c = dep->add_client(home);
    std::shared_ptr<workload::Session> session =
        ro ? std::make_shared<ReadOnlySession>(c, rng.fork(), *rec, spec, home, parts, running)
           : std::shared_ptr<workload::Session>(wl->make_session(c, home, parts, rng.fork(), *rec));
    dep->simulator().schedule_at(t0 + kSettle * (i + 1) / (total + 1),
                                 [session] { session->start(); });
    dep->retain(std::move(session));
  }

  dep->run_until(begin);
  const std::uint64_t ev0 = dep->simulator().events_processed();
  const sim::NetworkStats net0 = dep->network().stats();
  const Server::Stats srv0 = dep->total_stats();
  std::uint64_t dec0 = 0, val0 = 0;
  for (Server* s : dep->servers()) {
    dec0 += s->engine().stats().decided_instances;
    val0 += s->engine().stats().delivered_values;
  }
  const Version cert0 = dep->server(0, 0).certified();
  std::uint64_t done = recorded(*rec);
  for (int s = 1; s <= kSlices; ++s) {
    const auto h0 = Clock::now();
    dep->run_until(begin + measure * s / kSlices);
    const double wall = seconds_since(h0);
    const double host = probe.scale(wall);
    const auto txns = static_cast<double>(recorded(*rec) - done);
    out.host_window_s += host;
    out.slice_wall_us_per_txn.push_back(ratio(wall * 1e6, txns));
    out.slice_us_per_txn.push_back(ratio(host * 1e6, txns));
    done = recorded(*rec);
  }
  out.window_s = static_cast<double>(measure) / 1e6;
  out.events = dep->simulator().events_processed() - ev0;
  out.net = net_delta(net0, dep->network().stats());
  out.srv = stats_delta(srv0, dep->total_stats());
  for (Server* s : dep->servers()) {
    out.decided += s->engine().stats().decided_instances;
    out.delivered_values += s->engine().stats().delivered_values;
  }
  out.decided -= dec0;
  out.delivered_values -= val0;
  out.p0_versions_per_s =
      static_cast<double>(dep->server(0, 0).certified() - cert0) / out.window_s;
  std::size_t keys = 0, versions = 0;
  for (Server* s : dep->servers()) {
    keys += s->store().key_count();
    versions += s->store().version_count();
  }
  out.versions_per_key = ratio(static_cast<double>(versions), static_cast<double>(keys));
  out.classes = rec->classes();

  if (traced) {
    tracer.set_enabled(false);
    out.breakdown = trace::build_breakdown(tracer);
    for (const trace::Record& r : tracer.records()) {
      if (r.point == trace::Point::kCertIndexProbe) ++out.index_probes;
      if (r.point == trace::Point::kCertScanFallback) ++out.scan_fallbacks;
    }
    tracer.reset();
  }

  // Quiesce: sessions start nothing new; drain everything in flight.
  running = false;
  const sim::Time deadline = dep->simulator().now() + sim::sec(60);
  auto busy = [&] {
    for (Server* s : dep->servers()) {
      if (s->pending_count() != 0 || s->sc() != s->certified()) return true;
    }
    return false;
  };
  dep->run_until(dep->simulator().now() + sim::sec(2));
  while (busy() && dep->simulator().now() < deadline) {
    dep->run_until(dep->simulator().now() + sim::msec(500));
  }
  check_run(spec, *dep, checker, out.errors);
  out.digest = digest(out);
  return out;
}

// --- Isolated layer timings ------------------------------------------------------

/// Fabric-only broadcast storm on bare sim::Process actors: one hub fans a
/// payload out to every spoke each simulated 100 us.
class Spoke : public sim::Process {
 public:
  Spoke(sim::Network& net, sim::ProcessId id, sim::Location loc)
      : Process(net, id, "spoke", loc) {}

 protected:
  void on_message(const sim::Message&, sim::ProcessId) override {}
};

class Hub : public sim::Process {
 public:
  Hub(sim::Network& net, std::vector<sim::ProcessId> peers, std::size_t payload,
      sim::Time horizon)
      : Process(net, 1, "hub", sim::Location{sim::kEU, 0}),
        peers_(std::move(peers)),
        payload_(payload),
        horizon_(horizon) {}

  void tick() {
    util::Writer w(payload_);
    for (std::size_t i = 0; i < payload_; ++i) w.u8(static_cast<std::uint8_t>(i ^ ticks_));
    const sim::Message m{60, std::move(w)};
    for (sim::ProcessId p : peers_) send(p, m);
    ++ticks_;
    if (now() < horizon_) set_timer(sim::usec(100), [this] { tick(); });
  }

 protected:
  void on_message(const sim::Message&, sim::ProcessId) override {}

 private:
  std::vector<sim::ProcessId> peers_;
  std::size_t payload_;
  sim::Time horizon_;
  std::size_t ticks_ = 0;
};

double storm_ns_per_event(std::size_t payload) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Simulator sim;
    sim::Topology topo = sim::Topology::ec2_three_regions();
    topo.set_jitter(0.05);
    sim::Network net(sim, topo, 11);
    std::vector<std::unique_ptr<Spoke>> spokes;
    std::vector<sim::ProcessId> ids;
    for (std::uint32_t i = 0; i < 16; ++i) {
      spokes.push_back(std::make_unique<Spoke>(
          net, 2 + i, sim::Location{sim::kEU, static_cast<std::uint16_t>(i % 3)}));
      ids.push_back(2 + i);
    }
    Hub hub(net, ids, payload, sim::sec(1));
    const auto t0 = Clock::now();
    hub.tick();
    sim.run();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(sim.events_processed()));
  }
  return median(samples);
}

/// Draws `n` distinct keys of partition 0 (the workload's key stream).
std::vector<Key> draw_keys(util::Rng& rng, std::uint64_t keyspace, std::size_t n) {
  std::vector<Key> keys;
  while (keys.size() < n) {
    const Key k = rng.below(keyspace);
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
  }
  return keys;
}

std::uint64_t keyspace(const Spec& spec) {
  return spec.mix == Mix::kSocial ? spec.users * 3 : spec.items;
}
std::size_t keys_per_txn(const Spec& spec) { return spec.mix == Mix::kSocial ? 2 : spec.ops; }
std::size_t value_bytes(const Spec& spec) { return spec.mix == Mix::kSocial ? 64 : spec.value_size; }

struct StoreTimes {
  double get_ns = 0, put_ns = 0;
};

/// MVStore get and put on one partition's keyspace: puts install the
/// workload's writesets at ascending versions, gets read them back at a
/// snapshot `lag` versions behind the newest.
StoreTimes mvstore_times(const Spec& spec, std::uint64_t seed, Version lag) {
  util::Rng rng(seed ^ 0x5EED);
  const std::uint64_t space = keyspace(spec);
  const std::string value(value_bytes(spec), 'v');
  storage::MVStore store;
  for (Key k = 0; k < space; ++k) store.load(k, value);
  constexpr int kBatches = 7;
  constexpr int kTxns = 4000;
  std::vector<double> put, get;
  Version v = 0;
  std::size_t found = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<std::vector<Key>> txns;
    for (int i = 0; i < kTxns; ++i) txns.push_back(draw_keys(rng, space, keys_per_txn(spec)));
    const std::size_t ops = static_cast<std::size_t>(kTxns) * keys_per_txn(spec);
    auto t0 = Clock::now();
    for (const auto& keys : txns) {
      ++v;
      for (Key k : keys) store.put(k, value, v);
    }
    put.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
    t0 = Clock::now();
    for (const auto& keys : txns) {
      for (Key k : keys) found += store.get(k, std::max<Version>(0, v - lag)) ? 1 : 0;
    }
    get.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  if (found == 0) std::fprintf(stderr, "mvstore: no reads served\n");
  return {median(get), median(put)};
}

/// Certifier::process on local transactions shaped like the workload's
/// writesets, with snapshots `lag` versions behind the newest and at most
/// `depth` entries pending (the window depth the run saw).
double certify_ns(const Spec& spec, std::uint64_t seed, Version lag, std::size_t depth,
                  bool bloom) {
  util::Rng rng(seed ^ 0xCE47);
  const double fp = TechniqueConfig::preset(spec.techniques)->bloom_fp_rate;
  Certifier cert(ServerConfigData{}.window_capacity);
  constexpr int kWarm = 20'000;
  constexpr int kBatches = 7;
  constexpr int kTxns = 3000;
  std::vector<double> samples;
  for (int i = 0, b = -1; b < kBatches; ++b) {
    const int n = b < 0 ? kWarm : kTxns;
    double ns = 0;
    for (int j = 0; j < n; ++j, ++i) {
      std::vector<Key> keys = draw_keys(rng, keyspace(spec), keys_per_txn(spec));
      PartTx t;
      t.id = static_cast<TxId>(i + 1);
      t.involved = {0};
      t.snapshot = std::max<Version>(0, cert.certified() - lag);
      t.readset = bloom ? util::KeySet::bloom(keys, fp) : util::KeySet::exact(keys);
      t.write_keys = util::KeySet::exact(std::move(keys));
      const auto t0 = Clock::now();
      cert.process(t, 0, static_cast<std::uint64_t>(i));
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      while (cert.size() > depth) {
        const PendingEntry e = cert.pop_head();
        cert.resolve(e, true);
      }
    }
    if (b >= 0) samples.push_back(ns / n);
  }
  return median(samples);
}

// --- Metric assembly -------------------------------------------------------------

/// Percentile (0-100) of a latency histogram in ms, interpolated linearly
/// between bucket midpoints so that it moves continuously with the sample.
double percentile_ms(const util::Histogram& h, double p) {
  const auto cdf = h.cdf();
  if (cdf.empty()) return 0;
  const double q = p / 100.0;
  double prev_v = static_cast<double>(cdf[0].first), prev_f = 0;
  for (const auto& [v, f] : cdf) {
    if (f >= q) {
      const double span = f - prev_f;
      const double a = span > 0 ? (q - prev_f) / span : 1.0;
      return (prev_v + a * (static_cast<double>(v) - prev_v)) / 1000.0;
    }
    prev_v = static_cast<double>(v);
    prev_f = f;
  }
  return static_cast<double>(cdf.back().first) / 1000.0;
}

struct Json {
  std::string body;
  void num(const std::string& k, double v, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", k.c_str(), std::isfinite(v) ? v : 0.0, unit);
    body += buf;
  }
};

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

struct Totals {
  std::uint64_t attempted = 0, failed = 0, committed = 0, global_done = 0;
};

Totals totals(const RunOut& r) {
  Totals t;
  for (const auto& [cls, st] : r.classes) {
    t.attempted += st.committed + st.aborted + st.unknown;
    t.failed += st.aborted + st.unknown;
    t.committed += st.committed;
    if (is_global(cls)) t.global_done += st.committed + st.aborted + st.unknown;
  }
  return t;
}

/// Latency histograms of the end-to-end transaction groups.
struct Latencies {
  util::Histogram local, global, ro;
};

Latencies latencies(const RunOut& r) {
  Latencies l;
  for (const auto& [cls, st] : r.classes) {
    if (is_local(cls)) l.local.merge(st.latency);
    if (is_global(cls)) l.global.merge(st.latency);
    if (is_read_only(cls)) l.ro.merge(st.latency);
  }
  return l;
}

std::string e2e_metrics(const RunOut& r) {
  const Latencies l = latencies(r);
  const Totals t = totals(r);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json j;
  j.num("tput_tps", static_cast<double>(t.committed) / r.window_s, "1/s");
  j.num("local_p50_ms", percentile_ms(l.local, 50), "ms");
  j.num("local_p99_ms", percentile_ms(l.local, 99), "ms");
  j.num("global_p50_ms", percentile_ms(l.global, 50), "ms");
  j.num("global_p99_ms", percentile_ms(l.global, 99), "ms");
  j.num("ro_p50_ms", percentile_ms(l.ro, 50), "ms");
  j.num("ro_p99_ms", percentile_ms(l.ro, 99), "ms");
  j.num("host_us_per_txn", median(r.slice_us_per_txn), "us");
  j.num("setup_s", median(r.setup_s), "s");
  j.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  return j.body;
}

/// Per-layer metrics of a traced run. Its simulated results equal the
/// untraced run's (run.py checks the digests), so counters come from it
/// too; the host-time layer metrics need the untraced run and are added by
/// run.py (sim.host_ns_per_event, trace.overhead_pct, audit.host_share).
std::string layer_metrics(const Spec& spec, std::uint64_t seed, const RunOut& u) {
  const Totals t = totals(u);
  const double txns = static_cast<double>(t.attempted);
  const Server::Stats& s = u.srv;
  const trace::Breakdown& b = u.breakdown;
  auto stage_ms = [](const trace::Breakdown::Class& c, std::size_t stage) {
    return c.stage[stage].mean() / 1000.0;
  };
  auto both_ms = [&](std::size_t stage) {
    util::Histogram h;
    h.merge(b.local.stage[stage]);
    h.merge(b.global.stage[stage]);
    return h.mean() / 1000.0;
  };
  // Stage indices, in trace::Breakdown order.
  constexpr std::size_t kSubmitNet = 0, kOrdering = 1, kCertQueue = 2, kExecution = 3,
                        kCommitWait = 5, kSpecWindow = 6, kReplyNet = 7;
  std::uint64_t paxos_msgs = 0, paxos_bytes = 0;
  for (sim::MsgType ty = paxos::msgtype::kFirst; ty <= paxos::msgtype::kLast; ++ty) {
    paxos_msgs += u.net.per_type_count.at(ty);
    paxos_bytes += u.net.per_type_bytes.at(ty);
  }
  const double vote_msgs = static_cast<double>(u.net.per_type_count.at(msgtype::kVote) +
                                               u.net.per_type_count.at(msgtype::kVoteRequest) +
                                               u.net.per_type_count.at(msgtype::kVoteBatch));
  // Vote deliveries: single votes are counted per message; a batch flush
  // counts each vote once but reaches every replica of the partition; a
  // piggyback is per destination replica already.
  const double votes_total = static_cast<double>(
      u.net.per_type_count.at(msgtype::kVote) +
      s.votes_batched * DeploymentSpec{}.replicas + s.votes_piggybacked);
  const double msg_bytes = ratio(static_cast<double>(u.net.bytes_sent),
                                 static_cast<double>(u.net.messages_sent));

  // Isolated timings, shaped like this run: snapshot lag = versions the
  // partition certifies during one local transaction; pending depth =
  // versions certified during one global transaction.
  const Latencies lat = latencies(u);
  const auto lag =
      static_cast<Version>(std::max(1.0, u.p0_versions_per_s * lat.local.mean() / 1e6));
  const auto depth =
      static_cast<std::size_t>(std::max(1.0, u.p0_versions_per_s * lat.global.mean() / 1e6));
  const StoreTimes st = mvstore_times(spec, seed, lag);

  Json j;
  j.num("sim.events_per_txn", ratio(static_cast<double>(u.events), txns), "count");
  j.num("sim.msgs_per_txn", ratio(static_cast<double>(u.net.messages_sent), txns), "count");
  j.num("sim.bytes_per_txn", ratio(static_cast<double>(u.net.bytes_sent), txns), "B");
  j.num("sim.storm_ns_per_event", storm_ns_per_event(static_cast<std::size_t>(msg_bytes)), "ns");
  j.num("sim.submit_net_ms", both_ms(kSubmitNet), "ms");
  j.num("sim.reply_net_ms", both_ms(kReplyNet), "ms");
  j.num("paxos.ordering_ms.local", stage_ms(b.local, kOrdering), "ms");
  j.num("paxos.ordering_ms.global", stage_ms(b.global, kOrdering), "ms");
  j.num("paxos.values_per_instance",
        ratio(static_cast<double>(u.delivered_values), static_cast<double>(u.decided)), "count");
  j.num("paxos.msgs_per_txn", ratio(static_cast<double>(paxos_msgs), txns), "count");
  j.num("paxos.bytes_per_txn", ratio(static_cast<double>(paxos_bytes), txns), "B");
  j.num("storage.index_probe_share",
        ratio(static_cast<double>(u.index_probes),
              static_cast<double>(u.index_probes + u.scan_fallbacks)),
        "ratio");
  j.num("storage.mvstore_get_ns", st.get_ns, "ns");
  j.num("storage.mvstore_put_ns", st.put_ns, "ns");
  j.num("storage.versions_per_key", u.versions_per_key, "count");
  j.num("sdur.cert_queue_ms.local", stage_ms(b.local, kCertQueue), "ms");
  j.num("sdur.cert_queue_ms.global", stage_ms(b.global, kCertQueue), "ms");
  j.num("sdur.execution_ms.local", stage_ms(b.local, kExecution), "ms");
  j.num("sdur.execution_ms.global", stage_ms(b.global, kExecution), "ms");
  j.num("sdur.commit_wait_ms.local", stage_ms(b.local, kCommitWait), "ms");
  j.num("sdur.commit_wait_ms.global", stage_ms(b.global, kCommitWait), "ms");
  j.num("sdur.spec_window_ms.global", stage_ms(b.global, kSpecWindow), "ms");
  j.num("sdur.certify_ns.exact", certify_ns(spec, seed, lag, depth, false), "ns");
  j.num("sdur.certify_ns.bloom", certify_ns(spec, seed, lag, depth, true), "ns");
  j.num("sdur.commit_ratio",
        ratio(static_cast<double>(s.committed_local + s.committed_global),
              static_cast<double>(s.delivered)),
        "ratio");
  j.num("sdur.stale_snapshot_abort_share",
        ratio(static_cast<double>(s.stale_snapshot_aborts), static_cast<double>(s.aborted)),
        "ratio");
  j.num("sdur.spec_commit_ratio",
        ratio(static_cast<double>(s.spec_commits), static_cast<double>(s.speculated_globals)),
        "ratio");
  j.num("sdur.bypass_share",
        ratio(static_cast<double>(s.bypassed_locals), static_cast<double>(s.committed_local)),
        "ratio");
  j.num("sdur.parked_share",
        ratio(static_cast<double>(s.parked_locals), static_cast<double>(s.committed_local)),
        "ratio");
  j.num("sdur.vote_msgs_per_global", ratio(vote_msgs, static_cast<double>(t.global_done)),
        "count");
  j.num("sdur.stale_vote_share", ratio(static_cast<double>(s.stale_votes_dropped), votes_total),
        "ratio");
  j.num("sdur.reads_routed_share",
        ratio(static_cast<double>(s.reads_routed), static_cast<double>(s.reads_served)), "ratio");
  j.num("sdur.reads_deferred_share",
        ratio(static_cast<double>(s.reads_deferred), static_cast<double>(s.reads_served)),
        "ratio");
  const double chains = static_cast<double>(b.local.chains + b.global.chains + b.aborted_chains);
  j.num("trace.incomplete_chain_share",
        ratio(static_cast<double>(b.incomplete_chains),
              chains + static_cast<double>(b.incomplete_chains)),
        "ratio");
  j.num("workload.populate_s", median(u.populate_s), "s");
  return j.body;
}

void print_result(const std::string& workload, const std::string& mode, const RunOut& r,
                  const std::string& metrics) {
  const Totals t = totals(r);
  std::string errs;
  for (const std::string& e : r.errors) errs += (errs.empty() ? "" : ", ") + quote(e);
  std::printf(
      "{\"workload\": %s, \"mode\": %s, \"audit\": %s, \"correct\": %s, \"errors\": [%s], "
      "\"attempted\": %llu, \"failed\": %llu, \"host_us_per_txn\": %.9g, "
      "\"wall_us_per_txn\": %.9g, \"host_ns_per_event\": %.9g, "
      "\"digest\": %s, \"metrics\": {%s}}\n",
      quote(workload).c_str(), quote(mode).c_str(), SDUR_AUDIT_ON ? "true" : "false",
      r.errors.empty() ? "true" : "false", errs.c_str(),
      static_cast<unsigned long long>(t.attempted), static_cast<unsigned long long>(t.failed),
      median(r.slice_us_per_txn), median(r.slice_wall_us_per_txn),
      ratio(r.host_window_s * 1e9, static_cast<double>(r.events)), quote(r.digest).c_str(),
      metrics.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: sdur_bench --workload NAME --seed N --seconds S --mode e2e|layers\n"
               "workloads:");
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string name, mode = "e2e";
  std::uint64_t seed = 1;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      name = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(val);
    } else if (flag == "--mode") {
      mode = val;
    } else {
      return usage();
    }
  }
  const Spec* spec = find_spec(name);
  if (spec == nullptr || seconds <= 0 || (mode != "e2e" && mode != "layers")) return usage();
#if !SDUR_TRACE
  if (mode == "layers") {
    std::fprintf(stderr, "sdur_bench: layers mode needs a build with SDUR_TRACE on\n");
    return 2;
  }
#endif

  const auto measure = std::max<sim::Time>(
      sim::msec(500), sim::msec(static_cast<std::int64_t>(seconds * spec->sim_per_host * 10) * 100));
  const bool traced = mode == "layers";
  SpeedProbe probe(spec->probe_sensitivity);
  const RunOut r = run(*spec, seed, measure, traced, probe);
  print_result(name, mode, r, traced ? layer_metrics(*spec, seed, r) : e2e_metrics(r));
  return 0;
}

}  // namespace
}  // namespace sdur::perfbench

int main(int argc, char** argv) { return sdur::perfbench::main_impl(argc, argv); }
