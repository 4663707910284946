// P-DUR multi-core replica tests (src/pdur/, arXiv:1312.0742):
//
//  - the intra-replica sub-partitioner;
//  - the multi-core sim::Process cost model (per-core serial queues,
//    cross-core barrier);
//  - end-to-end: a multi-core deployment stays deterministic across
//    repeat runs, keeps replicas byte-identical, and the online audit
//    stays clean. P-DUR runs the one serial certifier at every core count
//    (it changes where time is spent, never what is decided), so there is
//    no per-core certification path to compare.
#include <gtest/gtest.h>

#include <algorithm>

#include "audit/audit.h"
#include "audit/auditor.h"
#include "pdur/core_partitioner.h"
#include "sdur/deployment.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/bloom.h"
#include "workload/driver.h"
#include "workload/microbench.h"

namespace sdur {
namespace {

// --- CorePartitioner ----------------------------------------------------------

TEST(CorePartitioner, EveryKeyHasExactlyOneHomeCore) {
  pdur::CorePartitioner part(4);
  for (Key k = 0; k < 1000; ++k) {
    const pdur::CoreId c = part.core_of(k);
    EXPECT_LT(c, 4u);
    EXPECT_EQ(c, part.core_of(k));  // stable
  }
}

TEST(CorePartitioner, SpreadIsRoughlyUniform) {
  pdur::CorePartitioner part(8);
  std::vector<std::size_t> counts(8, 0);
  for (Key k = 0; k < 80'000; ++k) ++counts[part.core_of(k)];
  for (std::size_t c : counts) {
    EXPECT_GT(c, 80'000 / 8 / 2);  // no core owns less than half its share
  }
}

TEST(CorePartitioner, HomeCoresUnionOfExactKeys) {
  pdur::CorePartitioner part(4);
  const Key a = 1, b = 2;
  const auto rs = util::KeySet::exact({a});
  const auto ws = util::KeySet::exact({b});
  const auto cores = part.home_cores(rs, ws);
  std::vector<pdur::CoreId> expected{part.core_of(a), part.core_of(b)};
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
  EXPECT_EQ(cores, expected);
}

TEST(CorePartitioner, BloomReadsetHomesOnAllCores) {
  pdur::CorePartitioner part(4);
  const auto rs = util::KeySet::bloom({1, 2, 3}, 1e-4);
  const auto ws = util::KeySet::exact({7});
  EXPECT_EQ(part.home_cores(rs, ws).size(), 4u);
}

TEST(CorePartitioner, EmptySetsHomeOnCoreZero) {
  pdur::CorePartitioner part(4);
  const auto cores = part.home_cores(util::KeySet::exact({}), util::KeySet::exact({}));
  EXPECT_EQ(cores, std::vector<pdur::CoreId>{0});
}

// --- Multi-core process cost model --------------------------------------------

class CoreProbe : public sim::Process {
 public:
  CoreProbe(sim::Network& net, std::uint32_t cores)
      : sim::Process(net, 1, "probe", {sim::kEU, 0}) {
    set_core_count(cores);
  }
  using sim::Process::enqueue_work_multi;
  using sim::Process::enqueue_work_on;

 protected:
  void on_message(const sim::Message&, sim::ProcessId) override {}
};

struct ProcFixture {
  sim::Simulator sim;
  sim::Topology topo = sim::Topology::ec2_three_regions();
  std::unique_ptr<sim::Network> net;
  ProcFixture() {
    topo.set_jitter(0);
    net = std::make_unique<sim::Network>(sim, topo, 1);
  }
};

TEST(MultiCoreProcess, DistinctCoresRunConcurrently) {
  ProcFixture f;
  CoreProbe p(*f.net, 2);
  sim::Time done0 = 0, done1 = 0;
  p.enqueue_work_on(0, sim::usec(100), [&] { done0 = f.sim.now(); });
  p.enqueue_work_on(1, sim::usec(100), [&] { done1 = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done0, sim::usec(100));
  EXPECT_EQ(done1, sim::usec(100));  // in parallel, not 200us
}

TEST(MultiCoreProcess, SameCoreSerializes) {
  ProcFixture f;
  CoreProbe p(*f.net, 2);
  sim::Time first = 0, second = 0;
  p.enqueue_work_on(0, sim::usec(100), [&] { first = f.sim.now(); });
  p.enqueue_work_on(0, sim::usec(100), [&] { second = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(first, sim::usec(100));
  EXPECT_EQ(second, sim::usec(200));
}

TEST(MultiCoreProcess, CrossCoreBarrierWaitsForBusiestCore) {
  ProcFixture f;
  CoreProbe p(*f.net, 2);
  sim::Time done = 0;
  p.enqueue_work_on(0, sim::usec(100), [] {});
  // The barrier starts when every involved core is free (core 0 at 100us)
  // and occupies them all for the work's duration.
  p.enqueue_work_multi({0, 1}, sim::usec(50), [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, sim::usec(150));
  EXPECT_EQ(p.core_free_at(0), sim::usec(150));
  EXPECT_EQ(p.core_free_at(1), sim::usec(150));
}

TEST(MultiCoreProcess, SingleCoreLegacyPathUnchanged) {
  ProcFixture f;
  CoreProbe p(*f.net, 1);
  sim::Time done = 0;
  p.enqueue_work(sim::usec(42), [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, sim::usec(42));
  EXPECT_EQ(p.core_count(), 1u);
}

// --- End-to-end multi-core deployment -----------------------------------------

workload::RunResult run_pdur_deployment(std::uint32_t cores, double cross_fraction,
                                        std::uint64_t seed) {
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kLan;
  spec.partitions = 1;
  const std::uint64_t items = 2'000;
  spec.partitioning = workload::MicroWorkload::make_partitioning(1, items);
  spec.server.pdur.cores = cores;
  spec.seed = seed;
  Deployment dep(spec);

  workload::RunConfig cfg;
  cfg.clients = 24;
  cfg.seed = seed;
  cfg.settle = sim::msec(800);
  cfg.warmup = sim::msec(300);
  cfg.measure = sim::sec(2);
  const sim::Time stop_at = cfg.settle + cfg.warmup + cfg.measure;

  workload::MicroConfig mc;
  mc.items_per_partition = items;
  mc.global_fraction = 0.0;
  mc.cores = cores;
  mc.cross_core_fraction = cross_fraction;
  mc.keep_running = [&dep, stop_at] { return dep.simulator().now() < stop_at; };
  workload::MicroWorkload wl(mc);

  const workload::RunResult r = run_experiment(dep, wl, cfg);

  // Quiesce and check the partition's replicas converged byte-identically.
  dep.run_until(dep.simulator().now() + sim::sec(10));
  for (Server* s : dep.servers()) {
    EXPECT_EQ(s->pending_count(), 0u) << s->name();
  }
  Server& ref = dep.server(0, 0);
  for (Key k : ref.store().keys()) {
    const auto* versions = ref.store().versions_of(k);
    for (std::uint32_t rep = 1; rep < dep.replica_count(); ++rep) {
      const auto* other = dep.server(0, rep).store().versions_of(k);
      if (versions == nullptr || other == nullptr || versions->size() != other->size()) {
        ADD_FAILURE() << "replica " << rep << " diverged on key " << k;
        continue;
      }
      for (std::size_t i = 0; i < versions->size(); ++i) {
        EXPECT_EQ((*versions)[i].version, (*other)[i].version) << "key " << k;
      }
    }
  }
#if SDUR_AUDIT_ON
  EXPECT_TRUE(audit::Auditor::instance().clean()) << audit::Auditor::instance().summary();
#endif
  return r;
}

TEST(PdurDeployment, MultiCoreReplicaCommitsAndStaysClean) {
  const auto r = run_pdur_deployment(4, 0.3, 21);
  const std::uint64_t committed = r.servers.committed_local + r.servers.committed_global;
  EXPECT_GT(committed, 200u) << "workload barely ran";
  EXPECT_GT(r.servers.pdur_single_core, 0u);
  EXPECT_GT(r.servers.pdur_cross_core, 0u);  // cross_fraction = 0.3 must show up
}

TEST(PdurDeployment, RepeatRunsAreBitIdentical) {
  const auto a = run_pdur_deployment(4, 0.2, 33);
  const auto b = run_pdur_deployment(4, 0.2, 33);
  EXPECT_EQ(a.servers.delivered, b.servers.delivered);
  EXPECT_EQ(a.servers.committed_local, b.servers.committed_local);
  EXPECT_EQ(a.servers.committed_global, b.servers.committed_global);
  EXPECT_EQ(a.servers.aborted, b.servers.aborted);
  EXPECT_EQ(a.servers.pdur_single_core, b.servers.pdur_single_core);
  EXPECT_EQ(a.servers.pdur_cross_core, b.servers.pdur_cross_core);
  EXPECT_EQ(a.servers.reads_served, b.servers.reads_served);
}

TEST(PdurDeployment, SingleCoreConfigMatchesLegacyModel) {
  // cores = 1 must take the exact legacy path: the parallel machinery is
  // never constructed and per-delivery costs match the serial replica.
  DeploymentSpec spec;
  spec.kind = DeploymentSpec::Kind::kLan;
  spec.partitions = 1;
  spec.partitioning = workload::MicroWorkload::make_partitioning(1, 1000);
  spec.seed = 5;
  Deployment legacy(spec);
  spec.server.pdur.cores = 1;  // explicit 1 == default
  Deployment one_core(spec);
  workload::RunConfig cfg;
  cfg.clients = 8;
  cfg.seed = 5;
  cfg.settle = sim::msec(800);
  cfg.warmup = sim::msec(200);
  cfg.measure = sim::sec(1);

  workload::MicroConfig mc;
  mc.items_per_partition = 1000;
  mc.global_fraction = 0.0;
  workload::MicroWorkload wl1(mc);
  workload::MicroWorkload wl2(mc);
  const auto ra = run_experiment(legacy, wl1, cfg);
  const auto rb = run_experiment(one_core, wl2, cfg);
  EXPECT_EQ(ra.servers.delivered, rb.servers.delivered);
  EXPECT_EQ(ra.servers.committed_local, rb.servers.committed_local);
  EXPECT_EQ(ra.servers.pdur_single_core, 0u);
  EXPECT_EQ(rb.servers.pdur_single_core, 0u);
}

}  // namespace
}  // namespace sdur
