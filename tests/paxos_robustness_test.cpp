// Additional Paxos robustness tests: duplicated/reordered messages, stale
// proposers, forward buffering while leaderless, and ballot arithmetic.
#include <gtest/gtest.h>

#include "paxos/engine.h"
#include "sim/process.h"

namespace sdur::paxos {
namespace {

Value int_value(std::uint64_t v) {
  util::Writer w;
  w.u64(v);
  return std::move(w).take();
}

std::uint64_t int_of(const Value& v) {
  util::Reader r(v);
  return r.u64();
}

class Host : public sim::Process {
 public:
  Host(sim::Network& net, sim::ProcessId pid, sim::Location loc, GroupConfig cfg)
      : sim::Process(net, pid, "h" + std::to_string(pid), loc) {
    engine_ = std::make_unique<PaxosEngine>(
        *this, std::move(cfg), std::make_unique<InMemoryDurableLog>(),
        [this](const Value& v) { delivered.push_back(int_of(v)); });
  }
  PaxosEngine& engine() { return *engine_; }
  std::vector<std::uint64_t> delivered;

 protected:
  void on_message(const sim::Message& m, sim::ProcessId from) override {
    if (PaxosEngine::handles(m.type)) engine_->handle_message(m, from);
  }
  void on_recover() override {
    delivered.clear();
    engine_->on_recover();
  }

 private:
  std::unique_ptr<PaxosEngine> engine_;
};

struct Group {
  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  std::vector<std::unique_ptr<Host>> hosts;

  Group() {
    sim::Topology topo = sim::Topology::lan();
    topo.set_jitter(0.05);
    net = std::make_unique<sim::Network>(sim, topo, 17);
    GroupConfig cfg;
    cfg.members = {1, 2, 3};
    cfg.log_write_latency = sim::usec(200);
    for (std::uint32_t i = 0; i < 3; ++i) {
      GroupConfig c = cfg;
      c.self_index = i;
      hosts.push_back(std::make_unique<Host>(*net, i + 1,
                                             sim::Location{0, static_cast<std::uint16_t>(i)},
                                             std::move(c)));
    }
    for (auto& h : hosts) h->engine().start();
    sim.run_until(sim::msec(200));
  }

  void run_for(sim::Time t) { sim.run_until(sim.now() + t); }
};

TEST(Ballot, OrderingAndComponents) {
  const Ballot a = Ballot::make(1, 0);
  const Ballot b = Ballot::make(1, 2);
  const Ballot c = Ballot::make(2, 0);
  EXPECT_LT(a, b) << "same round: proposer index breaks ties";
  EXPECT_LT(b, c) << "higher round dominates any index";
  EXPECT_EQ(c.round(), 2u);
  EXPECT_EQ(b.proposer_index(), 2u);
  EXPECT_FALSE(Ballot{}.valid());
  EXPECT_TRUE(a.valid());
}

TEST(PaxosRobustness, DuplicatedMessagesAreHarmless) {
  // Replay every Phase 2 message by sending each value twice through a
  // duplicating relay: delivery must stay exactly-once per instance.
  Group g;
  g.hosts[0]->engine().propose(int_value(1));
  g.run_for(sim::msec(100));

  // Manually re-inject a decided instance's Phase2B to everyone.
  const sim::Message dup = Phase2B{g.hosts[0]->engine().current_ballot(), 0, 1}.to_message();
  for (auto& h : g.hosts) g.net->send(1, h->self(), dup);
  g.run_for(sim::msec(100));
  for (auto& h : g.hosts) {
    EXPECT_EQ(h->delivered, (std::vector<std::uint64_t>{1}));
  }
}

TEST(PaxosRobustness, StaleProposerGetsNacked) {
  Group g;
  // Raise host 2's promise to a high ballot by injecting a Phase 1A.
  g.net->send(g.hosts[1]->self(), g.hosts[2]->self(),
              Phase1A{Ballot::make(50, 1), 0}.to_message());
  g.run_for(sim::msec(50));
  // A Phase2A at the old ballot must be rejected.
  const Ballot stale = Ballot::make(1, 0);
  g.net->send(g.hosts[0]->self(), g.hosts[2]->self(),
              Phase2A{stale, 99, int_value(7)}.to_message());
  g.run_for(sim::msec(100));
  EXPECT_TRUE(g.hosts[2]->delivered.empty());
  EXPECT_FALSE(g.hosts[2]->engine().log().load_accepted(99).has_value())
      << "stale-ballot accept must not be persisted";
}

TEST(PaxosRobustness, ValuesProposedWhileLeaderlessAreBuffered) {
  Group g;
  // Kill the leader, then immediately propose at a follower — before any
  // new leader exists. The value must survive the leaderless window.
  g.hosts[0]->crash();
  g.hosts[1]->engine().propose(int_value(42));
  g.run_for(sim::sec(5));  // election timeout + new leader + flush
  EXPECT_EQ(g.hosts[1]->delivered, (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(g.hosts[2]->delivered, (std::vector<std::uint64_t>{42}));
}

TEST(PaxosRobustness, LeaderChangePreservesPrefix) {
  Group g;
  for (std::uint64_t v = 1; v <= 5; ++v) g.hosts[0]->engine().propose(int_value(v));
  g.run_for(sim::msec(300));
  const auto before = g.hosts[1]->delivered;
  ASSERT_EQ(before.size(), 5u);

  g.hosts[0]->crash();
  g.run_for(sim::sec(3));
  g.hosts[1]->engine().propose(int_value(6));
  g.run_for(sim::sec(3));

  ASSERT_GE(g.hosts[1]->delivered.size(), 6u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(g.hosts[1]->delivered[i], before[i]) << "prefix immutable across leader change";
  }
  EXPECT_EQ(g.hosts[1]->delivered.back(), 6u);
}

TEST(PaxosRobustness, CrashDuringPhase1DoesNotLoseDecidedValues) {
  Group g;
  for (std::uint64_t v = 1; v <= 3; ++v) g.hosts[0]->engine().propose(int_value(v));
  g.run_for(sim::msec(300));

  // Host 1 campaigns, then crashes mid-election; host 2 takes over later.
  g.hosts[0]->crash();
  g.run_for(sim::msec(700));  // host 1's election window opens
  g.hosts[1]->crash();
  g.run_for(sim::msec(200));
  g.hosts[1]->recover();
  g.run_for(sim::sec(10));

  // All decided values remain readable everywhere that is alive.
  for (int h : {1, 2}) {
    std::vector<std::uint64_t> sorted = g.hosts[h]->delivered;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::uint64_t>{1, 2, 3})) << "host " << h;
  }
}

TEST(PaxosRobustness, SelfContainedGroupOfFive) {
  // n=5 tolerates two crash failures.
  sim::Simulator sim;
  sim::Topology topo = sim::Topology::lan();
  sim::Network net(sim, topo, 5);
  GroupConfig cfg;
  cfg.members = {1, 2, 3, 4, 5};
  cfg.log_write_latency = sim::usec(200);
  std::vector<std::unique_ptr<Host>> hosts;
  for (std::uint32_t i = 0; i < 5; ++i) {
    GroupConfig c = cfg;
    c.self_index = i;
    hosts.push_back(std::make_unique<Host>(net, i + 1,
                                           sim::Location{0, static_cast<std::uint16_t>(i)},
                                           std::move(c)));
  }
  for (auto& h : hosts) h->engine().start();
  sim.run_until(sim::msec(200));

  hosts[3]->crash();
  hosts[4]->crash();
  for (std::uint64_t v = 1; v <= 10; ++v) hosts[0]->engine().propose(int_value(v));
  sim.run_until(sim::sec(2));
  EXPECT_EQ(hosts[0]->delivered.size(), 10u);
  EXPECT_EQ(hosts[1]->delivered.size(), 10u);
  EXPECT_EQ(hosts[2]->delivered.size(), 10u);
}

}  // namespace
}  // namespace sdur::paxos
