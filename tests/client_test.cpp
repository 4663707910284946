// Client library tests (Algorithm 1): snapshot management, buffered
// writes, parallel reads, read-only snapshot flow, deferred reads.
#include <gtest/gtest.h>

#include "sdur/deployment.h"
#include "util/rng.h"

namespace sdur {
namespace {

struct Fixture {
  std::unique_ptr<Deployment> dep;
  Client* client = nullptr;

  Fixture() {
    DeploymentSpec spec;
    spec.partitions = 3;
    spec.partitioning = std::make_shared<RangePartitioning>(3, 100);
    spec.log_write_latency = sim::usec(200);
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 300; ++k) dep->load(k, "v" + std::to_string(k));
    dep->start();
    client = &dep->add_client(0);
    dep->run_until(sim::msec(300));
  }

  void run_for(sim::Time t) { dep->run_until(dep->simulator().now() + t); }

  Outcome update(std::vector<Key> keys, const std::string& value) {
    Outcome result = Outcome::kUnknown;
    client->begin();
    client->read_many(keys, [&, keys](auto) {
      for (Key k : keys) client->write(k, value);
      client->commit([&](Outcome o) { result = o; });
    });
    run_for(sim::sec(5));
    return result;
  }
};

TEST(Client, ReadYourOwnBufferedWrites) {
  Fixture f;
  f.client->begin();
  std::string observed;
  f.client->read(5, [&](bool, const std::string&) {
    f.client->write(5, "buffered");
    f.client->read(5, [&](bool found, const std::string& v) {
      ASSERT_TRUE(found);
      observed = v;  // served from the write buffer, no round trip
    });
  });
  f.run_for(sim::sec(1));
  EXPECT_EQ(observed, "buffered");
}

TEST(Client, TransactionIdsAreUniqueAndMonotonic) {
  Fixture f;
  f.client->begin();
  const TxId a = f.client->current_txid();
  f.client->begin();
  const TxId b = f.client->current_txid();
  EXPECT_NE(a, 0u);
  EXPECT_LT(a, b);

  Client& other = f.dep->add_client(1);
  other.begin();
  EXPECT_NE(other.current_txid(), b) << "ids embed the client id";
}

TEST(Client, ParallelReadManyPreservesOrder) {
  Fixture f;
  std::vector<std::optional<std::string>> results;
  f.client->begin();
  // Keys from all three partitions, interleaved.
  f.client->read_many({250, 5, 105}, [&](auto values) { results = std::move(values); });
  f.run_for(sim::sec(1));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(*results[0], "v250");
  EXPECT_EQ(*results[1], "v5");
  EXPECT_EQ(*results[2], "v105");
}

TEST(Client, MissingKeyReportsNotFound) {
  Fixture f;
  bool found = true;
  f.client->begin();
  f.client->read(77'777, [&](bool fnd, const std::string&) { found = fnd; });
  f.run_for(sim::sec(1));
  EXPECT_FALSE(found);
}

TEST(Client, SnapshotFixedPerPartitionIndependently) {
  Fixture f;
  Client& writer = f.dep->add_client(0);

  // Fix the snapshot at partition 0 only.
  f.client->begin();
  f.client->read(1, [](bool, const std::string&) {});
  f.run_for(sim::sec(1));

  // Commit updates in partitions 0 and 1 from another client.
  {
    Outcome o = Outcome::kUnknown;
    writer.begin();
    writer.read_many({2, 102}, [&](auto) {
      writer.write(2, "new");
      writer.write(102, "new");
      writer.commit([&](Outcome out) { o = out; });
    });
    f.run_for(sim::sec(5));
    ASSERT_EQ(o, Outcome::kCommit);
  }

  // Partition 0 read sees the old snapshot; the first partition-1 read
  // fixes a fresh snapshot there and sees the new value.
  std::string p0, p1;
  f.client->read(2, [&](bool, const std::string& v) { p0 = v; });
  f.client->read(102, [&](bool, const std::string& v) { p1 = v; });
  f.run_for(sim::sec(1));
  EXPECT_EQ(p0, "v2") << "partition-0 snapshot predates the writer's commit";
  EXPECT_EQ(p1, "new") << "partition-1 snapshot was taken after it";
}

TEST(Client, ThreePartitionGlobalTransaction) {
  Fixture f;
  EXPECT_EQ(f.update({1, 101, 201}, "tri"), Outcome::kCommit);
  for (PartitionId p = 0; p < 3; ++p) {
    EXPECT_EQ(f.dep->server(p, 0).store().get_latest(1 + 100ULL * p)->value, "tri");
  }
}

TEST(Client, ReadOnlySeesAtomicGlobalState) {
  Fixture f;
  ASSERT_EQ(f.update({1, 101}, "both"), Outcome::kCommit);
  f.run_for(sim::msec(100));  // gossip

  std::string a, b;
  Outcome o = Outcome::kUnknown;
  f.client->begin_read_only([&] {
    f.client->read_many({1, 101}, [&](auto values) {
      a = values[0].value_or("");
      b = values[1].value_or("");
      f.client->commit([&](Outcome out) { o = out; });
    });
  });
  f.run_for(sim::sec(2));
  EXPECT_EQ(o, Outcome::kCommit);
  EXPECT_EQ(a, "both");
  EXPECT_EQ(b, "both");
}

TEST(Client, ReadOnlyDoesNotBlockOnConcurrentWriters) {
  Fixture f;
  // A read-only transaction issued while updates are in flight commits
  // without certification (never aborts) and sees a consistent snapshot.
  Client& writer = f.dep->add_client(0);
  for (int i = 0; i < 5; ++i) {
    writer.begin();
    writer.read(3, [&](bool, const std::string&) {
      writer.write(3, "w");
      writer.commit([](Outcome) {});
    });
  }
  Outcome o = Outcome::kUnknown;
  f.client->begin_read_only([&] {
    f.client->read(3, [&](bool, const std::string&) {
      f.client->commit([&](Outcome out) { o = out; });
    });
  });
  f.run_for(sim::sec(5));
  EXPECT_EQ(o, Outcome::kCommit);
}

TEST(Client, StatsCountReadsAndCommits) {
  Fixture f;
  ASSERT_EQ(f.update({1, 2}, "x"), Outcome::kCommit);
  EXPECT_EQ(f.client->stats().reads, 2u);
  EXPECT_EQ(f.client->stats().commits_requested, 1u);
  EXPECT_EQ(f.client->stats().timeouts, 0u);
}

/// Closed loop of `clients` clients, each running transactions back to
/// back: three update transactions over two random keys (often on two
/// partitions), then one read-only transaction. Every answered read,
/// snapshot request and commit leaves its retry or timeout timer behind
/// unless the client cancels it.
struct ClosedLoop {
  std::unique_ptr<Deployment> dep;
  std::vector<Client*> clients;
  util::Rng rng{17};
  std::uint64_t finished = 0;
  std::uint64_t committed = 0;
  bool draining = false;  // no new transactions once set
  std::size_t idle_events = 0;  // queued before any client started

  explicit ClosedLoop(std::uint32_t n) {
    DeploymentSpec spec;
    spec.partitions = 3;
    spec.partitioning = std::make_shared<RangePartitioning>(3, 100);
    spec.log_write_latency = sim::usec(200);
    dep = std::make_unique<Deployment>(spec);
    for (Key k = 0; k < 300; ++k) dep->load(k, "v");
    dep->start();
    for (std::uint32_t i = 0; i < n; ++i) clients.push_back(&dep->add_client(i % 3));
    dep->run_until(sim::msec(300));
    idle_events = dep->simulator().pending_events();
    for (Client* c : clients) next(*c);
  }

  void next(Client& c) {
    if (draining) return;
    const std::vector<Key> keys{rng.below(300), rng.below(300)};
    auto done = [this, &c](Outcome o) {
      ++finished;
      if (o == Outcome::kCommit) ++committed;
      next(c);
    };
    if (finished % 4 == 3) {
      c.begin_read_only([&c, keys, done] {
        c.read_many(keys, [&c, done](auto) { c.commit(done); });
      });
      return;
    }
    c.begin();
    c.read_many(keys, [&c, keys, done](auto) {
      for (Key k : keys) c.write(k, "w");
      c.commit(done);
    });
  }

  /// Runs until `target` transactions finished (or a minute of simulated
  /// time passed, so a stalled loop fails instead of hanging).
  void run_until_finished(std::uint64_t target) {
    const sim::Time limit = dep->simulator().now() + sim::sec(60);
    while (finished < target && dep->simulator().now() < limit) {
      dep->run_until(dep->simulator().now() + sim::msec(10));
    }
    EXPECT_GE(finished, target);
  }

  bool replicas_agree() {
    for (PartitionId p = 0; p < dep->partition_count(); ++p) {
      util::Writer base;
      dep->server(p, 0).store().encode(base);
      for (std::uint32_t rep = 1; rep < dep->replica_count(); ++rep) {
        util::Writer w;
        dep->server(p, rep).store().encode(w);
        if (w.data() != base.data()) return false;
      }
    }
    return true;
  }
};

TEST(Client, EventQueueHoldsOnlyLiveTimers) {
  // Per client: at most two outstanding reads (each with a retry timer
  // and a message in flight) or a commit (retry and timeout timers), plus
  // the server work, Paxos traffic and votes that one transaction in
  // flight causes. The bound depends on the client count only; before
  // answered timers were cancelled, every commit left its 120 s timeout
  // queued and the queue grew with the number of transactions run.
  constexpr std::uint32_t kClients = 8;
  constexpr std::uint64_t kTxns = 150;
  ClosedLoop loop(kClients);
  const std::size_t bound = loop.idle_events + 20 * kClients;
  loop.run_until_finished(kTxns);
  const std::size_t after_n = loop.dep->simulator().pending_events();
  loop.run_until_finished(4 * kTxns);
  const std::size_t after_4n = loop.dep->simulator().pending_events();
  EXPECT_GT(loop.committed, kTxns) << "the loop made real progress";
  EXPECT_LE(after_n, bound);
  EXPECT_LE(after_4n, bound);
  std::uint64_t retries = 0;
  for (Client* c : loop.clients) retries += c->stats().commit_retries + c->stats().timeouts;
  EXPECT_EQ(retries, 0u) << "a loss-free run needs no retry";
}

TEST(Client, RetriesStillFireUnderMessageLoss) {
  ClosedLoop loop(8);
  loop.dep->network().set_loss_rate(0.05);
  loop.run_until_finished(400);
  std::uint64_t retries = 0;
  for (Client* c : loop.clients) retries += c->stats().commit_retries;
  EXPECT_GT(retries, 0u) << "lost commit requests or outcomes were re-sent";
  loop.dep->network().set_loss_rate(0);
  loop.draining = true;
  loop.dep->run_until(loop.dep->simulator().now() + sim::sec(10));
  EXPECT_TRUE(loop.replicas_agree()) << "replicas converged after the loss stopped";
}

}  // namespace
}  // namespace sdur
