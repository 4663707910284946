#include "workload/social.h"

#include <algorithm>

namespace sdur::workload {

std::string encode_id_list(const std::vector<std::uint64_t>& ids) {
  util::Writer w;
  w.varint(ids.size());
  for (std::uint64_t id : ids) w.u64(id);
  return {reinterpret_cast<const char*>(w.data().data()), w.size()};
}

std::vector<std::uint64_t> decode_id_list(const std::string& value) {
  if (value.empty()) return {};
  util::Reader r(reinterpret_cast<const std::uint8_t*>(value.data()), value.size());
  const std::uint64_t n = r.varint();
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(r.u64());
  return ids;
}

std::string encode_post_list(const std::vector<std::string>& posts) {
  util::Writer w;
  w.varint(posts.size());
  for (const auto& p : posts) w.bytes(p);
  return {reinterpret_cast<const char*>(w.data().data()), w.size()};
}

std::vector<std::string> decode_post_list(const std::string& value) {
  if (value.empty()) return {};
  util::Reader r(reinterpret_cast<const std::uint8_t*>(value.data()), value.size());
  const std::uint64_t n = r.varint();
  std::vector<std::string> posts;
  posts.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) posts.push_back(r.bytes());
  return posts;
}

void SocialWorkload::populate(Deployment& dep, util::Rng& rng) {
  const PartitionId partitions = dep.partition_count();
  const std::uint64_t total_users = cfg_.users_per_partition * partitions;

  std::vector<std::vector<std::uint64_t>> producers(total_users);
  std::vector<std::vector<std::uint64_t>> consumers(total_users);

  for (std::uint64_t u = 0; u < total_users; ++u) {
    for (std::uint32_t f = 0; f < cfg_.initial_follows; ++f) {
      // 50% of the initial graph crosses partitions, mirroring the
      // benchmark's follow behaviour.
      std::uint64_t v;
      if (partitions > 1 && rng.chance(cfg_.follow_global_probability)) {
        PartitionId other = static_cast<PartitionId>(rng.below(partitions - 1));
        if (other >= u % partitions) ++other;
        v = other + partitions * rng.below(cfg_.users_per_partition);
      } else {
        v = (u % partitions) + partitions * rng.below(cfg_.users_per_partition);
      }
      if (v == u) continue;
      if (std::find(producers[u].begin(), producers[u].end(), v) != producers[u].end()) continue;
      producers[u].push_back(v);
      consumers[v].push_back(u);
    }
  }

  for (std::uint64_t u = 0; u < total_users; ++u) {
    std::vector<std::string> posts;
    for (std::uint32_t i = 0; i < cfg_.initial_posts; ++i) {
      posts.push_back("init-" + std::to_string(u) + "-" + std::to_string(i));
    }
    dep.load(social_key(u, kProducers), encode_id_list(producers[u]));
    dep.load(social_key(u, kConsumers), encode_id_list(consumers[u]));
    dep.load(social_key(u, kPosts), encode_post_list(posts));
  }
}

namespace {

class SocialSession final : public Session {
 public:
  SocialSession(Client& client, util::Rng rng, Recorder& rec, const SocialConfig& cfg,
                PartitionId home, PartitionId partitions)
      : client_(client), rng_(rng), rec_(rec), cfg_(cfg), home_(home), partitions_(partitions) {}

  void start() override { next(); }

 private:
  std::uint64_t user_in(PartitionId p) {
    return p + partitions_ * rng_.below(cfg_.users_per_partition);
  }

  std::uint64_t local_user() { return user_in(home_); }

  void next() {
    if (cfg_.keep_running && !cfg_.keep_running()) return;
    const double dice = rng_.uniform();
    if (dice < cfg_.timeline_fraction) {
      timeline();
    } else if (dice < cfg_.timeline_fraction + cfg_.post_fraction) {
      post();
    } else {
      follow();
    }
  }

  void finish(const char* cls, Outcome outcome, sim::Time begin) {
    const sim::Time now = client_.now();
    rec_.record(cls, outcome, now - begin, now);
    next();
  }

  // --- timeline: global read-only -----------------------------------------
  void timeline() {
    const std::uint64_t u = local_user();
    const sim::Time begin = client_.now();
    if (cfg_.certified_timeline) {
      // Certified mode: a plain transaction with an empty writeset — goes
      // through the full termination protocol and may abort on snapshot
      // inconsistency, but reads the freshest committed state.
      client_.begin();
      read_timeline_body(u, begin);
      return;
    }
    client_.begin_read_only([this, u, begin] {
      client_.read(social_key(u, kProducers), [this, begin](bool found, const std::string& value) {
        const std::vector<std::uint64_t> follows =
            found ? decode_id_list(value) : std::vector<std::uint64_t>{};
        if (follows.empty()) {
          client_.commit([this, begin](Outcome o) { finish("timeline", o, begin); });
          return;
        }
        std::vector<Key> keys;
        keys.reserve(follows.size());
        for (std::uint64_t v : follows) keys.push_back(social_key(v, kPosts));
        client_.read_many(keys, [this, begin](std::vector<std::optional<std::string>> values) {
          // Merge the timelines client-side (result unused, but decode to
          // exercise the data path).
          std::size_t total = 0;
          for (const auto& v : values) {
            if (v) total += decode_post_list(*v).size();
          }
          (void)total;
          client_.commit([this, begin](Outcome o) { finish("timeline", o, begin); });
        });
      });
    });
  }

  void read_timeline_body(std::uint64_t u, sim::Time begin) {
    client_.read(social_key(u, kProducers), [this, begin](bool found, const std::string& value) {
      const auto follows = found ? decode_id_list(value) : std::vector<std::uint64_t>{};
      if (follows.empty()) {
        client_.commit([this, begin](Outcome o) { finish("timeline", o, begin); });
        return;
      }
      std::vector<Key> keys;
      keys.reserve(follows.size());
      for (std::uint64_t v : follows) keys.push_back(social_key(v, kPosts));
      client_.read_many(keys, [this, begin](std::vector<std::optional<std::string>> values) {
        for (const auto& v : values) {
          if (v) (void)decode_post_list(*v).size();
        }
        client_.commit([this, begin](Outcome o) { finish("timeline", o, begin); });
      });
    });
  }

  // --- post: local update ----------------------------------------------------
  void post() {
    const std::uint64_t u = local_user();
    client_.begin();
    const sim::Time begin = client_.now();
    const Key k = social_key(u, kPosts);
    client_.read(k, [this, k, begin](bool found, const std::string& value) {
      std::vector<std::string> posts = found ? decode_post_list(value) : std::vector<std::string>{};
      posts.push_back("post-" + std::to_string(client_.current_txid()));
      if (posts.size() > cfg_.posts_cap) {
        posts.erase(posts.begin(), posts.end() - cfg_.posts_cap);
      }
      client_.write(k, encode_post_list(posts));
      client_.commit([this, begin](Outcome o) { finish("post", o, begin); });
    });
  }

  // --- follow: local or global update ------------------------------------------
  void follow() {
    const std::uint64_t u = local_user();
    const bool global = partitions_ > 1 && rng_.chance(cfg_.follow_global_probability);
    std::uint64_t v;
    if (global) {
      PartitionId other = static_cast<PartitionId>(rng_.below(partitions_ - 1));
      if (other >= home_) ++other;
      v = user_in(other);
    } else {
      do {
        v = local_user();
      } while (v == u);
    }
    client_.begin();
    const sim::Time begin = client_.now();
    const Key ku = social_key(u, kProducers);
    const Key kv = social_key(v, kConsumers);
    client_.read_many({ku, kv}, [this, u, v, ku, kv, begin,
                                 global](std::vector<std::optional<std::string>> values) {
      std::vector<std::uint64_t> prod =
          values[0] ? decode_id_list(*values[0]) : std::vector<std::uint64_t>{};
      std::vector<std::uint64_t> cons =
          values[1] ? decode_id_list(*values[1]) : std::vector<std::uint64_t>{};
      if (prod.size() < cfg_.follows_cap &&
          std::find(prod.begin(), prod.end(), v) == prod.end()) {
        prod.push_back(v);
        cons.push_back(u);
        if (cons.size() > cfg_.follows_cap) cons.erase(cons.begin());
      }
      client_.write(ku, encode_id_list(prod));
      client_.write(kv, encode_id_list(cons));
      client_.commit([this, begin, global](Outcome o) {
        finish(global ? "follow_global" : "follow", o, begin);
      });
    });
  }

  Client& client_;
  util::Rng rng_;
  Recorder& rec_;
  const SocialConfig& cfg_;
  PartitionId home_;
  PartitionId partitions_;
};

}  // namespace

std::unique_ptr<Session> SocialWorkload::make_session(Client& client, PartitionId home,
                                                      PartitionId partitions, util::Rng rng,
                                                      Recorder& rec) {
  return std::make_unique<SocialSession>(client, rng, rec, cfg_, home, partitions);
}

}  // namespace sdur::workload
