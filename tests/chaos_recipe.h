// The chaos recipe shared by the technique suites (vote batching, the
// out-of-order bypass, speculation): 3 partitions of 90 items, 40%
// globals, 2% message loss, a follower crashed for 400 ms every 600 ms,
// checkpoints every 500 ms; then the network heals, every replica
// recovers and the run quiesces for 10 s. Runs differ only in their
// TechniqueConfig, so each suite pins its configurations against one
// recipe.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sdur/deployment.h"
#include "sdur/technique_config.h"
#include "sim/network.h"
#include "util/bytes.h"

namespace sdur::chaos {

/// FNV-1a over everything written to `w`.
std::uint64_t digest_writer(const util::Writer& w);

/// True when every replica of every partition ended at identical
/// (sc, certified, store) state — the convergence bar for chaos runs.
bool replicas_agree(Deployment& dep);

struct ChaosOut {
  std::uint64_t digest = 0;  // replica state and network traffic
  std::uint64_t events = 0;  // Simulator::events_processed()
  std::uint64_t committed = 0;
  Server::Stats stats;
  sim::NetworkStats net;
  bool agree = false;
  std::size_t pending_total = 0;
  std::size_t spec_outstanding = 0;  // speculative versions left in the stores
};

ChaosOut run_chaos(const TechniqueConfig& techniques);

}  // namespace sdur::chaos
