// Intra-replica sub-partitioner (P-DUR, arXiv:1312.0742, Section III).
//
// P-DUR splits a replica's database across K worker cores; every key has
// exactly one home core, so conflicts can only arise between transactions
// that share a core. The mapping is a pure function of the key (a hash),
// identical on every replica, so every replica charges a transaction's
// work to the same cores.
//
// Bloom-encoded readsets cannot be enumerated, so a transaction shipping a
// bloom readset is conservatively homed on *all* cores (its reads could
// touch any key). Write keys are always exact.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bloom.h"
#include "util/hash.h"

namespace sdur::pdur {

using CoreId = std::uint32_t;

class CorePartitioner {
 public:
  explicit CorePartitioner(CoreId cores) : cores_(cores == 0 ? 1 : cores) {}

  CoreId cores() const { return cores_; }

  CoreId core_of(std::uint64_t key) const {
    return static_cast<CoreId>(util::mix64(key) % cores_);
  }

  /// Home cores of a transaction with readset `rs` and write keys `ws`:
  /// the cores owning at least one of its keys, sorted. A bloom readset
  /// homes the transaction on every core. Empty key sets yield {0} so
  /// callers always have a core to charge.
  std::vector<CoreId> home_cores(const util::KeySet& rs, const util::KeySet& ws) const {
    std::vector<bool> hit(cores_, false);
    if ((rs.is_bloom() && !rs.empty()) || (ws.is_bloom() && !ws.empty())) {
      for (CoreId c = 0; c < cores_; ++c) hit[c] = true;
    } else {
      for (std::uint64_t k : rs.keys()) hit[core_of(k)] = true;
      for (std::uint64_t k : ws.keys()) hit[core_of(k)] = true;
    }
    std::vector<CoreId> out;
    for (CoreId c = 0; c < cores_; ++c) {
      if (hit[c]) out.push_back(c);
    }
    if (out.empty()) out.push_back(0);
    return out;
  }

 private:
  CoreId cores_;
};

}  // namespace sdur::pdur
