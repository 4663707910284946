// Partitioning schemes: map keys to partitions.
//
// The paper assumes "clients are aware of the partitioning scheme"
// (Section III-A); both clients and servers hold a shared immutable
// Partitioning instance.
#pragma once

#include <cstdint>
#include <memory>

#include "sdur/transaction.h"
#include "util/hash.h"

namespace sdur {

class Partitioning {
 public:
  explicit Partitioning(PartitionId count) : count_(count == 0 ? 1 : count) {}
  virtual ~Partitioning() = default;

  virtual PartitionId partition_of(Key k) const = 0;
  PartitionId count() const { return count_; }

 private:
  PartitionId count_;
};

using PartitioningPtr = std::shared_ptr<const Partitioning>;

/// Contiguous key ranges: partition = key / keys_per_partition, clamped.
/// Used by the microbenchmark ("one million data items per partition").
class RangePartitioning final : public Partitioning {
 public:
  RangePartitioning(PartitionId count, std::uint64_t keys_per_partition)
      : Partitioning(count),
        keys_per_partition_(keys_per_partition == 0 ? 1 : keys_per_partition) {}

  PartitionId partition_of(Key k) const override {
    const auto p = static_cast<PartitionId>(k / keys_per_partition_);
    return p < count() ? p : count() - 1;
  }

 private:
  std::uint64_t keys_per_partition_;
};

/// Hash partitioning over a key prefix: partition = hash(key >> shift) % P.
/// The shift groups related keys (e.g. all of a user's records share the
/// high bits, so they land in the same partition — the social network
/// benchmark partitions data "by user").
class HashPartitioning final : public Partitioning {
 public:
  explicit HashPartitioning(PartitionId count, unsigned shift = 0)
      : Partitioning(count), shift_(shift) {}

  PartitionId partition_of(Key k) const override {
    return static_cast<PartitionId>(util::mix64(k >> shift_) % count());
  }

 private:
  unsigned shift_;
};

}  // namespace sdur
