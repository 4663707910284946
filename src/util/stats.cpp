#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

namespace sdur::util {

namespace {
// 64 powers of two, each split into 2^sub_bits sub-buckets, covers the full
// int64 range; in practice latencies are < 2^40 microseconds.
constexpr int kExponents = 48;
}  // namespace

Histogram::Histogram(int sub_bucket_bits)
    : sub_bits_(std::clamp(sub_bucket_bits, 0, 12)),
      min_(std::numeric_limits<std::int64_t>::max()),
      buckets_(static_cast<std::size_t>(kExponents) << sub_bits_, 0) {}

std::size_t Histogram::bucket_index(std::int64_t value) const {
  const std::uint64_t v = value <= 0 ? 0 : static_cast<std::uint64_t>(value);
  if (v < (1ULL << sub_bits_)) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int exponent = msb - sub_bits_ + 1;  // >= 1
  const std::uint64_t sub = v >> exponent;   // in [2^(sub_bits-1), 2^sub_bits)
  std::size_t idx =
      (static_cast<std::size_t>(exponent) << sub_bits_) + static_cast<std::size_t>(sub);
  return std::min(idx, buckets_.size() - 1);
}

std::int64_t Histogram::bucket_value(std::size_t index) const {
  const std::size_t exponent = index >> sub_bits_;
  const std::uint64_t sub = index & ((1ULL << sub_bits_) - 1);
  if (exponent == 0) return static_cast<std::int64_t>(sub);
  // Midpoint of the bucket range for low bias.
  const std::uint64_t lo = sub << exponent;
  const std::uint64_t width = 1ULL << exponent;
  return static_cast<std::int64_t>(lo + width / 2);
}

void Histogram::record(std::int64_t value) { record_n(value, 1); }

void Histogram::record_n(std::int64_t value, std::uint64_t n) {
  if (n == 0) return;
  buckets_[bucket_index(value)] += n;
  count_ += n;
  sum_ += static_cast<double>(value) * static_cast<double>(n);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

std::int64_t Histogram::min() const {
  return count_ == 0 ? 0 : min_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::int64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const auto target = static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) return bucket_value(i);
  }
  return max_;
}

std::vector<std::pair<std::int64_t, double>> Histogram::cdf() const {
  std::vector<std::pair<std::int64_t, double>> out;
  if (count_ == 0) return out;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    seen += buckets_[i];
    out.emplace_back(bucket_value(i), static_cast<double>(seen) / static_cast<double>(count_));
  }
  return out;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (other.sub_bits_ == sub_bits_) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    return;
  }
  // Different precision: re-record bucket midpoints.
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    if (other.buckets_[i] > 0) record_n(other.bucket_value(i), other.buckets_[i]);
  }
}

void Histogram::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<std::int64_t>::max();
  max_ = 0;
}

std::string format_ms(std::int64_t micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(micros) / 1000.0);
  return buf;
}

std::string format_k(double v) {
  char buf[32];
  if (v >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.1fK", v / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  }
  return buf;
}

}  // namespace sdur::util
