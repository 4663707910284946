// Host-side (wall-clock) counters for the simulation fabric.
//
// These count *real* work done by the host while simulating — payload
// buffers deep-copied, closure allocations — not simulated quantities.
// They exist so bench/harness_perf can verify the zero-copy properties of
// the message fabric (e.g. broadcast fan-out performs zero per-peer payload
// copies) and track the cost trajectory across PRs.
//
// Counting never influences simulated behavior: results stay bit-identical
// whether the counters are compiled in or out. Release/audit builds can
// compile them away with -DSDUR_FABRIC_COUNTERS=0 (CMake option
// SDUR_FABRIC_COUNTERS=OFF).
#pragma once

#include <cstdint>

namespace sdur::sim {

struct FabricCounters {
  /// Payload buffers duplicated byte-for-byte (copy of a non-empty
  /// message payload that could not share its buffer).
  std::uint64_t payload_deep_copies = 0;
  /// Bytes moved by those duplications.
  std::uint64_t payload_bytes_copied = 0;
  /// Payload copies served by bumping a refcount instead of copying.
  std::uint64_t payload_shares = 0;
  /// Event-loop callables stored inline (no allocation).
  std::uint64_t fn_inline = 0;
  /// Event-loop callables that exceeded the inline buffer (one heap
  /// allocation each).
  std::uint64_t fn_heap_allocs = 0;
  /// Events cancelled before they fired (Simulator::cancel).
  std::uint64_t events_cancelled = 0;
  /// Live queued events summed over every event run, and their maximum;
  /// the sum over the run's event count is the mean live heap depth.
  std::uint64_t heap_depth_sum = 0;
  std::uint64_t heap_depth_peak = 0;

  void reset() { *this = FabricCounters{}; }
};

/// Process-wide counters (the simulation is single-threaded).
inline FabricCounters& fabric_counters() {
  static FabricCounters c;
  return c;
}

}  // namespace sdur::sim

#ifndef SDUR_FABRIC_COUNTERS
#define SDUR_FABRIC_COUNTERS 1
#endif

#if SDUR_FABRIC_COUNTERS
/// Applies `expr` to the global FabricCounters, e.g.
/// SDUR_FABRIC_COUNT(payload_bytes_copied += n).
#define SDUR_FABRIC_COUNT(expr) ((void)(sdur::sim::fabric_counters().expr))
#else
#define SDUR_FABRIC_COUNT(expr) ((void)0)
#endif
