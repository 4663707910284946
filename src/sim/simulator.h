// Discrete-event simulator core.
//
// A binary min-heap of (time, sequence, closure). Ties on time break by
// insertion order, so runs are fully deterministic given a seed. The
// simulator knows nothing about processes or networks; those layers
// schedule closures on it.
//
// Hot-path design (see DESIGN.md "Simulation fabric hot path"):
//  - Events hold a move-only UniqueFn (sim/callable.h), so the common
//    closures live inline with no allocation.
//  - Callables live in a slab indexed by the heap nodes. Heap nodes are
//    24-byte PODs, so push/pop sifts are plain memmoves instead of calling
//    each closure's relocator O(log n) times per event.
//  - An event may carry a *guard*: a pointer to a u64 cell and the value it
//    must still hold at fire time. This is how Process implements its
//    crash/recover epoch check without wrapping the callable in a second
//    closure (the nested form exceeds any fixed inline buffer by
//    construction, forcing one heap allocation per scheduled event). A
//    guarded event that fails its check is popped and counted but its
//    closure does not run — exactly what the wrapper used to do.
//  - Events can be cancelled by the TimerId their schedule call returned.
//    A cancelled event's closure is destroyed at once and its heap node is
//    dropped lazily: when it reaches the head, or when cancelled nodes make
//    up half the heap and it is compacted. Every node keeps the seq it was
//    given at schedule time, so live events pop in exactly the order they
//    would have had without any cancellation. A cancelled event never runs,
//    never counts in events_processed() and never moves now().
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callable.h"
#include "sim/time.h"

namespace sdur::sim {

/// Handle of a scheduled event, for Simulator::cancel(). The seq is unique
/// per event, so an id whose event already fired or was cancelled stays
/// harmless after its slab slot is reused. A default id names no event.
struct TimerId {
  std::uint32_t slot = 0;
  std::uint64_t seq = ~std::uint64_t{0};
};

class Simulator {
 public:
  Simulator() {
    queue_.reserve(kHeapSlab);
    slots_.reserve(kHeapSlab);
    free_slots_.reserve(kHeapSlab);
  }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now()).
  TimerId schedule_at(Time t, UniqueFn fn) { return schedule_at(t, std::move(fn), nullptr, 0); }

  /// Guarded variant: `fn` runs only if `*guard == expected` when the event
  /// fires (the event itself still pops and counts). `guard` must stay
  /// valid while the event is queued; pass nullptr for unconditional.
  TimerId schedule_at(Time t, UniqueFn fn, const std::uint64_t* guard, std::uint64_t expected);

  /// Schedules `fn` after `delay` microseconds.
  TimerId schedule_after(Time delay, UniqueFn fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }
  TimerId schedule_after(Time delay, UniqueFn fn, const std::uint64_t* guard,
                         std::uint64_t expected) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn), guard, expected);
  }

  /// Cancels a queued event and destroys its closure. A default id, or one
  /// whose event already fired or was cancelled, does nothing.
  void cancel(TimerId id);

  /// Runs the next live event; returns false if none is queued or the
  /// simulator is stopped.
  bool step();

  /// Runs until the queue drains, `stop()` is called, or the event budget
  /// is exhausted.
  void run();

  /// Runs events with time <= t, then sets now() = t.
  void run_until(Time t);

  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  /// Events run (or popped with a failed guard); cancelled ones excluded.
  std::uint64_t events_processed() const { return events_processed_; }
  /// Live queued events; cancelled ones excluded.
  std::size_t pending_events() const { return queue_.size() - cancelled_; }

  /// Safety valve against runaway experiments (0 = unlimited).
  void set_event_budget(std::uint64_t budget) { event_budget_ = budget; }

 private:
  /// Initial capacity of the heap and callable slab; avoids reallocation
  /// churn while a deployment warms up.
  static constexpr std::size_t kHeapSlab = 4096;

  /// Heap node: plain data, cheap to sift.
  struct Event {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  static constexpr std::uint64_t kDead = TimerId{}.seq;

  /// Slab entry owning the callable (and its optional guard) for one
  /// queued event. Recycled through free_slots_ (LIFO, deterministic).
  /// `seq` equals the seq of the heap node using the slot while that
  /// event is live, and kDead once it fired or was cancelled.
  struct Slot {
    UniqueFn fn;
    const std::uint64_t* guard = nullptr;
    std::uint64_t expected = 0;
    std::uint64_t seq = kDead;
  };

  bool live(const Event& ev) const { return slots_[ev.slot].seq == ev.seq; }
  /// Pops cancelled nodes off the head so queue_.front() is live (or the
  /// queue is empty).
  void drop_cancelled_heads();
  /// Removes every cancelled node and re-heapifies.
  void compact();

  Time now_ = 0;
  bool stopped_ = false;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t event_budget_ = 0;
  std::size_t cancelled_ = 0;  // cancelled nodes still in queue_
  std::vector<Event> queue_;   // heap ordered by Later (min on (time, seq))
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace sdur::sim
