#include "sim/simulator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/fabric_stats.h"

namespace sdur::sim {

TimerId Simulator::schedule_at(Time t, UniqueFn fn, const std::uint64_t* guard,
                               std::uint64_t expected) {
  if (t < now_) t = now_;
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), guard, expected, seq});
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.guard = guard;
    s.expected = expected;
    s.seq = seq;
  }
  queue_.push_back(Event{t, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return TimerId{slot, seq};
}

void Simulator::cancel(TimerId id) {
  if (id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.seq != id.seq || s.seq == kDead) return;
  s.seq = kDead;
  s.fn = UniqueFn{};
  s.guard = nullptr;
  SDUR_FABRIC_COUNT(events_cancelled += 1);
  // The node stays in the heap until it reaches the head or a compaction
  // removes it; its slot is recycled only then.
  if (++cancelled_ * 2 >= queue_.size()) compact();
}

void Simulator::drop_cancelled_heads() {
  while (!queue_.empty() && !live(queue_.front())) {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    free_slots_.push_back(queue_.back().slot);
    queue_.pop_back();
    --cancelled_;
  }
}

void Simulator::compact() {
  const auto dead =
      std::partition(queue_.begin(), queue_.end(), [this](const Event& ev) { return live(ev); });
  for (auto it = dead; it != queue_.end(); ++it) free_slots_.push_back(it->slot);
  queue_.erase(dead, queue_.end());
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  cancelled_ = 0;
}

bool Simulator::step() {
  if (stopped_) return false;
  drop_cancelled_heads();
  if (queue_.empty()) return false;
  if (event_budget_ != 0 && events_processed_ >= event_budget_) {
    throw std::runtime_error("simulator event budget exhausted");
  }
#if SDUR_FABRIC_COUNTERS
  FabricCounters& fc = fabric_counters();
  const std::size_t depth = pending_events();
  fc.heap_depth_sum += depth;
  fc.heap_depth_peak = std::max<std::uint64_t>(fc.heap_depth_peak, depth);
#endif
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Event ev = queue_.back();
  queue_.pop_back();
  now_ = ev.time;
  ++events_processed_;
  // Move the callable out and recycle the slot *before* invoking: the
  // closure may schedule new events that reuse it.
  Slot& s = slots_[ev.slot];
  UniqueFn fn = std::move(s.fn);
  const bool runnable = s.guard == nullptr || *s.guard == s.expected;
  s.guard = nullptr;
  s.seq = kDead;
  free_slots_.push_back(ev.slot);
  if (runnable) fn();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time t) {
  while (!stopped_) {
    drop_cancelled_heads();
    if (queue_.empty() || queue_.front().time > t) break;
    step();
  }
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace sdur::sim
