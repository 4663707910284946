#include "sim/process.h"

#include <algorithm>

#include "util/logging.h"

namespace sdur::sim {

Process::Process(Network& net, ProcessId id, std::string name, Location loc)
    : net_(net), id_(id), name_(std::move(name)) {
  net_.attach(this, loc);
}

Process::~Process() { net_.detach(id_); }

void Process::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  SDUR_INFO(name_) << "crashed";
}

void Process::recover() {
  if (!crashed_) return;
  crashed_ = false;
  ++epoch_;
  std::fill(cpu_free_at_.begin(), cpu_free_at_.end(), now());
  SDUR_INFO(name_) << "recovered";
  on_recover();
}

void Process::send(ProcessId to, Message m) {
  if (crashed_) return;
  net_.send(id_, to, std::move(m));
}

TimerId Process::set_timer(Time delay, UniqueFn fn) {
  if (crashed_) return TimerId{};
  // Epoch guard without a wrapper closure: crash() and recover() both bump
  // epoch_, so anything scheduled before either is skipped at fire time.
  // (Nothing schedules while crashed — every entry point returns early —
  // so the epoch check alone is the complete crash-stop guard.)
  return net_.simulator().schedule_after(delay, std::move(fn), &epoch_, epoch_);
}

void Process::set_core_count(std::size_t cores) {
  if (cores == 0) cores = 1;
  cpu_free_at_.resize(cores, now());
  core_busy_.resize(cores, 0);
}

void Process::charge_core(std::size_t core, Time cost) {
  if (core >= cpu_free_at_.size()) core = cpu_free_at_.size() - 1;
  if (cost < 0) cost = 0;
  cpu_free_at_[core] = std::max(now(), cpu_free_at_[core]) + cost;
  core_busy_[core] += cost;
}

Time Process::reserve_core(std::size_t core, Time cost) {
  if (core >= cpu_free_at_.size()) core = cpu_free_at_.size() - 1;
  if (cost < 0) cost = 0;
  const Time done = std::max(now(), cpu_free_at_[core]) + cost;
  cpu_free_at_[core] = done;
  core_busy_[core] += cost;
  return done;
}

void Process::enqueue_work_on(std::size_t core, Time cost, UniqueFn fn) {
  if (crashed_) return;
  const Time done = reserve_core(core, cost);
  net_.simulator().schedule_at(done, std::move(fn), &epoch_, epoch_);
}

void Process::enqueue_work_multi(const std::vector<std::uint32_t>& cores, Time cost,
                                 UniqueFn fn) {
  if (crashed_) return;
  if (cores.size() <= 1) {
    enqueue_work_on(cores.empty() ? 0 : cores.front(), cost, std::move(fn));
    return;
  }
  if (cost < 0) cost = 0;
  // Barrier semantics: the work starts once every involved core is free
  // (the earlier cores sit idle at the rendezvous, exactly like P-DUR
  // worker threads blocked on a cross-core transaction) and occupies all
  // of them until it completes.
  Time start = now();
  for (std::uint32_t c : cores) start = std::max(start, core_free_at(c));
  const Time done = start + cost;
  for (std::uint32_t c : cores) {
    const std::size_t i = c < cpu_free_at_.size() ? c : cpu_free_at_.size() - 1;
    core_busy_[i] += done - std::max(now(), cpu_free_at_[i]);
    cpu_free_at_[i] = done;
  }
  net_.simulator().schedule_at(done, std::move(fn), &epoch_, epoch_);
}

void Process::incoming(Message m, ProcessId from) {
  if (crashed_) return;
  // Hottest event in the fabric: schedule the handler directly (epoch-
  // guarded, core accounting identical to enqueue_work). The closure fits
  // UniqueFn's inline buffer, so delivering a message allocates nothing.
  const Time done = reserve_core(0, message_service_time_);
  net_.simulator().schedule_at(
      done, [this, from, m = std::move(m)]() { on_message(m, from); }, &epoch_, epoch_);
}

}  // namespace sdur::sim
