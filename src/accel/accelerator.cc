#include "accel/accelerator.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>

namespace accelflow::accel {

Accelerator::Accelerator(sim::Simulator& sim, const AccelParams& params,
                         mem::MemorySystem& mem, mem::Iommu& iommu,
                         noc::Location location)
    : sim_(sim),
      mem_(mem),
      iommu_(iommu),
      location_(location),
      clock_(params.clock_ghz),
      tlb_(params.tlb_entries, params.tlb_ways),
      input_(params.input_queue_entries),
      output_(params.output_queue_entries),
      free_pes_(params.num_pes) {
  s_.pes.resize(static_cast<std::size_t>(params.num_pes));
  s_.params = params;
  // QoS headroom applies to admission (the input queue) only; the output
  // queue is drained by the dispatcher regardless of priority.
  if (params.reserved_input_slots > 0) {
    input_.set_reserved(params.reserved_input_slots);
  }
}

bool Accelerator::idle() const {
  reclaim_released();
  return std::none_of(s_.pes.begin(), s_.pes.end(),
                      [](const Pe& p) { return p.busy; }) &&
         s_.blocked.empty() && input_.empty() && output_.empty() &&
         s_.overflow.empty();
}

void Accelerator::set_num_pes(int num_pes) {
  assert(num_pes > 0);
  assert(idle() && "set_num_pes requires an idle accelerator");
  s_.pes.assign(static_cast<std::size_t>(num_pes), Pe{});
  free_pes_ = num_pes;
  s_.params.num_pes = num_pes;
}

void Accelerator::set_queue_capacity(std::size_t entries) {
  assert(idle() && "set_queue_capacity requires an idle accelerator");
  reclaim_released();
  input_.set_capacity(entries);
  output_.set_capacity(entries);
  s_.params.input_queue_entries = entries;
  s_.params.output_queue_entries = entries;
}

void Accelerator::set_tracer(obs::Tracer* tracer, std::uint32_t accel_index) {
  tracer_ = tracer;
  tid_base_ = accel_index * kTidStride;
}

SlotId Accelerator::try_enqueue(QueueEntry e) {
  // Injected queue-full storm: refuse admission before touching the SRAM
  // queue, so its alloc/release identities stay intact and the caller
  // exercises its real full-queue path (retry / overflow / fallback).
  if (fault_hooks_ != nullptr && fault_hooks_->queue_reject(fault_unit_)) {
    ++s_.stats.injected_rejections;
    return kInvalidSlot;
  }
  e.enqueued_at = sim_.now();
  return input_.allocate(std::move(e));
}

void Accelerator::deliver_data(SlotId slot) {
  QueueEntry& e = input_.at(slot);
  assert(!e.ready && "data delivered twice");
  e.ready = true;
  if (s_.params.policy == SchedPolicy::kFifo) {
    ready_fifo_.emplace_back(e.seq, slot);
    std::push_heap(ready_fifo_.begin(), ready_fifo_.end(), std::greater<>{});
  }
  try_dispatch();
}

void Accelerator::release_input(SlotId slot) {
  input_.release(slot);
  drain_overflow();
}

bool Accelerator::overflow_enqueue(QueueEntry e) {
  if (tracer_ != nullptr) {
    tracer_->instant(obs::Subsys::kAccel, obs::SpanKind::kOverflow,
                     tid_base_ + kQueueTid, sim_.now(), s_.overflow.size(),
                     e.flow);
  }
  if (s_.overflow.size() >= s_.params.overflow_capacity) {
    ++s_.stats.overflow_rejections;
    return false;
  }
  // Count only entries that actually land in the area, so
  // overflow_enqueues == overflow_drains + overflow_occupancy() holds at
  // all times (the invariant checker audits it).
  ++s_.stats.overflow_enqueues;
  // Writing the entry to the overflow area costs a coherent memory write;
  // the data is cold when later refilled.
  e.enqueued_at = sim_.now();
  mem_.write(kInlineDataBytes, /*llc_hit_prob=*/0.5);
  s_.overflow.push_back(std::move(e));
  // An injected queue-reject can land an entry here while the SRAM queue
  // has room (a real full queue makes this a no-op). Refill immediately:
  // the drain is otherwise only triggered by dispatches and slot
  // releases, and an idle accelerator produces neither — the entry would
  // strand in the overflow area with no event left to pull it out.
  drain_overflow();
  return true;
}

void Accelerator::drain_overflow() {
  while (!s_.overflow.empty() && !input_.full()) {
    QueueEntry e = std::move(s_.overflow.front());
    s_.overflow.pop_front();
    ++s_.stats.overflow_drains;
    // Refill: read the entry back from memory; it becomes ready once the
    // read completes.
    const sim::TimePs done =
        mem_.read(kInlineDataBytes, /*llc_hit_prob=*/0.4).complete_at;
    // Overflowed entries already passed the admission edge once: refills
    // bypass the reserved headroom, or a priority-0 head would deadlock
    // the drain loop against a non-full queue.
    const SlotId slot = input_.allocate(std::move(e), /*bypass_reserve=*/true);
    assert(slot != kInvalidSlot);
    schedule_deliver(done, slot);
  }
}

bool Accelerator::holds_chain(const core::ChainContext* ctx) const {
  bool held = false;
  input_.for_each_occupied([&](SlotId, const QueueEntry& e) {
    if (e.ctx == ctx) held = true;
  });
  if (held) return true;
  for (const QueueEntry& e : s_.overflow) {
    if (e.ctx == ctx) return true;
  }
  for (const Pe& p : s_.pes) {
    // A killed PE's entry will never surface; don't report it as alive.
    if (p.busy && !p.killed && p.inflight.ctx == ctx) return true;
  }
  for (const BlockedDeposit& b : s_.blocked) {
    if (b.entry.ctx == ctx) return true;
  }
  reclaim_released();
  output_.for_each_occupied([&](SlotId, const QueueEntry& e) {
    if (e.ctx == ctx) held = true;
  });
  return held;
}

sim::TimePs Accelerator::translate(TenantId tenant, mem::VirtAddr va,
                                   std::uint64_t bytes, obs::FlowId flow) {
  sim::TimePs extra = 0;
  const std::uint64_t pages = mem::pages_spanned(va, bytes);
  const mem::PageNum first = mem::page_of(va);
  for (std::uint64_t p = 0; p < pages; ++p) {
    if (!tlb_.lookup(tenant, first + p)) {
      const auto res = iommu_.translate(tenant, first + p);
      if (tracer_ != nullptr) {
        // Mem-process tracks: tid 0 is the IOMMU, tid i + 1 the TLB of
        // accelerator i.
        tracer_->instant(obs::Subsys::kMem, obs::SpanKind::kTlbMiss,
                         tid_base_ / kTidStride + 1, sim_.now(), first + p,
                         flow);
        tracer_->complete(obs::Subsys::kMem, obs::SpanKind::kIommuWalk,
                          /*tid=*/0, sim_.now(), res.complete_at,
                          static_cast<std::uint64_t>(iommu_.params().levels),
                          flow);
        if (res.faulted) {
          tracer_->instant(obs::Subsys::kMem, obs::SpanKind::kPageFault,
                           /*tid=*/0, res.complete_at, 0, flow);
        }
      }
      if (res.faulted) {
        // Accelerator stops; CPU is interrupted; OS services the fault.
        ++s_.stats.faults;
        extra += sim::microseconds(s_.params.fault_service_us);
      }
      extra += res.complete_at > sim_.now() ? res.complete_at - sim_.now() : 0;
      tlb_.fill(tenant, first + p);
    }
  }
  return extra;
}

SlotId Accelerator::pick_ready_entry() {
  if (s_.params.policy == SchedPolicy::kFifo) {
    // The heap top either names the oldest ready entry or a slot whose
    // entry has since been dispatched (released, possibly reused for a
    // younger entry — a seq mismatch either way); stale tops are popped
    // here, valid ones stay until the dispatch releases the slot.
    while (!ready_fifo_.empty()) {
      const auto [seq, slot] = ready_fifo_.front();
      if (input_.occupied(slot) && input_.at(slot).seq == seq) {
        assert(input_.at(slot).ready);
        return slot;
      }
      std::pop_heap(ready_fifo_.begin(), ready_fifo_.end(),
                    std::greater<>{});
      ready_fifo_.pop_back();
    }
    return kInvalidSlot;
  }
  SlotId best = kInvalidSlot;
  // Priority aging (DESIGN.md §19): with a nonzero quantum, an entry's
  // effective priority rises by one per quantum waited, so a saturating
  // prioritized tenant cannot starve best-effort entries indefinitely.
  // Quantum 0 (the default) keeps the raw priority — bit-identical to
  // the pre-aging scheduler.
  const sim::TimePs quantum =
      s_.params.aging_quantum_us > 0.0
          ? sim::microseconds(s_.params.aging_quantum_us)
          : sim::TimePs{0};
  const auto effective = [&](const QueueEntry& e) -> std::uint64_t {
    std::uint64_t p = e.priority;
    if (quantum > 0 && sim_.now() > e.enqueued_at) {
      p += static_cast<std::uint64_t>((sim_.now() - e.enqueued_at) / quantum);
    }
    return p;
  };
  input_.for_each_occupied([&](SlotId s, QueueEntry& e) {
    if (!e.ready) return;
    if (best == kInvalidSlot) {
      best = s;
      return;
    }
    const QueueEntry& b = input_.at(best);
    switch (s_.params.policy) {
      case SchedPolicy::kFifo:
        if (e.seq < b.seq) best = s;
        break;
      case SchedPolicy::kPriority: {
        const std::uint64_t ep = effective(e);
        const std::uint64_t bp = effective(b);
        if (ep > bp || (ep == bp && e.seq < b.seq)) {
          best = s;
        }
        break;
      }
      case SchedPolicy::kEdf:
        if (e.deadline < b.deadline ||
            (e.deadline == b.deadline && e.seq < b.seq)) {
          best = s;
        }
        break;
    }
  });
  return best;
}

void Accelerator::try_dispatch() {
  for (;;) {
    // Find the lowest-numbered free PE. The counter short-circuits the
    // common fully-busy case; the scan itself stops at the first hit.
    if (free_pes_ == 0) return;
    int pe = -1;
    for (std::size_t i = 0; i < s_.pes.size(); ++i) {
      if (!s_.pes[i].busy) {
        pe = static_cast<int>(i);
        break;
      }
    }
    assert(pe >= 0);

    const SlotId slot = pick_ready_entry();
    if (slot == kInvalidSlot) return;

    QueueEntry entry = input_.at(slot);
    if (entry.seq < s_.last_dispatched_seq) ++s_.stats.reorders;
    s_.last_dispatched_seq = std::max(s_.last_dispatched_seq, entry.seq);
    s_.stats.input_queue_delay.record(sim_.now() - entry.enqueued_at);
    s_.stats.input_bytes.add(entry.payload.size_bytes);
    if (entry.deadline != sim::kTimeNever && sim_.now() > entry.deadline) {
      ++s_.stats.deadline_misses;
    }

    // The entry moves out of the queue into the PE and the slot clears
    // immediately (Section V.1), making room for overflow refills.
    input_.release(slot);
    drain_overflow();

    Pe& p = s_.pes[static_cast<std::size_t>(pe)];
    p.busy = true;
    --free_pes_;
    sim::TimePs t = sim_.now();

    // Fault injection (DESIGN.md §14): a stall stretches this job's
    // service time; a kill lets the PE run but drops its result at
    // on_pe_done. Both are decided here so the completion callback still
    // captures only the PE index.
    p.killed = false;
    if (fault_hooks_ != nullptr) {
      t += fault_hooks_->pe_stall(fault_unit_);
      p.killed = fault_hooks_->pe_kill(fault_unit_);
    }

    // Tenant isolation: clear PE + scratchpad between tenants (IV-D).
    if (p.has_tenant && p.last_tenant != entry.tenant) {
      t += sim::nanoseconds(s_.params.tenant_wipe_ns);
      ++s_.stats.tenant_wipes;
    }
    p.has_tenant = true;
    p.last_tenant = entry.tenant;

    // Queue -> scratchpad transfer (Table III), pipelined per PE port.
    const std::uint64_t inline_bytes =
        std::min<std::uint64_t>(entry.payload.size_bytes, kInlineDataBytes);
    t += sim::nanoseconds(s_.params.queue_to_spad_latency_ns);
    t += static_cast<sim::TimePs>(static_cast<double>(inline_bytes) /
                                  (s_.params.queue_to_spad_gbps * 1e9 / 1e12));

    // Large payloads: fetch the remainder through the Memory Pointer,
    // translating through the accelerator TLB.
    if (entry.payload.size_bytes > kInlineDataBytes) {
      ++s_.stats.large_payload_jobs;
      const std::uint64_t rest = entry.payload.size_bytes - kInlineDataBytes;
      t += translate(entry.tenant, entry.payload.va, rest, entry.flow);
      const auto acc = mem_.read(rest, /*llc_hit_prob=*/0.8);
      t = std::max(t, acc.complete_at);
    }

    // The computation itself: CPU-equivalent cost divided by the speedup.
    const auto compute = static_cast<sim::TimePs>(
        static_cast<double>(entry.cpu_cost) / s_.params.speedup + 0.5);
    t += compute;

    ++s_.stats.jobs;
    s_.stats.pe_busy_time += t - sim_.now();
    if (tracer_ != nullptr) {
      const obs::FlowId flow = entry.flow;
      tracer_->complete(obs::Subsys::kAccel, obs::SpanKind::kQueueWait,
                        tid_base_ + kQueueTid, entry.enqueued_at, sim_.now(),
                        entry.payload.size_bytes, flow);
      tracer_->complete(obs::Subsys::kAccel, obs::SpanKind::kPeExecute,
                        tid_base_ + static_cast<std::uint32_t>(pe), sim_.now(),
                        t, entry.payload.size_bytes, flow);
      // The chain arrow lands on this PE-execute slice.
      tracer_->flow(obs::Phase::kFlowStep, obs::Subsys::kAccel,
                    tid_base_ + static_cast<std::uint32_t>(pe), sim_.now(),
                    flow);
    }
    p.free_at = t;
    p.inflight = std::move(entry);
    sim_.schedule_at(t, [this, pe] { on_pe_done(pe); });
  }
}

void Accelerator::on_pe_done(int pe) {
  Pe& p = s_.pes[static_cast<std::size_t>(pe)];
  if (p.killed) {
    // Injected hard-failure: the result never reaches the output queue.
    // Accounted in killed_jobs (the checker's quiescence identity becomes
    // jobs == output deposits + killed_jobs); the orchestrator's hop
    // watchdog notices the missing hop and retries or falls back.
    p.killed = false;
    p.inflight = QueueEntry{};
    ++s_.stats.killed_jobs;
    p.busy = false;
    ++free_pes_;
    try_dispatch();
    return;
  }
  reclaim_released();
  if (output_.full()) {
    // PE is non-preemptible and has nowhere to put its result: it blocks
    // until the output dispatcher frees a slot. Only now can a release
    // wake anything, so the deferred ones become calendar events.
    s_.blocked.push_back(BlockedDeposit{pe, std::move(p.inflight), sim_.now()});
    post_pending_releases();
    return;
  }
  deposit_output(std::move(p.inflight));
  p.busy = false;
  ++free_pes_;
  try_dispatch();
}

void Accelerator::deposit_output(QueueEntry entry) {
  s_.stats.output_bytes.add(entry.payload.size_bytes);
  entry.enqueued_at = sim_.now();
  const SlotId slot = output_.allocate(std::move(entry));
  assert(slot != kInvalidSlot);
  assert(handler_ != nullptr && "no output handler installed");
  handler_->handle_output(*this, slot);
}

sim::TimePs Accelerator::occupy_dispatcher(sim::TimePs duration,
                                           obs::FlowId flow) {
  const sim::TimePs start = std::max(sim_.now(), s_.dispatcher_busy_until);
  s_.dispatcher_busy_until = start + duration;
  s_.dispatcher_busy_accum += duration;
  if (tracer_ != nullptr) {
    tracer_->complete(obs::Subsys::kAccel, obs::SpanKind::kDispatcherFsm,
                      tid_base_ + kDispatcherTid, start,
                      s_.dispatcher_busy_until, 0, flow);
  }
  return s_.dispatcher_busy_until;
}

void Accelerator::release_output_at(sim::TimePs when, SlotId slot) {
  assert(when >= sim_.now() && "cannot release in the past");
  const PendingRelease r{when, sim_.reserve_seq(), slot};
  if (!s_.blocked.empty()) {
    post_release(r);
    return;
  }
  s_.released.push_back(r);
  std::push_heap(s_.released.begin(), s_.released.end(), fires_after);
}

void Accelerator::post_pending_releases() {
  for (const PendingRelease& r : s_.released) post_release(r);
  s_.released.clear();
}

void Accelerator::post_release(const PendingRelease& r) {
  const SlotId slot = r.slot;
  sim_.schedule_at_seq(r.at, r.seq, [this, slot] { release_output(slot); });
}

void Accelerator::reclaim_released() const {
  while (!s_.released.empty() &&
         sim_.fired(s_.released.front().at, s_.released.front().seq)) {
    output_.release(s_.released.front().slot);
    std::pop_heap(s_.released.begin(), s_.released.end(), fires_after);
    s_.released.pop_back();
  }
}

void Accelerator::release_output(SlotId slot) {
  // Deferred releases stamped before this one free first, as their
  // events would have.
  reclaim_released();
  output_.release(slot);
  if (!s_.blocked.empty()) {
    BlockedDeposit b = std::move(s_.blocked.front());
    s_.blocked.pop_front();
    s_.stats.pe_blocked_time += sim_.now() - b.blocked_since;
    deposit_output(std::move(b.entry));
    Pe& p = s_.pes[static_cast<std::size_t>(b.pe)];
    p.busy = false;
    ++free_pes_;
    try_dispatch();
  }
}

double Accelerator::pe_utilization() const {
  const sim::TimePs elapsed = sim_.now();
  if (elapsed == 0) return 0.0;
  return static_cast<double>(s_.stats.pe_busy_time) /
         (static_cast<double>(elapsed) * static_cast<double>(s_.pes.size()));
}

}  // namespace accelflow::accel
