#include "mem/axi_memory.h"

#include "checkpoint/state_io.h"

namespace vidi {

AxiMemory::AxiMemory(Simulator &sim, const std::string &name,
                     const Axi4Bus &bus, DramModel &mem,
                     unsigned read_latency, unsigned write_ack_latency)
    : Module(name), sim_(sim), bus_(bus), mem_(mem),
      read_latency_(read_latency),
      write_ack_latency_(write_ack_latency), aw_(*bus.aw, 8), w_(*bus.w, 64),
      b_(*bus.b), ar_(*bus.ar, 8), r_(*bus.r)
{
    // eval() only drives the port endpoints from registered state;
    // re-running it mid-settle is needed only when a bus channel moved.
    sensitive(*bus.aw);
    sensitive(*bus.w);
    sensitive(*bus.b);
    sensitive(*bus.ar);
    sensitive(*bus.r);
}

uint64_t
AxiMemory::idleUntil(uint64_t now) const
{
    // Anything buffered, presented or arriving means per-cycle work. A
    // W beat held valid by the master also does: with PCIe pacing the
    // tick refills tokens while data is pending even before the beat
    // can be accepted.
    if (aw_.available() || w_.buffered() > 0 || ar_.available() ||
        !b_.idle() || !r_.idle() || bus_.w->valid())
        return now;
    // Read beats awaiting their latency also consume PCIe tokens.
    if (pcie_ != nullptr && !pending_r_.empty())
        return now;
    // Only latency timers remain: responses release in queue order, so
    // the next interesting tick is whichever front comes due first.
    uint64_t wake = kIdleForever;
    if (!pending_b_.empty() && pending_b_.front().first < wake)
        wake = pending_b_.front().first;
    if (!pending_r_.empty() && pending_r_.front().first < wake)
        wake = pending_r_.front().first;
    return wake <= now ? now : wake;
}

void
AxiMemory::eval()
{
    if (pcie_ != nullptr) {
        const int64_t beat = static_cast<int64_t>(kAxiDataBytes);
        w_.setEnabled(tokens_ >= beat);
        r_.setEnabled(tokens_ >= beat);
    }
    aw_.eval();
    w_.eval();
    b_.eval();
    ar_.eval();
    r_.eval();
}

void
AxiMemory::tick()
{
    aw_.tick();
    if (w_.tick() && pcie_ != nullptr)
        tokens_ -= static_cast<int64_t>(kAxiDataBytes);
    b_.tick();
    ar_.tick();
    if (r_.tick() && pcie_ != nullptr)
        tokens_ -= static_cast<int64_t>(kAxiDataBytes);

    if (pcie_ != nullptr) {
        const bool moving = aw_.available() || w_.buffered() > 0 ||
                            !pending_r_.empty() || !r_.idle() ||
                            bus_.w->valid();
        const int64_t target = 2 * static_cast<int64_t>(kAxiDataBytes);
        if (moving && tokens_ < target) {
            tokens_ += static_cast<int64_t>(
                pcie_->request(static_cast<uint64_t>(target - tokens_)));
        }
    }

    const uint64_t now = sim_.cycle();

    // Match a complete write burst: the address plus all of its beats.
    // Per AXI, byte lanes are relative to the *aligned* address; an
    // unaligned first beat masks its leading lanes with strobes.
    while (aw_.available() && w_.buffered() >= aw_.front().beats()) {
        const AxiAx addr = aw_.pop();
        const uint64_t base = addr.addr & ~(uint64_t(kAxiDataBytes) - 1);
        for (unsigned i = 0; i < addr.beats(); ++i) {
            const AxiW beat = w_.pop();
            mem_.writeStrobed(base + uint64_t(i) * kAxiDataBytes,
                              beat.data.data(), kAxiDataBytes, beat.strb);
        }
        AxiB resp;
        resp.id = addr.id;
        resp.resp = static_cast<uint8_t>(AxiResp::Okay);
        pending_b_.push_back({now + write_ack_latency_, resp});
    }

    // Serve read bursts: one beat per cycle after the read latency;
    // lanes are aligned, as on the write path.
    while (ar_.available()) {
        const AxiAx addr = ar_.pop();
        const uint64_t base = addr.addr & ~(uint64_t(kAxiDataBytes) - 1);
        for (unsigned i = 0; i < addr.beats(); ++i) {
            AxiR beat;
            mem_.read(base + uint64_t(i) * kAxiDataBytes,
                      beat.data.data(), kAxiDataBytes);
            beat.id = addr.id;
            beat.resp = static_cast<uint8_t>(AxiResp::Okay);
            beat.last = (i + 1 == addr.beats()) ? 1 : 0;
            pending_r_.push_back({now + read_latency_ + i, beat});
        }
    }

    while (!pending_b_.empty() && pending_b_.front().first <= now) {
        b_.queue(pending_b_.front().second);
        pending_b_.pop_front();
        ++writes_completed_;
    }
    while (!pending_r_.empty() && pending_r_.front().first <= now) {
        if (pending_r_.front().second.last)
            ++reads_completed_;
        r_.queue(pending_r_.front().second);
        pending_r_.pop_front();
    }
}

void
AxiMemory::reset()
{
    aw_.reset();
    w_.reset();
    b_.reset();
    ar_.reset();
    r_.reset();
    pending_b_.clear();
    pending_r_.clear();
    writes_completed_ = 0;
    reads_completed_ = 0;
    tokens_ = 0;
}

void
AxiMemory::saveState(StateWriter &w) const
{
    w.u64(uint64_t(tokens_));

    aw_.saveState(w);
    w_.saveState(w);
    b_.saveState(w);
    ar_.saveState(w);
    r_.saveState(w);

    w.u32(uint32_t(pending_b_.size()));
    for (const auto &[due, resp] : pending_b_) {
        w.u64(due);
        w.pod(resp);
    }
    w.u32(uint32_t(pending_r_.size()));
    for (const auto &[due, beat] : pending_r_) {
        w.u64(due);
        w.pod(beat);
    }
    w.u64(writes_completed_);
    w.u64(reads_completed_);

    w.b(checkpoint_owns_mem_);
    if (checkpoint_owns_mem_)
        mem_.saveState(w);
}

void
AxiMemory::loadState(StateReader &r)
{
    tokens_ = int64_t(r.u64());

    aw_.loadState(r);
    w_.loadState(r);
    b_.loadState(r);
    ar_.loadState(r);
    r_.loadState(r);

    pending_b_.clear();
    const uint32_t nb = r.u32();
    for (uint32_t i = 0; i < nb; ++i) {
        const uint64_t due = r.u64();
        pending_b_.push_back({due, r.pod<AxiB>()});
    }
    pending_r_.clear();
    const uint32_t nr = r.u32();
    for (uint32_t i = 0; i < nr; ++i) {
        const uint64_t due = r.u64();
        pending_r_.push_back({due, r.pod<AxiR>()});
    }
    writes_completed_ = r.u64();
    reads_completed_ = r.u64();

    const bool owned = r.b();
    if (owned != checkpoint_owns_mem_)
        fatal("checkpoint: %s memory-ownership flag mismatch "
              "(checkpoint %d, design %d)",
              name().c_str(), int(owned), int(checkpoint_owns_mem_));
    if (checkpoint_owns_mem_)
        mem_.loadState(r);
}

} // namespace vidi
