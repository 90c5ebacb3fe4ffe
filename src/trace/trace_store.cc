#include "trace/trace_store.h"

#include "checkpoint/state_io.h"

#include <algorithm>
#include <cstring>

#include "fault/fault_injector.h"
#include "sim/logging.h"

namespace vidi {

ByteFifo::ByteFifo(size_t capacity) : buf_(capacity) {}

void
ByteFifo::push(const uint8_t *src, size_t len)
{
    if (len > space())
        panic("ByteFifo::push of %zu bytes into %zu bytes of space", len,
              space());
    // At most two contiguous segments around the ring boundary.
    const size_t tail = (head_ + size_) % buf_.size();
    const size_t first = std::min(len, buf_.size() - tail);
    std::memcpy(buf_.data() + tail, src, first);
    std::memcpy(buf_.data(), src + first, len - first);
    size_ += len;
    high_water_ = std::max(high_water_, size_);
}

bool
ByteFifo::tryPush(const uint8_t *src, size_t len)
{
    if (len > space())
        return false;
    push(src, len);
    return true;
}

size_t
ByteFifo::peek(uint8_t *dst, size_t max) const
{
    const size_t n = std::min(max, size_);
    const size_t first = std::min(n, buf_.size() - head_);
    std::memcpy(dst, buf_.data() + head_, first);
    std::memcpy(dst + first, buf_.data(), n - first);
    return n;
}

void
ByteFifo::consume(size_t len)
{
    if (len > size_)
        panic("ByteFifo::consume of %zu bytes with %zu buffered", len,
              size_);
    head_ = (head_ + len) % buf_.size();
    size_ -= len;
}

size_t
ByteFifo::consumeUpTo(size_t max)
{
    const size_t n = std::min(max, size_);
    head_ = (head_ + n) % buf_.size();
    size_ -= n;
    return n;
}

void
ByteFifo::reset()
{
    head_ = 0;
    size_ = 0;
    high_water_ = 0;
}

TraceStore::TraceStore(const std::string &name, HostMemory &host,
                       PcieBus &bus, size_t fifo_bytes)
    : Module(name), host_(host), bus_(bus), fifo_(fifo_bytes)
{
    setEvalMode(EvalMode::Never);  // no combinational logic
}

void
TraceStore::configureDrain(OverflowPolicy policy, uint64_t backoff_limit,
                           uint64_t escalation_cycles)
{
    policy_ = policy;
    backoff_limit_ = std::max<uint64_t>(backoff_limit, 1);
    escalation_cycles_ = std::max<uint64_t>(escalation_cycles, 1);
}

void
TraceStore::beginRecord(uint64_t dram_base)
{
    mode_ = Mode::Record;
    dram_base_ = dram_base;
    dram_pos_ = 0;
    bytes_stored_ = 0;
    lines_written_ = 0;
    push_pos_ = 0;
    head_pos_ = 0;
    pkt_starts_.clear();
    pending_discontinuity_ = false;
    pushed_since_tick_ = false;
    carry_bytes_ = 0;
    line_batch_.clear();
    batch_addr_ = 0;
    backoff_wait_ = 0;
    next_backoff_ = 1;
    stall_streak_ = 0;
    fifo_.reset();
}

void
TraceStore::pushBytes(const uint8_t *src, size_t len)
{
    if (mode_ != Mode::Record)
        panic("TraceStore(%s)::pushBytes outside record mode",
              name().c_str());
    if (len == 0)
        return;
    // Each push carries one whole cycle packet: remember the boundary so
    // the line covering it gets a resynchronization anchor.
    pkt_starts_.push_back(push_pos_);
    fifo_.push(src, len);
    push_pos_ += len;
    pushed_since_tick_ = true;
}

void
TraceStore::beginReplay(uint64_t dram_base, uint64_t len)
{
    mode_ = Mode::Replay;
    dram_base_ = dram_base;
    dram_pos_ = 0;
    replay_len_ = len;
    bytes_stored_ = 0;
    carry_bytes_ = 0;
    fetch_index_ = 0;
    expected_seq_ = 0;
    resync_ = false;
    damage_barrier_ = false;
    staged_.clear();
    damage_ = TraceDamageReport{};
    fifo_.reset();
}

void
TraceStore::consume(size_t len)
{
    if (mode_ != Mode::Replay)
        panic("TraceStore(%s)::consume outside replay mode",
              name().c_str());
    fifo_.consume(len);
}

bool
TraceStore::exhausted() const
{
    return mode_ == Mode::Replay && dram_pos_ >= replay_len_ &&
           fifo_.empty() && staged_.empty() && !damage_barrier_;
}

void
TraceStore::noteTailDiscard(size_t len)
{
    damage_.tail_bytes_discarded += len;
}

void
TraceStore::emitLine()
{
    const size_t len = std::min<size_t>(kStorageLinePayload, fifo_.size());
    uint8_t payload[kStorageLinePayload];
    fifo_.peek(payload, len);
    fifo_.consume(len);

    // The first packet boundary inside this line, if any, becomes the
    // reader's resynchronization anchor.
    uint8_t first_off = kNoPacketStart;
    while (!pkt_starts_.empty() && pkt_starts_.front() < head_pos_ + len) {
        if (first_off == kNoPacketStart &&
            pkt_starts_.front() >= head_pos_)
            first_off = uint8_t(pkt_starts_.front() - head_pos_);
        pkt_starts_.pop_front();
    }
    head_pos_ += len;

    uint8_t line[kStorageLineBytes];
    const uint8_t flags = pending_discontinuity_ ? kFlagDiscontinuity : 0;
    const uint64_t seq = lines_written_++;
    encodeStorageLine(uint32_t(seq), payload, len, first_off, flags, line);
    pending_discontinuity_ = false;
    bytes_stored_ += len;

    // Fault hooks model the DMA path: the store believes every write
    // succeeded, exactly like real posted writes. Dropped lines do not
    // advance dram_pos_, so faults break write contiguity — take the
    // per-line path whenever an injector is attached.
    if (fault_ != nullptr) {
        if (fault_->dropLine(seq))
            return;
        fault_->corruptLine(seq, line, kStorageLineBytes);
        if (fault_->dupLine(seq)) {
            host_.mem().write(dram_base_ + dram_pos_, line,
                              kStorageLineBytes);
            dram_pos_ += kStorageLineBytes;
        }
        host_.mem().write(dram_base_ + dram_pos_, line, kStorageLineBytes);
        dram_pos_ += kStorageLineBytes;
        return;
    }

    // Fault-free drain: batch consecutive lines of this tick into one
    // contiguous host write (flushed at the end of tickRecord()).
    if (line_batch_.empty())
        batch_addr_ = dram_base_ + dram_pos_;
    line_batch_.insert(line_batch_.end(), line, line + kStorageLineBytes);
    dram_pos_ += kStorageLineBytes;
}

void
TraceStore::flushLineBatch()
{
    if (line_batch_.empty())
        return;
    host_.mem().write(batch_addr_, line_batch_.data(), line_batch_.size());
    line_batch_.clear();
}

void
TraceStore::shedBufferedPayload()
{
    const size_t n = fifo_.size();
    if (n == 0)
        return;
    fifo_.consumeUpTo(n);
    head_pos_ = push_pos_;
    pkt_starts_.clear();
    dropped_payload_bytes_ += n;
    ++overflow_drops_;
    pending_discontinuity_ = true;
    stall_streak_ = 0;
    warn("TraceStore(%s): PCIe drain stalled past the escalation "
         "threshold; shed %zu buffered payload bytes (drop-with-report)",
         name().c_str(), n);
}

void
TraceStore::tickRecord()
{
    const bool quiet = !pushed_since_tick_;
    pushed_since_tick_ = false;

    if (fifo_.empty()) {
        stall_streak_ = 0;
        backoff_wait_ = 0;
        next_backoff_ = 1;
        return;
    }
    // Pack full-payload lines while data streams in; flush a partial
    // line only on quiet cycles (end-of-burst, end-of-run drain).
    if (fifo_.size() < kStorageLinePayload && !quiet)
        return;

    if (backoff_wait_ > 0) {
        --backoff_wait_;
        ++stall_cycles_;
        if (++stall_streak_ >= escalation_cycles_ &&
            policy_ == OverflowPolicy::DropWithReport)
            shedBufferedPayload();
        return;
    }

    const uint64_t lines_needed =
        (fifo_.size() + kStorageLinePayload - 1) / kStorageLinePayload;
    const uint64_t want = lines_needed * kStorageLineBytes;
    uint64_t granted = 0;
    if (want > carry_bytes_)
        granted = bus_.request(want - carry_bytes_);
    carry_bytes_ += granted;

    if (carry_bytes_ < kStorageLineBytes) {
        // Nothing emittable this cycle: retry with bounded exponential
        // backoff instead of hammering a stalled link.
        ++stall_cycles_;
        ++drain_retries_;
        backoff_wait_ = next_backoff_;
        next_backoff_ = std::min(next_backoff_ * 2, backoff_limit_);
        if (++stall_streak_ >= escalation_cycles_ &&
            policy_ == OverflowPolicy::DropWithReport)
            shedBufferedPayload();
        return;
    }

    stall_streak_ = 0;
    next_backoff_ = 1;
    while (carry_bytes_ >= kStorageLineBytes && !fifo_.empty() &&
           (fifo_.size() >= kStorageLinePayload || quiet)) {
        emitLine();
        carry_bytes_ -= kStorageLineBytes;
    }
    flushLineBatch();
}

void
TraceStore::processFetchedLine(const uint8_t *line)
{
    damage_.lines_total++;
    StorageLineView v;
    if (!decodeStorageLine(line, v)) {
        damage_.note(DamageKind::CorruptLine, expected_seq_, 1, 0);
        resync_ = true;
        ++expected_seq_;  // assume the damaged slot held this line
        return;
    }
    if (v.seq < expected_seq_) {
        damage_.note(DamageKind::DuplicateLine, v.seq, 1, 0);
        return;
    }
    if (v.seq > expected_seq_) {
        damage_.note(DamageKind::MissingLines, expected_seq_,
                     v.seq - expected_seq_, 0);
        resync_ = true;
    }
    expected_seq_ = uint64_t(v.seq) + 1;

    const bool discont = (v.flags & kFlagDiscontinuity) != 0;
    if (discont && !resync_)
        damage_.note(DamageKind::Discontinuity, v.seq, 0, 0);
    if (resync_ || discont) {
        if (v.first_pkt_off == kNoPacketStart) {
            // Mid-packet line with no anchor: unusable until one shows.
            damage_.note(DamageKind::UnalignedSkip, v.seq, 1,
                         v.payload_len);
            resync_ = true;
            return;
        }
        const size_t skip = v.first_pkt_off;
        if (skip > 0)
            damage_.payload_bytes_lost += skip;
        damage_.resyncs++;
        resync_ = false;
        damage_.lines_ok++;
        // Park behind a barrier: the decoder must first discard the
        // partial packet the damage cut short, then this re-aligned
        // payload resumes the stream.
        staged_.assign(v.payload + skip, v.payload + v.payload_len);
        damage_barrier_ = true;
        return;
    }
    damage_.lines_ok++;
    fifo_.push(v.payload, v.payload_len);
}

void
TraceStore::tickReplay()
{
    // Flush payload staged at a cleared damage barrier first.
    if (!damage_barrier_ && !staged_.empty() &&
        fifo_.space() >= staged_.size()) {
        fifo_.push(staged_.data(), staged_.size());
        staged_.clear();
    }
    if (damage_barrier_ || !staged_.empty())
        return;

    uint64_t remaining = replay_len_ - dram_pos_;
    if (remaining == 0)
        return;
    if (remaining < kStorageLineBytes) {
        // The stream ends inside a line: a truncated tail.
        damage_.lines_total++;
        damage_.note(DamageKind::TruncatedTail, expected_seq_, 1,
                     remaining);
        dram_pos_ = replay_len_;
        return;
    }

    const uint64_t lines = std::min<uint64_t>(
        remaining / kStorageLineBytes,
        fifo_.space() / kStorageLinePayload);
    if (lines == 0)
        return;
    const uint64_t want = lines * kStorageLineBytes;
    if (want > carry_bytes_)
        carry_bytes_ += bus_.request(want - carry_bytes_);

    while (carry_bytes_ >= kStorageLineBytes && !damage_barrier_ &&
           staged_.empty() && fifo_.space() >= kStorageLinePayload &&
           replay_len_ - dram_pos_ >= kStorageLineBytes) {
        uint8_t line[kStorageLineBytes];
        host_.mem().read(dram_base_ + dram_pos_, line, kStorageLineBytes);
        dram_pos_ += kStorageLineBytes;
        carry_bytes_ -= kStorageLineBytes;
        const uint64_t slot = fetch_index_++;
        if (fault_ != nullptr) {
            if (fault_->dropLine(slot))
                continue;  // the DMA read lost this line
            fault_->corruptLine(slot, line, kStorageLineBytes);
        }
        processFetchedLine(line);
        if (fault_ != nullptr && fault_->dupLine(slot))
            processFetchedLine(line);  // delivered twice
    }
}

void
TraceStore::tick()
{
    if (mode_ == Mode::Record)
        tickRecord();
    else if (mode_ == Mode::Replay)
        tickReplay();
}

uint64_t
TraceStore::idleUntil(uint64_t now) const
{
    // With an injector attached every cycle runs for real (the shared
    // PcieBus reports the same, but stay self-contained).
    if (fault_ != nullptr)
        return now;
    switch (mode_) {
    case Mode::Idle:
        return kIdleForever;
    case Mode::Record:
        // A non-empty FIFO means draining (or backing off) every cycle.
        // An empty FIFO can only refill via the encoder, which reports
        // active in any cycle it stages events.
        return fifo_.empty() ? kIdleForever : now;
    case Mode::Replay:
        if (exhausted())
            return kIdleForever;
        if (damage_barrier_)
            return kIdleForever; // decoder is active until it acks
        if (!staged_.empty())
            return now; // flush re-aligned payload when space allows
        if (dram_pos_ >= replay_len_)
            return kIdleForever; // fetched everything; decoder drains
        if (fifo_.space() >= kStorageLinePayload)
            return now; // can fetch more lines
        return kIdleForever; // FIFO full; decoder is active until space
    }
    return now;
}

void
TraceStore::reset()
{
    mode_ = Mode::Idle;
    dram_base_ = 0;
    dram_pos_ = 0;
    replay_len_ = 0;
    bytes_stored_ = 0;
    lines_written_ = 0;
    push_pos_ = 0;
    head_pos_ = 0;
    pkt_starts_.clear();
    pending_discontinuity_ = false;
    pushed_since_tick_ = false;
    carry_bytes_ = 0;
    line_batch_.clear();
    batch_addr_ = 0;
    backoff_wait_ = 0;
    next_backoff_ = 1;
    stall_streak_ = 0;
    drain_retries_ = 0;
    stall_cycles_ = 0;
    overflow_drops_ = 0;
    dropped_payload_bytes_ = 0;
    fetch_index_ = 0;
    expected_seq_ = 0;
    resync_ = false;
    damage_barrier_ = false;
    staged_.clear();
    damage_ = TraceDamageReport{};
    fifo_.reset();
}

void
ByteFifo::saveState(StateWriter &w) const
{
    w.u64(high_water_);
    std::vector<uint8_t> contents(size_);
    peek(contents.data(), contents.size());
    w.blob(contents);
}

void
ByteFifo::loadState(StateReader &r)
{
    const uint64_t high_water = r.u64();
    const std::vector<uint8_t> contents = r.blob();
    if (contents.size() > buf_.size())
        fatal("checkpoint state [%s]: FIFO holds %zu bytes but this "
              "build's capacity is only %zu — the session was configured "
              "with a larger store_fifo_bytes",
              r.context().c_str(), contents.size(), buf_.size());
    reset();
    push(contents.data(), contents.size());
    high_water_ = size_t(high_water);
}

void
TraceStore::saveState(StateWriter &w) const
{
    w.u8(uint8_t(mode_));
    fifo_.saveState(w);
    w.u64(dram_base_);
    w.u64(dram_pos_);
    w.u64(replay_len_);
    w.u64(bytes_stored_);
    w.u64(lines_written_);
    w.u64(push_pos_);
    w.u64(head_pos_);
    w.podDeque(pkt_starts_);
    w.b(pending_discontinuity_);
    w.b(pushed_since_tick_);
    w.u64(carry_bytes_);
    w.podVec(line_batch_);
    w.u64(batch_addr_);
    w.u64(backoff_wait_);
    w.u64(next_backoff_);
    w.u64(stall_streak_);
    w.u64(drain_retries_);
    w.u64(stall_cycles_);
    w.u64(overflow_drops_);
    w.u64(dropped_payload_bytes_);
    w.u64(fetch_index_);
    w.u64(expected_seq_);
    w.b(resync_);
    w.b(damage_barrier_);
    w.podVec(staged_);
    damage_.saveState(w);
}

void
TraceStore::loadState(StateReader &r)
{
    mode_ = Mode(r.u8());
    fifo_.loadState(r);
    dram_base_ = r.u64();
    dram_pos_ = r.u64();
    replay_len_ = r.u64();
    bytes_stored_ = r.u64();
    lines_written_ = r.u64();
    push_pos_ = r.u64();
    head_pos_ = r.u64();
    r.podDeque(pkt_starts_);
    pending_discontinuity_ = r.b();
    pushed_since_tick_ = r.b();
    carry_bytes_ = r.u64();
    r.podVec(line_batch_);
    batch_addr_ = r.u64();
    backoff_wait_ = r.u64();
    next_backoff_ = r.u64();
    stall_streak_ = r.u64();
    drain_retries_ = r.u64();
    stall_cycles_ = r.u64();
    overflow_drops_ = r.u64();
    dropped_payload_bytes_ = r.u64();
    fetch_index_ = r.u64();
    expected_seq_ = r.u64();
    resync_ = r.b();
    damage_barrier_ = r.b();
    r.podVec(staged_);
    damage_.loadState(r);
}

} // namespace vidi
