#include "trace/trace_encoder.h"

#include "checkpoint/state_io.h"

#include <algorithm>
#include <cstring>

#include "sim/logging.h"

namespace vidi {

TraceEncoder::TraceEncoder(const std::string &name, TraceMeta meta,
                           TraceStore &store)
    : Module(name), meta_(std::move(meta)), store_(store),
      staged_(meta_.channelCount())
{
    if (meta_.channelCount() == 0 || meta_.channelCount() > kMaxChannels)
        fatal("TraceEncoder: %zu channels unsupported (max %zu)",
              meta_.channelCount(), kMaxChannels);
    setEvalMode(EvalMode::Never);  // no combinational logic
}

size_t
TraceEncoder::startCost(size_t chan) const
{
    // Worst case: the start event lands in its own cycle packet.
    return 2 * meta_.bitvecBytes() + meta_.channels[chan].data_bytes;
}

size_t
TraceEncoder::endCost(size_t chan) const
{
    size_t cost = 2 * meta_.bitvecBytes();
    if (meta_.record_output_content && !meta_.channels[chan].input)
        cost += meta_.channels[chan].data_bytes;
    return cost;
}

bool
TraceEncoder::tryReserve(size_t chan)
{
    const bool input = meta_.channels[chan].input;
    const size_t cost = (input ? startCost(chan) : 0) + endCost(chan);
    if (store_.spaceBytes() < reserved_bytes_ + cost) {
        ++reserve_failures_;
        return false;
    }
    reserved_bytes_ += cost;
    return true;
}

void
TraceEncoder::release(size_t chan)
{
    const bool input = meta_.channels[chan].input;
    const size_t cost = (input ? startCost(chan) : 0) + endCost(chan);
    if (cost > reserved_bytes_)
        panic("TraceEncoder(%s): releasing %zu bytes with only %zu "
              "reserved", name().c_str(), cost, reserved_bytes_);
    reserved_bytes_ -= cost;
}

size_t
TraceEncoder::minStoreBytes() const
{
    size_t total = 0;
    size_t max_cost = 0;
    for (size_t i = 0; i < meta_.channelCount(); ++i) {
        const bool input = meta_.channels[i].input;
        const size_t cost = (input ? startCost(i) : 0) + endCost(i);
        total += cost;
        max_cost = std::max(max_cost, cost);
    }
    return total + 4 * max_cost;
}

void
TraceEncoder::noteStart(size_t chan, const uint8_t *content)
{
    Staged &s = staged_[chan];
    if (s.start)
        panic("TraceEncoder(%s): duplicate start on channel %zu in one "
              "cycle", name().c_str(), chan);
    s.start = true;
    std::memcpy(s.start_content, content, meta_.channels[chan].data_bytes);
    any_staged_ = true;
}

void
TraceEncoder::noteEnd(size_t chan, const uint8_t *content)
{
    Staged &s = staged_[chan];
    if (s.end)
        panic("TraceEncoder(%s): duplicate end on channel %zu in one "
              "cycle", name().c_str(), chan);
    s.end = true;
    if (meta_.record_output_content && !meta_.channels[chan].input) {
        if (content == nullptr)
            panic("TraceEncoder(%s): output end on channel %zu requires "
                  "content in divergence-detection mode",
                  name().c_str(), chan);
        std::memcpy(s.end_content, content,
                    meta_.channels[chan].data_bytes);
    }
    any_staged_ = true;
}

void
TraceEncoder::tickLate()
{
    if (!any_staged_)
        return;

    // Serialize the cycle packet straight from the staging buffers into
    // the reused scratch vector, byte-for-byte what serializePacket()
    // would produce: [starts bv][ends bv][start contents, ascending
    // channel][end contents of outputs, ascending channel].
    const size_t bv = meta_.bitvecBytes();
    const size_t cap_before = scratch_.capacity();
    scratch_.clear();
    scratch_.resize(2 * bv);

    uint64_t starts = 0;
    uint64_t ends = 0;
    size_t released = 0;
    for (size_t i = 0; i < staged_.size(); ++i) {
        Staged &s = staged_[i];
        if (s.start) {
            starts = bitvec::set(starts, i);
            scratch_.insert(scratch_.end(), s.start_content,
                            s.start_content + meta_.channels[i].data_bytes);
            released += startCost(i);
            ++events_logged_;
        }
        if (s.end) {
            ends = bitvec::set(ends, i);
            released += endCost(i);
            ++events_logged_;
        }
    }
    if (meta_.record_output_content) {
        for (size_t i = 0; i < staged_.size(); ++i) {
            Staged &s = staged_[i];
            if (s.end && !meta_.channels[i].input)
                scratch_.insert(scratch_.end(), s.end_content,
                                s.end_content +
                                    meta_.channels[i].data_bytes);
        }
    }
    bitvec::store(starts, scratch_.data(), bv);
    bitvec::store(ends, scratch_.data() + bv, bv);
    for (auto &s : staged_)
        s.start = s.end = false;
    any_staged_ = false;

    if (scratch_.capacity() == cap_before)
        ++pool_hits_;
    else
        ++pool_misses_;

    if (scratch_.size() > released)
        panic("TraceEncoder(%s): packet of %zu bytes exceeds its %zu-byte "
              "reservation", name().c_str(), scratch_.size(), released);
    store_.pushBytes(scratch_.data(), scratch_.size());
    if (released > reserved_bytes_)
        panic("TraceEncoder(%s): releasing %zu bytes with only %zu "
              "reserved", name().c_str(), released, reserved_bytes_);
    reserved_bytes_ -= released;
    emit_cycles_.push_back(nowCycle());
    ++packets_emitted_;
}

void
TraceEncoder::reset()
{
    reserved_bytes_ = 0;
    for (auto &s : staged_)
        s.start = s.end = false;
    any_staged_ = false;
    emit_cycles_.clear();
    packets_emitted_ = 0;
    events_logged_ = 0;
    reserve_failures_ = 0;
    pool_hits_ = 0;
    pool_misses_ = 0;
}

void
TraceEncoder::saveState(StateWriter &w) const
{
    w.u64(reserved_bytes_);
    w.b(any_staged_);
    w.u32(uint32_t(staged_.size()));
    for (size_t i = 0; i < staged_.size(); ++i) {
        const Staged &st = staged_[i];
        const size_t nbytes = meta_.channels[i].data_bytes;
        w.b(st.start);
        w.b(st.end);
        if (st.start)
            w.bytes(st.start_content, nbytes);
        if (st.end)
            w.bytes(st.end_content, nbytes);
    }
    w.u64(packets_emitted_);
    w.u64(events_logged_);
    w.u64(reserve_failures_);
    w.u64(pool_hits_);
    w.u64(pool_misses_);
    // The emit-cycle log rides along so a resumed recording still has the
    // complete per-packet cycle annotation when the run finalizes.
    w.u64(emit_cycles_.size());
    for (uint64_t c : emit_cycles_)
        w.u64(c);
}

void
TraceEncoder::loadState(StateReader &r)
{
    reserved_bytes_ = size_t(r.u64());
    any_staged_ = r.b();
    const uint32_t n = r.u32();
    if (n != staged_.size())
        fatal("checkpoint state [%s]: encoder has %zu channels, "
              "checkpoint has %u",
              r.context().c_str(), staged_.size(), n);
    for (size_t i = 0; i < staged_.size(); ++i) {
        Staged &st = staged_[i];
        const size_t nbytes = meta_.channels[i].data_bytes;
        st.start = r.b();
        st.end = r.b();
        if (st.start)
            r.bytes(st.start_content, nbytes);
        if (st.end)
            r.bytes(st.end_content, nbytes);
    }
    packets_emitted_ = r.u64();
    events_logged_ = r.u64();
    reserve_failures_ = r.u64();
    pool_hits_ = r.u64();
    pool_misses_ = r.u64();
    const uint64_t nc = r.u64();
    if (nc != packets_emitted_)
        fatal("checkpoint state [%s]: emit-cycle log has %llu entries for "
              "%llu emitted packets",
              r.context().c_str(), (unsigned long long)nc,
              (unsigned long long)packets_emitted_);
    emit_cycles_.assign(size_t(nc), 0);
    for (uint64_t &c : emit_cycles_)
        c = r.u64();
}

} // namespace vidi
