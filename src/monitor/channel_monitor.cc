#include "monitor/channel_monitor.h"

#include "checkpoint/state_io.h"

#include "sim/logging.h"

namespace vidi {

ChannelMonitor::ChannelMonitor(const std::string &name, ChannelBase &src,
                               ChannelBase &dst, TraceEncoder &encoder,
                               size_t chan_index, MonitorOptions opts)
    : Module(name), src_(src), dst_(dst), encoder_(encoder),
      chan_index_(chan_index), opts_(opts),
      is_input_(encoder.meta().channels.at(chan_index).input)
{
    if (src_.dataBytes() != dst_.dataBytes())
        fatal("ChannelMonitor %s: source and destination payload sizes "
              "differ (%zu vs %zu)",
              name.c_str(), src_.dataBytes(), dst_.dataBytes());
    if (src_.dataBytes() !=
        encoder.meta().channels.at(chan_index).data_bytes)
        fatal("ChannelMonitor %s: payload size disagrees with the trace "
              "metadata", name.c_str());
    if (opts_.reservation_pool == 0)
        fatal("ChannelMonitor %s: reservation pool must be nonzero",
              name.c_str());
    // eval() reads only src/dst signals besides registered state, so the
    // activity kernel needs to re-run it within a cycle only when one of
    // the two channels changed (the seed pass covers state changes).
    sensitive(src_);
    sensitive(dst_);
}

uint64_t
ChannelMonitor::idleUntil(uint64_t now) const
{
    // Quiescent only when no transaction is crossing, the sender is
    // silent, and the reservation pool has settled at its idle target
    // (one prefetched reservation while recording, none otherwise).
    const size_t idle_pool = recording() ? 1 : 0;
    if (src_.valid() || inflight_ || passthrough_inflight_ ||
        pool_ != idle_pool)
        return now;
    return kIdleForever;
}

void
ChannelMonitor::eval()
{
    if (forwarding()) {
        // Combinational pass-through: both handshakes fire together.
        src_.copyData(data_buf_);
        dst_.setDataRaw(data_buf_);
        dst_.setValid(src_.valid());
        src_.setReady(dst_.ready());
    } else {
        dst_.setValid(false);
        src_.setReady(false);
    }
}

void
ChannelMonitor::tick()
{
    // Track unrecorded transactions crossing while the window is
    // closed; they are forwarded to completion regardless.
    if (!recording() && !inflight_ && !passthrough_inflight_ &&
        src_.valid()) {
        passthrough_inflight_ = true;
    }
    if (passthrough_inflight_ && dst_.fired())
        passthrough_inflight_ = false;

    if (!inflight_ && !passthrough_inflight_ && src_.valid() &&
        recording()) {
        // The admission decision must match what eval() forwarded this
        // cycle, so the pool is replenished only at the end of tick().
        if (pool_ > 0) {
            // Transaction admitted this cycle: it was forwarded
            // combinationally, so the observed start cycle is exact.
            --pool_;
            inflight_ = true;
            if (is_input_) {
                src_.copyData(data_buf_);
                encoder_.noteStart(chan_index_, data_buf_);
            }
        } else {
            ++stall_cycles_;
        }
    }

    if (inflight_ && dst_.fired()) {
        src_.copyData(data_buf_);
        encoder_.noteEnd(chan_index_, data_buf_);
        inflight_ = false;
        ++transactions_;
    }

    // Replenish the reservation pool (eager reservation, §3.1). The
    // pool is demand-driven: while the channel is active it prefetches
    // up to the configured depth so back-to-back transactions stream
    // without admission latency; when the channel goes idle it keeps a
    // single reservation (zero-latency admission of the next
    // transaction) and returns the rest, so idle channels never starve
    // a busy one of trace-store space.
    const size_t target =
        !recording() ? 0
        : (inflight_ || src_.valid()) ? opts_.reservation_pool
                                      : 1;
    while (pool_ < target && encoder_.tryReserve(chan_index_))
        ++pool_;
    while (pool_ > target) {
        encoder_.release(chan_index_);
        --pool_;
    }
}

void
ChannelMonitor::reset()
{
    pool_ = 0;
    inflight_ = false;
    passthrough_inflight_ = false;
    transactions_ = 0;
    stall_cycles_ = 0;
}

void
ChannelMonitor::saveState(StateWriter &w) const
{
    w.u64(pool_);
    w.b(inflight_);
    w.b(passthrough_inflight_);
    w.u64(transactions_);
    w.u64(stall_cycles_);
    w.bytes(data_buf_, sizeof(data_buf_));
}

void
ChannelMonitor::loadState(StateReader &r)
{
    pool_ = size_t(r.u64());
    inflight_ = r.b();
    passthrough_inflight_ = r.b();
    transactions_ = r.u64();
    stall_cycles_ = r.u64();
    r.bytes(data_buf_, sizeof(data_buf_));
}

} // namespace vidi
