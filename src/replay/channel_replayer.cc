#include "replay/channel_replayer.h"

#include "checkpoint/state_io.h"

#include "sim/logging.h"

namespace vidi {

ChannelReplayer::ChannelReplayer(const std::string &name, ChannelBase &inner,
                                 TraceDecoder &decoder,
                                 ReplayCoordinator &coordinator,
                                 size_t chan_index)
    : Module(name), inner_(inner), decoder_(decoder),
      coordinator_(coordinator), chan_index_(chan_index),
      is_input_(decoder.meta().channels.at(chan_index).input),
      t_expected_(decoder.meta().channelCount())
{
    if (inner_.dataBytes() != decoder.meta().channels[chan_index].data_bytes)
        fatal("ChannelReplayer %s: payload size disagrees with the trace "
              "metadata", name.c_str());
    // eval() drives inner_ purely from registered state; within a cycle
    // it only needs re-running when the channel itself changed.
    sensitive(inner_);
}

uint64_t
ChannelReplayer::idleUntil(uint64_t now) const
{
    // Active until the channel shows a released event: tick() can
    // release a start or end whose VALID/READY only the next eval()
    // drives. Once shown, it waits on the design alone; the cycle the
    // handshake fires in is kept awake by the kernel's valid && ready
    // guard (DESIGN.md §7). Also active while the vector clock allows
    // releasing the next queued pair. Otherwise the replayer is blocked
    // on the clock (which only advances through completions on other,
    // necessarily active, channels) or out of pairs (the decoder/store
    // report active while more can arrive).
    if (presenting_ && !inner_.valid())
        return now;
    if (pending_ends_ > 0 && !inner_.ready())
        return now;
    if (decoder_.queueDepth(chan_index_) > 0 &&
        coordinator_.current().dominates(t_expected_))
        return now;
    return kIdleForever;
}

bool
ChannelReplayer::idle() const
{
    return decoder_.queueFor(chan_index_).empty() && !presenting_ &&
           pending_ends_ == 0;
}

void
ChannelReplayer::eval()
{
    if (is_input_) {
        if (presenting_)
            inner_.setDataRaw(present_buf_);
        inner_.setValid(presenting_);
    } else {
        inner_.setReady(pending_ends_ > 0);
    }
}

void
ChannelReplayer::tick()
{
    // Observe this cycle's handshake.
    if (inner_.fired()) {
        ++completed_;
        if (is_input_) {
            presenting_ = false;
        } else {
            if (pending_ends_ == 0)
                panic("ChannelReplayer %s: output fired without a released "
                      "end event", name().c_str());
            --pending_ends_;
        }
    }

    // Release as many recorded events as the vector clock allows.
    auto &queue = decoder_.queueFor(chan_index_);
    while (!queue.empty()) {
        const ReplayPair &p = queue.front();
        if (!coordinator_.current().dominates(t_expected_))
            break;
        if (p.start && is_input_) {
            if (presenting_)
                break;  // previous input transaction still outstanding
            if (p.content.size() != inner_.dataBytes())
                panic("ChannelReplayer %s: recorded content size %zu != "
                      "payload size %zu", name().c_str(), p.content.size(),
                      inner_.dataBytes());
            std::memcpy(present_buf_, p.content.data(), p.content.size());
            presenting_ = true;
        }
        if (p.end && !is_input_)
            ++pending_ends_;
        t_expected_.addEnds(p.ends);
        queue.pop_front();
    }
}

void
ChannelReplayer::reset()
{
    presenting_ = false;
    pending_ends_ = 0;
    t_expected_.clear();
    completed_ = 0;
}

void
ChannelReplayer::saveState(StateWriter &w) const
{
    w.b(presenting_);
    w.bytes(present_buf_, sizeof(present_buf_));
    w.u64(pending_ends_);
    w.u32(uint32_t(t_expected_.channels()));
    for (size_t i = 0; i < t_expected_.channels(); ++i)
        w.u64(t_expected_[i]);
    w.u64(completed_);
}

void
ChannelReplayer::loadState(StateReader &r)
{
    presenting_ = r.b();
    r.bytes(present_buf_, sizeof(present_buf_));
    pending_ends_ = r.u64();
    const uint32_t n = r.u32();
    if (n != t_expected_.channels())
        fatal("checkpoint state [%s]: vector clock spans %zu channels, "
              "checkpoint has %u",
              r.context().c_str(), t_expected_.channels(), n);
    for (size_t i = 0; i < t_expected_.channels(); ++i)
        t_expected_.setCount(i, r.u64());
    completed_ = r.u64();
}

} // namespace vidi
