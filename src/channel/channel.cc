#include "channel/channel.h"

#include <algorithm>

#include "checkpoint/state_io.h"
#include "sim/module.h"

namespace vidi {

uint64_t
hashBytes(const uint8_t *data, size_t len)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

ChannelBase::ChannelBase(std::string name, unsigned width_bits,
                         size_t data_bytes)
    : name_(std::move(name)), width_bits_(width_bits),
      data_bytes_(data_bytes)
{
    if (data_bytes_ > kMaxPayloadBytes)
        fatal("channel %s: payload of %zu bytes exceeds the %zu-byte limit",
              name_.c_str(), data_bytes_, kMaxPayloadBytes);
}

ChannelBase::~ChannelBase() = default;

void
ChannelBase::setValid(bool v)
{
    // A module holding a signal at its current value is still driving
    // it, so the tracker hook fires before the change check.
    maybeTrackDrive(*this, SignalSide::Forward);
    if (valid_ != v) {
        valid_ = v;
        markDirty();
    }
}

void
ChannelBase::setReady(bool r)
{
    maybeTrackDrive(*this, SignalSide::Reverse);
    if (ready_ != r) {
        ready_ = r;
        markDirty();
    }
}

void
ChannelBase::markDirty()
{
    dirty_ = true;
    if (settle_flag_)
        *settle_flag_ = true;
    for (Module *m : listeners_)
        m->markNeedsEval();
}

void
ChannelBase::addListener(Module *m)
{
    if (std::find(listeners_.begin(), listeners_.end(), m) ==
        listeners_.end())
        listeners_.push_back(m);
}

uint64_t
ChannelBase::dataHash() const
{
    uint8_t buf[kMaxPayloadBytes];
    copyData(buf);
    return hashBytes(buf, data_bytes_);
}

void
ChannelBase::latch(uint64_t cycle)
{
    fired_ = valid_ && ready_;
    if (fired_)
        ++fired_count_;
    checker_.observe(name_, cycle, valid_, ready_, dataHash());
}

void
ChannelBase::postTick()
{
    fired_ = false;
}

void
ChannelBase::saveState(StateWriter &w) const
{
    uint8_t buf[kMaxPayloadBytes];
    copyData(buf);
    w.bytes(buf, data_bytes_);
    w.b(valid_);
    w.b(ready_);
    w.b(fired_);
    w.b(dirty_);
    w.u64(fired_count_);
    checker_.saveState(w);
}

void
ChannelBase::loadState(StateReader &r)
{
    // Payload first: setDataRaw() routes through setData(), which marks
    // the channel dirty on change — the saved flags overwrite that below
    // so the restored signal plane is bit-exact.
    uint8_t buf[kMaxPayloadBytes];
    r.bytes(buf, data_bytes_);
    setDataRaw(buf);
    valid_ = r.b();
    ready_ = r.b();
    fired_ = r.b();
    dirty_ = r.b();
    fired_count_ = r.u64();
    checker_.loadState(r);
}

void
ChannelBase::resetState()
{
    valid_ = false;
    ready_ = false;
    fired_ = false;
    dirty_ = false;
    fired_count_ = 0;
    checker_.resetState();
}

} // namespace vidi
