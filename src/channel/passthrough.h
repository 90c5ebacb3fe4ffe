/**
 * @file
 * Transparent channel bridge.
 *
 * Combinationally forwards one channel onto another with no added
 * latency. Used in the R1 (recording and replaying disabled) baseline
 * configuration of §5.1, where Vidi's shim must be invisible to the
 * transactions on all channels.
 */

#ifndef VIDI_CHANNEL_PASSTHROUGH_H
#define VIDI_CHANNEL_PASSTHROUGH_H

#include "channel/channel.h"
#include "sim/module.h"

namespace vidi {

/**
 * Zero-latency bridge from a source channel to a destination channel.
 */
class Passthrough : public Module
{
  public:
    Passthrough(const std::string &name, ChannelBase &src, ChannelBase &dst)
        : Module(name), src_(src), dst_(dst)
    {
        if (src_.dataBytes() != dst_.dataBytes())
            fatal("Passthrough %s: payload sizes differ", name.c_str());
        // Pure combinational bridge: outputs depend only on src/dst
        // signals, so eval() only needs to run when one of them changes.
        setEvalMode(EvalMode::OnDemand);
        sensitive(src_);
        sensitive(dst_);
    }

    uint64_t
    idleUntil(uint64_t) const override
    {
        return kIdleForever;
    }

    /// @name Interposition identity (read by the design linter)
    /// @{
    const ChannelBase &srcChannel() const { return src_; }
    const ChannelBase &dstChannel() const { return dst_; }
    /// @}

    void
    eval() override
    {
        uint8_t buf[kMaxPayloadBytes];
        src_.copyData(buf);
        dst_.setDataRaw(buf);
        dst_.setValid(src_.valid());
        src_.setReady(dst_.ready());
    }

  private:
    ChannelBase &src_;
    ChannelBase &dst_;
};

} // namespace vidi

#endif // VIDI_CHANNEL_PASSTHROUGH_H
