/**
 * @file
 * Unidirectional VALID/READY handshake channels (§2.1 of the paper).
 *
 * A channel connects a single sender to a single receiver and carries a
 * fixed-width payload. The sender drives VALID and the payload; the
 * receiver drives READY; a *transaction* completes (fires) in the first
 * cycle in which both VALID and READY are high at the clock edge.
 *
 * Signal-plane accessors (setValid/setReady/setData) are meant to be
 * called from Module::eval(); the latched outcome (fired()) is meant to be
 * read from Module::tick()/tickLate(). ChannelBase is the type-erased view
 * used by Vidi's channel monitors and replayers, which operate on raw
 * payload bytes; Channel<T> is the typed view used by application logic.
 */

#ifndef VIDI_CHANNEL_CHANNEL_H
#define VIDI_CHANNEL_CHANNEL_H

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "channel/protocol_checker.h"
#include "sim/access_tracker.h"
#include "sim/logging.h"

namespace vidi {

class Module;
class StateReader;
class StateWriter;

/** Largest payload any channel may carry, in serialized bytes. */
inline constexpr size_t kMaxPayloadBytes = 256;

/** FNV-1a hash of a byte buffer; used for payload-stability checking. */
uint64_t hashBytes(const uint8_t *data, size_t len);

/**
 * Type-erased handshake channel.
 *
 * Owns the VALID/READY signal plane, the per-cycle handshake latch, the
 * protocol checker, and byte-level access to the payload. Channels are
 * created and owned by a Simulator.
 */
class ChannelBase
{
  public:
    /**
     * @param name diagnostic name of the channel
     * @param width_bits logical width of the payload as it would appear on
     *        the wires of the real protocol (used for the cycle-accurate
     *        trace-size comparison in Table 1)
     * @param data_bytes serialized payload size
     */
    ChannelBase(std::string name, unsigned width_bits, size_t data_bytes);
    virtual ~ChannelBase();

    ChannelBase(const ChannelBase &) = delete;
    ChannelBase &operator=(const ChannelBase &) = delete;

    const std::string &name() const { return name_; }
    unsigned widthBits() const { return width_bits_; }
    size_t dataBytes() const { return data_bytes_; }

    /// @name Signal plane (drive from eval(), read anywhere)
    /// @{
    bool
    valid() const
    {
        maybeTrackRead(*this, SignalSide::Forward);
        return valid_;
    }

    bool
    ready() const
    {
        maybeTrackRead(*this, SignalSide::Reverse);
        return ready_;
    }

    void setValid(bool v);
    void setReady(bool r);
    /// @}

    /** Serialize the current payload into @p dst (dataBytes() bytes). */
    virtual void copyData(uint8_t *dst) const = 0;
    /** Overwrite the payload from @p src (dataBytes() bytes). */
    virtual void setDataRaw(const uint8_t *src) = 0;

    /**
     * Whether a handshake completed in the current cycle. Only meaningful
     * during tick()/tickLate(), after the kernel has latched the cycle.
     */
    bool fired() const { return fired_; }

    /** Total number of completed transactions since reset. */
    uint64_t firedCount() const { return fired_count_; }

    ProtocolChecker &checker() { return checker_; }

    /// @name Kernel hooks (called by Simulator only)
    /// @{
    /** Latch the handshake outcome and run the protocol checker. */
    void latch(uint64_t cycle);
    /** End-of-cycle cleanup. */
    void postTick();
    /** True if a signal changed since the last clearDirty(). */
    bool dirty() const { return dirty_; }
    void clearDirty() { dirty_ = false; }
    /** Return the channel to its power-on state. */
    void resetState();
    /**
     * Install the owning simulator's settle flag; every markDirty() also
     * raises it so the activity-driven kernel sees changes without
     * scanning all channels.
     */
    void setSettleFlag(bool *flag) { settle_flag_ = flag; }
    /// @}

    /// @name Checkpointing (called by Simulator::saveState/loadState)
    /// @{
    /** Serialize payload, handshake plane and checker state. */
    void saveState(StateWriter &w) const;
    /** Restore state written by saveState(). */
    void loadState(StateReader &r);
    /// @}

    /**
     * Register @p m to be re-evaluated whenever a signal of this channel
     * changes (used by Module::sensitive()).
     */
    void addListener(Module *m);

    /**
     * Modules that declared sensitivity on this channel, in declaration
     * order (the design linter cross-checks these against the observed
     * eval()-phase read set).
     */
    const std::vector<Module *> &listeners() const { return listeners_; }

  protected:
    void markDirty();
    /** Hash of the current payload bytes. */
    uint64_t dataHash() const;

  private:
    std::string name_;
    unsigned width_bits_;
    size_t data_bytes_;

    bool valid_ = false;
    bool ready_ = false;
    bool fired_ = false;
    bool dirty_ = false;
    uint64_t fired_count_ = 0;

    bool *settle_flag_ = nullptr;
    std::vector<Module *> listeners_;

    ProtocolChecker checker_;
};

/**
 * Typed handshake channel carrying a trivially-copyable payload.
 */
template <typename T>
class Channel : public ChannelBase
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "channel payloads must be trivially copyable");
    static_assert(sizeof(T) <= kMaxPayloadBytes,
                  "channel payload exceeds kMaxPayloadBytes");

  public:
    Channel(std::string name, unsigned width_bits)
        : ChannelBase(std::move(name), width_bits, sizeof(T))
    {
    }

    const T &
    data() const
    {
        maybeTrackRead(*this, SignalSide::Forward);
        return data_;
    }

    /** Drive the payload; marks the settle loop dirty only on change. */
    void
    setData(const T &d)
    {
        maybeTrackDrive(*this, SignalSide::Forward);
        if (std::memcmp(&data_, &d, sizeof(T)) != 0) {
            data_ = d;
            markDirty();
        }
    }

    /** Convenience: present @p d with VALID high (sender side). */
    void
    push(const T &d)
    {
        setData(d);
        setValid(true);
    }

    void
    copyData(uint8_t *dst) const override
    {
        maybeTrackRead(*this, SignalSide::Forward);
        std::memcpy(dst, &data_, sizeof(T));
    }

    void
    setDataRaw(const uint8_t *src) override
    {
        T tmp;
        std::memcpy(&tmp, src, sizeof(T));
        setData(tmp);
    }

  private:
    T data_{};
};

} // namespace vidi

#endif // VIDI_CHANNEL_CHANNEL_H
