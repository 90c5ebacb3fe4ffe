/**
 * @file
 * Vidi's packet formats (§3.1, §3.2 of the paper).
 *
 * Channel monitors emit *channel packets* — (Start?, Content?, End?)
 * triples describing what happened on one channel in one cycle. The
 * trace encoder merges the channel packets of a cycle into a *cycle
 * packet*: two bit-vectors (Starts over channels that began a handshake,
 * Ends over channels that completed one) plus the concatenated Content
 * of every starting input channel. When divergence detection is enabled
 * (§3.6), cycle packets additionally carry the content of completing
 * output transactions.
 *
 * Vidi deliberately records no physical timestamps (§6): cycle packets
 * are ordered but not timed, and cycles with no events produce no packet
 * at all — this is the source of the coarse-grained trace-size reduction
 * of Table 1.
 */

#ifndef VIDI_TRACE_PACKETS_H
#define VIDI_TRACE_PACKETS_H

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "trace/bitvec.h"

namespace vidi {

/**
 * Payload byte buffer with inline storage.
 *
 * Channel payloads are small (every F1 channel serializes well under 96
 * bytes), yet the original std::vector<uint8_t> representation heap-
 * allocated one block per recorded event — the dominant allocation on
 * the record and replay hot paths. ContentBuf stores payloads up to
 * kInlineBytes in place and falls back to the heap only for oversized
 * ones. It keeps enough of the vector interface (and converts to and
 * from std::vector<uint8_t>) for the existing call sites and tests.
 */
class ContentBuf
{
  public:
    /** Payloads at or below this size never allocate. */
    static constexpr size_t kInlineBytes = 96;

    ContentBuf() = default;

    ContentBuf(const uint8_t *first, const uint8_t *last)
    {
        assign(first, static_cast<size_t>(last - first));
    }

    ContentBuf(size_t n, uint8_t value)
    {
        reserveExact(n);
        std::memset(data(), value, n);
    }

    ContentBuf(std::initializer_list<uint8_t> il)
    {
        assign(il.begin(), il.size());
    }

    /* implicit */ ContentBuf(const std::vector<uint8_t> &v)
    {
        assign(v.data(), v.size());
    }

    ContentBuf(const ContentBuf &o) { assign(o.data(), o.size()); }

    ContentBuf(ContentBuf &&o) noexcept
        : size_(o.size_), heap_(std::move(o.heap_))
    {
        if (heap_ == nullptr)
            std::memcpy(inline_, o.inline_, size_);
        o.size_ = 0;
    }

    ContentBuf &
    operator=(const ContentBuf &o)
    {
        if (this != &o)
            assign(o.data(), o.size());
        return *this;
    }

    ContentBuf &
    operator=(ContentBuf &&o) noexcept
    {
        if (this != &o) {
            size_ = o.size_;
            heap_ = std::move(o.heap_);
            if (heap_ == nullptr)
                std::memcpy(inline_, o.inline_, size_);
            o.size_ = 0;
        }
        return *this;
    }

    /* implicit */ operator std::vector<uint8_t>() const
    {
        return std::vector<uint8_t>(data(), data() + size_);
    }

    const uint8_t *data() const { return heap_ ? heap_.get() : inline_; }
    uint8_t *data() { return heap_ ? heap_.get() : inline_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const uint8_t *begin() const { return data(); }
    const uint8_t *end() const { return data() + size_; }

    uint8_t &operator[](size_t i) { return data()[i]; }
    const uint8_t &operator[](size_t i) const { return data()[i]; }

    void
    clear()
    {
        size_ = 0;
        heap_.reset();
    }

    bool
    operator==(const ContentBuf &o) const
    {
        return size_ == o.size_ &&
               std::memcmp(data(), o.data(), size_) == 0;
    }

    bool
    operator==(const std::vector<uint8_t> &v) const
    {
        return size_ == v.size() &&
               std::memcmp(data(), v.data(), size_) == 0;
    }

    /** Replace the contents with @p n bytes copied from @p src. */
    void
    assign(const uint8_t *src, size_t n)
    {
        reserveExact(n);
        std::memcpy(data(), src, n);
    }

  private:
    void
    reserveExact(size_t n)
    {
        if (n > kInlineBytes)
            heap_ = std::make_unique<uint8_t[]>(n);
        else
            heap_.reset();
        size_ = n;
    }

    size_t size_ = 0;
    uint8_t inline_[kInlineBytes];
    std::unique_ptr<uint8_t[]> heap_;  ///< set when size_ > kInlineBytes
};

/** Static description of one monitored channel. */
struct TraceChannelInfo
{
    std::string name;      ///< diagnostic channel name
    bool input = false;    ///< FPGA application is the receiver
    uint32_t data_bytes = 0;  ///< serialized payload size
    uint32_t width_bits = 0;  ///< logical wire width (Table 1 comparison)

    bool operator==(const TraceChannelInfo &) const = default;
};

/** Static description of a recorded boundary; shared by both trace ends. */
struct TraceMeta
{
    std::vector<TraceChannelInfo> channels;
    /** Record the content of output transactions (divergence detection). */
    bool record_output_content = false;

    size_t channelCount() const { return channels.size(); }
    /** Bytes each Starts/Ends bit-vector occupies when serialized. */
    size_t bitvecBytes() const { return (channels.size() + 7) / 8; }

    bool operator==(const TraceMeta &) const = default;
};

/** One encoded cycle of boundary activity. */
struct CyclePacket
{
    uint64_t starts = 0;  ///< bit i: channel i began a handshake
    uint64_t ends = 0;    ///< bit i: channel i completed a handshake

    /** Content of each starting input channel, ascending channel index. */
    std::vector<ContentBuf> start_contents;

    /**
     * Content of each completing *output* channel, ascending channel
     * index; only populated when TraceMeta::record_output_content.
     */
    std::vector<ContentBuf> end_contents;

    bool empty() const { return starts == 0 && ends == 0; }

    bool operator==(const CyclePacket &) const = default;
};

/**
 * Serialized size of @p pkt under @p meta, in bytes.
 */
size_t packetBytes(const TraceMeta &meta, const CyclePacket &pkt);

/**
 * Append the serialization of @p pkt to @p out.
 */
void serializePacket(const TraceMeta &meta, const CyclePacket &pkt,
                     std::vector<uint8_t> &out);

/**
 * Parse one cycle packet from @p data.
 *
 * @param meta boundary description
 * @param data input bytes
 * @param len available bytes
 * @param out parsed packet
 * @return bytes consumed, or 0 if @p len holds less than a full packet
 */
size_t parsePacket(const TraceMeta &meta, const uint8_t *data, size_t len,
                   CyclePacket &out);

} // namespace vidi

#endif // VIDI_TRACE_PACKETS_H
