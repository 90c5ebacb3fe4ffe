/**
 * @file
 * VTC2 frame body codec: delta/varint packet encoding.
 *
 * A frame body holds a bounded run of cycle packets re-encoded for
 * compressibility (the container wraps the body with a sync marker,
 * sizes, CRCs and optional LZ compression — see vtc2.h):
 *
 *   varint packet_count
 *   varint dict_count                 mask dictionary, first-appearance
 *   dict_count × { varint starts, varint ends }
 *   packet_count × varint dict_index  per-packet mask reference
 *   [packet_count × varint cycle_delta]   when cycles are present;
 *       delta from the previous packet's cycle (frame first_cycle for
 *       packet 0, so the first delta is always 0)
 *   per packet, contents in serializePacket order, each prefixed by a
 *   tag byte keyed on the previous content seen on the same channel
 *   *within this frame*:
 *       0 identical to previous        (no bytes follow)
 *       1 XOR delta against previous   (data_bytes bytes)
 *       2 raw                          (data_bytes bytes; first content
 *         on the channel, or the encoder judged the XOR less LZ-friendly
 *         than the literal bytes)
 *
 * Frames decode independently: all delta state (masks, cycles, channel
 * contents) is frame-local, which is what makes seeking to an arbitrary
 * frame and resynchronizing past a damaged one possible.
 */

#ifndef VIDI_TRACEFMT_FRAME_CODEC_H
#define VIDI_TRACEFMT_FRAME_CODEC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/packets.h"

namespace vidi {

/**
 * The codec's per-channel delta state: the last content seen on each
 * channel, kept separately for the start and end content streams.
 *
 * One buffer per channel and stream is sized once from the metadata
 * (data_bytes each), so every frame of a trace reuses it without
 * allocating. Both codec calls reset() it first: the state stays
 * frame-local even though the buffers outlive the frame.
 */
class FrameDeltaState
{
  public:
    FrameDeltaState() = default;
    explicit FrameDeltaState(const TraceMeta &meta);

    /** Forget every channel's previous content (start of a frame). */
    void reset() { has_ = fresh_; }

    /** Previous-content buffer of @p ch in the start or end stream. */
    uint8_t *prev(bool ends, size_t ch)
    {
        return bytes_.data() + offset_[index(ends, ch)];
    }

    /** Whether prev() holds a content this frame has already seen. */
    bool has(bool ends, size_t ch) const
    {
        return has_[index(ends, ch)] != 0;
    }

    void setHas(bool ends, size_t ch) { has_[index(ends, ch)] = 1; }

  private:
    size_t index(bool ends, size_t ch) const
    {
        return (ends ? has_.size() / 2 : 0) + ch;
    }

    std::vector<size_t> offset_;  ///< per slot: offset into bytes_
    std::vector<uint8_t> bytes_;
    std::vector<uint8_t> has_;    ///< per slot: start stream, then end
    /** has_ at a frame start: a zero-byte channel is always "seen". */
    std::vector<uint8_t> fresh_;
};

/**
 * Encode @p count packets starting at @p pkts into a frame body.
 *
 * @param meta boundary description (channel payload sizes)
 * @param state delta state built from @p meta (reset here)
 * @param pkts first packet of the frame
 * @param count packets in the frame (≥ 1)
 * @param cycles per-packet emission cycles (parallel to @p pkts), or
 *        nullptr when the trace carries no cycle annotations
 * @param first_cycle cycle base the first delta is taken against
 *        (ignored when @p cycles is null)
 */
std::vector<uint8_t> encodeFrameBody(const TraceMeta &meta,
                                     FrameDeltaState &state,
                                     const CyclePacket *pkts, size_t count,
                                     const uint64_t *cycles,
                                     uint64_t first_cycle);

/**
 * Decode a frame body produced by encodeFrameBody().
 *
 * Fully bounds-checked: any structural inconsistency (truncation,
 * dictionary index out of range, event bits beyond the channel count,
 * packet count mismatch with @p expected_count) returns false without
 * touching memory outside the inputs. On success appends the decoded
 * packets to @p pkts and, when @p has_cycles, the reconstructed absolute
 * cycles to @p cycles. @p state is built from @p meta and reset here.
 */
bool decodeFrameBody(const TraceMeta &meta, FrameDeltaState &state,
                     const uint8_t *body, size_t len,
                     size_t expected_count, bool has_cycles,
                     uint64_t first_cycle, std::vector<CyclePacket> &pkts,
                     std::vector<uint64_t> &cycles);

} // namespace vidi

#endif // VIDI_TRACEFMT_FRAME_CODEC_H
