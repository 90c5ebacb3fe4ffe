/**
 * @file
 * VTC2: the seekable, block-compressed trace container.
 *
 * The legacy "VIDITRC2" container stores the cycle-packet stream as
 * fixed 64-byte CRC/seq storage lines — robust, but 18.75 % framing
 * overhead, no compression, and strictly front-to-back consumption.
 * VTC2 keeps the robustness contract (per-unit CRCs, structured damage
 * reports, resynchronization past damage) while grouping packets into
 * delta/varint-encoded, optionally LZ-compressed *frames* and adding a
 * footer-resident sparse index so a reader can seek to cycle N in
 * O(log frames).
 *
 * File layout ("VIDIVTC2"):
 *
 *   [24 B header]  magic "VIDIVTC2", u32 version, u32 flags
 *                  (bit 0: per-packet cycle annotations present),
 *                  u32 meta_len, u32 header_crc over the first 20 bytes
 *   [meta block]   u32 meta_crc + meta_len bytes, byte-identical to the
 *                  v1 metadata section (see trace_file.h)
 *   [frames]       see below
 *   [index]        u32 entry_count, entry_count × 32 B entries
 *                  { u64 frame_offset, u64 first_seq, u64 first_cycle,
 *                    u64 last_cycle }, u32 index_crc over all of it
 *   [48 B footer]  u64 index_offset, u64 frame_count, u64 packet_count,
 *                  u64 payload_bytes (raw packet-stream size), u32
 *                  footer_crc over the first 32 bytes, u32 zero pad,
 *                  tail magic "VTC2END1"
 *
 * Frame layout (48 B header + body + 4 B trailer):
 *
 *   u32 sync      kVtc2FrameSync resynchronization marker
 *   u32 body_bytes   stored body size
 *   u32 raw_bytes    body size before compression
 *   u32 packet_count
 *   u64 first_seq    sequence number of the frame's first packet
 *   u64 first_cycle  cycle of the frame's first packet (== first_seq
 *                    when the trace has no cycle annotations)
 *   u64 last_cycle
 *   u8  codec        0 = raw, 1 = LZ (see lz.h)
 *   u8  flags        bit 0: cycle deltas present in the body
 *   u16 reserved (0)
 *   u32 header_crc   over the 44 bytes above (sync included)
 *   body_bytes × u8  frame body (see frame_codec.h)
 *   u32 body_crc     over the stored body
 *
 * Damage/resync invariants: frames decode independently; a reader that
 * finds a bad sync, header CRC, body CRC or undecodable body notes a
 * CorruptFrame region (packet extent recovered from the next good
 * frame's first_seq) and scans forward for the next sync marker whose
 * header CRC validates. A stream that ends inside a frame notes
 * TruncatedFrame. A missing or corrupt index or footer never loses
 * data: the index is rebuilt by a header-only frame scan.
 */

#ifndef VIDI_TRACEFMT_VTC2_H
#define VIDI_TRACEFMT_VTC2_H

#include <cstdint>
#include <string>
#include <vector>

#include "trace/storage_line.h"
#include "trace/trace.h"
#include "tracefmt/frame_codec.h"

namespace vidi {

class FaultInjector;

/** VTC2 file magic ("VIDIVTC2"). */
inline constexpr char kVtc2Magic[8] = {'V', 'I', 'D', 'I',
                                       'V', 'T', 'C', '2'};
/** Tail magic closing the footer. */
inline constexpr char kVtc2TailMagic[8] = {'V', 'T', 'C', '2',
                                           'E', 'N', 'D', '1'};
inline constexpr uint32_t kVtc2Version = 1;
/** Container flag: per-packet cycle annotations present. */
inline constexpr uint32_t kVtc2FlagHasCycles = 0x1;
/** Frame resynchronization marker. */
inline constexpr uint32_t kVtc2FrameSync = 0xC2F5A151u;
inline constexpr size_t kVtc2HeaderBytes = 24;
inline constexpr size_t kVtc2FrameHeaderBytes = 48;
inline constexpr size_t kVtc2FrameTrailerBytes = 4;  ///< body CRC
inline constexpr size_t kVtc2FooterBytes = 48;
inline constexpr size_t kVtc2IndexEntryBytes = 32;

/** Writer tunables. */
struct Vtc2Options
{
    /** Packets grouped per frame (seek granularity vs. compression). */
    size_t packets_per_frame = 512;
    /** LZ-compress frame bodies (frames that do not shrink stay raw). */
    bool compress = true;
};

/** Where one frame landed in the serialized image (writer report). */
struct Vtc2FrameInfo
{
    uint64_t offset = 0;       ///< file offset of the sync marker
    uint64_t body_bytes = 0;   ///< stored body size
    uint64_t raw_bytes = 0;    ///< body size before compression
    uint64_t first_seq = 0;
    uint64_t packet_count = 0;
    uint64_t first_cycle = 0;
    uint64_t last_cycle = 0;
    bool compressed = false;
};

/**
 * Serialize @p trace into a VTC2 image. Cycle annotations are stored
 * when trace.hasCycles(); otherwise the index degrades to cycle ==
 * packet sequence number.
 *
 * @param frames_out when non-null, receives one entry per frame (fault
 *        injection and stats use the offsets).
 */
std::vector<uint8_t> serializeVtc2(const Trace &trace,
                                   const Vtc2Options &opt = {},
                                   std::vector<Vtc2FrameInfo> *frames_out =
                                       nullptr);

/** Whether @p data starts with the VTC2 magic. */
bool isVtc2Image(const uint8_t *data, size_t len);

/**
 * Decode a VTC2 image tolerantly: frame damage is survived by
 * resynchronizing on sync markers and accounted in @p report. Only an
 * uninterpretable prologue (magic, header CRC, metadata CRC) raises
 * SimFatal — mirroring the v1 contract. @p context names the source in
 * diagnostics (typically the file path).
 */
Trace parseVtc2(const uint8_t *data, size_t len,
                const std::string &context, TraceDamageReport &report);

/** Strict variant: any damage at all raises SimFatal. */
Trace parseVtc2(const uint8_t *data, size_t len,
                const std::string &context);

/** Size/compression figures of a VTC2 image (for stats and bench). */
struct Vtc2Stats
{
    uint64_t file_bytes = 0;
    uint64_t frames = 0;
    uint64_t packets = 0;
    uint64_t payload_bytes = 0;       ///< raw packet-stream bytes
    uint64_t frame_raw_bytes = 0;     ///< frame bodies before compression
    uint64_t frame_stored_bytes = 0;  ///< frame bodies as stored
    uint64_t compressed_frames = 0;
    uint64_t index_entries = 0;
    bool has_cycles = false;
    bool index_valid = false;         ///< footer + index CRCs held
    /**
     * What the v1 container would spend on the same payload (64-byte
     * lines at 52 payload bytes each, headers excluded) — the
     * compression-ratio denominator.
     */
    uint64_t v1LineBytes() const
    {
        return (payload_bytes + kStorageLinePayload - 1) /
               kStorageLinePayload * kStorageLineBytes;
    }
};

/**
 * Walk a VTC2 image's frame headers and index without decoding bodies.
 * Damaged regions are skipped (this never throws past the prologue
 * checks that parseVtc2 also enforces).
 */
Vtc2Stats inspectVtc2(const uint8_t *data, size_t len,
                      const std::string &context);

/**
 * Random-access reader over a VTC2 image.
 *
 * Frames are decoded lazily, one at a time; seeks bisect the sparse
 * index and decode only the target frame. Damaged frames encountered
 * while reading are noted in damage() and skipped, exactly as the bulk
 * parser does.
 */
class TraceReader
{
  public:
    /**
     * Take ownership of a VTC2 image. Raises SimFatal when the prologue
     * (magic, header CRC, metadata) is uninterpretable. A damaged
     * footer or index is survived by rebuilding the index from a
     * header-only frame scan (see indexRebuilt()).
     */
    explicit TraceReader(std::vector<uint8_t> image,
                         std::string context = "<vtc2>");

    const TraceMeta &meta() const { return meta_; }
    bool hasCycles() const { return has_cycles_; }
    /** Total packets per the footer (or the rebuilt index scan). */
    uint64_t packetCount() const { return packet_count_; }
    size_t frameCount() const { return index_.size(); }
    /** True when the footer/index was damaged and had to be rebuilt. */
    bool indexRebuilt() const { return index_rebuilt_; }
    /** Damage found so far (grows as damaged frames are visited). */
    const TraceDamageReport &damage() const { return damage_; }
    /** Frames decoded since construction (seek-cost observability). */
    uint64_t framesDecoded() const { return frames_decoded_; }

    /**
     * Position the cursor on the first packet whose cycle key is ≥
     * @p cycle (cycle key = annotation when present, else sequence
     * number). O(log frames) + one frame decode.
     *
     * @return false when no such packet exists (cursor lands at EOF).
     */
    bool seekToCycle(uint64_t cycle);

    /** Position the cursor on the packet with sequence number @p seq. */
    bool seekToPacket(uint64_t seq);

    /**
     * Decode the packet under the cursor and advance.
     *
     * @param seq when non-null receives the packet's sequence number
     * @param cycle when non-null receives the packet's cycle key
     * @return false at end of stream
     */
    bool next(CyclePacket &pkt, uint64_t *seq = nullptr,
              uint64_t *cycle = nullptr);

  private:
    struct IndexEntry
    {
        uint64_t offset = 0;
        uint64_t first_seq = 0;
        uint64_t first_cycle = 0;
        uint64_t last_cycle = 0;
    };

    bool loadFrame(size_t idx);
    void positionAtFrame(size_t idx);

    std::vector<uint8_t> image_;
    std::string context_;
    TraceMeta meta_;
    FrameDeltaState delta_;  ///< built from meta_, reused by every frame
    /** LZ output of the current frame; reused so loading a compressed
     *  frame allocates only when it outgrows every earlier one. */
    std::vector<uint8_t> scratch_;
    bool has_cycles_ = false;
    bool index_rebuilt_ = false;
    uint64_t packet_count_ = 0;
    std::vector<IndexEntry> index_;
    TraceDamageReport damage_;
    uint64_t frames_decoded_ = 0;

    // Decoded current frame.
    size_t cur_frame_ = 0;         ///< index into index_, or index_.size()
    bool cur_loaded_ = false;
    std::vector<CyclePacket> cur_pkts_;
    std::vector<uint64_t> cur_cycles_;  ///< empty when !has_cycles_
    uint64_t cur_first_seq_ = 0;
    size_t cur_pos_ = 0;           ///< next packet within cur_pkts_
};

} // namespace vidi

#endif // VIDI_TRACEFMT_VTC2_H
