#include "tracefmt/vtc2.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "sim/logging.h"
#include "tracefmt/frame_codec.h"
#include "tracefmt/lz.h"
#include "trace/trace_file.h"

namespace vidi {

namespace {

/** Hostile-input ceiling on a frame's uncompressed body size. */
constexpr uint32_t kMaxFrameRawBytes = 1u << 28;

void
append(std::vector<uint8_t> &out, const void *data, size_t len)
{
    const auto *p = static_cast<const uint8_t *>(data);
    out.insert(out.end(), p, p + len);
}

template <typename T>
void
appendPod(std::vector<uint8_t> &out, const T &v)
{
    append(out, &v, sizeof(T));
}

template <typename T>
T
readPod(const uint8_t *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/** Fixed frame-header fields (everything between sync and header CRC). */
struct FrameHeader
{
    uint32_t body_bytes = 0;
    uint32_t raw_bytes = 0;
    uint32_t packet_count = 0;
    uint64_t first_seq = 0;
    uint64_t first_cycle = 0;
    uint64_t last_cycle = 0;
    uint8_t codec = 0;
    uint8_t flags = 0;
};

/**
 * Validate and read the frame header at @p off. Requires
 * off + kVtc2FrameHeaderBytes <= end; checks the sync marker and the
 * header CRC, so a false positive from scanning arbitrary bytes needs a
 * 64-bit coincidence.
 */
bool
readFrameHeader(const uint8_t *data, size_t off, size_t end,
                FrameHeader &h)
{
    if (off + kVtc2FrameHeaderBytes > end)
        return false;
    const uint8_t *p = data + off;
    if (readPod<uint32_t>(p) != kVtc2FrameSync)
        return false;
    if (crc32(p, 44) != readPod<uint32_t>(p + 44))
        return false;
    h.body_bytes = readPod<uint32_t>(p + 4);
    h.raw_bytes = readPod<uint32_t>(p + 8);
    h.packet_count = readPod<uint32_t>(p + 12);
    h.first_seq = readPod<uint64_t>(p + 16);
    h.first_cycle = readPod<uint64_t>(p + 24);
    h.last_cycle = readPod<uint64_t>(p + 32);
    h.codec = p[40];
    h.flags = p[41];
    return true;
}

/**
 * Fetch and decode the body of the frame whose header @p h sits at
 * @p off. @p scratch receives the decompressed bytes when the frame is
 * LZ-coded. Returns a pointer to the raw body (and its length in
 * @p raw_len), or nullptr when the body CRC fails or decompression /
 * sanity checks reject it.
 */
const uint8_t *
fetchFrameBody(const uint8_t *data, size_t off, const FrameHeader &h,
               std::vector<uint8_t> &scratch, size_t &raw_len)
{
    const uint8_t *body = data + off + kVtc2FrameHeaderBytes;
    const uint32_t stored_crc =
        readPod<uint32_t>(body + h.body_bytes);
    if (crc32(body, h.body_bytes) != stored_crc)
        return nullptr;
    if (h.codec == 0) {
        if (h.raw_bytes != h.body_bytes)
            return nullptr;
        raw_len = h.body_bytes;
        return body;
    }
    if (h.codec != 1 || h.raw_bytes > kMaxFrameRawBytes)
        return nullptr;
    scratch.resize(h.raw_bytes);
    if (!lzDecompress(body, h.body_bytes, scratch.data(), h.raw_bytes))
        return nullptr;
    raw_len = h.raw_bytes;
    return scratch.data();
}

/**
 * Common prologue: validate magic, header CRC, version and metadata.
 * Raises SimFatal on damage (the stream cannot be interpreted without
 * it); returns the offset where frames begin.
 */
size_t
parsePrologue(const uint8_t *data, size_t len, const std::string &context,
              TraceMeta &meta, uint32_t &flags)
{
    if (len < kVtc2HeaderBytes ||
        std::memcmp(data, kVtc2Magic, sizeof(kVtc2Magic)) != 0)
        fatal("%s is not a VTC2 trace container", context.c_str());
    if (crc32(data, 20) != readPod<uint32_t>(data + 20))
        fatal("%s: header corrupt (header CRC mismatch)", context.c_str());
    const uint32_t version = readPod<uint32_t>(data + 8);
    if (version != kVtc2Version)
        fatal("%s: unsupported VTC2 version %u", context.c_str(), version);
    flags = readPod<uint32_t>(data + 12);
    const uint32_t meta_len = readPod<uint32_t>(data + 16);
    if (len < kVtc2HeaderBytes + 4 + uint64_t(meta_len))
        fatal("%s: header corrupt (metadata section truncated)",
              context.c_str());
    const uint32_t meta_crc = readPod<uint32_t>(data + kVtc2HeaderBytes);
    const uint8_t *meta_bytes = data + kVtc2HeaderBytes + 4;
    if (crc32(meta_bytes, meta_len) != meta_crc)
        fatal("%s: header corrupt (metadata CRC mismatch — refusing to "
              "interpret the stream with untrusted channel layout)",
              context.c_str());
    meta = parseTraceMeta(
        std::vector<uint8_t>(meta_bytes, meta_bytes + meta_len), context);
    return kVtc2HeaderBytes + 4 + meta_len;
}

/** Validated footer fields. */
struct Footer
{
    bool valid = false;
    uint64_t index_offset = 0;
    uint64_t frame_count = 0;
    uint64_t packet_count = 0;
    uint64_t payload_bytes = 0;
};

Footer
parseFooter(const uint8_t *data, size_t len, size_t frames_start)
{
    Footer f;
    if (len < frames_start + kVtc2FooterBytes)
        return f;
    const uint8_t *p = data + len - kVtc2FooterBytes;
    if (std::memcmp(p + 40, kVtc2TailMagic, sizeof(kVtc2TailMagic)) != 0)
        return f;
    if (crc32(p, 32) != readPod<uint32_t>(p + 32))
        return f;
    f.index_offset = readPod<uint64_t>(p);
    f.frame_count = readPod<uint64_t>(p + 8);
    f.packet_count = readPod<uint64_t>(p + 16);
    f.payload_bytes = readPod<uint64_t>(p + 24);
    // The index block (count + entries + CRC) must fit between the
    // frames and the footer.
    const uint64_t index_end = len - kVtc2FooterBytes;
    if (f.index_offset < frames_start || f.index_offset + 8 > index_end)
        return f;
    f.valid = true;
    return f;
}

/**
 * Read the index block at @p index_offset. Returns false when the
 * count, bounds or CRC do not hold.
 */
bool
parseIndexBlock(const uint8_t *data, size_t len, uint64_t index_offset,
                std::vector<std::array<uint64_t, 4>> &entries)
{
    const uint64_t index_end = len - kVtc2FooterBytes;
    const uint32_t count = readPod<uint32_t>(data + index_offset);
    const uint64_t body = uint64_t(count) * kVtc2IndexEntryBytes;
    // The block (count + entries + CRC) must exactly fill the span
    // between the frames and the footer.
    if (index_offset + 4 + body + 4 != index_end)
        return false;
    const uint8_t *p = data + index_offset;
    if (crc32(p, 4 + size_t(body)) !=
        readPod<uint32_t>(p + 4 + size_t(body)))
        return false;
    entries.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
        const uint8_t *e = p + 4 + size_t(i) * kVtc2IndexEntryBytes;
        entries[i] = {readPod<uint64_t>(e), readPod<uint64_t>(e + 8),
                      readPod<uint64_t>(e + 16), readPod<uint64_t>(e + 24)};
    }
    return true;
}

} // namespace

std::vector<uint8_t>
serializeVtc2(const Trace &trace, const Vtc2Options &opt,
              std::vector<Vtc2FrameInfo> *frames_out)
{
    const size_t per_frame = std::max<size_t>(1, opt.packets_per_frame);
    const bool has_cycles =
        trace.hasCycles() && trace.cycles.size() == trace.packets.size();

    std::vector<uint8_t> image;
    append(image, kVtc2Magic, sizeof(kVtc2Magic));
    appendPod<uint32_t>(image, kVtc2Version);
    appendPod<uint32_t>(image, has_cycles ? kVtc2FlagHasCycles : 0);
    const std::vector<uint8_t> meta = serializeTraceMeta(trace.meta);
    appendPod<uint32_t>(image, uint32_t(meta.size()));
    appendPod<uint32_t>(image, crc32(image.data(), 20));
    appendPod<uint32_t>(image, crc32(meta.data(), meta.size()));
    append(image, meta.data(), meta.size());

    std::vector<Vtc2FrameInfo> frames;
    uint64_t payload_bytes = 0;
    FrameDeltaState delta(trace.meta);
    for (size_t first = 0; first < trace.packets.size();
         first += per_frame) {
        const size_t count =
            std::min(per_frame, trace.packets.size() - first);
        const size_t last = first + count - 1;
        Vtc2FrameInfo info;
        info.offset = image.size();
        info.first_seq = first;
        info.packet_count = count;
        info.first_cycle = has_cycles ? trace.cycles[first] : first;
        info.last_cycle = has_cycles ? trace.cycles[last] : last;

        const std::vector<uint8_t> body = encodeFrameBody(
            trace.meta, delta, trace.packets.data() + first, count,
            has_cycles ? trace.cycles.data() + first : nullptr,
            info.first_cycle);
        std::vector<uint8_t> packed;
        if (opt.compress)
            packed = lzCompress(body.data(), body.size());
        info.compressed = !packed.empty();
        const std::vector<uint8_t> &stored = info.compressed ? packed
                                                             : body;
        info.raw_bytes = body.size();
        info.body_bytes = stored.size();

        const size_t hdr = image.size();
        appendPod<uint32_t>(image, kVtc2FrameSync);
        appendPod<uint32_t>(image, uint32_t(stored.size()));
        appendPod<uint32_t>(image, uint32_t(body.size()));
        appendPod<uint32_t>(image, uint32_t(count));
        appendPod<uint64_t>(image, info.first_seq);
        appendPod<uint64_t>(image, info.first_cycle);
        appendPod<uint64_t>(image, info.last_cycle);
        appendPod<uint8_t>(image, info.compressed ? 1 : 0);
        appendPod<uint8_t>(image, has_cycles ? 1 : 0);
        appendPod<uint16_t>(image, 0);
        appendPod<uint32_t>(image, crc32(image.data() + hdr, 44));
        append(image, stored.data(), stored.size());
        appendPod<uint32_t>(image, crc32(stored.data(), stored.size()));

        for (size_t i = first; i <= last; ++i)
            payload_bytes += packetBytes(trace.meta, trace.packets[i]);
        frames.push_back(info);
    }

    const uint64_t index_offset = image.size();
    appendPod<uint32_t>(image, uint32_t(frames.size()));
    for (const Vtc2FrameInfo &f : frames) {
        appendPod<uint64_t>(image, f.offset);
        appendPod<uint64_t>(image, f.first_seq);
        appendPod<uint64_t>(image, f.first_cycle);
        appendPod<uint64_t>(image, f.last_cycle);
    }
    appendPod<uint32_t>(image,
                        crc32(image.data() + index_offset,
                              image.size() - index_offset));

    const size_t footer = image.size();
    appendPod<uint64_t>(image, index_offset);
    appendPod<uint64_t>(image, uint64_t(frames.size()));
    appendPod<uint64_t>(image, uint64_t(trace.packets.size()));
    appendPod<uint64_t>(image, payload_bytes);
    appendPod<uint32_t>(image, crc32(image.data() + footer, 32));
    appendPod<uint32_t>(image, 0);
    append(image, kVtc2TailMagic, sizeof(kVtc2TailMagic));

    if (frames_out != nullptr)
        *frames_out = std::move(frames);
    return image;
}

bool
isVtc2Image(const uint8_t *data, size_t len)
{
    return len >= sizeof(kVtc2Magic) &&
           std::memcmp(data, kVtc2Magic, sizeof(kVtc2Magic)) == 0;
}

Trace
parseVtc2(const uint8_t *data, size_t len, const std::string &context,
          TraceDamageReport &report)
{
    Trace trace;
    uint32_t flags = 0;
    const size_t frames_start =
        parsePrologue(data, len, context, trace.meta, flags);
    const bool has_cycles = (flags & kVtc2FlagHasCycles) != 0;

    const Footer footer = parseFooter(data, len, frames_start);
    const size_t frames_end = footer.valid ? size_t(footer.index_offset)
                                           : len;
    if (footer.valid) {
        // Pre-size from the footer, capped by the image length so a
        // forged (CRC-recomputed) count cannot force a huge
        // allocation; a trace with more packets than bytes simply
        // grows past the reservation.
        const size_t expect =
            size_t(std::min<uint64_t>(footer.packet_count, len));
        trace.packets.reserve(expect);
        if (has_cycles)
            trace.cycles.reserve(expect);
    }

    FrameDeltaState delta(trace.meta);
    std::vector<uint8_t> scratch;
    uint64_t next_seq = 0;
    bool in_damage = false;
    uint64_t damage_anchor = 0;
    uint64_t damage_bytes = 0;
    bool torn = false;

    size_t off = frames_start;
    const size_t min_frame =
        kVtc2FrameHeaderBytes + kVtc2FrameTrailerBytes;
    while (off + min_frame <= frames_end) {
        FrameHeader h;
        bool good = readFrameHeader(data, off, frames_end, h);
        size_t total = 0;
        if (good) {
            total = kVtc2FrameHeaderBytes + size_t(h.body_bytes) +
                    kVtc2FrameTrailerBytes;
            if (off + total > frames_end) {
                // Header valid but the body runs off the end: torn tail.
                if (!in_damage) {
                    in_damage = true;
                    damage_anchor = next_seq;
                }
                damage_bytes += frames_end - off;
                torn = true;
                off = frames_end;
                break;
            }
            size_t raw_len = 0;
            const uint8_t *body =
                fetchFrameBody(data, off, h, scratch, raw_len);
            good = body != nullptr &&
                   ((h.flags & 1) != 0) == has_cycles &&
                   h.first_seq >= next_seq &&
                   decodeFrameBody(trace.meta, delta, body, raw_len,
                                   h.packet_count, has_cycles,
                                   h.first_cycle, trace.packets,
                                   trace.cycles);
        }
        if (good) {
            if (in_damage || h.first_seq != next_seq) {
                const uint64_t lost = h.first_seq - next_seq;
                report.note(DamageKind::CorruptFrame, next_seq, lost,
                            damage_bytes);
                ++report.resyncs;
                in_damage = false;
                damage_bytes = 0;
            }
            next_seq = h.first_seq + h.packet_count;
            off += total;
            continue;
        }
        // Damaged frame: scan forward for the next sync marker whose
        // header CRC validates.
        if (!in_damage) {
            in_damage = true;
            damage_anchor = next_seq;
        }
        size_t probe = off + 1;
        while (probe + min_frame <= frames_end) {
            FrameHeader ph;
            if (readPod<uint32_t>(data + probe) == kVtc2FrameSync &&
                readFrameHeader(data, probe, frames_end, ph))
                break;
            ++probe;
        }
        if (probe + min_frame > frames_end) {
            damage_bytes += frames_end - off;
            off = frames_end;
            break;
        }
        damage_bytes += probe - off;
        off = probe;
    }
    if (!in_damage && off < frames_end) {
        // Trailing bytes too short to be a frame: torn tail.
        in_damage = true;
        damage_anchor = next_seq;
        damage_bytes += frames_end - off;
        torn = true;
    }
    if (in_damage) {
        const uint64_t expected =
            footer.valid ? footer.packet_count : next_seq;
        const uint64_t lost =
            expected > next_seq ? expected - next_seq : 0;
        report.note(torn ? DamageKind::TruncatedFrame
                         : DamageKind::CorruptFrame,
                    damage_anchor, lost, damage_bytes);
    } else if (footer.valid && footer.packet_count > next_seq) {
        // Whole frames sheared off before a (still valid) footer.
        report.note(DamageKind::CorruptFrame, next_seq,
                    footer.packet_count - next_seq, 0);
    }
    report.packets_decoded += trace.packets.size();
    if (!has_cycles)
        trace.cycles.clear();
    return trace;
}

Trace
parseVtc2(const uint8_t *data, size_t len, const std::string &context)
{
    TraceDamageReport report;
    Trace trace = parseVtc2(data, len, context, report);
    if (!report.clean())
        fatal("%s: %s", context.c_str(), report.toString().c_str());
    return trace;
}

Vtc2Stats
inspectVtc2(const uint8_t *data, size_t len, const std::string &context)
{
    Vtc2Stats stats;
    TraceMeta meta;
    uint32_t flags = 0;
    const size_t frames_start =
        parsePrologue(data, len, context, meta, flags);
    stats.file_bytes = len;
    stats.has_cycles = (flags & kVtc2FlagHasCycles) != 0;

    const Footer footer = parseFooter(data, len, frames_start);
    if (footer.valid) {
        stats.payload_bytes = footer.payload_bytes;
        std::vector<std::array<uint64_t, 4>> entries;
        if (parseIndexBlock(data, len, footer.index_offset, entries)) {
            stats.index_valid = true;
            stats.index_entries = entries.size();
        }
    }
    const size_t frames_end = footer.valid ? size_t(footer.index_offset)
                                           : len;
    size_t off = frames_start;
    const size_t min_frame =
        kVtc2FrameHeaderBytes + kVtc2FrameTrailerBytes;
    while (off + min_frame <= frames_end) {
        FrameHeader h;
        if (!readFrameHeader(data, off, frames_end, h) ||
            off + kVtc2FrameHeaderBytes + size_t(h.body_bytes) +
                    kVtc2FrameTrailerBytes >
                frames_end) {
            ++off;
            continue;
        }
        ++stats.frames;
        stats.packets += h.packet_count;
        stats.frame_raw_bytes += h.raw_bytes;
        stats.frame_stored_bytes += h.body_bytes;
        if (h.codec != 0)
            ++stats.compressed_frames;
        off += kVtc2FrameHeaderBytes + size_t(h.body_bytes) +
               kVtc2FrameTrailerBytes;
    }
    return stats;
}

TraceReader::TraceReader(std::vector<uint8_t> image, std::string context)
    : image_(std::move(image)), context_(std::move(context))
{
    uint32_t flags = 0;
    const size_t frames_start = parsePrologue(
        image_.data(), image_.size(), context_, meta_, flags);
    has_cycles_ = (flags & kVtc2FlagHasCycles) != 0;
    delta_ = FrameDeltaState(meta_);

    const Footer footer =
        parseFooter(image_.data(), image_.size(), frames_start);
    bool indexed = false;
    if (footer.valid) {
        std::vector<std::array<uint64_t, 4>> entries;
        if (parseIndexBlock(image_.data(), image_.size(),
                            footer.index_offset, entries)) {
            indexed = true;
            packet_count_ = footer.packet_count;
            index_.reserve(entries.size());
            for (const auto &e : entries)
                index_.push_back({e[0], e[1], e[2], e[3]});
            // Entries must point at plausible offsets in ascending
            // order; a mismatch means the index lies — rebuild instead.
            uint64_t prev = 0;
            for (const IndexEntry &e : index_) {
                if (e.offset < frames_start ||
                    e.offset + kVtc2FrameHeaderBytes >
                        footer.index_offset ||
                    (prev != 0 && e.offset <= prev)) {
                    indexed = false;
                    break;
                }
                prev = e.offset;
            }
            if (!indexed)
                index_.clear();
        }
    }
    if (!indexed) {
        // Header-only scan: every frame self-describes its index entry.
        index_rebuilt_ = true;
        const size_t frames_end =
            footer.valid ? size_t(footer.index_offset) : image_.size();
        size_t off = frames_start;
        const size_t min_frame =
            kVtc2FrameHeaderBytes + kVtc2FrameTrailerBytes;
        while (off + min_frame <= frames_end) {
            FrameHeader h;
            if (!readFrameHeader(image_.data(), off, frames_end, h) ||
                off + kVtc2FrameHeaderBytes + size_t(h.body_bytes) +
                        kVtc2FrameTrailerBytes >
                    frames_end) {
                ++off;
                continue;
            }
            index_.push_back(
                {off, h.first_seq, h.first_cycle, h.last_cycle});
            packet_count_ =
                std::max(packet_count_, h.first_seq + h.packet_count);
            off += kVtc2FrameHeaderBytes + size_t(h.body_bytes) +
                   kVtc2FrameTrailerBytes;
        }
        if (footer.valid)
            packet_count_ = std::max(packet_count_, footer.packet_count);
    }
    cur_frame_ = 0;
}

bool
TraceReader::loadFrame(size_t idx)
{
    const IndexEntry &e = index_[idx];
    FrameHeader h;
    cur_pkts_.clear();
    cur_cycles_.clear();
    cur_loaded_ = false;
    cur_pos_ = 0;
    if (!readFrameHeader(image_.data(), size_t(e.offset), image_.size(),
                         h) ||
        size_t(e.offset) + kVtc2FrameHeaderBytes + size_t(h.body_bytes) +
                kVtc2FrameTrailerBytes >
            image_.size())
        h.body_bytes = 0;  // force the damage path below
    else {
        size_t raw_len = 0;
        const uint8_t *body = fetchFrameBody(
            image_.data(), size_t(e.offset), h, scratch_, raw_len);
        if (body != nullptr && ((h.flags & 1) != 0) == has_cycles_ &&
            decodeFrameBody(meta_, delta_, body, raw_len, h.packet_count,
                            has_cycles_, h.first_cycle, cur_pkts_,
                            cur_cycles_)) {
            cur_first_seq_ = h.first_seq;
            cur_loaded_ = true;
            ++frames_decoded_;
            return true;
        }
    }
    // Damaged: charge the packets this frame should have held.
    const uint64_t next_seq = idx + 1 < index_.size()
                                  ? index_[idx + 1].first_seq
                                  : packet_count_;
    damage_.note(DamageKind::CorruptFrame, e.first_seq,
                 next_seq > e.first_seq ? next_seq - e.first_seq : 0, 0);
    ++damage_.resyncs;
    return false;
}

void
TraceReader::positionAtFrame(size_t idx)
{
    cur_frame_ = idx;
    cur_loaded_ = false;
    cur_pos_ = 0;
    cur_pkts_.clear();
    cur_cycles_.clear();
}

bool
TraceReader::seekToCycle(uint64_t cycle)
{
    // Last frame whose first_cycle ≤ cycle (frames are cycle-sorted).
    size_t lo = 0, hi = index_.size();
    while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (index_[mid].first_cycle <= cycle)
            lo = mid + 1;
        else
            hi = mid;
    }
    size_t idx = lo > 0 ? lo - 1 : 0;
    for (; idx < index_.size(); ++idx) {
        if (index_[idx].last_cycle < cycle)
            continue;  // cycle falls past this frame (or in a gap)
        if (!loadFrame(idx))
            continue;
        size_t pos = 0;
        if (has_cycles_) {
            while (pos < cur_cycles_.size() && cur_cycles_[pos] < cycle)
                ++pos;
        } else {
            pos = cycle > cur_first_seq_
                      ? std::min(size_t(cycle - cur_first_seq_),
                                 cur_pkts_.size())
                      : 0;
        }
        if (pos >= cur_pkts_.size())
            continue;  // every packet here is older than the target
        cur_frame_ = idx;
        cur_pos_ = pos;
        return true;
    }
    positionAtFrame(index_.size());
    return false;
}

bool
TraceReader::seekToPacket(uint64_t seq)
{
    size_t lo = 0, hi = index_.size();
    while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (index_[mid].first_seq <= seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    size_t idx = lo > 0 ? lo - 1 : 0;
    for (; idx < index_.size(); ++idx) {
        if (!loadFrame(idx))
            continue;
        if (seq < cur_first_seq_) {
            // The exact packet fell in a damaged hole; land after it.
            cur_frame_ = idx;
            cur_pos_ = 0;
            return false;
        }
        const uint64_t rel = seq - cur_first_seq_;
        if (rel >= cur_pkts_.size())
            continue;
        cur_frame_ = idx;
        cur_pos_ = size_t(rel);
        return true;
    }
    positionAtFrame(index_.size());
    return false;
}

bool
TraceReader::next(CyclePacket &pkt, uint64_t *seq, uint64_t *cycle)
{
    while (!cur_loaded_ || cur_pos_ >= cur_pkts_.size()) {
        if (cur_loaded_) {
            ++cur_frame_;
            cur_loaded_ = false;
        }
        if (cur_frame_ >= index_.size())
            return false;
        if (!loadFrame(cur_frame_))
            ++cur_frame_;
    }
    pkt = cur_pkts_[cur_pos_];
    if (seq != nullptr)
        *seq = cur_first_seq_ + cur_pos_;
    if (cycle != nullptr)
        *cycle = has_cycles_ ? cur_cycles_[cur_pos_]
                             : cur_first_seq_ + cur_pos_;
    ++cur_pos_;
    return true;
}

} // namespace vidi
