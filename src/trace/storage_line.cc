#include "trace/storage_line.h"

#include "checkpoint/state_io.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "sim/logging.h"

namespace vidi {

namespace {

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: t[0] is the
 * classic bytewise table, and t[k][b] is the CRC of byte b followed by
 * k zero bytes, so eight table lookups fold eight input bytes at once.
 */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i)
        for (size_t k = 1; k < t.size(); ++k)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}

void
put32(uint8_t *p, uint32_t v)
{
    p[0] = uint8_t(v);
    p[1] = uint8_t(v >> 8);
    p[2] = uint8_t(v >> 16);
    p[3] = uint8_t(v >> 24);
}

uint32_t
get32(const uint8_t *p)
{
    return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
           uint32_t(p[3]) << 24;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t len, uint32_t seed)
{
    static const CrcTables t = makeCrcTables();
    uint32_t c = seed ^ 0xffffffffu;
    for (; len >= 8; data += 8, len -= 8) {
        const uint32_t lo = c ^ get32(data);
        const uint32_t hi = get32(data + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++data, --len)
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
encodeStorageLine(uint32_t seq, const uint8_t *payload, size_t len,
                  uint8_t first_pkt_off, uint8_t flags, uint8_t *out)
{
    if (len > kStorageLinePayload)
        panic("encodeStorageLine: payload of %zu bytes exceeds the "
              "%zu-byte line capacity", len, kStorageLinePayload);
    if (first_pkt_off != kNoPacketStart && first_pkt_off >= len)
        panic("encodeStorageLine: first_pkt_off %u outside the %zu-byte "
              "payload", first_pkt_off, len);
    std::memset(out, 0, kStorageLineBytes);
    put32(out + 4, seq);
    out[8] = uint8_t(len);
    out[9] = uint8_t(len >> 8);
    out[10] = first_pkt_off;
    out[11] = flags;
    std::memcpy(out + kStorageLineHeader, payload, len);
    put32(out, crc32(out + 4, kStorageLineBytes - 4));
}

bool
decodeStorageLine(const uint8_t *line, StorageLineView &out)
{
    if (get32(line) != crc32(line + 4, kStorageLineBytes - 4))
        return false;
    out.seq = get32(line + 4);
    out.payload_len = uint16_t(line[8]) | uint16_t(line[9]) << 8;
    out.first_pkt_off = line[10];
    out.flags = line[11];
    out.payload = line + kStorageLineHeader;
    if (out.payload_len > kStorageLinePayload)
        return false;
    if (out.first_pkt_off != kNoPacketStart &&
        out.first_pkt_off >= out.payload_len)
        return false;
    return true;
}

const char *
toString(OverflowPolicy policy)
{
    switch (policy) {
      case OverflowPolicy::Block: return "block";
      case OverflowPolicy::DropWithReport: return "drop-with-report";
    }
    return "unknown-policy";
}

const char *
toString(DamageKind kind)
{
    switch (kind) {
      case DamageKind::CorruptLine: return "corrupt line";
      case DamageKind::MissingLines: return "missing lines";
      case DamageKind::DuplicateLine: return "duplicate line";
      case DamageKind::UnalignedSkip: return "unaligned line skipped";
      case DamageKind::TruncatedTail: return "truncated tail";
      case DamageKind::Discontinuity: return "recorded discontinuity";
      case DamageKind::CorruptFrame: return "corrupt frame";
      case DamageKind::TruncatedFrame: return "truncated frame";
    }
    return "unknown damage";
}

std::string
DamageRegion::toString() const
{
    std::string s = vidi::toString(kind);
    s += " at line " + std::to_string(first_seq);
    if (lines > 1)
        s += " (+" + std::to_string(lines - 1) + " more)";
    if (bytes > 0)
        s += ", " + std::to_string(bytes) + " payload bytes lost";
    return s;
}

bool
TraceDamageReport::clean() const
{
    return lines_corrupt == 0 && lines_missing == 0 &&
           lines_duplicate == 0 && lines_skipped == 0 &&
           payload_bytes_lost == 0 && tail_bytes_discarded == 0 &&
           regions.empty();
}

void
TraceDamageReport::note(DamageKind kind, uint64_t first_seq, uint64_t lines,
                        uint64_t bytes)
{
    switch (kind) {
      case DamageKind::CorruptLine: lines_corrupt += lines; break;
      case DamageKind::MissingLines: lines_missing += lines; break;
      case DamageKind::DuplicateLine: lines_duplicate += lines; break;
      case DamageKind::UnalignedSkip: lines_skipped += lines; break;
      case DamageKind::CorruptFrame: lines_corrupt += lines; break;
      case DamageKind::TruncatedTail:
      case DamageKind::Discontinuity:
      case DamageKind::TruncatedFrame:
        break;
    }
    payload_bytes_lost += bytes;
    if (first_bad_seq < 0)
        first_bad_seq = int64_t(first_seq);
    last_bad_seq = std::max(last_bad_seq, int64_t(first_seq + lines) - 1);
    if (last_bad_seq < int64_t(first_seq))
        last_bad_seq = int64_t(first_seq);
    // Merge with the previous region when it extends the same damage.
    if (!regions.empty()) {
        DamageRegion &prev = regions.back();
        if (prev.kind == kind && prev.first_seq + prev.lines == first_seq) {
            prev.lines += lines;
            prev.bytes += bytes;
            return;
        }
    }
    regions.push_back({kind, first_seq, lines, bytes});
}

std::string
TraceDamageReport::toString() const
{
    std::string s;
    if (clean()) {
        s = "trace stream clean: " + std::to_string(lines_ok) + "/" +
            std::to_string(lines_total) + " lines ok, " +
            std::to_string(packets_decoded) + " packets";
        return s;
    }
    s = "trace stream DAMAGED: " + std::to_string(lines_ok) + "/" +
        std::to_string(lines_total) + " lines ok";
    s += ", corrupt " + std::to_string(lines_corrupt);
    s += ", missing " + std::to_string(lines_missing);
    s += ", duplicate " + std::to_string(lines_duplicate);
    s += ", skipped " + std::to_string(lines_skipped);
    s += "; " + std::to_string(payload_bytes_lost) + " payload bytes lost";
    s += ", " + std::to_string(tail_bytes_discarded) +
         " tail bytes discarded";
    s += ", " + std::to_string(resyncs) + " resyncs";
    s += "; " + std::to_string(packets_decoded) + " packets recovered";
    if (first_bad_seq >= 0) {
        s += "; damage spans lines [" + std::to_string(first_bad_seq) +
             ", " + std::to_string(last_bad_seq) + "]";
    }
    for (const auto &r : regions)
        s += "\n  " + r.toString();
    return s;
}

std::vector<uint8_t>
frameStream(const std::vector<uint8_t> &payload,
            const std::vector<uint64_t> &packet_starts)
{
    std::vector<uint8_t> out;
    const uint64_t lines =
        (payload.size() + kStorageLinePayload - 1) / kStorageLinePayload;
    out.resize(lines * kStorageLineBytes);
    size_t next_start = 0;  // index into packet_starts
    for (uint64_t i = 0; i < lines; ++i) {
        const uint64_t pos = i * kStorageLinePayload;
        const size_t len = std::min<uint64_t>(kStorageLinePayload,
                                              payload.size() - pos);
        while (next_start < packet_starts.size() &&
               packet_starts[next_start] < pos)
            ++next_start;
        uint8_t first_off = kNoPacketStart;
        if (next_start < packet_starts.size() &&
            packet_starts[next_start] < pos + len)
            first_off = uint8_t(packet_starts[next_start] - pos);
        encodeStorageLine(uint32_t(i), payload.data() + pos, len,
                          first_off, 0, out.data() + i * kStorageLineBytes);
    }
    return out;
}

std::vector<StreamSegment>
deframeStream(const uint8_t *data, size_t len, TraceDamageReport &report)
{
    std::vector<StreamSegment> segments;
    auto current = [&]() -> StreamSegment & {
        if (segments.empty())
            segments.emplace_back();
        return segments.back();
    };

    uint64_t expected_seq = 0;
    bool resync = false;  // alignment lost; need a packet-boundary anchor
    for (size_t off = 0; off < len; off += kStorageLineBytes) {
        if (len - off < kStorageLineBytes) {
            // The stream ends inside a line: a truncated tail.
            report.lines_total++;
            report.note(DamageKind::TruncatedTail, expected_seq, 1,
                        len - off);
            break;
        }
        report.lines_total++;
        StorageLineView view;
        if (!decodeStorageLine(data + off, view)) {
            report.note(DamageKind::CorruptLine, expected_seq, 1, 0);
            resync = true;
            ++expected_seq;  // assume the damaged slot held this line
            continue;
        }
        if (view.seq < expected_seq) {
            report.note(DamageKind::DuplicateLine, view.seq, 1, 0);
            continue;
        }
        if (view.seq > expected_seq) {
            report.note(DamageKind::MissingLines, expected_seq,
                        view.seq - expected_seq, 0);
            resync = true;
        }
        expected_seq = view.seq + 1;

        size_t skip = 0;
        const bool discont = (view.flags & kFlagDiscontinuity) != 0;
        if (discont && !resync) {
            // The recorder itself cut the stream here (overflow drop).
            report.note(DamageKind::Discontinuity, view.seq, 0, 0);
        }
        if (resync || discont) {
            if (view.first_pkt_off == kNoPacketStart) {
                // Mid-packet line with no anchor: unusable.
                report.note(DamageKind::UnalignedSkip, view.seq, 1,
                            view.payload_len);
                resync = true;
                continue;
            }
            skip = view.first_pkt_off;
            if (skip > 0)
                report.payload_bytes_lost += skip;
            report.resyncs++;
            resync = false;
            segments.emplace_back();
        }
        report.lines_ok++;
        StreamSegment &seg = current();
        seg.bytes.insert(seg.bytes.end(), view.payload + skip,
                         view.payload + view.payload_len);
    }
    // Drop an empty leading segment (clean streams always have one real
    // segment; fully-damaged streams may have none).
    if (!segments.empty() && segments.front().bytes.empty() &&
        segments.size() > 1)
        segments.erase(segments.begin());
    if (!segments.empty() && segments.back().bytes.empty())
        segments.pop_back();
    return segments;
}

void
TraceDamageReport::saveState(StateWriter &w) const
{
    w.u64(lines_total);
    w.u64(lines_ok);
    w.u64(lines_corrupt);
    w.u64(lines_missing);
    w.u64(lines_duplicate);
    w.u64(lines_skipped);
    w.u64(payload_bytes_lost);
    w.u64(tail_bytes_discarded);
    w.u64(resyncs);
    w.u64(packets_decoded);
    w.pod(first_bad_seq);
    w.pod(last_bad_seq);
    w.podVec(regions);
}

void
TraceDamageReport::loadState(StateReader &r)
{
    lines_total = r.u64();
    lines_ok = r.u64();
    lines_corrupt = r.u64();
    lines_missing = r.u64();
    lines_duplicate = r.u64();
    lines_skipped = r.u64();
    payload_bytes_lost = r.u64();
    tail_bytes_discarded = r.u64();
    resyncs = r.u64();
    packets_decoded = r.u64();
    first_bad_seq = r.pod<int64_t>();
    last_bad_seq = r.pod<int64_t>();
    r.podVec(regions);
}

} // namespace vidi
