#include "tracefmt/frame_codec.h"

#include <cstring>
#include <map>
#include <utility>

#include "sim/logging.h"
#include "tracefmt/varint.h"
#include "trace/bitvec.h"

namespace vidi {

namespace {

/** Content tag bytes (see file header in frame_codec.h). */
constexpr uint8_t kTagSame = 0;
constexpr uint8_t kTagDelta = 1;
constexpr uint8_t kTagRaw = 2;

void
encodeContent(std::vector<uint8_t> &out, FrameDeltaState &state,
              bool ends, size_t ch, const uint8_t *data, size_t n)
{
    uint8_t *const prev = state.prev(ends, ch);
    const bool has = state.has(ends, ch);
    if (has && std::memcmp(prev, data, n) == 0) {
        out.push_back(kTagSame);
        return;
    }
    // The XOR form only pays off when the beats genuinely resemble
    // each other: XORing two unrelated payloads scrambles structure the
    // frame's LZ pass could otherwise match against earlier raw bytes.
    size_t same = 0;
    if (has) {
        for (size_t i = 0; i < n; ++i)
            same += (data[i] == prev[i]);
    }
    if (has && same * 2 >= n) {
        out.push_back(kTagDelta);
        const size_t base = out.size();
        out.resize(base + n);
        for (size_t i = 0; i < n; ++i)
            out[base + i] = uint8_t(data[i] ^ prev[i]);
    } else {
        out.push_back(kTagRaw);
        out.insert(out.end(), data, data + n);
    }
    std::memcpy(prev, data, n);
    state.setHas(ends, ch);
}

bool
decodeContent(const uint8_t *&p, const uint8_t *end, FrameDeltaState &state,
              bool ends, size_t ch, size_t n, ContentBuf &out)
{
    if (p == end)
        return false;
    const uint8_t tag = *p++;
    uint8_t *const prev = state.prev(ends, ch);
    switch (tag) {
      case kTagSame:
        if (!state.has(ends, ch))
            return false;
        break;
      case kTagDelta:
        if (!state.has(ends, ch) || size_t(end - p) < n)
            return false;
        for (size_t i = 0; i < n; ++i)
            prev[i] = uint8_t(prev[i] ^ p[i]);
        p += n;
        break;
      case kTagRaw:
        if (size_t(end - p) < n)
            return false;
        std::memcpy(prev, p, n);
        p += n;
        state.setHas(ends, ch);
        break;
      default:
        return false;
    }
    out.assign(prev, n);
    return true;
}

/** Bit i set when channel i's end content is recorded. */
uint64_t
endContentMask(const TraceMeta &meta)
{
    uint64_t mask = 0;
    if (meta.record_output_content) {
        for (size_t ch = 0; ch < meta.channelCount(); ++ch) {
            if (!meta.channels[ch].input)
                mask |= uint64_t(1) << ch;
        }
    }
    return mask;
}

} // namespace

FrameDeltaState::FrameDeltaState(const TraceMeta &meta)
{
    const size_t nchan = meta.channelCount();
    offset_.resize(2 * nchan);
    fresh_.resize(2 * nchan);
    size_t total = 0;
    for (size_t slot = 0; slot < 2 * nchan; ++slot) {
        const size_t bytes = meta.channels[slot % nchan].data_bytes;
        offset_[slot] = total;
        fresh_[slot] = bytes == 0;
        total += bytes;
    }
    bytes_.resize(total);
    has_ = fresh_;
}

std::vector<uint8_t>
encodeFrameBody(const TraceMeta &meta, FrameDeltaState &state,
                const CyclePacket *pkts, size_t count,
                const uint64_t *cycles, uint64_t first_cycle)
{
    if (count == 0)
        panic("encodeFrameBody: empty frame");

    std::vector<uint8_t> out;
    putVarint(out, count);

    // Mask dictionary in first-appearance order.
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> dict;
    std::vector<std::pair<uint64_t, uint64_t>> entries;
    std::vector<uint64_t> indices(count);
    for (size_t i = 0; i < count; ++i) {
        const auto key = std::make_pair(pkts[i].starts, pkts[i].ends);
        auto [it, fresh] = dict.emplace(key, entries.size());
        if (fresh)
            entries.push_back(key);
        indices[i] = it->second;
    }
    putVarint(out, entries.size());
    for (const auto &[starts, ends] : entries) {
        putVarint(out, starts);
        putVarint(out, ends);
    }
    for (uint64_t idx : indices)
        putVarint(out, idx);

    if (cycles != nullptr) {
        uint64_t prev = first_cycle;
        for (size_t i = 0; i < count; ++i) {
            if (cycles[i] < prev)
                panic("encodeFrameBody: emission cycles go backwards "
                      "(%llu after %llu)",
                      (unsigned long long)cycles[i],
                      (unsigned long long)prev);
            putVarint(out, cycles[i] - prev);
            prev = cycles[i];
        }
    }

    state.reset();
    for (size_t i = 0; i < count; ++i) {
        const CyclePacket &pkt = pkts[i];
        size_t ci = 0;
        bitvec::forEach(pkt.starts, [&](size_t ch) {
            if (ci >= pkt.start_contents.size())
                panic("encodeFrameBody: missing start content for channel "
                      "%zu", ch);
            const ContentBuf &c = pkt.start_contents[ci++];
            if (c.size() != meta.channels[ch].data_bytes)
                panic("encodeFrameBody: channel %zu content size %zu != "
                      "%u", ch, c.size(), meta.channels[ch].data_bytes);
            encodeContent(out, state, false, ch, c.data(), c.size());
        });
        if (meta.record_output_content) {
            size_t ei = 0;
            bitvec::forEach(pkt.ends, [&](size_t ch) {
                if (meta.channels[ch].input)
                    return;
                if (ei >= pkt.end_contents.size())
                    panic("encodeFrameBody: missing end content for "
                          "channel %zu", ch);
                const ContentBuf &c = pkt.end_contents[ei++];
                if (c.size() != meta.channels[ch].data_bytes)
                    panic("encodeFrameBody: channel %zu end content size "
                          "%zu != %u",
                          ch, c.size(), meta.channels[ch].data_bytes);
                encodeContent(out, state, true, ch, c.data(), c.size());
            });
        }
    }
    return out;
}

bool
decodeFrameBody(const TraceMeta &meta, FrameDeltaState &state,
                const uint8_t *body, size_t len, size_t expected_count,
                bool has_cycles, uint64_t first_cycle,
                std::vector<CyclePacket> &pkts,
                std::vector<uint64_t> &cycles)
{
    const uint8_t *p = body;
    const uint8_t *const end = body + len;
    const size_t nchan = meta.channelCount();
    const uint64_t chan_mask =
        nchan < 64 ? (uint64_t(1) << nchan) - 1 : ~uint64_t(0);

    uint64_t count = 0;
    if (!getVarint(p, end, count) || count != expected_count || count == 0)
        return false;

    uint64_t dict_count = 0;
    if (!getVarint(p, end, dict_count) || dict_count == 0 ||
        dict_count > count)
        return false;
    std::vector<std::pair<uint64_t, uint64_t>> dict(
        static_cast<size_t>(dict_count));
    for (auto &[starts, ends] : dict) {
        if (!getVarint(p, end, starts) || !getVarint(p, end, ends))
            return false;
        if (((starts | ends) & ~chan_mask) != 0)
            return false;
    }

    std::vector<uint64_t> indices(static_cast<size_t>(count));
    for (uint64_t &idx : indices) {
        if (!getVarint(p, end, idx) || idx >= dict_count)
            return false;
    }

    std::vector<uint64_t> frame_cycles;
    if (has_cycles) {
        frame_cycles.resize(size_t(count));
        uint64_t prev = first_cycle;
        for (uint64_t &c : frame_cycles) {
            uint64_t delta = 0;
            if (!getVarint(p, end, delta))
                return false;
            prev += delta;
            c = prev;
        }
    }

    const size_t base = pkts.size();
    pkts.resize(base + size_t(count));
    const uint64_t end_mask = endContentMask(meta);
    state.reset();
    for (size_t i = 0; i < size_t(count); ++i) {
        CyclePacket &pkt = pkts[base + i];
        pkt.starts = dict[size_t(indices[i])].first;
        pkt.ends = dict[size_t(indices[i])].second;
        pkt.start_contents.reserve(bitvec::count(pkt.starts));
        pkt.end_contents.reserve(bitvec::count(pkt.ends & end_mask));
        bool ok = true;
        bitvec::forEach(pkt.starts, [&](size_t ch) {
            ok = ok && decodeContent(p, end, state, false, ch,
                                     meta.channels[ch].data_bytes,
                                     pkt.start_contents.emplace_back());
        });
        bitvec::forEach(pkt.ends & end_mask, [&](size_t ch) {
            ok = ok && decodeContent(p, end, state, true, ch,
                                     meta.channels[ch].data_bytes,
                                     pkt.end_contents.emplace_back());
        });
        if (!ok) {
            pkts.resize(base);
            return false;
        }
    }
    if (p != end) {
        // Trailing garbage means the body is not what the encoder wrote.
        pkts.resize(base);
        return false;
    }
    if (has_cycles)
        cycles.insert(cycles.end(), frame_cycles.begin(),
                      frame_cycles.end());
    return true;
}

} // namespace vidi
