#include "tracefmt/lz.h"

#include <cstring>

namespace vidi {

namespace {

constexpr size_t kHashBits = 13;
constexpr size_t kHashSize = size_t(1) << kHashBits;
constexpr size_t kMaxOffset = 0xffff;

uint32_t
hash4(const uint8_t *p)
{
    uint32_t v;
    std::memcpy(&v, p, 4);
    // Fibonacci hashing; the constant is 2^32 / golden ratio.
    return (v * 2654435761u) >> (32 - kHashBits);
}

void
putLength(std::vector<uint8_t> &out, size_t extra)
{
    while (extra >= 255) {
        out.push_back(255);
        extra -= 255;
    }
    out.push_back(uint8_t(extra));
}

/** Emit one sequence. @p match_len == 0 marks the terminal sequence. */
void
putSequence(std::vector<uint8_t> &out, const uint8_t *lit, size_t lit_len,
            size_t offset, size_t match_len)
{
    const size_t lit_nib = lit_len < 15 ? lit_len : 15;
    size_t match_nib = 0;
    if (match_len != 0) {
        const size_t m = match_len - kLzMinMatch;
        match_nib = m < 15 ? m : 15;
    }
    out.push_back(uint8_t((lit_nib << 4) | match_nib));
    if (lit_nib == 15)
        putLength(out, lit_len - 15);
    out.insert(out.end(), lit, lit + lit_len);
    if (match_len != 0) {
        out.push_back(uint8_t(offset));
        out.push_back(uint8_t(offset >> 8));
        if (match_nib == 15)
            putLength(out, match_len - kLzMinMatch - 15);
    }
}

}  // namespace

std::vector<uint8_t>
lzCompress(const uint8_t *data, size_t len)
{
    if (len < kLzMinMatch + 1)
        return {};

    std::vector<uint8_t> out;
    out.reserve(len);

    // head[h] = most recent position whose 4-byte hash is h.
    std::vector<uint32_t> head(kHashSize, UINT32_MAX);

    const uint8_t *anchor = data;  // first unemitted literal
    size_t i = 0;
    // Stop matching where a 4-byte load would overrun.
    const size_t match_limit = len - kLzMinMatch + 1;
    while (i < match_limit) {
        const uint32_t h = hash4(data + i);
        const uint32_t cand = head[h];
        head[h] = uint32_t(i);
        if (cand == UINT32_MAX || i - cand > kMaxOffset ||
            std::memcmp(data + cand, data + i, kLzMinMatch) != 0) {
            ++i;
            continue;
        }
        // Extend the match as far as the input allows.
        size_t match_len = kLzMinMatch;
        while (i + match_len < len &&
               data[cand + match_len] == data[i + match_len])
            ++match_len;
        // Lazy step: if the next position starts a strictly longer
        // match, emit this byte as a literal and take that one instead
        // (the greedy choice would truncate it).
        if (i + 1 < match_limit) {
            const uint32_t h2 = hash4(data + i + 1);
            const uint32_t cand2 = head[h2];
            if (cand2 != UINT32_MAX && i + 1 - cand2 <= kMaxOffset &&
                std::memcmp(data + cand2, data + i + 1, kLzMinMatch) ==
                    0) {
                size_t len2 = kLzMinMatch;
                while (i + 1 + len2 < len &&
                       data[cand2 + len2] == data[i + 1 + len2])
                    ++len2;
                if (len2 > match_len) {
                    ++i;  // data[i] joins the pending literals
                    continue;
                }
            }
        }
        putSequence(out, anchor, size_t(data + i - anchor), i - cand,
                    match_len);
        if (out.size() >= len)
            return {};  // already not shrinking; store raw
        // Seed the table inside the match so later data can reference it.
        const size_t next = i + match_len;
        for (size_t j = i + 1; j + kLzMinMatch <= next && j < match_limit;
             j += 2)
            head[hash4(data + j)] = uint32_t(j);
        i = next;
        anchor = data + i;
    }
    putSequence(out, anchor, size_t(data + len - anchor), 0, 0);
    if (out.size() >= len)
        return {};
    return out;
}

bool
lzDecompress(const uint8_t *src, size_t src_len, uint8_t *dst,
             size_t dst_len)
{
    const uint8_t *p = src;
    const uint8_t *const end = src + src_len;
    size_t di = 0;

    auto readLength = [&](size_t base, size_t &out_len) -> bool {
        out_len = base;
        if (base != 15)
            return true;
        while (true) {
            if (p == end)
                return false;
            const uint8_t b = *p++;
            out_len += b;
            if (b != 255)
                return true;
            if (out_len > dst_len)
                return false;  // runaway length on hostile input
        }
    };

    bool terminated = false;
    while (p != end) {
        const uint8_t token = *p++;
        size_t lit_len = token >> 4;
        if (lit_len < 15 && end - p >= 18 && dst_len - di >= 16) {
            // Short literal run with room on both sides: one fixed
            // 16-byte copy. Bytes past lit_len are scratch that the
            // next sequence overwrites; the 18-byte margin also keeps
            // the offset that must follow inside the input.
            std::memcpy(dst + di, p, 16);
        } else {
            if (!readLength(token >> 4, lit_len))
                return false;
            if (lit_len > size_t(end - p) || lit_len > dst_len - di)
                return false;
            std::memcpy(dst + di, p, lit_len);
        }
        p += lit_len;
        di += lit_len;
        if (p == end) {
            // Terminal sequence: literals only. The encoder always
            // emits one, so a stream that simply runs out after a match
            // is truncated, not complete.
            terminated = true;
            break;
        }
        if (end - p < 2)
            return false;
        const size_t offset = size_t(p[0]) | (size_t(p[1]) << 8);
        p += 2;
        if (offset == 0 || offset > di)
            return false;
        size_t match_len;
        if (!readLength(token & 0x0f, match_len))
            return false;
        match_len += kLzMinMatch;
        const size_t room = dst_len - di;
        if (match_len > room)
            return false;
        // A chunk never overlaps its own source once offset >= chunk
        // size, and every source byte lies below di, so it is final.
        // Chunks may write up to chunk-1 scratch bytes past the match,
        // hence the round-up must still fit in the output.
        uint8_t *const out = dst + di;
        const uint8_t *const from = out - offset;
        if (offset >= 16 && ((match_len + 15) & ~size_t(15)) <= room) {
            for (size_t j = 0; j < match_len; j += 16)
                std::memcpy(out + j, from + j, 16);
        } else if (offset >= 8 && ((match_len + 7) & ~size_t(7)) <= room) {
            for (size_t j = 0; j < match_len; j += 8)
                std::memcpy(out + j, from + j, 8);
        } else {
            // Byte-by-byte: overlapping matches (offset < match_len)
            // must replicate the bytes being written.
            for (size_t j = 0; j < match_len; ++j)
                out[j] = from[j];
        }
        di += match_len;
    }
    return terminated && di == dst_len;
}

} // namespace vidi
