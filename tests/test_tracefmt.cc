/**
 * @file
 * VTC2 container tests: varint/LZ primitive round-trips (including
 * hostile inputs and a seeded LZ differential sweep over the decoder's
 * fast-path edges), CRC-32 known answers plus cross-commit pins of the
 * at-rest bytes, whole-container round-trips over the full Table 1
 * corpus with the >=3x compression gate, the per-frame corruption
 * sweep (damage report + resync + replay-after-damage equivalence
 * with the v1 contract), frame-granular fault injection, and
 * TraceReader seek/stream/index-rebuild behavior.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "checkpoint/checkpoint.h"
#include "core/recorder.h"
#include "core/replayer.h"
#include "fault/fault_injector.h"
#include "trace/trace_file.h"
#include "tracefmt/lz.h"
#include "tracefmt/varint.h"
#include "tracefmt/vtc2.h"

namespace vidi {
namespace {

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "vidi_tracefmt_" + leaf;
}

/**
 * The 10-app Table 1 corpus, recorded once and shared by every test in
 * this file (recording is the slow part; the container work is fast).
 */
const std::vector<RecordResult> &
corpus()
{
    static const std::vector<RecordResult> runs = [] {
        std::vector<RecordResult> rs;
        for (auto &app : makeTable1Apps()) {
            app->setScale(0.05);
            rs.push_back(recordRun(*app, VidiMode::R2_Record, 1, {}));
            EXPECT_TRUE(rs.back().completed) << app->name();
        }
        return rs;
    }();
    return runs;
}

/** One mid-sized run for the single-trace tests. */
const RecordResult &
dmaRun()
{
    return corpus().front();
}

/** FNV-1a 64: an at-rest digest independent of the CRC under test. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

/**
 * A fixed synthetic trace that reaches every content tag: a zero-byte
 * channel, an oversized (heap-backed) payload, recorded output
 * contents, repeated, nearly-repeated and fresh payloads, and cycle
 * annotations over several frames.
 */
Trace
syntheticTrace()
{
    Trace t;
    t.meta.record_output_content = true;
    const struct { const char *name; bool input; uint32_t bytes; } chans[] = {
        {"cmd", true, 8},    {"rsp", false, 16}, {"tick", true, 0},
        {"wide", false, 40}, {"bulk", true, 128}};
    for (const auto &c : chans)
        t.meta.channels.push_back({c.name, c.input, c.bytes, c.bytes * 8});

    std::mt19937_64 rng(21);
    std::vector<ContentBuf> last(t.meta.channelCount());
    uint64_t cycle = 0;
    for (size_t i = 0; i < 1300; ++i) {
        CyclePacket pkt;
        pkt.starts = rng() & 0x1f;
        pkt.ends = rng() & 0x1f;
        if (pkt.empty())
            pkt.starts = 1;
        auto content = [&](size_t ch) {
            ContentBuf &prev = last[ch];
            const size_t n = t.meta.channels[ch].data_bytes;
            if (prev.size() != n)
                prev = ContentBuf(n, uint8_t(ch));
            switch (rng() % 3) {
              case 0: break;  // identical to the previous beat
              case 1:
                if (n > 0)
                    prev[rng() % n] ^= uint8_t(1 + rng() % 255);
                break;
              default:
                for (size_t b = 0; b < n; ++b)
                    prev[b] = uint8_t(rng());
            }
            return prev;
        };
        bitvec::forEach(pkt.starts, [&](size_t ch) {
            pkt.start_contents.push_back(content(ch));
        });
        bitvec::forEach(pkt.ends, [&](size_t ch) {
            if (!t.meta.channels[ch].input)
                pkt.end_contents.push_back(content(ch));
        });
        cycle += rng() % 4;
        t.packets.push_back(std::move(pkt));
        t.cycles.push_back(cycle);
    }
    return t;
}

/** Bytewise CRC-32 (reflected 0xEDB88320): the reference slicing must match. */
uint32_t
referenceCrc32(const uint8_t *data, size_t len, uint32_t seed)
{
    uint32_t c = ~seed;
    for (size_t i = 0; i < len; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

TEST(Varint, RoundTripAndBounds)
{
    const uint64_t values[] = {0,
                               1,
                               127,
                               128,
                               300,
                               16383,
                               16384,
                               (uint64_t(1) << 32) - 1,
                               uint64_t(1) << 32,
                               ~uint64_t(0)};
    for (const uint64_t v : values) {
        std::vector<uint8_t> buf;
        putVarint(buf, v);
        EXPECT_EQ(buf.size(), varintBytes(v));
        const uint8_t *p = buf.data();
        uint64_t out = 0;
        ASSERT_TRUE(getVarint(p, buf.data() + buf.size(), out));
        EXPECT_EQ(out, v);
        EXPECT_EQ(p, buf.data() + buf.size());

        // Truncation is detected, not read past.
        for (size_t cut = 0; cut < buf.size(); ++cut) {
            const uint8_t *q = buf.data();
            uint64_t dummy = 0;
            EXPECT_FALSE(getVarint(q, buf.data() + cut, dummy));
        }
    }

    // A continuation-forever stream must not loop or overflow.
    const std::vector<uint8_t> evil(32, 0xff);
    const uint8_t *p = evil.data();
    uint64_t out = 0;
    EXPECT_FALSE(getVarint(p, evil.data() + evil.size(), out));
}

TEST(Lz, CompressibleRoundTrip)
{
    std::vector<uint8_t> data;
    for (size_t i = 0; i < 4096; ++i)
        data.push_back(uint8_t(i % 16));
    const std::vector<uint8_t> packed =
        lzCompress(data.data(), data.size());
    ASSERT_FALSE(packed.empty());
    EXPECT_LT(packed.size(), data.size());

    std::vector<uint8_t> out(data.size());
    ASSERT_TRUE(lzDecompress(packed.data(), packed.size(), out.data(),
                             out.size()));
    EXPECT_EQ(out, data);
}

TEST(Lz, IncompressibleReturnsEmpty)
{
    // A simple full-period LCG byte stream has no 4-byte matches worth
    // taking; the compressor must report "store raw" rather than grow.
    std::vector<uint8_t> data;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (size_t i = 0; i < 1024; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        data.push_back(uint8_t(x >> 56));
    }
    const std::vector<uint8_t> packed =
        lzCompress(data.data(), data.size());
    if (!packed.empty()) {
        // If it did shrink, the round trip must still hold.
        EXPECT_LT(packed.size(), data.size());
        std::vector<uint8_t> out(data.size());
        ASSERT_TRUE(lzDecompress(packed.data(), packed.size(),
                                 out.data(), out.size()));
        EXPECT_EQ(out, data);
    }
}

TEST(Lz, HostileStreamsRejected)
{
    std::vector<uint8_t> data(512, 0x55);
    const std::vector<uint8_t> packed =
        lzCompress(data.data(), data.size());
    ASSERT_FALSE(packed.empty());
    std::vector<uint8_t> out(data.size());

    // Truncated at every point: must fail cleanly, never over-read.
    for (size_t cut = 0; cut < packed.size(); ++cut)
        EXPECT_FALSE(lzDecompress(packed.data(), cut, out.data(),
                                  out.size()));

    // Wrong destination size (both directions).
    EXPECT_FALSE(lzDecompress(packed.data(), packed.size(), out.data(),
                              out.size() - 1));
    std::vector<uint8_t> big(data.size() + 1);
    EXPECT_FALSE(lzDecompress(packed.data(), packed.size(), big.data(),
                              big.size()));

    // Bit-flipped bytes may decode by luck, but must never crash or
    // write out of bounds (ASan-backed in the sanitizer job).
    for (size_t i = 0; i < packed.size(); ++i) {
        std::vector<uint8_t> bad = packed;
        bad[i] ^= 0x41;
        (void)lzDecompress(bad.data(), bad.size(), out.data(),
                           out.size());
    }
}

/** Hand-built LZ stream writer (the sequence layout of lz.h). */
struct LzStream
{
    std::vector<uint8_t> bytes;

    void
    length(size_t extra)
    {
        for (; extra >= 255; extra -= 255)
            bytes.push_back(255);
        bytes.push_back(uint8_t(extra));
    }

    /** One sequence; @p match_len == 0 writes the terminal one. */
    void
    sequence(const std::vector<uint8_t> &lit, size_t offset,
             size_t match_len)
    {
        const size_t ln = std::min<size_t>(lit.size(), 15);
        const size_t mn =
            match_len ? std::min<size_t>(match_len - kLzMinMatch, 15) : 0;
        bytes.push_back(uint8_t(ln << 4 | mn));
        if (ln == 15)
            length(lit.size() - 15);
        bytes.insert(bytes.end(), lit.begin(), lit.end());
        if (match_len == 0)
            return;
        bytes.push_back(uint8_t(offset));
        bytes.push_back(uint8_t(offset >> 8));
        if (mn == 15)
            length(match_len - kLzMinMatch - 15);
    }
};

/**
 * Decode @p stream into an exactly sized buffer, then check that every
 * truncation and both neighbouring output sizes are rejected. Every
 * buffer is exact-size so ASan sees any read or write past either end.
 */
void
expectExactDecode(const std::vector<uint8_t> &stream,
                  const std::vector<uint8_t> &want, const std::string &what)
{
    std::vector<uint8_t> out(want.size());
    ASSERT_TRUE(lzDecompress(stream.data(), stream.size(), out.data(),
                             out.size()))
        << what;
    ASSERT_EQ(out, want) << what;
    for (size_t cut = 0; cut < stream.size(); ++cut) {
        const std::vector<uint8_t> part(stream.begin(),
                                        stream.begin() + cut);
        EXPECT_FALSE(lzDecompress(part.data(), part.size(), out.data(),
                                  out.size()))
            << what << " cut " << cut;
    }
    std::vector<uint8_t> big(want.size() + 1);
    EXPECT_FALSE(lzDecompress(stream.data(), stream.size(), big.data(),
                              big.size()))
        << what;
    if (!want.empty()) {
        std::vector<uint8_t> small(want.size() - 1);
        EXPECT_FALSE(lzDecompress(stream.data(), stream.size(),
                                  small.data(), small.size()))
            << what;
    }
}

TEST(Lz, DifferentialGeneratedBuffers)
{
    std::mt19937_64 rng(0x1d7c);
    auto noise = [&](size_t n) {
        std::vector<uint8_t> v(n);
        for (uint8_t &b : v)
            b = uint8_t(rng());
        return v;
    };
    std::vector<std::vector<uint8_t>> inputs;
    for (size_t n = 0; n <= 16; ++n)
        inputs.push_back(std::vector<uint8_t>(n, 0xa5));  // runs
    for (size_t n : {64, 333, 4096})
        inputs.push_back(std::vector<uint8_t>(n, uint8_t(n)));
    for (size_t period = 1; period <= 20; ++period) {
        const std::vector<uint8_t> unit = noise(period);
        std::vector<uint8_t> v;
        const size_t n = 40 + rng() % 600;
        for (size_t i = 0; i < n; ++i)
            v.push_back(unit[i % period]);
        inputs.push_back(v);
    }
    // Literal runs of 0-300 bytes between repeated blocks.
    for (size_t lit = 0; lit <= 300; lit += 1 + lit / 8) {
        const std::vector<uint8_t> block = noise(24);
        std::vector<uint8_t> v = block;
        for (int rep = 0; rep < 3; ++rep) {
            const std::vector<uint8_t> gap = noise(lit);
            v.insert(v.end(), gap.begin(), gap.end());
            v.insert(v.end(), block.begin(), block.end());
        }
        inputs.push_back(v);
    }
    // Random sizes up to 4096 mixing all of the above.
    for (int k = 0; k < 12; ++k) {
        const size_t n = rng() % 4097;
        std::vector<uint8_t> v;
        while (v.size() < n) {
            const size_t chunk = 1 + rng() % 64;
            if (rng() % 2 == 0 || v.size() < 16) {
                const std::vector<uint8_t> lit = noise(chunk);
                v.insert(v.end(), lit.begin(), lit.end());
            } else {
                const size_t from = rng() % v.size();
                for (size_t i = 0; i < chunk; ++i)
                    v.push_back(uint8_t(v[from + i]));
            }
        }
        v.resize(n);
        inputs.push_back(v);
    }

    size_t decoded = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
        const std::vector<uint8_t> &in = inputs[i];
        const std::vector<uint8_t> packed = lzCompress(in.data(), in.size());
        if (packed.empty())
            continue;  // stored raw: nothing to decode
        expectExactDecode(packed, in,
                          "input " + std::to_string(i) + " size " +
                              std::to_string(in.size()));
        ++decoded;
    }
    EXPECT_GT(decoded, inputs.size() * 3 / 4);
}

TEST(Lz, FastPathEdges)
{
    std::mt19937_64 rng(7);
    auto noise = [&](size_t n) {
        std::vector<uint8_t> v(n);
        for (uint8_t &b : v)
            b = uint8_t(rng());
        return v;
    };
    // A match of every length near the copy-chunk sizes, at offsets
    // either side of the 8- and 16-byte chunk thresholds, followed by a
    // terminal literal of 0-17 bytes: the match ends exactly at dst_len
    // (tail 0) or 1-17 bytes short of it, so the chunk round-up lands
    // on both sides of the output end. The prefix length moves the
    // literal fast path's 18-byte input margin across the stream end.
    for (const size_t offset : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33}) {
        for (size_t match = kLzMinMatch; match <= 50; ++match) {
            for (size_t tail = 0; tail <= 17; ++tail) {
                const std::vector<uint8_t> prefix =
                    noise(offset + (match + tail) % 5);
                const std::vector<uint8_t> last = noise(tail);
                LzStream s;
                s.sequence(prefix, offset, match);
                s.sequence(last, 0, 0);
                std::vector<uint8_t> want = prefix;
                for (size_t j = 0; j < match; ++j)
                    want.push_back(uint8_t(want[want.size() - offset]));
                want.insert(want.end(), last.begin(), last.end());
                expectExactDecode(s.bytes, want,
                                  "offset " + std::to_string(offset) +
                                      " match " + std::to_string(match) +
                                      " tail " + std::to_string(tail));
            }
        }
    }
    // Short literal runs (the 16-byte copy) whose last byte is the last
    // input byte, or that leave 0-20 bytes of stream behind them.
    for (size_t lit = 0; lit <= 16; ++lit) {
        for (size_t after = 0; after <= 20; ++after) {
            const std::vector<uint8_t> head = noise(lit + 4);
            const std::vector<uint8_t> last = noise(after);
            LzStream s;
            s.sequence(head, 1, kLzMinMatch);
            s.sequence(last, 0, 0);
            std::vector<uint8_t> want = head;
            for (size_t j = 0; j < kLzMinMatch; ++j)
                want.push_back(head.back());
            want.insert(want.end(), last.begin(), last.end());
            expectExactDecode(s.bytes, want,
                              "literal " + std::to_string(lit) +
                                  " after " + std::to_string(after));
        }
    }
}

TEST(Crc32, KnownAnswerAndBytewiseReference)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(check), 9),
              0xcbf43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);

    std::vector<uint8_t> buf(8 + 80);
    std::mt19937_64 rng(99);
    for (uint8_t &b : buf)
        b = uint8_t(rng());
    for (size_t align = 0; align < 8; ++align) {
        for (size_t len = 0; len <= 80; ++len) {
            const uint8_t *p = buf.data() + align;
            EXPECT_EQ(crc32(p, len), referenceCrc32(p, len, 0))
                << "align " << align << " len " << len;
            EXPECT_EQ(crc32(p, len, 0x12345678u),
                      referenceCrc32(p, len, 0x12345678u))
                << "seeded, align " << align << " len " << len;
        }
    }
    // Seed chaining: crc32(b, crc32(a)) == crc32(a || b) at every split.
    for (size_t split = 0; split <= 80; ++split) {
        const uint32_t whole = crc32(buf.data(), 80);
        EXPECT_EQ(crc32(buf.data() + split, 80 - split,
                        crc32(buf.data(), split)),
                  whole)
            << "split " << split;
    }
}

TEST(Crc32, AtRestBytesPinned)
{
    // Round trips cannot catch a CRC or codec change, since writer and
    // reader share the code. These digests were taken from the bytewise
    // CRC and the per-frame delta state; a change to either at-rest
    // format must update them deliberately.
    const Trace trace = syntheticTrace();
    const std::vector<uint8_t> image = serializeVtc2(trace);
    EXPECT_EQ(image.size(), 77327u);
    EXPECT_EQ(fnv1a(image), 10150068149321220874ull);
    const Trace back = parseVtc2(image.data(), image.size(), "synthetic");
    EXPECT_TRUE(back == trace);
    EXPECT_EQ(back.cycles, trace.cycles);

    CheckpointImage ckp;
    ckp.mode = 2;
    ckp.seed = 0x5eed;
    ckp.cycle = 123456789;
    for (size_t i = 0; i < 1000; ++i)
        ckp.body.push_back(uint8_t(i * 37 + (i >> 3)));
    const std::vector<uint8_t> bytes = encodeCheckpoint(ckp);
    EXPECT_EQ(bytes.size(), 1045u);
    EXPECT_EQ(fnv1a(bytes), 17057986689337995436ull);
}

TEST(Vtc2, RoundTripCorpusAndCompressionGate)
{
    uint64_t v1_total = 0;
    uint64_t vtc2_total = 0;
    for (const RecordResult &r : corpus()) {
        const std::vector<uint8_t> image = serializeVtc2(r.trace);
        const Trace decoded =
            parseVtc2(image.data(), image.size(), r.app);
        EXPECT_TRUE(decoded == r.trace) << r.app;
        EXPECT_EQ(decoded.cycles, r.trace.cycles) << r.app;

        const Vtc2Stats stats =
            inspectVtc2(image.data(), image.size(), r.app);
        EXPECT_TRUE(stats.index_valid) << r.app;
        EXPECT_EQ(stats.packets, r.trace.packets.size()) << r.app;
        v1_total += stats.v1LineBytes();
        vtc2_total += stats.file_bytes;
    }
    ASSERT_GT(vtc2_total, 0u);
    const double ratio = double(v1_total) / double(vtc2_total);
    // The ISSUE-9 compression gate: >=3x on-disk reduction vs the 64 B
    // line format across the corpus.
    EXPECT_GE(ratio, 3.0) << "corpus compression ratio " << ratio;
}

TEST(Vtc2, ForgedFooterPacketCountStaysBounded)
{
    // A footer whose CRC was recomputed over a packet count of 2^40 must
    // not size the decode: the load returns every real packet, reports
    // the claimed remainder as lost, and reserves nothing beyond the
    // image length.
    const Trace trace = syntheticTrace();
    std::vector<uint8_t> image = serializeVtc2(trace);
    uint8_t *footer = image.data() + image.size() - kVtc2FooterBytes;
    const uint64_t forged = uint64_t(1) << 40;
    std::memcpy(footer + 16, &forged, sizeof(forged));
    const uint32_t crc = crc32(footer, 32);
    std::memcpy(footer + 32, &crc, sizeof(crc));

    TraceDamageReport report;
    const Trace back =
        parseVtc2(image.data(), image.size(), "forged", report);
    EXPECT_TRUE(back == trace);
    EXPECT_FALSE(report.clean());
    ASSERT_EQ(report.regions.size(), 1u);
    EXPECT_EQ(report.regions[0].lines, forged - trace.packets.size());
    EXPECT_LE(back.packets.capacity(), image.size());
    EXPECT_LE(back.cycles.capacity(), image.size());
}

TEST(Vtc2, FileRoundTripBothFormats)
{
    const Trace &trace = dmaRun().trace;

    const std::string vpath = tempPath("roundtrip.vtc2");
    saveTrace(vpath, trace);  // extension selects VTC2
    const Trace from_vtc2 = loadTrace(vpath);
    EXPECT_TRUE(from_vtc2 == trace);
    EXPECT_EQ(from_vtc2.cycles, trace.cycles);

    // Back-conversion to v1 lines under a .vtc2-free name; the line
    // container has no cycle side-channel, so annotations drop but the
    // packet stream survives bit-identically.
    const std::string lpath = tempPath("roundtrip.vtrc");
    saveTrace(lpath, from_vtc2, TraceFileFormat::V1Lines, nullptr);
    const Trace from_lines = loadTrace(lpath);
    EXPECT_TRUE(from_lines == trace);
    EXPECT_FALSE(from_lines.hasCycles());

    // Explicit VTC2 format wins over a non-.vtc2 extension, and the
    // loader dispatches on magic, not name.
    const std::string xpath = tempPath("misnamed.vtrc");
    saveTrace(xpath, trace, TraceFileFormat::Vtc2, nullptr);
    EXPECT_TRUE(loadTrace(xpath) == trace);
}

TEST(Vtc2, CorruptionSweepEveryFrame)
{
    const Trace &trace = dmaRun().trace;
    std::vector<Vtc2FrameInfo> frames;
    const std::vector<uint8_t> image = serializeVtc2(trace, {}, &frames);
    ASSERT_GE(frames.size(), 2u);

    for (size_t f = 0; f < frames.size(); ++f) {
        std::vector<uint8_t> bad = image;
        // Flip one byte in the middle of the stored frame body.
        const size_t at = size_t(frames[f].offset) +
                          size_t(kVtc2FrameHeaderBytes) +
                          size_t(frames[f].body_bytes / 2);
        ASSERT_LT(at, bad.size());
        bad[at] ^= 0x10;

        TraceDamageReport report;
        const Trace decoded =
            parseVtc2(bad.data(), bad.size(), "sweep", report);
        EXPECT_FALSE(report.clean()) << "frame " << f;
        EXPECT_GE(report.lines_corrupt, 1u) << "frame " << f;

        // Exactly the damaged frame's packets are lost; the decoder
        // resyncs at the next frame boundary and every surviving
        // packet matches the original stream.
        ASSERT_EQ(decoded.packets.size(),
                  trace.packets.size() - frames[f].packet_count)
            << "frame " << f;
        size_t want = 0;
        for (size_t i = 0; i < decoded.packets.size(); ++i, ++want) {
            if (want == size_t(frames[f].first_seq))
                want += size_t(frames[f].packet_count);
            ASSERT_TRUE(decoded.packets[i] == trace.packets[want])
                << "frame " << f << " packet " << i;
        }
    }
}

TEST(Vtc2, TornTailRecovery)
{
    const Trace &trace = dmaRun().trace;
    std::vector<Vtc2FrameInfo> frames;
    const std::vector<uint8_t> image = serializeVtc2(trace, {}, &frames);
    const Vtc2FrameInfo &last = frames.back();

    // Shear the file mid-way through the final frame's body: the frame,
    // the index and the footer all vanish in one torn write.
    const size_t cut = size_t(last.offset) +
                       size_t(kVtc2FrameHeaderBytes) +
                       size_t(last.body_bytes / 2);
    TraceDamageReport report;
    const Trace decoded = parseVtc2(image.data(), cut, "torn", report);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(decoded.packets.size(),
              trace.packets.size() - last.packet_count);
    for (size_t i = 0; i < decoded.packets.size(); ++i)
        ASSERT_TRUE(decoded.packets[i] == trace.packets[i]);
}

TEST(Vtc2, FaultInjectorFrameFaults)
{
    const Trace &trace = dmaRun().trace;

    FaultSpec spec;
    spec.seed = 7;
    spec.frame_bit_flips = 2;
    FaultInjector flips(spec);
    const std::string fpath = tempPath("faulted.vtc2");
    saveTrace(fpath, trace, TraceFileFormat::Vtc2, &flips);
    EXPECT_EQ(flips.injectedCount(FaultKind::FrameBitFlip), 2u);
    TraceDamageReport report;
    const Trace damaged = loadTrace(fpath, report);
    EXPECT_FALSE(report.clean());
    EXPECT_LT(damaged.packets.size(), trace.packets.size());

    FaultSpec tear;
    tear.seed = 11;
    tear.frame_torn_tail = true;
    FaultInjector torn(tear);
    const std::string tpath = tempPath("torn.vtc2");
    saveTrace(tpath, trace, TraceFileFormat::Vtc2, &torn);
    EXPECT_EQ(torn.injectedCount(FaultKind::FrameTornTail), 1u);
    TraceDamageReport treport;
    const Trace tdamaged = loadTrace(tpath, treport);
    EXPECT_FALSE(treport.clean());
    EXPECT_LT(tdamaged.packets.size(), trace.packets.size());
}

TEST(Vtc2, ReplayAfterDamageMatchesV1Contract)
{
    const RecordResult &rec = dmaRun();
    std::vector<Vtc2FrameInfo> frames;
    const std::vector<uint8_t> image =
        serializeVtc2(rec.trace, {}, &frames);
    ASSERT_GE(frames.size(), 2u);

    // Corrupt a middle frame, then load tolerantly — the VTC2 damage
    // path.
    const Vtc2FrameInfo &victim = frames[frames.size() / 2];
    std::vector<uint8_t> bad = image;
    bad[size_t(victim.offset) + size_t(kVtc2FrameHeaderBytes)] ^= 0x01;
    TraceDamageReport report;
    const Trace vtc2_damaged =
        parseVtc2(bad.data(), bad.size(), "damfile", report);
    ASSERT_FALSE(report.clean());

    // The v1 contract for the same loss: a trace simply missing those
    // packets (what deframeStream hands the replayer after dropping
    // corrupt lines). Replay of both must behave identically.
    Trace v1_damaged = rec.trace;
    v1_damaged.packets.erase(
        v1_damaged.packets.begin() + long(victim.first_seq),
        v1_damaged.packets.begin() +
            long(victim.first_seq + victim.packet_count));
    if (v1_damaged.hasCycles()) {
        v1_damaged.cycles.erase(
            v1_damaged.cycles.begin() + long(victim.first_seq),
            v1_damaged.cycles.begin() +
                long(victim.first_seq + victim.packet_count));
    }
    ASSERT_TRUE(vtc2_damaged == v1_damaged);

    auto apps = makeTable1Apps();
    AppBuilder *app = nullptr;
    for (auto &candidate : apps) {
        if (candidate->name() == rec.app)
            app = candidate.get();
    }
    ASSERT_NE(app, nullptr);
    app->setScale(0.05);
    const ReplayResult a = replayRun(*app, vtc2_damaged);
    const ReplayResult b = replayRun(*app, v1_damaged);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.watchdog_tripped, b.watchdog_tripped);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.replayed_transactions, b.replayed_transactions);
    EXPECT_EQ(a.digest, b.digest);
}

TEST(TraceReader, StreamsAndSeeks)
{
    const Trace &trace = dmaRun().trace;
    std::vector<uint8_t> image = serializeVtc2(trace);
    TraceReader reader(std::move(image), "seek");
    ASSERT_TRUE(reader.damage().clean());
    EXPECT_FALSE(reader.indexRebuilt());
    EXPECT_EQ(reader.packetCount(), trace.packets.size());
    EXPECT_EQ(reader.hasCycles(), trace.hasCycles());

    // Full stream equals the original packet sequence.
    CyclePacket pkt;
    uint64_t seq = 0, cycle = 0;
    size_t n = 0;
    while (reader.next(pkt, &seq, &cycle)) {
        ASSERT_LT(n, trace.packets.size());
        ASSERT_TRUE(pkt == trace.packets[n]);
        EXPECT_EQ(seq, n);
        EXPECT_EQ(cycle, trace.cycleKey(n));
        ++n;
    }
    EXPECT_EQ(n, trace.packets.size());

    // seekToPacket: exact positioning anywhere in the stream.
    for (const uint64_t target :
         {uint64_t(0), uint64_t(trace.packets.size() / 3),
          uint64_t(trace.packets.size() - 1)}) {
        ASSERT_TRUE(reader.seekToPacket(target));
        ASSERT_TRUE(reader.next(pkt, &seq, nullptr));
        EXPECT_EQ(seq, target);
        ASSERT_TRUE(pkt == trace.packets[size_t(target)]);
    }
    EXPECT_FALSE(reader.seekToPacket(trace.packets.size()));

    // seekToCycle: lands on the first packet at or after the cycle,
    // exactly as a linear scan would.
    const uint64_t mid_cycle =
        trace.cycleKey(trace.packets.size() / 2);
    size_t want = 0;
    while (want < trace.packets.size() &&
           trace.cycleKey(want) < mid_cycle)
        ++want;
    ASSERT_TRUE(reader.seekToCycle(mid_cycle));
    ASSERT_TRUE(reader.next(pkt, &seq, &cycle));
    EXPECT_EQ(seq, want);
    EXPECT_EQ(cycle, trace.cycleKey(want));

    ASSERT_TRUE(reader.seekToCycle(0));
    ASSERT_TRUE(reader.next(pkt, &seq, nullptr));
    EXPECT_EQ(seq, 0u);
    EXPECT_FALSE(reader.seekToCycle(~uint64_t(0)));
}

TEST(TraceReader, IndexRebuildAfterFooterLoss)
{
    const Trace &trace = dmaRun().trace;
    std::vector<Vtc2FrameInfo> frames;
    std::vector<uint8_t> image = serializeVtc2(trace, {}, &frames);

    // Drop the footer and index but keep every frame intact: the
    // reader must fall back to a header scan and still serve seeks.
    const size_t frames_end = size_t(frames.back().offset) +
                              size_t(kVtc2FrameHeaderBytes) +
                              size_t(frames.back().body_bytes) +
                              size_t(kVtc2FrameTrailerBytes);
    image.resize(frames_end);
    TraceReader reader(std::move(image), "rebuild");
    EXPECT_TRUE(reader.indexRebuilt());
    EXPECT_EQ(reader.packetCount(), trace.packets.size());

    CyclePacket pkt;
    uint64_t seq = 0;
    ASSERT_TRUE(reader.seekToPacket(trace.packets.size() / 2));
    ASSERT_TRUE(reader.next(pkt, &seq, nullptr));
    EXPECT_EQ(seq, trace.packets.size() / 2);
    ASSERT_TRUE(pkt == trace.packets[size_t(seq)]);
}

TEST(TraceReader, SkipsDamagedFrame)
{
    const Trace &trace = dmaRun().trace;
    std::vector<Vtc2FrameInfo> frames;
    Vtc2Options opt;
    opt.packets_per_frame = 64;  // force several frames at this scale
    std::vector<uint8_t> image = serializeVtc2(trace, opt, &frames);
    ASSERT_GE(frames.size(), 3u);
    const Vtc2FrameInfo &victim = frames[1];
    image[size_t(victim.offset) + size_t(kVtc2FrameHeaderBytes) + 1] ^=
        0x80;

    TraceReader reader(std::move(image), "skipdam");
    CyclePacket pkt;
    uint64_t seq = 0;
    size_t streamed = 0;
    uint64_t prev_seq = 0;
    bool first = true;
    while (reader.next(pkt, &seq, nullptr)) {
        ASSERT_TRUE(pkt == trace.packets[size_t(seq)]);
        if (!first) {
            EXPECT_GT(seq, prev_seq);
        }
        prev_seq = seq;
        first = false;
        ++streamed;
    }
    EXPECT_EQ(streamed, trace.packets.size() - victim.packet_count);
    EXPECT_FALSE(reader.damage().clean());
}

} // namespace
} // namespace vidi
