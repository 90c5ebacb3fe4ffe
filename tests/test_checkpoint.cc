/**
 * @file
 * Checkpoint subsystem unit tests: state serialization roundtrips,
 * crash-safe file primitives, the VIDICKP1 container, session journal
 * recovery (including torn-checkpoint fallback with diagnosis), and
 * byte-equality of a checkpointed recording against the plain harness.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "apps/dram_dma.h"
#include "checkpoint/atomic_file.h"
#include "checkpoint/checkpoint.h"
#include "checkpoint/session.h"
#include "checkpoint/session_runner.h"
#include "checkpoint/state_io.h"
#include "core/runtime.h"
#include "sim/logging.h"
#include "trace/trace_file.h"

namespace vidi {
namespace {

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + "vidi_ckpt_" + leaf;
}

TEST(StateIo, PrimitiveRoundtrip)
{
    StateWriter w;
    w.u8(0xab);
    w.b(true);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.str("hello");
    w.blob({1, 2, 3});
    const std::vector<uint32_t> vec = {10, 20, 30};
    w.podVec(vec);
    const double d = 0.25;
    w.pod(d);

    StateReader r(w.data().data(), w.size(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.blob(), (std::vector<uint8_t>{1, 2, 3}));
    std::vector<uint32_t> vec2;
    r.podVec(vec2);
    EXPECT_EQ(vec2, vec);
    EXPECT_EQ(r.pod<double>(), 0.25);
    r.expectEnd();
}

TEST(StateIo, SectionsNestAndValidate)
{
    StateWriter w;
    const size_t outer = w.beginSection("outer");
    w.u32(7);
    const size_t inner = w.beginSection("inner");
    w.u64(9);
    w.endSection(inner);
    w.endSection(outer);

    StateReader r(w.data().data(), w.size(), "test");
    StateReader ro = r.enterSection("outer");
    EXPECT_EQ(ro.u32(), 7u);
    StateReader ri = ro.enterSection("inner");
    EXPECT_EQ(ri.u64(), 9u);
    ri.expectEnd();
    ro.expectEnd();
    r.expectEnd();
}

TEST(StateIo, MismatchedSectionNameIsFatal)
{
    StateWriter w;
    const size_t mark = w.beginSection("shim");
    w.u32(1);
    w.endSection(mark);

    StateReader r(w.data().data(), w.size(), "test");
    EXPECT_THROW(r.enterSection("host"), SimFatal);
}

TEST(StateIo, UnderflowAndTrailingBytesAreFatal)
{
    StateWriter w;
    w.u32(1);
    StateReader r(w.data().data(), w.size(), "test");
    EXPECT_THROW(r.u64(), SimFatal);

    StateReader r2(w.data().data(), w.size(), "test");
    EXPECT_THROW(r2.expectEnd(), SimFatal);
}

TEST(AtomicFile, WriteReadRoundtrip)
{
    const std::string path = tempPath("atomic.bin");
    const std::vector<uint8_t> payload = {9, 8, 7, 6, 5};
    writeFileAtomic(path, payload);
    EXPECT_EQ(readFileBytes(path), payload);
    // No stray temp file after a committed write.
    EXPECT_FALSE(fileExists(path + ".tmp"));
    removeFileIfExists(path);
}

TEST(AtomicFile, TornWriteNeverTouchesDestination)
{
    const std::string path = tempPath("torn.bin");
    const std::vector<uint8_t> old_payload = {1, 1, 1, 1};
    writeFileAtomic(path, old_payload);

    std::vector<uint8_t> next(1000, 0xcc);
    writeFileTorn(path, next.data(), next.size(), 500);

    // The destination still carries the old image; the shrapnel is a
    // half-written temp file, exactly what a mid-write kill leaves.
    EXPECT_EQ(readFileBytes(path), old_payload);
    ASSERT_TRUE(fileExists(path + ".tmp"));
    EXPECT_EQ(readFileBytes(path + ".tmp").size(), 500u);
    removeFileIfExists(path);
    removeFileIfExists(path + ".tmp");
}

TEST(AtomicFile, ReadMissingFileNamesErrno)
{
    try {
        readFileBytes(tempPath("does-not-exist"));
        FAIL() << "expected SimFatal";
    } catch (const SimFatal &e) {
        // The operator must learn *why* (ENOENT -> strerror text).
        EXPECT_NE(std::string(e.what()).find("No such file"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, EncodeProbeDecodeRoundtrip)
{
    CheckpointImage image;
    image.mode = 2;
    image.seed = 42;
    image.cycle = 123456;
    image.body = {1, 2, 3, 4, 5, 6, 7, 8};

    const std::vector<uint8_t> file = encodeCheckpoint(image);
    CheckpointInfo info;
    ASSERT_TRUE(probeCheckpoint(file.data(), file.size(), &info));
    EXPECT_EQ(info.mode, 2);
    EXPECT_EQ(info.seed, 42u);
    EXPECT_EQ(info.cycle, 123456u);
    EXPECT_EQ(info.body_len, image.body.size());

    const CheckpointImage back =
        decodeCheckpoint(file.data(), file.size(), "test");
    EXPECT_EQ(back.mode, image.mode);
    EXPECT_EQ(back.seed, image.seed);
    EXPECT_EQ(back.cycle, image.cycle);
    EXPECT_EQ(back.body, image.body);
}

TEST(Checkpoint, EverySingleBitFlipIsDetected)
{
    CheckpointImage image;
    image.mode = 2;
    image.seed = 7;
    image.cycle = 99;
    image.body = {0x10, 0x20, 0x30, 0x40};
    const std::vector<uint8_t> clean = encodeCheckpoint(image);

    for (size_t pos = 0; pos < clean.size(); ++pos) {
        std::vector<uint8_t> mauled = clean;
        mauled[pos] ^= 0x01;
        EXPECT_FALSE(probeCheckpoint(mauled.data(), mauled.size()))
            << "bit flip at offset " << pos << " went undetected";
    }
}

TEST(Checkpoint, TruncationIsDetectedAtEveryLength)
{
    CheckpointImage image;
    image.body = std::vector<uint8_t>(64, 0x5a);
    const std::vector<uint8_t> clean = encodeCheckpoint(image);
    for (size_t len = 0; len < clean.size(); ++len)
        EXPECT_FALSE(probeCheckpoint(clean.data(), len))
            << "truncation to " << len << " bytes went undetected";
    EXPECT_THROW(decodeCheckpoint(clean.data(), clean.size() - 1, "t"),
                 SimFatal);
}

SessionManifest
testManifest()
{
    SessionManifest m;
    m.app = "DMA";
    m.mode = 2;
    m.seed = 3;
    m.scale = 0.25;
    m.checkpoint_every = 5000;
    m.trace_path = "/tmp/out.vtrc";
    m.cfg.max_cycles = 1234567;
    m.cfg.fault.crash_at_cycle = 42;
    return m;
}

TEST(Session, ManifestRoundtripsThroughDisk)
{
    const std::string dir = tempPath("ssn_manifest");
    Session::create(dir, testManifest());
    const Session back = Session::open(dir);
    const SessionManifest &m = back.manifest();
    EXPECT_EQ(m.app, "DMA");
    EXPECT_EQ(m.mode, 2);
    EXPECT_EQ(m.seed, 3u);
    EXPECT_EQ(m.scale, 0.25);
    EXPECT_EQ(m.checkpoint_every, 5000u);
    EXPECT_EQ(m.trace_path, "/tmp/out.vtrc");
    EXPECT_EQ(m.cfg.max_cycles, 1234567u);
    EXPECT_EQ(m.cfg.fault.crash_at_cycle, 42u);
}

/** Session::open(@p dir)'s SimFatal message; fails if it opens. */
std::string
openFailure(const std::string &dir)
{
    try {
        Session::open(dir);
    } catch (const SimFatal &e) {
        return e.what();
    }
    ADD_FAILURE() << dir << " opened";
    return "";
}

TEST(Session, VersionOneManifestIsRefused)
{
    // A v1 manifest carried a thread-count field the v2 config no longer
    // has; its magic alone must turn it away before the body is read.
    const std::string dir = tempPath("ssn_manifest_v1");
    Session::create(dir, testManifest());
    std::vector<uint8_t> bytes = readFileBytes(dir + "/manifest.vssn");
    ASSERT_EQ(bytes[7], uint8_t('2'));
    bytes[7] = uint8_t('1');
    writeFileAtomic(dir + "/manifest.vssn", bytes);
    EXPECT_NE(openFailure(dir).find("not a Vidi session manifest"),
              std::string::npos);
}

TEST(Session, UnknownKernelByteIsRefused)
{
    // Byte value 2 names no kernel. The manifest is written by the real
    // encoder, so magic, length and CRC are all valid.
    const std::string dir = tempPath("ssn_manifest_kernel");
    SessionManifest m = testManifest();
    m.cfg.kernel = KernelMode(2);
    Session::create(dir, m);
    EXPECT_NE(openFailure(dir).find("unknown kernel mode 2"),
              std::string::npos);
}

CheckpointImage
imageAt(uint64_t cycle)
{
    CheckpointImage image;
    image.mode = 2;
    image.seed = 3;
    image.cycle = cycle;
    image.body = std::vector<uint8_t>(128, uint8_t(cycle & 0xff));
    return image;
}

TEST(Session, CommitAndRecoverNewest)
{
    const std::string dir = tempPath("ssn_commit");
    Session session = Session::create(dir, testManifest());
    session.commitCheckpoint(1000, imageAt(1000));
    session.commitCheckpoint(2000, imageAt(2000));

    CheckpointImage got;
    std::string path;
    ASSERT_TRUE(session.latestCheckpoint(&got, &path));
    EXPECT_EQ(got.cycle, 2000u);
    EXPECT_NE(path.find("ckpt-2000.vckp"), std::string::npos);

    // Reopening scans the journal from disk and agrees.
    Session back = Session::open(dir);
    ASSERT_TRUE(back.latestCheckpoint(&got));
    EXPECT_EQ(got.cycle, 2000u);
}

TEST(Session, RetainsOnlyTwoNewestCheckpointFiles)
{
    const std::string dir = tempPath("ssn_retain");
    Session session = Session::create(dir, testManifest());
    for (uint64_t c = 1000; c <= 5000; c += 1000)
        session.commitCheckpoint(c, imageAt(c));
    EXPECT_FALSE(fileExists(dir + "/ckpt-3000.vckp"));
    EXPECT_TRUE(fileExists(dir + "/ckpt-4000.vckp"));
    EXPECT_TRUE(fileExists(dir + "/ckpt-5000.vckp"));
    // The journal still lists every commit (it is the audit trail).
    EXPECT_EQ(session.journal().size(), 5u);
}

TEST(Session, DamagedNewestFallsBackWithDiagnosis)
{
    const std::string dir = tempPath("ssn_fallback");
    Session session = Session::create(dir, testManifest());
    session.commitCheckpoint(1000, imageAt(1000));
    session.commitCheckpoint(2000, imageAt(2000));

    // Corrupt the newest checkpoint on disk (bit rot / torn sector).
    std::vector<uint8_t> bytes = readFileBytes(dir + "/ckpt-2000.vckp");
    bytes[bytes.size() / 2] ^= 0xff;
    writeFileAtomic(dir + "/ckpt-2000.vckp", bytes);

    Session back = Session::open(dir);
    CheckpointImage got;
    std::string path, diagnosis;
    ASSERT_TRUE(back.latestCheckpoint(&got, &path, &diagnosis));
    EXPECT_EQ(got.cycle, 1000u);
    EXPECT_NE(diagnosis.find("ckpt-2000.vckp"), std::string::npos)
        << diagnosis;
}

TEST(Session, TornJournalTailIsIgnored)
{
    const std::string dir = tempPath("ssn_torn_journal");
    Session session = Session::create(dir, testManifest());
    session.commitCheckpoint(1000, imageAt(1000));
    session.commitCheckpoint(2000, imageAt(2000));

    // Shear the last journal record mid-payload: the crash happened
    // while appending the commit record.
    std::vector<uint8_t> journal = readFileBytes(dir + "/journal.vjnl");
    journal.resize(journal.size() - 5);
    writeFileAtomic(dir + "/journal.vjnl", journal);

    Session back = Session::open(dir);
    ASSERT_EQ(back.journal().size(), 1u);
    CheckpointImage got;
    ASSERT_TRUE(back.latestCheckpoint(&got));
    EXPECT_EQ(got.cycle, 1000u);
}

TEST(Session, NoCommittedCheckpointMeansRestart)
{
    const std::string dir = tempPath("ssn_empty");
    Session session = Session::create(dir, testManifest());
    CheckpointImage got;
    EXPECT_FALSE(session.latestCheckpoint(&got));
}

TEST(SessionRunner, CheckpointedRecordingMatchesPlainHarness)
{
    // The session harness mirrors recordRun() exactly; with or without
    // checkpoint commits the recorded trace must be byte-identical to
    // the plain recording path.
    DmaAppBuilder plain_app;
    plain_app.setScale(0.1);
    const std::string plain_path = tempPath("plain.vtrc");
    const RecordResult plain =
        recordToFile(plain_app, plain_path, 1, {});

    DmaAppBuilder session_app;
    const std::string dir = tempPath("ssn_equal");
    const std::string session_path = tempPath("session.vtrc");
    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // commit at every boundary
    const RecordResult viaSession = recordSession(
        session_app, dir, 0.1, 1, 10'000, session_path, cfg);

    ASSERT_TRUE(viaSession.completed);
    EXPECT_EQ(viaSession.cycles, plain.cycles);
    EXPECT_EQ(viaSession.digest, plain.digest);
    EXPECT_GT(viaSession.checkpoint.checkpoints, 0u);
    EXPECT_EQ(readFileBytes(session_path), readFileBytes(plain_path));
}

} // namespace
} // namespace vidi
