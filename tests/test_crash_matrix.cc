/**
 * @file
 * Crash-matrix tests: seeded simulated crashes (mid-run, during a
 * checkpoint commit, during a trace-store append) across several Table 1
 * applications, for both recording and replay. Every crash-then-resume
 * must reproduce the uninterrupted run bit-for-bit — the checkpoint
 * subsystem's core guarantee — and a crash must never leave a session
 * directory that cannot be resumed.
 *
 * Like the fault-injection matrix, this file is also compiled into the
 * ASan+UBSan test binary: the crash paths unwind through the whole
 * harness and must do so memory-cleanly.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/app_registry.h"
#include "checkpoint/atomic_file.h"
#include "checkpoint/session.h"
#include "checkpoint/session_runner.h"
#include "core/runtime.h"
#include "fault/fault_injector.h"
#include "on_threads.h"
#include "sim/logging.h"

namespace vidi {
namespace {

constexpr double kScale = 0.1;
constexpr uint64_t kSeed = 1;

std::unique_ptr<AppBuilder>
makeApp(const std::string &name)
{
    auto apps = makeTable1Apps();
    for (auto &app : apps) {
        if (app->name() == name)
            return std::move(app);
    }
    ADD_FAILURE() << "unknown app " << name;
    return nullptr;
}

/**
 * This process's scratch directory, removed when the process exits.
 * ctest runs every test, and its ASan duplicate, as its own process,
 * often at the same time; with one shared directory they would race on
 * the same session and trace files.
 */
const std::string &
scratchRoot()
{
    static const struct Root
    {
        std::string path = ::testing::TempDir() + "vidi_crash_" +
                           std::to_string(::getpid());
        Root() { makeDirs(path); }
        ~Root()
        {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    } root;
    return root.path;
}

std::string
tempDir(const std::string &app, const std::string &leaf)
{
    return scratchRoot() + "/" + app + "_" + leaf;
}

/** Uninterrupted recording of one app, computed once and cached. */
struct Reference
{
    uint64_t cycles = 0;
    uint64_t digest = 0;
    std::string trace_path;
    std::vector<uint8_t> trace_bytes;
};

const Reference &
reference(const std::string &app_name)
{
    static std::map<std::string, Reference> cache;
    auto it = cache.find(app_name);
    if (it != cache.end())
        return it->second;

    Reference ref;
    ref.trace_path = tempDir(app_name, "ref") + ".vtrc";
    auto app = makeApp(app_name);
    const RecordResult rec =
        recordSession(*app, tempDir(app_name, "ref"), kScale, kSeed,
                      /*checkpoint_every=*/0, ref.trace_path);
    EXPECT_TRUE(rec.completed);
    ref.cycles = rec.cycles;
    ref.digest = rec.digest;
    ref.trace_bytes = readFileBytes(ref.trace_path);
    return cache.emplace(app_name, std::move(ref)).first->second;
}

class CrashMatrix : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CrashMatrix, CrashMidRecordingResumesBitIdentical)
{
    const std::string name = GetParam();
    const Reference &ref = reference(name);
    ASSERT_GT(ref.cycles, 0u);

    const std::string dir = tempDir(name, "midrun");
    const std::string out = dir + ".vtrc";
    removeFileIfExists(out);

    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // deterministic commit points
    cfg.fault.crash_at_cycle = ref.cycles / 2;
    cfg.fault.seed = 0xc5a5;

    auto app = makeApp(name);
    EXPECT_THROW(recordSession(*app, dir, kScale, kSeed, ref.cycles / 4,
                               out, cfg),
                 SimulatedCrash);
    // The crash happened before completion: no trace was published.
    EXPECT_FALSE(fileExists(out));

    auto app2 = makeApp(name);
    const RecordResult resumed = resumeRecordSession(*app2, dir);
    ASSERT_TRUE(resumed.completed);
    EXPECT_TRUE(resumed.checkpoint.resumed);
    EXPECT_GT(resumed.checkpoint.resumed_at_cycle, 0u);
    EXPECT_LT(resumed.checkpoint.resumed_at_cycle, ref.cycles / 2 + 1);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed.digest, ref.digest);
    EXPECT_EQ(readFileBytes(out), ref.trace_bytes);
}

TEST_P(CrashMatrix, CrashBeforeFirstCheckpointRestartsFromZero)
{
    const std::string name = GetParam();
    const Reference &ref = reference(name);

    const std::string dir = tempDir(name, "early");
    const std::string out = dir + ".vtrc";
    removeFileIfExists(out);

    // Crash well before the first (and only) checkpoint boundary.
    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // deterministic commit points
    cfg.fault.crash_at_cycle = ref.cycles / 4;
    cfg.fault.seed = 0xc5a6;

    auto app = makeApp(name);
    EXPECT_THROW(recordSession(*app, dir, kScale, kSeed,
                               ref.cycles * 2, out, cfg),
                 SimulatedCrash);

    auto app2 = makeApp(name);
    const RecordResult resumed = resumeRecordSession(*app2, dir);
    ASSERT_TRUE(resumed.completed);
    EXPECT_FALSE(resumed.checkpoint.resumed);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed.digest, ref.digest);
    EXPECT_EQ(readFileBytes(out), ref.trace_bytes);
}

TEST_P(CrashMatrix, CrashDuringCheckpointWriteLeavesResumableSession)
{
    const std::string name = GetParam();
    const Reference &ref = reference(name);

    const std::string dir = tempDir(name, "ckptwrite");
    const std::string out = dir + ".vtrc";
    removeFileIfExists(out);

    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // deterministic commit points
    cfg.fault.crash_during_checkpoint = true;
    cfg.fault.seed = 0xc5a7;

    auto app = makeApp(name);
    EXPECT_THROW(recordSession(*app, dir, kScale, kSeed, ref.cycles / 3,
                               out, cfg),
                 SimulatedCrash);

    // The kill landed inside the first commit: the journal names no
    // checkpoint, only a torn temp file remains, and recovery reports
    // a clean restart rather than trusting the shrapnel.
    {
        Session session = Session::open(dir);
        CheckpointImage image;
        EXPECT_FALSE(session.latestCheckpoint(&image));
    }

    auto app2 = makeApp(name);
    const RecordResult resumed = resumeRecordSession(*app2, dir);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed.digest, ref.digest);
    EXPECT_EQ(readFileBytes(out), ref.trace_bytes);
}

TEST_P(CrashMatrix, CrashDuringTraceAppendResumesBitIdentical)
{
    const std::string name = GetParam();
    const Reference &ref = reference(name);

    const std::string dir = tempDir(name, "append");
    const std::string out = dir + ".vtrc";
    removeFileIfExists(out);

    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // deterministic commit points
    cfg.fault.crash_during_trace_append = true;
    cfg.fault.seed = 0xc5a8;

    auto app = makeApp(name);
    EXPECT_THROW(recordSession(*app, dir, kScale, kSeed, ref.cycles / 4,
                               out, cfg),
                 SimulatedCrash);

    auto app2 = makeApp(name);
    const RecordResult resumed = resumeRecordSession(*app2, dir);
    ASSERT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.cycles, ref.cycles);
    EXPECT_EQ(resumed.digest, ref.digest);
    EXPECT_EQ(readFileBytes(out), ref.trace_bytes);
}

TEST_P(CrashMatrix, ParallelCrashResumeMatchesSequentialReference)
{
    // Several sessions crash and resume at the same time in one
    // process, as tenants do in vidi_serve's worker threads: four
    // copies record concurrently, each crashes mid-run, then all four
    // resume concurrently. Every resumed session must be bit-identical
    // to the sequential uninterrupted reference.
    const std::string name = GetParam();
    const Reference &ref = reference(name);
    ASSERT_GT(ref.cycles, 0u);

    constexpr unsigned kThreads = 4;
    auto dirOf = [&](unsigned i) {
        return tempDir(name, "parallel" + std::to_string(i));
    };
    for (unsigned i = 0; i < kThreads; ++i)
        removeFileIfExists(dirOf(i) + ".vtrc");

    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // deterministic commit points
    cfg.fault.crash_at_cycle = ref.cycles / 2;
    cfg.fault.seed = 0xc5aa;

    const std::vector<int> crashed =
        onThreads<int>(kThreads, [&](unsigned i) {
            auto app = makeApp(name);
            try {
                recordSession(*app, dirOf(i), kScale, kSeed,
                              ref.cycles / 4, dirOf(i) + ".vtrc", cfg);
            } catch (const SimulatedCrash &) {
                return 1;
            }
            return 0;
        });
    for (unsigned i = 0; i < kThreads; ++i) {
        EXPECT_EQ(crashed[i], 1) << "session " << i;
        EXPECT_FALSE(fileExists(dirOf(i) + ".vtrc")) << "session " << i;
    }

    const std::vector<RecordResult> resumed =
        onThreads<RecordResult>(kThreads, [&](unsigned i) {
            auto app = makeApp(name);
            return resumeRecordSession(*app, dirOf(i));
        });
    for (unsigned i = 0; i < kThreads; ++i) {
        ASSERT_TRUE(resumed[i].completed) << "session " << i;
        EXPECT_TRUE(resumed[i].checkpoint.resumed) << "session " << i;
        EXPECT_EQ(resumed[i].cycles, ref.cycles) << "session " << i;
        EXPECT_EQ(resumed[i].digest, ref.digest) << "session " << i;
        EXPECT_EQ(readFileBytes(dirOf(i) + ".vtrc"), ref.trace_bytes)
            << "session " << i;
    }
}

TEST_P(CrashMatrix, CrashMidReplayResumesAndValidates)
{
    const std::string name = GetParam();
    const Reference &ref = reference(name);

    // Uninterrupted replay as the yardstick.
    auto app_ref = makeApp(name);
    const ReplayResult rep_ref =
        replaySession(*app_ref, tempDir(name, "rep_ref"), kScale,
                      ref.trace_path, /*checkpoint_every=*/0);
    ASSERT_TRUE(rep_ref.completed);
    ASSERT_FALSE(rep_ref.watchdog_tripped);

    const std::string dir = tempDir(name, "rep_crash");
    VidiConfig cfg;
    cfg.checkpoint_min_interval_ms = 0;  // deterministic commit points
    cfg.fault.crash_at_cycle = rep_ref.cycles / 2;
    cfg.fault.seed = 0xc5a9;

    auto app = makeApp(name);
    EXPECT_THROW(replaySession(*app, dir, kScale, ref.trace_path,
                               rep_ref.cycles / 4, cfg),
                 SimulatedCrash);

    auto app2 = makeApp(name);
    const ReplayResult resumed = resumeReplaySession(*app2, dir);
    ASSERT_TRUE(resumed.completed);
    EXPECT_FALSE(resumed.watchdog_tripped);
    EXPECT_TRUE(resumed.checkpoint.resumed);
    EXPECT_EQ(resumed.cycles, rep_ref.cycles);
    EXPECT_EQ(resumed.replayed_transactions,
              rep_ref.replayed_transactions);
    EXPECT_EQ(resumed.digest, rep_ref.digest);
}

INSTANTIATE_TEST_SUITE_P(Apps, CrashMatrix,
                         ::testing::Values("DMA", "SHA", "DigitR"));

} // namespace
} // namespace vidi
