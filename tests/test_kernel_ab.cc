/**
 * @file
 * A/B determinism suite for the two simulation kernels.
 *
 * The activity-driven kernel (sensitivity lists + quiescence skipping)
 * is only admissible because it is *observationally identical* to the
 * reference full-evaluation kernel. This suite pins that property
 * end-to-end: the same workload recorded under both kernels must
 * produce byte-identical serialized traces, identical cycle counts and
 * digests; replays — including mutated and fault-injected ones — must
 * stall, trip the watchdog, and report damage identically. Every
 * Table 1 app replays to the same result under both kernels
 * (ReplayKernelAB), and replay must actually skip idle cycles.
 *
 * Host threads are a third axis. vidi_serve runs several jobs at once
 * in one process, each on its own Simulator, so a run must not depend
 * on what else the process is running: ParallelAB records and replays
 * every Table 1 application on 2 and 4 concurrent threads and requires
 * each copy to be byte-identical to the sequential run.
 */

#include <gtest/gtest.h>

#include "apps/app_registry.h"
#include "apps/atop_echo.h"
#include "apps/dram_dma.h"
#include "core/divergence.h"
#include "core/recorder.h"
#include "core/replayer.h"
#include "core/trace_mutator.h"
#include "on_threads.h"

namespace vidi {
namespace {

VidiConfig
cfgMode(KernelMode mode, uint64_t max_cycles = 30'000'000)
{
    VidiConfig c;
    c.max_cycles = max_cycles;
    c.kernel = mode;
    return c;
}

void
expectIdenticalRecords(const RecordResult &full, const RecordResult &act)
{
    ASSERT_TRUE(full.completed);
    ASSERT_TRUE(act.completed);
    EXPECT_EQ(full.cycles, act.cycles);
    EXPECT_EQ(full.digest, act.digest);
    EXPECT_EQ(full.transactions, act.transactions);
    EXPECT_EQ(full.trace_lines, act.trace_lines);
    EXPECT_EQ(full.trace_bytes, act.trace_bytes);
    // The acceptance bar: the serialized trace is byte-identical.
    EXPECT_EQ(full.trace.serialize(), act.trace.serialize());
}

TEST(KernelAB, SsspRecordIsBitIdentical)
{
    HlsAppBuilder app(makeSsspSpec());
    app.setScale(0.1);
    const RecordResult full = recordRun(
        app, VidiMode::R2_Record, 7, cfgMode(KernelMode::FullEval));
    const RecordResult act = recordRun(
        app, VidiMode::R2_Record, 7, cfgMode(KernelMode::ActivityDriven));
    expectIdenticalRecords(full, act);
}

TEST(KernelAB, AtopEchoRecordIsBitIdentical)
{
    AtopEchoBuilder app(/*buggy=*/true);
    const RecordResult full =
        recordRun(app, VidiMode::R2_Record, 9,
                  cfgMode(KernelMode::FullEval, 2'000'000));
    const RecordResult act =
        recordRun(app, VidiMode::R2_Record, 9,
                  cfgMode(KernelMode::ActivityDriven, 2'000'000));
    expectIdenticalRecords(full, act);
}

TEST(KernelAB, AtopEchoMutatedReplayDeadlocksIdentically)
{
    // The §5.3 case study: a mutated trace deadlocks the buggy filter.
    // Both kernels must wedge the same way — same (budget-bounded)
    // cycle count, same incompleteness — or the activity kernel would
    // be hiding or inventing timing behaviour.
    AtopEchoBuilder buggy(/*buggy=*/true);
    const RecordResult rec =
        recordRun(buggy, VidiMode::R2_Record, 9,
                  cfgMode(KernelMode::ActivityDriven, 2'000'000));
    ASSERT_TRUE(rec.completed);

    TraceMutator mut(rec.trace);
    constexpr size_t kPcimAw = 20, kPcimW = 21;
    ASSERT_TRUE(mut.reorderEndBefore(kPcimW, 0, kPcimAw, 0));
    const Trace mutated = mut.take();

    const ReplayResult full =
        replayRun(buggy, mutated, cfgMode(KernelMode::FullEval, 500'000));
    const ReplayResult act = replayRun(
        buggy, mutated, cfgMode(KernelMode::ActivityDriven, 500'000));
    EXPECT_FALSE(full.completed);
    EXPECT_FALSE(act.completed);
    EXPECT_EQ(full.cycles, act.cycles);
    EXPECT_EQ(full.watchdog_tripped, act.watchdog_tripped);
    EXPECT_EQ(full.replayed_transactions, act.replayed_transactions);
}

TEST(KernelAB, DivergenceDetectionIsIdentical)
{
    // The racy DMA polling workload of §3.6: both kernels must detect
    // the same output-content divergences on the same transactions.
    DmaAppBuilder buggy(/*patched=*/false);
    buggy.setScale(1.0);
    buggy.setContentSeed(0xd3a000 + 1000ull * 3);
    const DivergenceResult full = detectDivergences(
        buggy, 31337 + 3, cfgMode(KernelMode::FullEval, 400'000'000));
    const DivergenceResult act =
        detectDivergences(buggy, 31337 + 3,
                          cfgMode(KernelMode::ActivityDriven,
                                  400'000'000));
    ASSERT_TRUE(full.replay.completed);
    ASSERT_TRUE(act.replay.completed);
    EXPECT_EQ(full.record.cycles, act.record.cycles);
    EXPECT_EQ(full.replay.cycles, act.replay.cycles);
    EXPECT_FALSE(full.report.identical());
    EXPECT_FALSE(act.report.identical());
    ASSERT_EQ(full.report.divergences.size(),
              act.report.divergences.size());
    for (size_t i = 0; i < full.report.divergences.size(); ++i) {
        EXPECT_EQ(full.report.divergences[i].channel,
                  act.report.divergences[i].channel);
        EXPECT_EQ(full.report.divergences[i].expected,
                  act.report.divergences[i].expected);
        EXPECT_EQ(full.report.divergences[i].actual,
                  act.report.divergences[i].actual);
    }
    EXPECT_TRUE(full.replay.validation == act.replay.validation);
}

TEST(KernelAB, RecordSideFaultMatrixIsIdentical)
{
    // Injected line faults are indexed by line sequence number and the
    // PCIe fault windows by cycle; identical cycle streams must produce
    // identical damage under both kernels.
    HlsAppBuilder app(makeBnnSpec());
    app.setScale(0.1);
    VidiConfig base = cfgMode(KernelMode::FullEval);
    base.fault.seed = 5;
    base.fault.line_bit_flips = 2;
    base.fault.line_drops = 1;
    base.fault.line_horizon = 4;
    VidiConfig activity = base;
    activity.kernel = KernelMode::ActivityDriven;

    const RecordResult full = recordRun(app, VidiMode::R2_Record, 1,
                                        base);
    const RecordResult act = recordRun(app, VidiMode::R2_Record, 1,
                                       activity);
    ASSERT_TRUE(full.completed);
    ASSERT_TRUE(act.completed);
    EXPECT_EQ(full.cycles, act.cycles);
    EXPECT_EQ(full.digest, act.digest);
    EXPECT_FALSE(full.damage.clean());
    EXPECT_FALSE(act.damage.clean());
    EXPECT_EQ(full.damage.lines_corrupt, act.damage.lines_corrupt);
    EXPECT_EQ(full.damage.lines_missing, act.damage.lines_missing);
    EXPECT_EQ(full.damage.payload_bytes_lost,
              act.damage.payload_bytes_lost);
    EXPECT_EQ(full.trace.serialize(), act.trace.serialize());
}

std::unique_ptr<AppBuilder>
appByName(const std::string &name)
{
    auto apps = makeTable1Apps();
    for (auto &app : apps) {
        if (app->name() == name)
            return std::move(app);
    }
    ADD_FAILURE() << "unknown app " << name;
    return nullptr;
}

TEST(KernelAB, ReplaySideFaultMatrixIsIdentical)
{
    HlsAppBuilder app(makeBnnSpec());
    app.setScale(0.1);
    const RecordResult rec = recordRun(
        app, VidiMode::R2_Record, 1, cfgMode(KernelMode::ActivityDriven));
    ASSERT_TRUE(rec.completed);

    VidiConfig base = cfgMode(KernelMode::FullEval, 5'000'000);
    base.fault.seed = 11;
    base.fault.line_drops = 2;
    base.fault.line_horizon = 4;
    base.replay_watchdog_cycles = 200'000;
    VidiConfig activity = base;
    activity.kernel = KernelMode::ActivityDriven;

    const ReplayResult full = replayRun(app, rec.trace, base);
    const ReplayResult act = replayRun(app, rec.trace, activity);
    EXPECT_EQ(full.completed, act.completed);
    EXPECT_EQ(full.cycles, act.cycles);
    EXPECT_EQ(full.watchdog_tripped, act.watchdog_tripped);
    EXPECT_EQ(full.diagnostic, act.diagnostic);
    EXPECT_EQ(full.replayed_transactions, act.replayed_transactions);
    EXPECT_EQ(full.damage.lines_missing, act.damage.lines_missing);
    EXPECT_EQ(full.damage.payload_bytes_lost,
              act.damage.payload_bytes_lost);
}

// ---------------------------------------------------------------------
// Replay under the activity kernel: exact against FullEval, and skipping.
// ---------------------------------------------------------------------

class ReplayKernelAB : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReplayKernelAB, ActivityReplayMatchesFullEval)
{
    // Replay skips idle cycles while a released event is held on its
    // channel; the reference kernel executes every one of them. Both
    // must replay the same trace to the same cycle, digest and
    // validation trace.
    auto app = appByName(GetParam());
    ASSERT_NE(app, nullptr);
    app->setScale(0.02);
    const RecordResult rec = recordRun(
        *app, VidiMode::R2_Record, 7, cfgMode(KernelMode::ActivityDriven));
    ASSERT_TRUE(rec.completed);

    const ReplayResult full =
        replayRun(*app, rec.trace, cfgMode(KernelMode::FullEval));
    const ReplayResult act =
        replayRun(*app, rec.trace, cfgMode(KernelMode::ActivityDriven));
    ASSERT_TRUE(full.completed);
    ASSERT_TRUE(act.completed);
    EXPECT_EQ(full.cycles, act.cycles);
    EXPECT_EQ(full.digest, act.digest);
    EXPECT_EQ(full.replayed_transactions, act.replayed_transactions);
    EXPECT_TRUE(full.validation == act.validation);
}

INSTANTIATE_TEST_SUITE_P(Apps, ReplayKernelAB,
                         ::testing::Values("DMA", "3D", "BNN", "DigitR",
                                           "FaceD", "SpamF", "OpFlw",
                                           "SSSP", "SHA", "MNet"));

// ---------------------------------------------------------------------
// Concurrent runs: every copy matches the sequential run.
// ---------------------------------------------------------------------

class ParallelAB : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ParallelAB, RecordAndReplayBitIdenticalAcrossThreads)
{
    const std::string name = GetParam();
    auto app = appByName(name);
    ASSERT_NE(app, nullptr);
    app->setScale(0.05);

    const RecordResult base = recordRun(
        *app, VidiMode::R2_Record, 7, cfgMode(KernelMode::ActivityDriven));
    ASSERT_TRUE(base.completed);
    const std::vector<uint8_t> base_bytes = base.trace.serialize();
    const ReplayResult rep_base =
        replayRun(*app, base.trace, cfgMode(KernelMode::ActivityDriven));
    ASSERT_TRUE(rep_base.completed);

    // Each thread builds its own copy of the design; only the recorded
    // trace is shared, read-only, by the concurrent replays.
    for (const unsigned threads : {2u, 4u}) {
        const std::vector<RecordResult> recs =
            onThreads<RecordResult>(threads, [&](unsigned) {
                auto copy = appByName(name);
                copy->setScale(0.05);
                return recordRun(*copy, VidiMode::R2_Record, 7,
                                 cfgMode(KernelMode::ActivityDriven));
            });
        const std::vector<ReplayResult> reps =
            onThreads<ReplayResult>(threads, [&](unsigned) {
                auto copy = appByName(name);
                copy->setScale(0.05);
                return replayRun(*copy, base.trace,
                                 cfgMode(KernelMode::ActivityDriven));
            });
        for (unsigned i = 0; i < threads; ++i) {
            const RecordResult &rec = recs[i];
            ASSERT_TRUE(rec.completed) << threads << " threads, #" << i;
            EXPECT_EQ(rec.cycles, base.cycles) << threads << " threads";
            EXPECT_EQ(rec.digest, base.digest) << threads << " threads";
            EXPECT_EQ(rec.transactions, base.transactions)
                << threads << " threads";
            EXPECT_EQ(rec.trace.serialize(), base_bytes)
                << threads << " threads, #" << i;

            const ReplayResult &rep = reps[i];
            ASSERT_TRUE(rep.completed) << threads << " threads, #" << i;
            EXPECT_EQ(rep.cycles, rep_base.cycles) << threads << " threads";
            EXPECT_EQ(rep.digest, rep_base.digest) << threads << " threads";
            EXPECT_EQ(rep.replayed_transactions,
                      rep_base.replayed_transactions)
                << threads << " threads";
            EXPECT_TRUE(rep.validation == rep_base.validation)
                << threads << " threads, #" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, ParallelAB,
                         ::testing::Values("DMA", "3D", "BNN", "DigitR",
                                           "FaceD", "SpamF", "OpFlw",
                                           "SSSP", "SHA", "MNet"));

TEST(KernelAB, ParallelRecordSideFaultMatrixIsIdentical)
{
    // Fault injection is seeded per run and indexed by line sequence
    // number and cycle, so concurrent faulty recordings must each
    // produce the sequential run's damage and trace.
    VidiConfig cfg = cfgMode(KernelMode::ActivityDriven);
    cfg.fault.seed = 5;
    cfg.fault.line_bit_flips = 2;
    cfg.fault.line_drops = 1;
    cfg.fault.line_horizon = 4;
    auto faulty = [&](unsigned) {
        HlsAppBuilder app(makeBnnSpec());
        app.setScale(0.1);
        return recordRun(app, VidiMode::R2_Record, 1, cfg);
    };

    const RecordResult seq = faulty(0);
    ASSERT_TRUE(seq.completed);
    ASSERT_FALSE(seq.damage.clean());
    const std::vector<uint8_t> seq_bytes = seq.trace.serialize();

    for (const unsigned threads : {2u, 4u}) {
        const std::vector<RecordResult> par =
            onThreads<RecordResult>(threads, faulty);
        for (const RecordResult &rec : par) {
            ASSERT_TRUE(rec.completed) << threads << " threads";
            EXPECT_EQ(rec.cycles, seq.cycles) << threads << " threads";
            EXPECT_EQ(rec.digest, seq.digest) << threads << " threads";
            EXPECT_EQ(rec.damage.lines_corrupt, seq.damage.lines_corrupt);
            EXPECT_EQ(rec.damage.lines_missing, seq.damage.lines_missing);
            EXPECT_EQ(rec.damage.payload_bytes_lost,
                      seq.damage.payload_bytes_lost);
            EXPECT_EQ(rec.trace.serialize(), seq_bytes)
                << threads << " threads";
        }
    }
}

double
replaySkipFraction(AppBuilder &app)
{
    app.setScale(0.02);
    const RecordResult rec = recordRun(
        app, VidiMode::R2_Record, 7, cfgMode(KernelMode::ActivityDriven));
    EXPECT_TRUE(rec.completed);
    const ReplayResult rep =
        replayRun(app, rec.trace, cfgMode(KernelMode::ActivityDriven));
    EXPECT_TRUE(rep.completed);
    return double(rep.kernel.cycles_skipped) / double(rep.kernel.cycles);
}

TEST(KernelAB, SsspReplaySkipsIdleCycles)
{
    // SSSP computes for long stretches between transactions; a replay
    // that executes those cycles one by one runs orders of magnitude
    // slower than the recording did.
    HlsAppBuilder app(makeSsspSpec());
    EXPECT_GT(replaySkipFraction(app), 0.9);
}

TEST(KernelAB, DmaReplaySkipsIdleCycles)
{
    // The DMA kernel's per-chunk compute countdown must not veto skips.
    DmaAppBuilder app(/*patched=*/false);
    EXPECT_GT(replaySkipFraction(app), 0.5);
}

} // namespace
} // namespace vidi
