/**
 * @file
 * Soak test for the incremental session engine under the daemon's
 * lifecycle: sessions are stepped in small budgets, evicted to disk and
 * rehydrated over and over — exactly the churn an LRU-bounded multi-
 * tenant server produces — while injected faults (mid-run crashes,
 * crashes inside the checkpoint commit, crashes inside the trace-store
 * append) keep killing the in-memory object. Every run must still
 * converge to the uninterrupted recording bit-for-bit.
 *
 * Deliberately written against LiveSession alone (no serve/ headers) so
 * the same file compiles into the ASan+UBSan fault binary: the
 * evict/rehydrate/crash unwind paths must be memory-clean, not just
 * correct.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/app_registry.h"
#include "checkpoint/atomic_file.h"
#include "checkpoint/live_session.h"
#include "checkpoint/session.h"
#include "checkpoint/session_runner.h"
#include "core/runtime.h"
#include "fault/fault_injector.h"
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

std::string
tempDir(const std::string &app, const std::string &leaf)
{
    return ::testing::TempDir() + "vidi_soak_" + app + "_" + leaf;
}

/** Uninterrupted recording of one app, computed once and cached. */
struct Reference
{
    uint64_t cycles = 0;
    uint64_t digest = 0;
    std::vector<uint8_t> trace_bytes;
};

const Reference &
reference(const std::string &name)
{
    static std::map<std::string, Reference> cache;
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;
    // One directory per process, removed once read: ctest runs every
    // test as its own process, often at the same time, and processes
    // sharing one reference file race on its atomic rename.
    const std::string dir =
        tempDir(name, "ref_" + std::to_string(::getpid()));
    const std::string out = dir + "/ref.vtrc";
    auto app = makeApp(name);
    const RecordResult rec =
        recordSession(*app, dir + "/session", kScale, kSeed,
                      /*checkpoint_every=*/0, out);
    EXPECT_TRUE(rec.completed);
    Reference ref;
    ref.cycles = rec.cycles;
    ref.digest = rec.digest;
    ref.trace_bytes = readFileBytes(out);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return cache.emplace(name, std::move(ref)).first->second;
}

SessionManifest
recordManifest(const std::string &app, uint64_t checkpoint_every,
               const std::string &trace_out)
{
    SessionManifest m;
    m.app = app;
    m.mode = uint8_t(VidiMode::R2_Record);
    m.seed = kSeed;
    m.scale = kScale;
    m.checkpoint_every = checkpoint_every;
    m.trace_path = trace_out;
    m.cfg.checkpoint_min_interval_ms = 0;
    return m;
}

/**
 * One soak round: drive a faulted session to completion with small
 * step budgets, an evict+rehydrate churn every few steps, and a
 * hydrate-on-crash recovery whenever the fault fires. Fills @p out
 * with the finished record result.
 */
void
soakToCompletion(const std::string &app_name, const SessionManifest &m,
                 const std::string &dir, uint64_t step_budget,
                 RecordResult *out)
{
    auto app = makeApp(app_name);
    ASSERT_NE(app, nullptr);
    // The owning overloads, exactly as the daemon holds sessions: the
    // builder must ride along because the built design references it.
    std::unique_ptr<LiveSession> live =
        LiveSession::create(std::move(app), dir, m);
    const bool crash_armed = m.cfg.fault.crash_at_cycle != 0 ||
                             m.cfg.fault.crash_during_checkpoint ||
                             m.cfg.fault.crash_during_trace_append;
    uint64_t steps = 0;
    uint64_t crashes = 0;
    while (!live->finished()) {
        ASSERT_LT(steps, 10'000u) << "soak round failed to converge";
        ++steps;
        try {
            live->step(step_budget);
            // Every few healthy steps, churn through the daemon's LRU
            // motion: commit, destroy, rebuild from disk. Held off
            // while a crash fault is still armed, because hydrate()
            // deliberately clears crash faults and the injected crash
            // must get its chance to fire.
            if (steps % 3 == 0 && !live->finished() &&
                (!crash_armed || crashes > 0)) {
                live->evict();
                live.reset();
                auto fresh = makeApp(app_name);
                ASSERT_NE(fresh, nullptr);
                live = LiveSession::hydrate(std::move(fresh), dir);
            }
        } catch (const SimulatedCrash &) {
            // The throw poisoned the in-memory object; recovery is a
            // fresh hydrate from the last committed checkpoint, which
            // also disarms the crash fault — the daemon's resume path.
            ++crashes;
            live.reset();
            auto fresh = makeApp(app_name);
            ASSERT_NE(fresh, nullptr);
            live = LiveSession::hydrate(std::move(fresh), dir);
        }
    }
    if (crash_armed) {
        EXPECT_GE(crashes, 1u) << "injected crash never fired";
    }
    *out = live->takeRecordResult();
}

class ServeSoak : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ServeSoak, EvictRehydrateChurnUnderFaults)
{
    const std::string name = GetParam();
    const Reference &ref = reference(name);
    ASSERT_GT(ref.cycles, 0u);
    const uint64_t step_budget = std::max<uint64_t>(ref.cycles / 7, 1);
    const uint64_t checkpoint_every = std::max<uint64_t>(ref.cycles / 5, 1);

    // Fault variants: no fault (pure churn), crashes at varying points
    // of the run, and crashes aimed at the two I/O critical sections.
    struct Variant
    {
        const char *leaf;
        FaultSpec fault;
    };
    std::vector<Variant> variants;
    variants.push_back({"clean", {}});
    for (const uint64_t num : {1ull, 2ull, 3ull}) {
        FaultSpec fault;
        fault.crash_at_cycle = std::max<uint64_t>(ref.cycles * num / 4, 1);
        variants.push_back({"crash", fault});
    }
    {
        FaultSpec fault;
        fault.crash_during_checkpoint = true;
        variants.push_back({"ckpt_crash", fault});
    }
    {
        FaultSpec fault;
        fault.crash_during_trace_append = true;
        variants.push_back({"append_crash", fault});
    }

    for (size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(std::string(variants[i].leaf) + " #" +
                     std::to_string(i));
        const std::string dir =
            tempDir(name, variants[i].leaf + std::to_string(i));
        const std::string out = dir + "/soak.vtrc";
        SessionManifest m = recordManifest(name, checkpoint_every, out);
        m.cfg.fault = variants[i].fault;

        RecordResult result;
        soakToCompletion(name, m, dir + "/session", step_budget, &result);
        if (HasFatalFailure())
            return;
        EXPECT_TRUE(result.completed);
        EXPECT_EQ(result.cycles, ref.cycles);
        EXPECT_EQ(result.digest, ref.digest);
        EXPECT_EQ(readFileBytes(out), ref.trace_bytes)
            << "final trace diverged from the uninterrupted recording";
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, ServeSoak,
                         ::testing::Values("DMA", "SHA"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

/**
 * The daemon spills replay inputs to VTC2 and evicted tenants resume
 * from the compressed container; this is the same churn at the engine
 * layer: a replay session whose trace lives in a VTC2 container is
 * evicted and rehydrated every few steps and must still finish
 * identically to an uninterrupted replay of the same recording.
 */
TEST(ServeSoakReplay, Vtc2ReplayChurnsBitIdentically)
{
    const std::string name = "DMA";
    const std::string dir = tempDir(name, "vtc2_replay");
    const std::string trace = dir + "/trace.vtc2";
    makeDirs(dir);

    auto rec_app = makeApp(name);
    rec_app->setScale(kScale);
    const RecordResult rec = recordToFile(*rec_app, trace, kSeed);
    ASSERT_TRUE(rec.completed);

    SessionManifest m;
    m.app = name;
    m.mode = uint8_t(VidiMode::R3_Replay);
    m.seed = 0;
    m.scale = kScale;
    m.checkpoint_every = std::max<uint64_t>(rec.cycles / 5, 1);
    m.trace_path = trace;
    m.cfg.checkpoint_min_interval_ms = 0;

    const uint64_t step_budget = std::max<uint64_t>(rec.cycles / 7, 1);
    std::unique_ptr<LiveSession> live =
        LiveSession::create(makeApp(name), dir + "/session", m);
    uint64_t steps = 0;
    while (!live->finished()) {
        ASSERT_LT(steps, 10'000u) << "replay churn failed to converge";
        ++steps;
        live->step(step_budget);
        if (steps % 2 == 0 && !live->finished()) {
            live->evict();
            live.reset();
            live = LiveSession::hydrate(makeApp(name), dir + "/session");
        }
    }
    const ReplayResult churned = live->takeReplayResult();

    auto replay_app = makeApp(name);
    replay_app->setScale(kScale);
    const ReplayResult local = replayFromFile(*replay_app, trace);
    ASSERT_TRUE(local.completed);
    EXPECT_TRUE(churned.completed);
    EXPECT_EQ(churned.cycles, local.cycles);
    EXPECT_EQ(churned.replayed_transactions, local.replayed_transactions);
    EXPECT_EQ(churned.digest, local.digest);
}

} // namespace
} // namespace vidi
