/**
 * @file
 * Tests for the interference analysis (static partition-safety proofs)
 * and the VidiSan domain race sanitizer (its runtime backstop).
 *
 * The suite is organized around the three seeded defects the analysis
 * and sanitizer must catch, each with an exact witness:
 *
 *  (a) an *undeclared-channel writer* — a contracted module escaping its
 *      own declareFootprint() — caught statically (Unsafe verdict with
 *      the channel and access pair cited) AND at runtime by VidiSan;
 *  (b) a *stale footprint* — the declaration says read-only, the code
 *      now writes — caught statically;
 *  (c) a *false-sharing pair* — two islands mutating a shared object no
 *      footprint mentions — invisible to the static analysis (its
 *      documented blind spot) and caught by VidiSan alone.
 *
 * Plus the gate for the footprint contract: every Table 1 application
 * must come out all-proven, so its residual island shrinks to nothing,
 * and the cut those proofs license must record the same trace bytes as
 * the unpartitioned FullEval calibration kernel the proofs are made
 * against. (ParallelAB in test_kernel_ab.cc checks the same cut against
 * the activity-driven kernel, for record and replay.)
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/app_registry.h"
#include "channel/channel.h"
#include "core/recorder.h"
#include "lint/design_graph.h"
#include "lint/interference.h"
#include "lint/lint_report.h"
#include "lint/linter.h"
#include "par/partition.h"
#include "par/vidisan.h"
#include "sim/access_tracker.h"
#include "sim/kernel_mode.h"
#include "sim/simulator.h"
#include "sim/vidisan_hook.h"

namespace vidi {
namespace {

// ---------------------------------------------------------------------
// Fixture modules
// ---------------------------------------------------------------------

/** Producer with a complete footprint contract. */
class FpProducer : public Module
{
  public:
    FpProducer(std::string name, Channel<uint64_t> &out)
        : Module(std::move(name)), out_(&out)
    {
        declareFootprint().readsWrites(out);
    }

    void eval() override { out_->push(next_); }

    void
    tick() override
    {
        if (out_->fired())
            ++next_;
    }

    void saveState(StateWriter &w) const override { w.u64(next_); }
    void loadState(StateReader &r) override { next_ = r.u64(); }

  private:
    Channel<uint64_t> *out_;
    uint64_t next_ = 0;
};

/** Always-ready sink with a complete footprint contract. */
class FpConsumer : public Module
{
  public:
    FpConsumer(std::string name, Channel<uint64_t> &in)
        : Module(std::move(name)), in_(&in)
    {
        declareFootprint().readsWrites(in);
    }

    void eval() override { in_->setReady(true); }

    void
    tick() override
    {
        if (in_->fired())
            sum_ += in_->data() * 2654435761u + 1;
    }

    void saveState(StateWriter &w) const override { w.u64(sum_); }
    void loadState(StateReader &r) override { sum_ = r.u64(); }

    uint64_t sum() const { return sum_; }

  private:
    Channel<uint64_t> *in_;
    uint64_t sum_ = 0;
};

/**
 * Seeded defect (a): contracted on its own channel, but tick() also
 * writes a channel owned by another island — the exact bug class a
 * stale hand-audit lets through.
 */
class RogueWriter : public Module
{
  public:
    RogueWriter(std::string name, Channel<uint64_t> &own,
                Channel<uint64_t> &victim)
        : Module(std::move(name)), own_(&own), victim_(&victim)
    {
        declareFootprint().readsWrites(own);
    }

    void eval() override { own_->setReady(true); }

    void
    tick() override
    {
        ++ticks_;
        if (ticks_ == 3)
            victim_->setReady(true);  // undeclared cross-island write
    }

    void saveState(StateWriter &w) const override { w.u64(ticks_); }
    void loadState(StateReader &r) override { ticks_ = r.u64(); }

  private:
    Channel<uint64_t> *own_;
    Channel<uint64_t> *victim_;
    uint64_t ticks_ = 0;
};

/**
 * Seeded defect (b): the footprint still says "reads only", but the
 * module has since grown a write — a stale declaration.
 */
class StaleFootprint : public Module
{
  public:
    StaleFootprint(std::string name, Channel<uint64_t> &ch)
        : Module(std::move(name)), ch_(&ch)
    {
        declareFootprint().reads(ch);
    }

    void eval() override { ch_->setReady(true); }  // a write, undeclared

  private:
    Channel<uint64_t> *ch_;
};

/**
 * Seeded defect (c): a contracted module whose tick() mutates a shared
 * object through an out-of-band pointer nothing declares. The module
 * reports the access through the vidisan state hook exactly as an
 * instrumented model would.
 */
class TokenToucher : public Module
{
  public:
    TokenToucher(std::string name, Channel<uint64_t> &ch, const char *token)
        : Module(std::move(name)), ch_(&ch), token_(token)
    {
        declareFootprint().readsWrites(ch);  // token deliberately absent
    }

    void eval() override { ch_->setReady(true); }

    void tick() override { vidisan::maybeStateAccess(token_, true); }

  private:
    Channel<uint64_t> *ch_;
    const char *token_;
};

/** Uncontracted module observing a channel it never claims. */
class SilentPeeker : public Module
{
  public:
    SilentPeeker(std::string name, Channel<uint64_t> &ch)
        : Module(std::move(name)), ch_(&ch)
    {
        // No sensitive(), no footprint: the access below is invisible to
        // the partitioner and must be caught by the analysis.
    }

    void
    eval() override
    {
        if (ch_->valid())
            ++seen_;
    }

  private:
    Channel<uint64_t> *ch_;
    uint64_t seen_ = 0;
};

/** Legacy module claiming a channel without any contract. */
class LegacyClaimer : public Module
{
  public:
    LegacyClaimer(std::string name, Channel<uint64_t> &ch)
        : Module(std::move(name)), ch_(&ch)
    {
        sensitive(ch);
    }

    void
    eval() override
    {
        if (ch_->valid())
            ++seen_;
    }

  private:
    Channel<uint64_t> *ch_;
    uint64_t seen_ = 0;
};

/** N contracted producer→consumer pairs on private channels. */
void
buildContractedPairs(Simulator &sim, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        auto &ch = sim.makeChannel<uint64_t>("pair" + std::to_string(i), 64);
        sim.add<FpProducer>("prod" + std::to_string(i), ch);
        sim.add<FpConsumer>("cons" + std::to_string(i), ch);
    }
}

/** Calibrate a bare fixture design and run the interference analysis. */
InterferenceResult
analyzeFixture(Simulator &sim, LintReport *report = nullptr,
               int cycles = 6)
{
    sim.setKernelMode(KernelMode::FullEval);
    ElabTracker tracker;
    {
        AccessTrackerScope scope(tracker);
        for (int i = 0; i < cycles; ++i)
            sim.step();
    }
    const DesignGraph g = elaborateDesign(sim, nullptr, tracker);
    LintReport local;
    InterferenceResult result;
    passInterference(g, report != nullptr ? *report : local, &result);
    return result;
}

const ModuleInterference *
findModule(const InterferenceResult &r, const std::string &name)
{
    for (const auto &m : r.modules) {
        if (m.module == name)
            return &m;
    }
    return nullptr;
}

size_t
countCode(const LintReport &r, const std::string &code)
{
    size_t n = 0;
    for (const auto &f : r.findings()) {
        if (f.code == code)
            ++n;
    }
    return n;
}

/** Scoped environment override with restoration. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_;
    std::string old_;
};

// ---------------------------------------------------------------------
// Static analysis: verdicts and witnesses
// ---------------------------------------------------------------------

TEST(Interference, AutoPromotionShrinksResidualToNothing)
{
    Simulator sim;
    buildContractedPairs(sim, 3);
    const InterferenceResult r = analyzeFixture(sim);

    EXPECT_EQ(r.proven, 6u);
    EXPECT_EQ(r.unsafe, 0u);
    EXPECT_EQ(r.unknown, 0u);
    // All six contracts are proven: three independent islands with no
    // residual at all.
    EXPECT_EQ(r.islands, 3u);
    EXPECT_EQ(r.residual_modules, 0u);

    const ModuleInterference *m = findModule(r, "prod0");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->verdict, InterferenceVerdict::Proven);
    EXPECT_EQ(m->provenance, SafetyProvenance::Proven);
    EXPECT_TRUE(m->witnesses.empty());
}

TEST(Interference, UndeclaredChannelWriterIsUnsafeWithWitness)
{
    // Seeded defect (a), static half: the rogue's write to the victim
    // channel escapes its declaration; the verdict must cite the exact
    // channel and the access pair.
    Simulator sim;
    auto &own = sim.makeChannel<uint64_t>("own", 64);
    auto &victim = sim.makeChannel<uint64_t>("victim", 64);
    sim.add<FpProducer>("victim_prod", victim);
    sim.add<FpConsumer>("victim_cons", victim);
    sim.add<FpProducer>("own_prod", own);
    sim.add<RogueWriter>("rogue", own, victim);

    LintReport report;
    const InterferenceResult r = analyzeFixture(sim, &report);

    const ModuleInterference *rogue = findModule(r, "rogue");
    ASSERT_NE(rogue, nullptr);
    EXPECT_EQ(rogue->verdict, InterferenceVerdict::Unsafe);
    ASSERT_FALSE(rogue->witnesses.empty());
    EXPECT_EQ(rogue->witnesses[0].channel, "victim");
    // The witness names the access pair: the rogue's own escaped access
    // and another toucher of the channel.
    EXPECT_NE(rogue->witnesses[0].detail.find("victim"),
              std::string::npos);
    EXPECT_NE(rogue->witnesses[0].detail.find("also touched by"),
              std::string::npos);

    // The pass turns the verdict into a CI-gating Error.
    EXPECT_TRUE(report.hasErrors());
    EXPECT_GE(countCode(report, "unproven-promotion"), 1u);
}

TEST(Interference, UndeclaredChannelReaderIsUnsafeWithWitness)
{
    // A contracted module whose eval() also *reads* a channel it never
    // declared: at runtime that read could cross islands. Calibration
    // observes it; the verdict must cite the channel.
    class LyingTap : public Module
    {
      public:
        LyingTap(std::string name, Channel<uint64_t> &mine,
                 Channel<uint64_t> &other)
            : Module(std::move(name)), mine_(&mine), other_(&other)
        {
            declareFootprint().readsWrites(mine);  // `other` missing
        }

        void eval() override { mine_->setReady(other_->valid()); }

      private:
        Channel<uint64_t> *mine_;
        Channel<uint64_t> *other_;
    };

    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    auto &b = sim.makeChannel<uint64_t>("b", 64);
    sim.add<FpProducer>("pa", a);
    sim.add<LyingTap>("tap", a, b);
    sim.add<FpProducer>("pb", b);
    sim.add<FpConsumer>("cb", b);

    LintReport report;
    const InterferenceResult r = analyzeFixture(sim, &report);

    const ModuleInterference *tap = findModule(r, "tap");
    ASSERT_NE(tap, nullptr);
    EXPECT_EQ(tap->verdict, InterferenceVerdict::Unsafe);
    ASSERT_FALSE(tap->witnesses.empty());
    EXPECT_EQ(tap->witnesses[0].channel, "b");
    EXPECT_NE(tap->witnesses[0].detail.find("undeclared channel"),
              std::string::npos);
    EXPECT_NE(tap->witnesses[0].detail.find("eval-phase read of b"),
              std::string::npos);
    EXPECT_TRUE(report.hasErrors());
    EXPECT_GE(countCode(report, "unproven-promotion"), 1u);
}

TEST(Interference, StaleReadOnlyFootprintIsUnsafe)
{
    // Seeded defect (b): declaration says reads-only, code writes READY.
    Simulator sim;
    auto &ch = sim.makeChannel<uint64_t>("stale_ch", 64);
    sim.add<FpProducer>("prod", ch);
    sim.add<StaleFootprint>("stale", ch);

    LintReport report;
    const InterferenceResult r = analyzeFixture(sim, &report);

    const ModuleInterference *stale = findModule(r, "stale");
    ASSERT_NE(stale, nullptr);
    EXPECT_EQ(stale->verdict, InterferenceVerdict::Unsafe);
    ASSERT_FALSE(stale->witnesses.empty());
    EXPECT_EQ(stale->witnesses[0].channel, "stale_ch");
    EXPECT_NE(stale->witnesses[0].detail.find("read-only"),
              std::string::npos);
    EXPECT_TRUE(report.hasErrors());
}

TEST(Interference, UncontractedReachIntoAutoIslandIsAnError)
{
    // An uncontracted module silently reading a channel the cut
    // assigns to a proven island: promotion would put the two on
    // different threads, so the claimers must be downgraded with a
    // residual-reach witness.
    Simulator sim;
    auto &ch = sim.makeChannel<uint64_t>("reached", 64);
    sim.add<FpProducer>("prod", ch);
    sim.add<FpConsumer>("cons", ch);
    sim.add<SilentPeeker>("peeker", ch);

    LintReport report;
    const InterferenceResult r = analyzeFixture(sim, &report);

    const ModuleInterference *prod = findModule(r, "prod");
    ASSERT_NE(prod, nullptr);
    EXPECT_EQ(prod->verdict, InterferenceVerdict::Unsafe);
    ASSERT_FALSE(prod->witnesses.empty());
    EXPECT_TRUE(prod->witnesses[0].residual_reach);
    EXPECT_NE(prod->witnesses[0].detail.find("peeker"),
              std::string::npos);
    EXPECT_GE(countCode(report, "cross-island-residual-access"), 1u);
}

TEST(Interference, UnknownVerdictNamesTheMissingFact)
{
    Simulator sim;
    auto &ch = sim.makeChannel<uint64_t>("legacy_ch", 64);
    sim.add<FpProducer>("prod", ch);
    sim.add<LegacyClaimer>("legacy", ch);

    const InterferenceResult r = analyzeFixture(sim);
    const ModuleInterference *legacy = findModule(r, "legacy");
    ASSERT_NE(legacy, nullptr);
    EXPECT_EQ(legacy->verdict, InterferenceVerdict::Unknown);
    EXPECT_FALSE(legacy->has_contract);
    // The one missing fact: the footprint it would need to declare,
    // synthesized from the calibration observation.
    EXPECT_NE(legacy->missing.find("declareFootprint"), std::string::npos);
    EXPECT_NE(legacy->missing.find("legacy_ch"), std::string::npos);
}

TEST(Interference, DegenerateWarningIsDedupedPerIsland)
{
    // Two proven modules fused into the residual island by a legacy
    // claimer on their channel: one warning for the island naming both,
    // not one warning per module.
    Simulator sim;
    auto &ch = sim.makeChannel<uint64_t>("fused_ch", 64);
    sim.add<FpProducer>("prod", ch);
    sim.add<FpConsumer>("cons", ch);
    sim.add<LegacyClaimer>("legacy", ch);

    LintReport report;
    analyzeFixture(sim, &report);

    ASSERT_EQ(countCode(report, "parallel-degenerate"), 1u);
    for (const auto &f : report.findings()) {
        if (f.code != "parallel-degenerate")
            continue;
        EXPECT_NE(f.message.find("prod"), std::string::npos);
        EXPECT_NE(f.message.find("cons"), std::string::npos);
    }
}

TEST(Interference, PassIsSilentOnContractFreeDesigns)
{
    Simulator sim;
    auto &ch = sim.makeChannel<uint64_t>("plain", 64);
    sim.add<LegacyClaimer>("a", ch);
    sim.add<LegacyClaimer>("b", ch);

    LintReport report;
    const InterferenceResult r = analyzeFixture(sim, &report);
    EXPECT_EQ(r.proven + r.unsafe, 0u);
    EXPECT_TRUE(report.findings().empty());
}

TEST(Interference, EdgesCoverSharedChannels)
{
    Simulator sim;
    buildContractedPairs(sim, 2);
    const InterferenceResult r = analyzeFixture(sim);
    ASSERT_EQ(r.edges.size(), 2u);
    EXPECT_EQ(r.edges[0].a, "prod0");
    EXPECT_EQ(r.edges[0].b, "cons0");
    EXPECT_EQ(r.edges[0].channel, "pair0");
}

// ---------------------------------------------------------------------
// Island cut and the VidiSan switch
// ---------------------------------------------------------------------

TEST(InterferenceMode, StateTokensCoLocateUnderAuto)
{
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    auto &b = sim.makeChannel<uint64_t>("b", 64);
    auto &t0 = sim.add<TokenToucher>("t0", a, "shared.obj");
    auto &t1 = sim.add<TokenToucher>("t1", b, "shared.obj");
    t0.declareFootprint().state("shared.obj");
    t1.declareFootprint().state("shared.obj");

    std::vector<const Module *> mods;
    for (const auto &m : sim.modules())
        mods.push_back(m.get());
    std::vector<const ChannelBase *> chans;
    for (const auto &c : sim.channels())
        chans.push_back(c.get());

    const Partition cut = computePartition(mods, chans);
    // Both promoted, and the shared token fuses them into ONE island —
    // never two islands racing on the shared object.
    EXPECT_EQ(cut.islandCount(), 1u);
    EXPECT_EQ(cut.residual, Partition::kNone);
    EXPECT_EQ(cut.module_safety[0], SafetyProvenance::Proven);
    EXPECT_EQ(cut.module_island[0], cut.module_island[1]);
}

TEST(InterferenceMode, VidiSanEnvResolver)
{
    // Armed when compiled with -DVIDI_SANITIZE=vidi, or when the
    // variable says "vidi"; any other value leaves the compiled-in
    // default.
#ifdef VIDI_SANITIZE_VIDI
    const bool compiled_in = true;
#else
    const bool compiled_in = false;
#endif
    {
        EnvGuard g("VIDI_SANITIZE", "vidi");
        EXPECT_TRUE(resolveVidiSanArmed());
    }
    {
        EnvGuard g("VIDI_SANITIZE", "address");
        EXPECT_EQ(resolveVidiSanArmed(), compiled_in);
    }
    {
        EnvGuard g("VIDI_SANITIZE", nullptr);
        EXPECT_EQ(resolveVidiSanArmed(), compiled_in);
    }
}

TEST(InterferenceMode, ProvenanceNamesAreStable)
{
    // The stats dump and the lint report share these strings; pin them.
    EXPECT_STREQ(safetyProvenanceName(SafetyProvenance::Residual),
                 "residual");
    EXPECT_STREQ(safetyProvenanceName(SafetyProvenance::Proven), "proven");
}

// ---------------------------------------------------------------------
// VidiSan: the runtime backstop
// ---------------------------------------------------------------------

/** Parallel kernel over @p threads worker threads. VidiSan is armed
 *  by the caller, with VIDI_SANITIZE=vidi set before the Simulator is
 *  constructed. */
void
configureParallel(Simulator &sim, unsigned threads)
{
    sim.setKernelMode(KernelMode::Parallel);
    sim.setSimThreads(threads);
}

TEST(InterferenceSan, DomainRaceReportNamesChannelAndBothSites)
{
    // Seeded defect (a), runtime half: the rogue's undeclared write must
    // abort with a structured report naming the module, the channel, the
    // cycle and the licensed owner — deterministically, at any thread
    // count.
    EnvGuard arm("VIDI_SANITIZE", "vidi");
    for (const unsigned threads : {1u, 2u}) {
        Simulator sim;
        auto &own = sim.makeChannel<uint64_t>("own", 64);
        auto &victim = sim.makeChannel<uint64_t>("victim", 64);
        sim.add<FpProducer>("victim_prod", victim);
        sim.add<FpConsumer>("victim_cons", victim);
        sim.add<FpProducer>("own_prod", own);
        sim.add<RogueWriter>("rogue", own, victim);
        configureParallel(sim, threads);

        try {
            for (int i = 0; i < 10; ++i)
                sim.step();
            FAIL() << "domain race not caught (threads=" << threads << ")";
        } catch (const DomainRaceError &e) {
            const VidiSanReport &r = e.report();
            EXPECT_EQ(r.subject, "victim");
            EXPECT_FALSE(r.is_state);
            EXPECT_EQ(r.offender.module, "rogue");
            EXPECT_TRUE(r.offender.write);
            EXPECT_NE(r.offender.island, r.owner_island);
            // Two islands: {victim_prod, victim_cons} on "victim"
            // and {own_prod, rogue} on "own".
            EXPECT_EQ(r.clocks.size(), 2u);
            const std::string what = e.what();
            EXPECT_NE(what.find("domain race"), std::string::npos);
            EXPECT_NE(what.find("victim"), std::string::npos);
            EXPECT_NE(what.find("rogue"), std::string::npos);
        }
    }
}

TEST(InterferenceSan, FalseSharingIsInvisibleStaticallyAndCaughtLive)
{
    // Seeded defect (c): two islands mutate one undeclared shared object.
    {
        // Static half: both contracts look complete — the analysis
        // cannot see the out-of-band object and must report Proven (the
        // documented blind spot VidiSan exists for).
        Simulator sim;
        auto &a = sim.makeChannel<uint64_t>("a", 64);
        auto &b = sim.makeChannel<uint64_t>("b", 64);
        sim.add<TokenToucher>("t0", a, "false.shared");
        sim.add<TokenToucher>("t1", b, "false.shared");
        const InterferenceResult r = analyzeFixture(sim);
        EXPECT_EQ(r.unsafe, 0u);
        EXPECT_EQ(r.proven, 2u);
        EXPECT_EQ(r.islands, 2u);
    }

    // Runtime half: the token is licensed to its first accessor's
    // island; the second island's write is a domain race.
    EnvGuard arm("VIDI_SANITIZE", "vidi");
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    auto &b = sim.makeChannel<uint64_t>("b", 64);
    sim.add<TokenToucher>("t0", a, "false.shared");
    sim.add<TokenToucher>("t1", b, "false.shared");
    configureParallel(sim, 2);

    try {
        for (int i = 0; i < 10; ++i)
            sim.step();
        FAIL() << "false sharing not caught";
    } catch (const DomainRaceError &e) {
        EXPECT_TRUE(e.report().is_state);
        EXPECT_EQ(e.report().subject, "false.shared");
    }
}

TEST(InterferenceSan, CleanContractedDesignRunsParanoidUnperturbed)
{
    // VidiSan armed on a provable design: no aborts, and the observable
    // results are bit-identical to the sequential unarmed run.
    auto run = [](KernelMode kernel, bool armed, unsigned threads) {
        EnvGuard arm("VIDI_SANITIZE", armed ? "vidi" : nullptr);
        Simulator sim;
        buildContractedPairs(sim, 3);
        sim.setKernelMode(kernel);
        sim.setSimThreads(threads);
        for (int i = 0; i < 50; ++i)
            sim.step();
        std::vector<uint64_t> sums;
        for (const auto &m : sim.modules()) {
            if (const auto *c = dynamic_cast<const FpConsumer *>(m.get()))
                sums.push_back(c->sum());
        }
        return sums;
    };

    const auto base = run(KernelMode::ActivityDriven, false, 1);
    EXPECT_EQ(run(KernelMode::Parallel, true, 1), base);
    EXPECT_EQ(run(KernelMode::Parallel, true, 2), base);
    EXPECT_EQ(run(KernelMode::Parallel, true, 4), base);
}

TEST(InterferenceSan, StatsAnnotateProvenanceAndArming)
{
    EnvGuard arm("VIDI_SANITIZE", "vidi");
    Simulator sim;
    buildContractedPairs(sim, 2);
    auto &extra = sim.makeChannel<uint64_t>("legacy_ch", 64);
    sim.add<LegacyClaimer>("legacy", extra);
    configureParallel(sim, 2);
    for (int i = 0; i < 5; ++i)
        sim.step();

    ASSERT_NE(sim.vidisan(), nullptr);
    EXPECT_TRUE(sim.vidisan()->armed());

    const KernelStats stats = sim.kernelStats();
    EXPECT_TRUE(stats.vidisan);
    const std::string text = stats.toString();
    // The partition dump names each member's safety provenance.
    EXPECT_NE(text.find("prod0 [proven]"), std::string::npos);
    EXPECT_NE(text.find("legacy [residual]"), std::string::npos);
    EXPECT_NE(text.find("\nvidisan armed\n"), std::string::npos);
}

TEST(InterferenceSan, DisarmedOutsideParanoidWithoutOptIn)
{
    // VIDI_SANITIZE=vidi (or the vidisan build) is the only way to arm
    // the checker; a plain parallel run stays unchecked.
    EnvGuard g("VIDI_SANITIZE", nullptr);
    Simulator sim;
    buildContractedPairs(sim, 2);
    sim.setKernelMode(KernelMode::Parallel);
    sim.setSimThreads(2);
    for (int i = 0; i < 5; ++i)
        sim.step();
#ifndef VIDI_SANITIZE_VIDI
    EXPECT_EQ(sim.vidisan(), nullptr);
    EXPECT_FALSE(sim.kernelStats().vidisan);
#else
    EXPECT_NE(sim.vidisan(), nullptr);
#endif
}

// ---------------------------------------------------------------------
// The 10-application A/B gate
// ---------------------------------------------------------------------

class InterferenceAB : public ::testing::TestWithParam<const char *>
{
  protected:
    static std::unique_ptr<AppBuilder>
    appByName(const std::string &name)
    {
        auto apps = makeTable1Apps();
        for (auto &app : apps) {
            if (app->name() == name)
                return std::move(app);
        }
        return nullptr;
    }
};

TEST_P(InterferenceAB, EveryModuleProvenAndResidualShrinks)
{
    // The acceptance bar for the footprint contract: the whole
    // application — trace plane, host program and FPGA side — carries
    // provable contracts, so the residual island shrinks to nothing and
    // `vidi_lint --interference` gates CI with zero false positives.
    auto app = appByName(GetParam());
    ASSERT_NE(app, nullptr);
    LintOptions opts;
    opts.scale = 0.05;
    opts.interference = true;
    const AppLintResult result = lintApp(*app, opts);

    ASSERT_TRUE(result.has_interference);
    const InterferenceResult &r = result.interference;
    EXPECT_EQ(r.unsafe, 0u) << result.toString();
    EXPECT_EQ(r.unknown, 0u) << result.toString();
    EXPECT_EQ(r.proven, r.modules.size());
    EXPECT_EQ(r.residual_modules, 0u);
    EXPECT_FALSE(result.report.hasErrors()) << result.report.toString();
}

TEST_P(InterferenceAB, AutoTracesBitIdenticalToManualAcrossThreads)
{
    // The proven cut must be a pure performance knob: promoting modules
    // into islands may change how the design is scheduled, never a
    // single trace byte. The reference is the FullEval calibration run
    // the proofs are made against — every module evaluated every cycle,
    // no island cut at all.
    auto app = appByName(GetParam());
    ASSERT_NE(app, nullptr);
    app->setScale(0.05);

    VidiConfig ref_cfg;
    ref_cfg.kernel = KernelMode::FullEval;
    const RecordResult ref = recordRun(*app, VidiMode::R2_Record, 7, ref_cfg);
    ASSERT_TRUE(ref.completed);
    const std::vector<uint8_t> ref_bytes = ref.trace.serialize();

    for (const unsigned threads : {1u, 2u, 4u}) {
        VidiConfig cfg;
        cfg.kernel = KernelMode::Parallel;
        cfg.sim_threads = threads;
        const RecordResult par =
            recordRun(*app, VidiMode::R2_Record, 7, cfg);
        ASSERT_TRUE(par.completed) << "threads=" << threads;
        EXPECT_EQ(par.cycles, ref.cycles) << "threads=" << threads;
        EXPECT_EQ(par.digest, ref.digest) << "threads=" << threads;
        EXPECT_EQ(par.trace.serialize(), ref_bytes)
            << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, InterferenceAB,
                         ::testing::Values("DMA", "3D", "BNN", "DigitR",
                                           "FaceD", "SpamF", "OpFlw",
                                           "SSSP", "SHA", "MNet"));

} // namespace
} // namespace vidi
