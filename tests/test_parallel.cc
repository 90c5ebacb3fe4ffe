/**
 * @file
 * Unit and property tests for the parallel simulation kernel: the
 * island partitioner (canonical order, residual fusion), the fork-join
 * IslandPool, the Parallel kernel's bit-identical equivalence to the
 * sequential schedules across thread counts, checkpoint save/load at
 * the phase barrier, and how `vidi_lint --interference` reports the
 * island cut of these fixtures.
 *
 * The determinism bar is the same as the kernel A/B suite's: thread
 * count is a pure performance knob, so every observable — channel
 * state, per-module counters, serialized checkpoints — must be
 * independent of it.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/channel.h"
#include "checkpoint/state_io.h"
#include "lint/design_graph.h"
#include "lint/interference.h"
#include "lint/lint_passes.h"
#include "lint/lint_report.h"
#include "par/island_pool.h"
#include "par/partition.h"
#include "sim/simulator.h"

namespace vidi {
namespace {

// ---------------------------------------------------------------------
// Fixture modules
// ---------------------------------------------------------------------

/** Declared producer: pushes a fresh value every cycle. */
class Producer : public Module
{
  public:
    explicit Producer(std::string name, Channel<uint64_t> &out)
        : Module(std::move(name)), out_(&out)
    {
        sensitive(out);
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

    uint64_t produced() const { return next_; }

  private:
    Channel<uint64_t> *out_;
    uint64_t next_ = 0;
};

/** Declared always-ready sink accumulating a checksum. */
class Consumer : public Module
{
  public:
    explicit Consumer(std::string name, Channel<uint64_t> &in)
        : Module(std::move(name)), in_(&in)
    {
        sensitive(in);
        setEvalMode(EvalMode::OnDemand);
        declareFootprint().readsWrites(in);
    }

    void eval() override { in_->setReady(true); }

    void
    tick() override
    {
        if (in_->fired())
            sum_ += in_->data() * 2654435761u + 1;
    }

    uint64_t
    idleUntil(uint64_t now) const override
    {
        // Poll pattern: only another module making the channel valid
        // can give this sink work, and the kernel re-queries then.
        return in_->valid() ? now : kIdleForever;
    }

    void saveState(StateWriter &w) const override { w.u64(sum_); }
    void loadState(StateReader &r) override { sum_ = r.u64(); }

    uint64_t sum() const { return sum_; }

  private:
    Channel<uint64_t> *in_;
    uint64_t sum_ = 0;
};

/** A module without a footprint contract (the undeclared default). */
class Legacy : public Module
{
  public:
    explicit Legacy(std::string name, Channel<uint64_t> &ch)
        : Module(std::move(name)), ch_(&ch)
    {
        sensitive(ch);
        // No declareFootprint(): must be fused into the residual.
    }

    // Observes without driving (a second READY driver would trip the
    // structural multiply-driven pass — not what these tests pin).
    void eval() override { observed_ = ch_->valid(); }

  private:
    Channel<uint64_t> *ch_;
    bool observed_ = false;
};

/** Declared module that throws from tick() at a chosen cycle. */
class Thrower : public Module
{
  public:
    Thrower(std::string name, Channel<uint64_t> &ch, uint64_t at)
        : Module(std::move(name)), ch_(&ch), at_(at)
    {
        sensitive(ch);
        declareFootprint().readsWrites(ch);
    }

    void eval() override { ch_->setReady(true); }

    void
    tick() override
    {
        if (++ticks_ == at_)
            throw std::runtime_error(name() + ": boom");
    }

  private:
    Channel<uint64_t> *ch_;
    uint64_t at_;
    uint64_t ticks_ = 0;
};

/** Build @p pairs independent producer/consumer islands into @p sim. */
struct Pairs
{
    std::vector<Producer *> producers;
    std::vector<Consumer *> consumers;
};

Pairs
buildPairs(Simulator &sim, int pairs)
{
    Pairs out;
    for (int i = 0; i < pairs; ++i) {
        auto &ch = sim.makeChannel<uint64_t>(
            "pair" + std::to_string(i) + ".ch", 64);
        out.producers.push_back(
            &sim.add<Producer>("pair" + std::to_string(i) + ".prod", ch));
        out.consumers.push_back(
            &sim.add<Consumer>("pair" + std::to_string(i) + ".cons", ch));
    }
    return out;
}

/** Checksum of all observable fixture state. */
uint64_t
digestPairs(const Pairs &p)
{
    uint64_t d = 0;
    for (const Producer *prod : p.producers)
        d = d * 1099511628211ull + prod->produced();
    for (const Consumer *cons : p.consumers)
        d = d * 1099511628211ull + cons->sum();
    return d;
}

// ---------------------------------------------------------------------
// Partitioner unit tests
// ---------------------------------------------------------------------

TEST(Partition, IndependentPairsGetOwnIslands)
{
    Simulator sim;
    buildPairs(sim, 4);
    const Partition &part = sim.partition();
    ASSERT_EQ(part.islandCount(), 4u);
    EXPECT_EQ(part.residual, Partition::kNone);
    for (size_t i = 0; i < 4; ++i) {
        // Canonical order: island i holds modules {2i, 2i+1} and
        // channel i — the registration-order pairs, lowest first.
        ASSERT_EQ(part.islands[i].modules.size(), 2u);
        EXPECT_EQ(part.islands[i].modules[0], 2 * i);
        EXPECT_EQ(part.islands[i].modules[1], 2 * i + 1);
        ASSERT_EQ(part.islands[i].channels.size(), 1u);
        EXPECT_EQ(part.islands[i].channels[0], i);
        EXPECT_FALSE(part.islands[i].residual);
    }
    EXPECT_NE(part.summary().find("4 islands"), std::string::npos);
}

TEST(Partition, LegacyModulesFuseIntoOneResidual)
{
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    auto &b = sim.makeChannel<uint64_t>("b", 64);
    sim.add<Producer>("pa", a);
    sim.add<Legacy>("la", a);  // shares channel a with the producer
    sim.add<Producer>("pb", b);
    sim.add<Legacy>("lb", b);
    const Partition &part = sim.partition();
    // Both undeclared modules land in the residual; each drags the
    // producer it shares a channel with along, so everything fuses.
    ASSERT_EQ(part.islandCount(), 1u);
    EXPECT_EQ(part.residual, 0u);
    EXPECT_TRUE(part.islands[0].residual);
    EXPECT_EQ(part.islands[0].modules.size(), 4u);
    EXPECT_EQ(part.islands[0].channels.size(), 2u);
}

TEST(Partition, UnclaimedChannelJoinsResidual)
{
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    sim.makeChannel<uint64_t>("orphan", 64);  // nobody claims it
    sim.add<Producer>("pa", a);
    sim.add<Legacy>("legacy", a);
    const Partition &part = sim.partition();
    ASSERT_EQ(part.islandCount(), 1u);
    ASSERT_NE(part.residual, Partition::kNone);
    // The orphan channel is in the residual island.
    EXPECT_EQ(part.channel_island[1], part.residual);
}

TEST(Partition, CoupleEdgesMergeIslands)
{
    // Two otherwise-independent pairs, whose producers declare direct
    // coupling: they must share an island.
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    auto &b = sim.makeChannel<uint64_t>("b", 64);

    class CoupledProducer : public Producer
    {
      public:
        CoupledProducer(std::string name, Channel<uint64_t> &out,
                        Module &peer)
            : Producer(std::move(name), out)
        {
            declareFootprint().couples(peer);
        }
    };

    auto &pa = sim.add<Producer>("pa", a);
    sim.add<Consumer>("ca", a);
    sim.add<CoupledProducer>("pb", b, pa);
    sim.add<Consumer>("cb", b);
    const Partition &part = sim.partition();
    ASSERT_EQ(part.islandCount(), 1u);
    EXPECT_EQ(part.residual, Partition::kNone);
    EXPECT_EQ(part.islands[0].modules.size(), 4u);
}

TEST(Partition, InvalidatedOnStructuralChange)
{
    Simulator sim;
    buildPairs(sim, 2);
    EXPECT_EQ(sim.partition().islandCount(), 2u);
    // Adding a module/channel invalidates and recomputes the cut.
    auto &ch = sim.makeChannel<uint64_t>("late.ch", 64);
    sim.add<Producer>("late.prod", ch);
    sim.add<Consumer>("late.cons", ch);
    EXPECT_EQ(sim.partition().islandCount(), 3u);
}

// ---------------------------------------------------------------------
// IslandPool unit tests
// ---------------------------------------------------------------------

TEST(IslandPool, RunsEveryTaskExactlyOnce)
{
    IslandPool pool(3);
    EXPECT_EQ(pool.workers(), 3u);
    for (int round = 0; round < 50; ++round) {
        const size_t count = size_t(round % 7);  // including 0
        std::vector<std::atomic<int>> hits(count);
        for (auto &h : hits)
            h = 0;
        pool.run(count, [&](size_t i) { ++hits[i]; });
        for (size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "round " << round;
    }
}

TEST(IslandPool, BarrierOrdersAllWrites)
{
    // Everything written by tasks of batch N must be visible to the
    // caller after run() returns — the phase-barrier property the
    // kernel's staged-commit step depends on.
    IslandPool pool(2);
    std::vector<uint64_t> cells(64, 0);
    for (uint64_t round = 1; round <= 200; ++round) {
        pool.run(cells.size(), [&](size_t i) { cells[i] = round; });
        for (size_t i = 0; i < cells.size(); ++i)
            ASSERT_EQ(cells[i], round);
    }
}

TEST(IslandPool, CallerParticipates)
{
    // A pool with zero worker threads cannot be constructed through the
    // kernel (it runs inline instead), but run() on a 1-worker pool
    // must complete even when the worker is slow to wake: the caller
    // drains tasks too.
    IslandPool pool(1);
    std::atomic<int> total{0};
    pool.run(1000, [&](size_t) { ++total; });
    EXPECT_EQ(total.load(), 1000);
}

// ---------------------------------------------------------------------
// Parallel kernel equivalence properties
// ---------------------------------------------------------------------

/** Run @p cycles under the given mode/threads; return the digest. */
uint64_t
runPairs(KernelMode mode, unsigned threads, int pairs, uint64_t cycles,
         KernelStats *stats = nullptr)
{
    Simulator sim;
    Pairs p = buildPairs(sim, pairs);
    sim.setKernelMode(mode);
    sim.setSimThreads(threads);
    for (uint64_t c = 0; c < cycles; ++c)
        sim.step();
    if (stats != nullptr)
        *stats = sim.kernelStats();
    return digestPairs(p);
}

TEST(ParallelKernel, BitIdenticalAcrossModesAndThreads)
{
    const uint64_t kCycles = 2'000;
    const uint64_t ref =
        runPairs(KernelMode::ActivityDriven, 1, 8, kCycles);
    EXPECT_EQ(runPairs(KernelMode::FullEval, 1, 8, kCycles), ref);
    for (unsigned threads : {1u, 2u, 4u, 16u}) {
        EXPECT_EQ(runPairs(KernelMode::Parallel, threads, 8, kCycles),
                  ref)
            << "threads=" << threads;
    }
}

TEST(ParallelKernel, PerIslandStatsAreThreadIndependent)
{
    KernelStats s1, s4;
    const uint64_t d1 = runPairs(KernelMode::Parallel, 1, 6, 1'000, &s1);
    const uint64_t d4 = runPairs(KernelMode::Parallel, 4, 6, 1'000, &s4);
    EXPECT_EQ(d1, d4);
    ASSERT_EQ(s1.islands.size(), 6u);
    ASSERT_EQ(s4.islands.size(), 6u);
    EXPECT_EQ(s1.threads, 1u);
    EXPECT_EQ(s4.threads, 4u);
    for (size_t i = 0; i < s1.islands.size(); ++i) {
        EXPECT_EQ(s1.islands[i].eval_passes, s4.islands[i].eval_passes);
        EXPECT_EQ(s1.islands[i].module_evals, s4.islands[i].module_evals);
        EXPECT_EQ(s1.islands[i].cycles_executed,
                  s4.islands[i].cycles_executed);
        EXPECT_EQ(s1.islands[i].cycles_skipped,
                  s4.islands[i].cycles_skipped);
    }
}

TEST(ParallelKernel, StepUntilSkipsQuiescentStretches)
{
    // A producer that goes idle forever after 10 accepted values: once
    // every island is quiescent the Parallel kernel must bulk-skip to
    // the deadline just like the sequential activity kernel.
    class FiniteProducer : public Module
    {
      public:
        FiniteProducer(std::string name, Channel<uint64_t> &out,
                       uint64_t limit)
            : Module(std::move(name)), out_(&out), limit_(limit)
        {
            sensitive(out);
            declareFootprint().readsWrites(out);
        }

        void
        eval() override
        {
            if (sent_ < limit_)
                out_->push(sent_);
            else
                out_->setValid(false);  // deassert so the pair idles
        }

        void
        tick() override
        {
            if (out_->fired())
                ++sent_;
        }

        uint64_t
        idleUntil(uint64_t now) const override
        {
            return sent_ < limit_ ? now : kIdleForever;
        }

      private:
        Channel<uint64_t> *out_;
        uint64_t limit_;
        uint64_t sent_ = 0;
    };

    Simulator sim;
    auto &ch = sim.makeChannel<uint64_t>("fin.ch", 64);
    sim.add<FiniteProducer>("fin.prod", ch, 10);
    sim.add<Consumer>("fin.cons", ch);
    sim.setKernelMode(KernelMode::Parallel);
    sim.setSimThreads(2);

    const uint64_t kDeadline = 100'000;
    while (sim.cycle() < kDeadline)
        sim.stepUntil(kDeadline);
    EXPECT_EQ(sim.cycle(), kDeadline);
    // Nearly everything after the 10 transfers must have been skipped.
    EXPECT_GT(sim.cyclesSkipped(), kDeadline - 100);
}

TEST(ParallelKernel, ExceptionSurfacesDeterministically)
{
    // Two throwing islands: the error committed at the barrier must be
    // the lowest island's, regardless of thread interleaving.
    for (unsigned threads : {1u, 2u, 4u}) {
        Simulator sim;
        auto &a = sim.makeChannel<uint64_t>("a", 64);
        auto &b = sim.makeChannel<uint64_t>("b", 64);
        sim.add<Producer>("pa", a);
        sim.add<Thrower>("ta", a, 5);  // island 0 throws at cycle 4
        sim.add<Producer>("pb", b);
        sim.add<Thrower>("tb", b, 5);  // island 1 throws the same cycle
        sim.setKernelMode(KernelMode::Parallel);
        sim.setSimThreads(threads);

        std::string what;
        uint64_t at = 0;
        try {
            for (int i = 0; i < 100; ++i)
                sim.step();
            FAIL() << "no exception surfaced";
        } catch (const std::runtime_error &e) {
            what = e.what();
            at = sim.cycle();
        }
        EXPECT_EQ(what, "ta: boom") << "threads=" << threads;
        EXPECT_EQ(at, 4u) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------
// Checkpoint at the phase barrier
// ---------------------------------------------------------------------

TEST(ParallelKernel, CheckpointRoundTripsAcrossKernels)
{
    // Save under Parallel mid-run; restoring into a sequential sim (and
    // vice versa) must land on the identical end state: worker-pool
    // machinery and island caches are runtime-only, never serialized.
    const uint64_t kHalf = 500, kRest = 700;

    Simulator par(42);
    Pairs pp = buildPairs(par, 4);
    par.setKernelMode(KernelMode::Parallel);
    par.setSimThreads(4);
    for (uint64_t c = 0; c < kHalf; ++c)
        par.step();
    StateWriter w;
    par.saveState(w);

    // Reference: continue the parallel run to the end.
    for (uint64_t c = 0; c < kRest; ++c)
        par.step();
    const uint64_t want = digestPairs(pp);

    // Restore into a sequential simulator and finish there.
    Simulator seq(42);
    Pairs sp = buildPairs(seq, 4);
    seq.setKernelMode(KernelMode::ActivityDriven);
    StateReader r(w.data().data(), w.size(), "par-ckpt");
    seq.loadState(r);
    EXPECT_EQ(seq.cycle(), kHalf);
    for (uint64_t c = 0; c < kRest; ++c)
        seq.step();
    EXPECT_EQ(digestPairs(sp), want);

    // And back: a sequential checkpoint restored under Parallel.
    Simulator seq2(42);
    Pairs sp2 = buildPairs(seq2, 4);
    seq2.setKernelMode(KernelMode::ActivityDriven);
    for (uint64_t c = 0; c < kHalf; ++c)
        seq2.step();
    StateWriter w2;
    seq2.saveState(w2);

    Simulator par2(42);
    Pairs pp2 = buildPairs(par2, 4);
    par2.setKernelMode(KernelMode::Parallel);
    par2.setSimThreads(2);
    StateReader r2(w2.data().data(), w2.size(), "seq-ckpt");
    par2.loadState(r2);
    for (uint64_t c = 0; c < kRest; ++c)
        par2.step();
    EXPECT_EQ(digestPairs(pp2), want);
}

TEST(ParallelKernel, SavedBytesAreThreadIndependent)
{
    // The serialized checkpoint must be a pure function of the design
    // state, not of how many threads computed it. (Across *kernel
    // modes* the bytes legitimately differ — eval-pass diagnostics are
    // per-island under Parallel — which is why the round-trip test
    // above compares restored behaviour, not bytes.)
    auto snapshot = [](unsigned threads) {
        Simulator sim(7);
        buildPairs(sim, 4);
        sim.setKernelMode(KernelMode::Parallel);
        sim.setSimThreads(threads);
        for (int c = 0; c < 777; ++c)
            sim.step();
        StateWriter w;
        sim.saveState(w);
        return w.data();
    };
    const std::vector<uint8_t> ref = snapshot(1);
    EXPECT_EQ(snapshot(2), ref);
    EXPECT_EQ(snapshot(4), ref);
    EXPECT_EQ(snapshot(16), ref);
}

// ---------------------------------------------------------------------
// Lint view of the island cut
// ---------------------------------------------------------------------

/** Lint a fixture the way `vidi_lint --interference` does: calibrate
 *  under FullEval, then run the default passes plus the interference
 *  pass, which reports the island cut. */
LintReport
lintFixture(Simulator &sim)
{
    sim.setKernelMode(KernelMode::FullEval);
    ElabTracker tracker;
    {
        AccessTrackerScope scope(tracker);
        for (int i = 0; i < 4; ++i)
            sim.step();
    }
    const DesignGraph g = elaborateDesign(sim, nullptr, tracker);
    LintReport report;
    runLintPasses(g, report);
    passInterference(g, report);
    return report;
}

const LintFinding *
findCode(const LintReport &r, const std::string &code)
{
    for (const auto &f : r.findings()) {
        if (f.code == code)
            return &f;
    }
    return nullptr;
}

TEST(LintPartition, CleanCutReportsIslandNote)
{
    Simulator sim;
    buildPairs(sim, 3);
    const LintReport report = lintFixture(sim);
    EXPECT_FALSE(report.hasErrors()) << report.toString();
    const LintFinding *cut = findCode(report, "interference-summary");
    ASSERT_NE(cut, nullptr);
    EXPECT_EQ(cut->severity, LintSeverity::Note);
    EXPECT_NE(cut->message.find("3 island(s)"), std::string::npos)
        << cut->message;
    EXPECT_NE(cut->message.find("residual island: 0 module(s)"),
              std::string::npos)
        << cut->message;
    EXPECT_EQ(findCode(report, "parallel-degenerate"), nullptr);
}

TEST(LintPartition, DegenerateCutIsAWarning)
{
    // Modules declared their footprints, but a module without a
    // contract on the same channel fuses them all into the residual
    // island: the Parallel kernel would run them sequentially. Worth a
    // warning, not an error.
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    sim.add<Producer>("pa", a);
    sim.add<Consumer>("ca", a);
    sim.add<Legacy>("legacy", a);
    const LintReport report = lintFixture(sim);
    const LintFinding *f = findCode(report, "parallel-degenerate");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->severity, LintSeverity::Warning);
    EXPECT_EQ(f->pass, "interference");
    EXPECT_FALSE(report.hasErrors()) << report.toString();
}

TEST(LintPartition, LegacyDesignsProduceNoFindings)
{
    // No module declared a footprint: the design never asked to be
    // partitioned, so the cut is not reported at all (designs without
    // contracts lint exactly as under the default passes).
    Simulator sim;
    auto &a = sim.makeChannel<uint64_t>("a", 64);
    sim.add<Legacy>("l1", a);
    sim.add<Legacy>("l2", a);
    const LintReport report = lintFixture(sim);
    for (const auto &f : report.findings())
        EXPECT_NE(f.pass, "interference") << f.toString();
    EXPECT_EQ(findCode(report, "interference-summary"), nullptr);
    EXPECT_EQ(findCode(report, "parallel-degenerate"), nullptr);
}

} // namespace
} // namespace vidi
