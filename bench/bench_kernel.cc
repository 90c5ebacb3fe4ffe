/**
 * @file
 * Simulation-kernel microbenchmarks (google-benchmark).
 *
 * Pins the perf trajectory of the activity-driven kernel across PRs:
 *
 *  - settled vs. active cycles: per-cycle stepping cost when channels are
 *    quiescent (sensitivity lists prune every eval) versus when a
 *    handshake fires every cycle (full settle work);
 *  - idle skip: stepping through long quiescent stretches, where the
 *    activity-driven kernel advances the cycle counter in bulk;
 *  - SSSP record A/B: end-to-end wall clock of an idle-heavy R2 record
 *    under both kernels (the paper's most compute-bound Table 1 app);
 *  - fig7-style scaling: R2 records monitoring 1/3/5 of the F1
 *    interfaces (VidiConfig::maskFor), reporting eval-pass counters so
 *    tools/bench_report can compute the FullEval-to-ActivityDriven
 *    reduction at every scaling point.
 *
 * The single-kernel benchmarks take a trailing 0/1 argument selecting
 * the kernel: 0 = FullEval (reference), 1 = ActivityDriven.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "apps/app_registry.h"
#include "channel/channel.h"
#include "core/recorder.h"
#include "sim/simulator.h"

namespace {

using namespace vidi;

KernelMode
modeArg(const benchmark::State &state, int index)
{
    return state.range(index) != 0 ? KernelMode::ActivityDriven
                                   : KernelMode::FullEval;
}

/**
 * Keeps the design executing every cycle without touching any channel:
 * the settled benches measure per-cycle overhead, not the skip path.
 */
class Pacemaker : public Module
{
  public:
    Pacemaker() : Module("pacemaker") { setEvalMode(EvalMode::Never); }
    void tick() override { ++beats_; }
    uint64_t beats() const { return beats_; }

  private:
    uint64_t beats_ = 0;
};

/**
 * Wakes once every @p period cycles; quiescent in between. Countdown
 * idle hint per the Module::idleUntil() contract.
 */
class IdleTimer : public Module
{
  public:
    explicit IdleTimer(uint64_t period)
        : Module("timer"), period_(period), left_(period)
    {
        setEvalMode(EvalMode::Never);
    }

    void
    tick() override
    {
        if (left_ > 1) {
            --left_;
            return;
        }
        left_ = period_;
        ++wakes_;
    }

    uint64_t
    idleUntil(uint64_t now) const override
    {
        return now + left_ - 1;
    }

    void
    onCyclesSkipped(uint64_t from, uint64_t to) override
    {
        const uint64_t n = to - from;
        left_ -= n < left_ - 1 ? n : left_ - 1;
    }

    uint64_t wakes() const { return wakes_; }

  private:
    uint64_t period_;
    uint64_t left_;
    uint64_t wakes_ = 0;
};

/** Presents a fresh value every cycle: the channel never settles early. */
class Producer : public Module
{
  public:
    explicit Producer(Channel<uint64_t> &out)
        : Module("producer"), out_(&out)
    {
        sensitive(out);
    }

    void eval() override { out_->push(next_); }

    void
    tick() override
    {
        if (out_->fired())
            ++next_;
    }

  private:
    Channel<uint64_t> *out_;
    uint64_t next_ = 0;
};

/** Always-ready sink; eval() re-runs only when its channel changes. */
class Consumer : public Module
{
  public:
    explicit Consumer(Channel<uint64_t> &in)
        : Module("consumer"), in_(&in)
    {
        sensitive(in);
        // eval() reads nothing but the declared channel: safe to run
        // only when it changes.
        setEvalMode(EvalMode::OnDemand);
    }

    void eval() override { in_->setReady(true); }

    void
    tick() override
    {
        if (in_->fired())
            sum_ += in_->data();
    }

    uint64_t
    idleUntil(uint64_t now) const override
    {
        // Poll pattern: the channel only goes valid when another module
        // acts, at which point the kernel re-queries.
        return in_->valid() ? now : kIdleForever;
    }

    uint64_t sum() const { return sum_; }

  private:
    Channel<uint64_t> *in_;
    uint64_t sum_ = 0;
};

constexpr int kPairs = 16;          ///< producer/consumer pairs per sim
constexpr uint64_t kChunk = 10'000; ///< cycles stepped per iteration

void
stepChunk(Simulator &sim)
{
    const uint64_t target = sim.cycle() + kChunk;
    while (sim.cycle() < target)
        sim.stepUntil(target);
}

/**
 * Settled cycles: 16 sensitivity-declaring consumer pairs whose channels
 * never change after the first cycle, plus a pacemaker so every cycle
 * still executes. FullEval sweeps all modules every pass.
 */
void
BM_SettledCycles(benchmark::State &state)
{
    Simulator sim(1);
    sim.setKernelMode(modeArg(state, 0));
    Pacemaker &pace = sim.add<Pacemaker>();
    for (int i = 0; i < kPairs; ++i) {
        auto &ch = sim.makeChannel<uint64_t>(
            "ch" + std::to_string(i), 64);
        sim.add<Consumer>(ch);
    }
    for (auto _ : state)
        stepChunk(sim);
    benchmark::DoNotOptimize(pace.beats());
    state.SetItemsProcessed(int64_t(sim.cycle()));
    const KernelStats ks = sim.kernelStats();
    state.counters["eval_passes"] = double(ks.eval_passes);
    state.counters["module_evals"] = double(ks.module_evals);
}
BENCHMARK(BM_SettledCycles)->Arg(0)->Arg(1);

/**
 * Active cycles: every channel completes a handshake every cycle, so
 * both kernels do real settling work each cycle.
 */
void
BM_ActiveCycles(benchmark::State &state)
{
    Simulator sim(1);
    sim.setKernelMode(modeArg(state, 0));
    for (int i = 0; i < kPairs; ++i) {
        auto &ch = sim.makeChannel<uint64_t>(
            "ch" + std::to_string(i), 64);
        sim.add<Producer>(ch);
        sim.add<Consumer>(ch);
    }
    for (auto _ : state)
        stepChunk(sim);
    state.SetItemsProcessed(int64_t(sim.cycle()));
    const KernelStats ks = sim.kernelStats();
    state.counters["eval_passes"] = double(ks.eval_passes);
    state.counters["module_evals"] = double(ks.module_evals);
}
BENCHMARK(BM_ActiveCycles)->Arg(0)->Arg(1);

/**
 * Idle skip: one timer waking every 1000 cycles, everything else
 * quiescent. The activity-driven kernel bulk-advances between wakes.
 */
void
BM_IdleSkip(benchmark::State &state)
{
    Simulator sim(1);
    sim.setKernelMode(modeArg(state, 0));
    IdleTimer &timer = sim.add<IdleTimer>(1000);
    for (int i = 0; i < kPairs; ++i) {
        auto &ch = sim.makeChannel<uint64_t>(
            "ch" + std::to_string(i), 64);
        sim.add<Consumer>(ch);
    }
    for (auto _ : state)
        stepChunk(sim);
    benchmark::DoNotOptimize(timer.wakes());
    state.SetItemsProcessed(int64_t(sim.cycle()));
    const KernelStats ks = sim.kernelStats();
    state.counters["eval_passes"] = double(ks.eval_passes);
    state.counters["cycles_skipped"] = double(ks.cycles_skipped);
}
BENCHMARK(BM_IdleSkip)->Arg(0)->Arg(1);

/**
 * End-to-end R2 record of SSSP (idle-heavy: millions of compute cycles
 * between transactions) under both kernels. The wall-clock ratio is the
 * headline speedup; the counters feed BENCH_KERNEL.json.
 */
void
BM_SsspRecord(benchmark::State &state)
{
    HlsAppBuilder app(makeSsspSpec());
    app.setScale(0.1);
    VidiConfig cfg;
    cfg.kernel = modeArg(state, 0);
    RecordResult last;
    for (auto _ : state) {
        last = recordRun(app, VidiMode::R2_Record, 1, cfg);
        benchmark::DoNotOptimize(last.digest);
    }
    if (!last.completed)
        state.SkipWithError("SSSP record did not complete");
    state.counters["cycles"] = double(last.cycles);
    state.counters["eval_passes"] = double(last.kernel.eval_passes);
    state.counters["module_evals"] = double(last.kernel.module_evals);
    state.counters["cycles_skipped"] =
        double(last.kernel.cycles_skipped);
    state.counters["pool_hits"] = double(last.encoder_pool_hits);
    state.counters["pool_misses"] = double(last.encoder_pool_misses);
}
BENCHMARK(BM_SsspRecord)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Fig. 7-style scaling: record SSSP monitoring 1, 3 or 5 of the F1
 * interfaces. Arg 0 = interface count, arg 1 = kernel.
 */
void
BM_ScalingRecord(benchmark::State &state)
{
    const unsigned interfaces = static_cast<unsigned>(state.range(0));
    HlsAppBuilder app(makeSsspSpec());
    app.setScale(0.1);
    VidiConfig cfg;
    cfg.kernel = modeArg(state, 1);
    cfg.monitor_mask = 0;
    for (unsigned i = 0; i < interfaces; ++i)
        cfg.monitor_mask |= VidiConfig::maskFor({i});
    RecordResult last;
    for (auto _ : state) {
        last = recordRun(app, VidiMode::R2_Record, 1, cfg);
        benchmark::DoNotOptimize(last.digest);
    }
    if (!last.completed)
        state.SkipWithError("scaling record did not complete");
    state.counters["cycles"] = double(last.cycles);
    state.counters["eval_passes"] = double(last.kernel.eval_passes);
    state.counters["module_evals"] = double(last.kernel.module_evals);
    state.counters["cycles_skipped"] =
        double(last.kernel.cycles_skipped);
}
BENCHMARK(BM_ScalingRecord)
    ->ArgsProduct({{1, 3, 5}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
