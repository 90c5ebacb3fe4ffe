#include "core/replayer.h"

#include <algorithm>

#include "core/boundary.h"
#include "core/job_clock.h"
#include "core/vidi_shim.h"
#include "host/host_dram.h"
#include "host/pcie_bus.h"

namespace vidi {

ReplayResult
replayRun(AppBuilder &app, const Trace &trace, const VidiConfig &cfg)
{
    // Replay is deterministic: the seed only affects host jitter, and
    // there is no host during replay.
    Simulator sim(0);
    sim.setKernelMode(resolveKernelMode(cfg.kernel));
    HostMemory host;
    // The PCIe bus must tick before every consumer: register it first.
    PcieBus &pcie = sim.add<PcieBus>("pcie", cfg.pcie_bytes_per_sec,
                                     cfg.clock_hz);
    const F1Channels outer = makeF1Channels(sim, "outer");
    const F1Channels inner = makeF1Channels(sim, "inner");
    Boundary boundary = Boundary::fromF1(outer, inner);
    app.extendBoundary(sim, boundary, /*replaying=*/true);

    ReplayResult result;
    result.app = app.name();

    VidiShim shim(sim, std::move(boundary), VidiMode::R3_Replay, host,
                  pcie, cfg);
    auto instance = app.build(sim, inner, nullptr, nullptr, nullptr, 0);

    shim.beginReplay(trace);
    // The watchdog turns a wedged replay into a prompt, diagnosable
    // failure; the coarse cycle budget remains as the backstop and the
    // wall-clock job budget bounds steady-but-endless progress.
    const JobClock clock(cfg.job_timeout_ms);
    while (!shim.replayFinished() && !shim.replayStalled() &&
           sim.cycle() < cfg.max_cycles) {
        if (clock.expired()) {
            result.timed_out = true;
            break;
        }
        sim.stepUntil(std::min(cfg.max_cycles,
                               sim.cycle() + clock.sliceCycles()));
    }

    result.completed = shim.replayFinished();
    result.cycles = sim.cycle();
    result.replayed_transactions = shim.replayedTransactions();
    result.digest = instance->outputDigest();
    result.validation = shim.validationTrace();
    result.watchdog_tripped = shim.replayStalled();
    result.diagnostic = shim.replayDiagnostic();
    result.damage = shim.replayDamage();
    result.kernel = sim.kernelStats();
    return result;
}

} // namespace vidi
