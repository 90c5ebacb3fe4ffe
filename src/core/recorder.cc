#include "core/recorder.h"

#include <algorithm>

#include "core/boundary.h"
#include "core/job_clock.h"
#include "core/vidi_shim.h"
#include "host/host_dram.h"
#include "host/pcie_bus.h"
#include "sim/logging.h"

namespace vidi {

RecordResult
recordRun(AppBuilder &app, VidiMode mode, uint64_t seed,
          const VidiConfig &cfg)
{
    if (mode == VidiMode::R3_Replay)
        fatal("recordRun: use replayRun for configuration R3");

    Simulator sim(seed);
    sim.setKernelMode(resolveKernelMode(cfg.kernel));
    HostMemory host;
    // The PCIe bus must tick before every consumer: register it first.
    PcieBus &pcie = sim.add<PcieBus>("pcie", cfg.pcie_bytes_per_sec,
                                     cfg.clock_hz);
    const F1Channels outer = makeF1Channels(sim, "outer");
    const F1Channels inner = makeF1Channels(sim, "inner");
    Boundary boundary = Boundary::fromF1(outer, inner);
    app.extendBoundary(sim, boundary, /*replaying=*/false);

    RecordResult result;
    result.app = app.name();
    result.mode = mode;
    result.seed = seed;
    result.input_signal_bits = boundary.inputSignalBits();

    VidiShim shim(sim, std::move(boundary), mode, host, pcie, cfg);
    auto instance = app.build(sim, inner, &outer, &host, &pcie, seed);

    if (mode == VidiMode::R2_Record)
        shim.beginRecord();

    const JobClock clock(cfg.job_timeout_ms);
    while (!instance->done() && sim.cycle() < cfg.max_cycles) {
        if (clock.expired()) {
            result.timed_out = true;
            break;
        }
        sim.stepUntil(std::min(cfg.max_cycles,
                               sim.cycle() + clock.sliceCycles()));
    }

    result.completed = instance->done();
    result.cycles = sim.cycle();
    result.digest = instance->outputDigest();

    if (mode == VidiMode::R2_Record) {
        // Let the trace store finish draining to host DRAM (the paper's
        // runtime saves the trace after the application finishes).
        const uint64_t drain_deadline = sim.cycle() + cfg.max_cycles;
        while (!shim.recordDrained() && sim.cycle() < drain_deadline) {
            if (clock.expired()) {
                result.timed_out = true;
                result.completed = false;
                break;
            }
            sim.stepUntil(std::min(drain_deadline,
                                   sim.cycle() + clock.sliceCycles()));
        }
        if (result.timed_out)
            return result;
        if (!shim.recordDrained()) {
            const TraceStore *store = shim.store();
            fatal("recordRun(%s): trace store failed to drain within %llu "
                  "cycles (%zu bytes still buffered, %llu stall cycles, "
                  "%llu drain retries — check the PCIe path and the "
                  "overflow policy)",
                  result.app.c_str(),
                  static_cast<unsigned long long>(cfg.max_cycles),
                  store->availableBytes(),
                  static_cast<unsigned long long>(store->stallCycles()),
                  static_cast<unsigned long long>(store->drainRetries()));
        }
        result.trace = shim.collectTrace(&result.damage);
        result.trace_bytes = shim.traceBytes();
        result.trace_lines = shim.store()->linesWritten();
        result.transactions = shim.monitoredTransactions();
        result.monitor_stall_cycles = shim.monitorStallCycles();
        result.store_fifo_high_water = shim.store()->fifoHighWater();
        result.drain_retries = shim.store()->drainRetries();
        result.link_stall_cycles = shim.store()->stallCycles();
        result.overflow_drops = shim.store()->overflowDrops();
        result.dropped_payload_bytes = shim.store()->droppedPayloadBytes();
        result.encoder_pool_hits = shim.encoder()->poolHits();
        result.encoder_pool_misses = shim.encoder()->poolMisses();
    }
    result.kernel = sim.kernelStats();
    return result;
}

} // namespace vidi
