/**
 * @file
 * Vidi run configuration.
 *
 * The three configurations of the paper's evaluation (§5.1):
 *   R1 — recording and replaying disabled; the shim is a transparent
 *        bridge (native baseline).
 *   R2 — recording enabled; channel monitors + trace encoder + trace
 *        store capture the execution.
 *   R3 — replaying enabled, with recording of output channels for
 *        divergence detection; trace decoder + channel replayers drive
 *        the application.
 */

#ifndef VIDI_CORE_VIDI_CONFIG_H
#define VIDI_CORE_VIDI_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>

#include "fault/fault_plan.h"
#include "host/pcie_link.h"
#include "monitor/monitor_config.h"
#include "sim/kernel_mode.h"
#include "trace/storage_line.h"

namespace vidi {

/** Shim operating mode. */
enum class VidiMode
{
    R1_Transparent,  ///< record off, replay off
    R2_Record,       ///< record on, replay off
    R3_Replay,       ///< replay on, record output channels
};

const char *toString(VidiMode mode);

/**
 * Tunables for a Vidi deployment.
 */
struct VidiConfig
{
    /**
     * Record the content of output transactions so that divergences can
     * be detected (§3.6). The paper's evaluation enables this everywhere
     * (worst case); production deployments can disable it.
     */
    bool record_output_content = true;

    /**
     * Bit mask over boundary channel indices selecting which channels
     * are monitored during recording; unmonitored channels get a
     * transparent bridge instead (the §5.5 option of restricting
     * recording to the interfaces an application actually uses, for
     * lower overhead). Replaying a trace recorded this way is only
     * meaningful if the masked-out channels carried no transactions.
     */
    uint64_t monitor_mask = ~0ull;

    /** Convenience: monitor only the channels of @p interfaces. */
    static uint64_t
    maskFor(std::initializer_list<unsigned> interface_indices)
    {
        uint64_t mask = 0;
        for (const unsigned iface : interface_indices) {
            for (unsigned ch = 0; ch < 5; ++ch)
                mask |= 1ull << (iface * 5 + ch);
        }
        return mask;
    }

    /** Trace-store BRAM staging capacity in bytes. */
    size_t store_fifo_bytes = 1u << 20;

    /** Effective PCIe bandwidth toward host DRAM. */
    double pcie_bytes_per_sec = kF1PcieBytesPerSec;

    /** FPGA clock frequency (for the bandwidth model). */
    double clock_hz = kF1ClockHz;

    /** Channel-monitor tunables. */
    MonitorOptions monitor;

    /** Per-replayer pair-queue depth in the trace decoder. */
    size_t decoder_queue_capacity = 64;

    /** Host DRAM reserved for the recorded trace. */
    uint64_t trace_region_bytes = 1ull << 32;

    /** Simulation cycle budget per run (deadlock watchdog). */
    uint64_t max_cycles = 200'000'000;

    /**
     * Simulation kernel strategy. ActivityDriven (the default) settles
     * with sensitivity lists and bulk-advances through quiescent
     * stretches; FullEval is the reference kernel that evaluates every
     * module every pass and executes every cycle. Both produce
     * bit-identical traces; the VIDI_KERNEL environment variable
     * ("full" / "activity") overrides this field for A/B comparison.
     */
    KernelMode kernel = KernelMode::ActivityDriven;

    /// @name Fault injection & recovery (robustness validation)
    /// @{
    /**
     * Deterministic fault schedule applied to the PCIe/DRAM/trace-file
     * path. All-zero (the default) disables injection entirely.
     */
    FaultSpec fault;

    /** Record-side behavior when the PCIe drain stalls persistently. */
    OverflowPolicy overflow_policy = OverflowPolicy::Block;

    /** Max cycles between drain retries (exponential backoff cap). */
    uint64_t drain_backoff_limit = 1024;

    /**
     * Consecutive zero-progress drain cycles before the overflow policy
     * engages (drop-with-report only).
     */
    uint64_t stall_escalation_cycles = 4096;

    /**
     * Replay watchdog horizon: cycles without any replay progress
     * (completions or decoded packets) before the run is declared
     * stalled and a per-channel diagnostic is produced. 0 disables.
     * The default tolerates applications that legitimately compute for
     * millions of cycles between transactions (e.g. SSSP's relaxation
     * sweeps) while still catching true deadlocks well inside a typical
     * cycle budget.
     */
    uint64_t replay_watchdog_cycles = 10'000'000;

    /**
     * Minimum wall-clock milliseconds between checkpoint commits in a
     * session run (0 = commit at every cadence boundary). Checkpoint
     * cadence is expressed in cycles, but an idle-heavy design under
     * the activity-driven kernel can burn through millions of cycles
     * per wall millisecond — committing at every cycle boundary would
     * then cost orders of magnitude more than the simulation itself.
     * The throttle bounds checkpoint overhead to roughly
     * commit_latency / (min_interval + commit_latency) regardless of
     * simulation speed; a cadence boundary that arrives too early is
     * simply skipped (checkpoint *placement* never affects results,
     * only where a crashed run resumes from).
     */
    uint64_t checkpoint_min_interval_ms = 250;
    /// @}

    /// @name Job supervision & client retry (CLI and vidi_serve)
    /// @{
    /**
     * Wall-clock budget for one record/replay/resume job in
     * milliseconds; 0 disables. The cycle-domain watchdogs above catch
     * a *stalled* simulation; this catches a simulation that makes
     * steady progress but will never finish inside an acceptable wall
     * time (a runaway workload scale, a pathological retry storm). The
     * run harnesses check the deadline between bounded stepping slices
     * and return with `timed_out` set instead of looping to the cycle
     * budget. vidi_serve supervisors rely on it to guarantee a worker
     * is always reclaimed.
     */
    uint64_t job_timeout_ms = 0;

    /**
     * Client-side retry budget for transient submit failures (connect
     * refused while the daemon restarts, explicit overload replies).
     * Total attempts are 1 + max_retries.
     */
    uint32_t max_retries = 4;

    /**
     * Base wall-clock backoff between client retries in milliseconds;
     * doubles per retry (bounded exponential, mirroring the trace
     * store's cycle-domain drain backoff).
     */
    uint64_t retry_backoff_ms = 50;
    /// @}
};

/**
 * Apply `VIDI_*` environment overrides to @p cfg:
 *
 *   VIDI_JOB_TIMEOUT_MS    -> job_timeout_ms
 *   VIDI_MAX_RETRIES       -> max_retries
 *   VIDI_RETRY_BACKOFF_MS  -> retry_backoff_ms
 *
 * (VIDI_KERNEL is handled separately by resolveKernelMode(), which
 * consults the environment on every run.) Unset or non-numeric
 * variables leave the field untouched. Both the CLI tools and the
 * vidi_serve daemon call this once at startup so deployments can tune
 * supervision without recompiling.
 */
void applyEnvOverrides(VidiConfig &cfg);

} // namespace vidi

#endif // VIDI_CORE_VIDI_CONFIG_H
