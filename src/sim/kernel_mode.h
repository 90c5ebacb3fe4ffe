/**
 * @file
 * Selection of the simulation kernel's scheduling strategy.
 *
 * FullEval is the brute-force reference schedule (every module evaluated
 * in every settling pass, every cycle executed). ActivityDriven is the
 * optimised schedule: sensitivity-driven settling plus a quiescence fast
 * path that skips fully idle cycles in bulk. Parallel shards the design
 * into islands (see src/par/partition.h) and evaluates them on a worker
 * pool with a deterministic phase barrier per cycle; islands that share
 * no state execute concurrently, and each island keeps the activity
 * kernel's sensitivity pruning and quiescence skipping. All three modes
 * produce bit-identical traces; ActivityDriven is the default, and the
 * VIDI_KERNEL environment variable ("full" / "activity" / "parallel")
 * overrides whatever was configured. VIDI_THREADS sizes the Parallel
 * worker pool, and VIDI_SANITIZE=vidi arms its domain race sanitizer.
 * The island cut itself has no knob: it comes from the modules'
 * declareFootprint() contracts (src/par/partition.h).
 */

#ifndef VIDI_SIM_KERNEL_MODE_H
#define VIDI_SIM_KERNEL_MODE_H

#include <cstdint>

namespace vidi {

enum class KernelMode : uint8_t {
    FullEval,       ///< reference schedule: all modules, all cycles
    ActivityDriven, ///< sensitivity lists + quiescence cycle skipping
    Parallel        ///< island-sharded activity kernel on a worker pool
};

/** Human-readable kernel-mode name. */
const char *kernelModeName(KernelMode mode);

/**
 * Apply the VIDI_KERNEL environment override to @p configured.
 *
 * Recognised values: "full" / "fulleval" / "full-eval" select FullEval;
 * "activity" / "activitydriven" / "activity-driven" select
 * ActivityDriven; "parallel" / "par" select Parallel. Unset or
 * unrecognised values leave @p configured unchanged.
 */
KernelMode resolveKernelMode(KernelMode configured);

/**
 * Apply the VIDI_THREADS environment override to @p configured and
 * resolve the worker count: 0 means "auto" (the hardware concurrency),
 * anything else is clamped to [1, 256]. The result is the number of
 * threads the Parallel kernel may use; the other kernel modes ignore it.
 */
unsigned resolveSimThreads(unsigned configured);

/**
 * Whether the VidiSan shadow checker (src/par/vidisan.h) is armed for
 * Parallel runs: true when the tree was compiled with
 * -DVIDI_SANITIZE=vidi (the VIDI_SANITIZE_VIDI macro) or when the
 * VIDI_SANITIZE environment variable is "vidi". This is the one switch
 * for VidiSan.
 */
bool resolveVidiSanArmed();

} // namespace vidi

#endif // VIDI_SIM_KERNEL_MODE_H
