/**
 * @file
 * Selection of the simulation kernel's scheduling strategy.
 *
 * FullEval is the brute-force reference schedule (every module evaluated
 * in every settling pass, every cycle executed). ActivityDriven is the
 * optimised schedule: sensitivity-driven settling plus a quiescence fast
 * path that skips fully idle cycles in bulk. Both modes produce
 * bit-identical traces; ActivityDriven is the default, and the
 * VIDI_KERNEL environment variable ("full" / "activity") overrides
 * whatever was configured.
 */

#ifndef VIDI_SIM_KERNEL_MODE_H
#define VIDI_SIM_KERNEL_MODE_H

#include <cstdint>

namespace vidi {

enum class KernelMode : uint8_t {
    FullEval,       ///< reference schedule: all modules, all cycles
    ActivityDriven  ///< sensitivity lists + quiescence cycle skipping
};

/** Human-readable kernel-mode name. */
const char *kernelModeName(KernelMode mode);

/**
 * Apply the VIDI_KERNEL environment override to @p configured.
 *
 * Recognised values: "full" / "fulleval" / "full-eval" select FullEval;
 * "activity" / "activitydriven" / "activity-driven" select
 * ActivityDriven. Unset or unrecognised values leave @p configured
 * unchanged.
 */
KernelMode resolveKernelMode(KernelMode configured);

} // namespace vidi

#endif // VIDI_SIM_KERNEL_MODE_H
