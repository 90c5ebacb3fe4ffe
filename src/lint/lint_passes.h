/**
 * @file
 * The static lint passes over an elaborated DesignGraph.
 *
 * Four analyses, each anchored to an invariant the record/replay
 * architecture depends on:
 *
 *  1. Combinational loops (pass "comb-loop"): Tarjan SCC over the
 *     bipartite drive/read graph of eval()-phase accesses. A cycle means
 *     the settle loop has no unique fixpoint — the kernel's bounded
 *     settling would either oscillate or silently depend on module
 *     registration order.
 *
 *  2. Boundary coverage (pass "boundary-coverage"): every channel pair
 *     crossing the record/replay boundary must be interposed by a
 *     ChannelMonitor (R2) or a ChannelReplayer (R3). A transparent
 *     bridge — or nothing — is a silent-nondeterminism hole: transactions
 *     cross unrecorded, so a replay of the trace cannot reproduce them.
 *
 *  3. Sensitivity soundness (pass "sensitivity"): a module scheduled
 *     on-demand must have declared sensitive() on every channel its
 *     eval() actually reads (observed during the FullEval calibration
 *     run); otherwise the activity-driven kernel may skip a re-eval the
 *     FullEval reference schedule would have made, and the two kernels
 *     diverge. EvalMode::Never modules must not touch channels from
 *     eval() at all. Over-declaration is harmless (a spurious wakeup of
 *     an idempotent eval) and is deliberately not reported.
 *
 *  4. Structural rules (pass "structural"): multiply-driven signals,
 *     undriven-but-observed channels, monitors interposed outside the
 *     boundary, and boundaries wider than the trace format's vector
 *     clock (kMaxChannels).
 */

#ifndef VIDI_LINT_LINT_PASSES_H
#define VIDI_LINT_LINT_PASSES_H

#include "lint/design_graph.h"
#include "lint/lint_report.h"

namespace vidi {

void passCombinationalLoops(const DesignGraph &g, LintReport &report);
void passBoundaryCoverage(const DesignGraph &g, LintReport &report);
void passSensitivitySoundness(const DesignGraph &g, LintReport &report);
void passStructural(const DesignGraph &g, LintReport &report);

/** Run all four passes in the order above. */
void runLintPasses(const DesignGraph &g, LintReport &report);

} // namespace vidi

#endif // VIDI_LINT_LINT_PASSES_H
