/**
 * @file
 * Interference analysis: prove partition safety statically.
 *
 * The Parallel kernel's partitioner (src/par/partition.h) trusts one
 * module contract: the machine-checkable declareFootprint() declaration.
 * This analysis closes the loop between those *declared* footprints and
 * the *observed* footprint of the FullEval calibration run (the same
 * AccessTracker data the other lint passes use), and renders a verdict
 * per module:
 *
 *  - Proven: the module carries a contract and every observed access is
 *    inside it (observed ⊆ declared, per direction). The partitioner
 *    places such a module outside the residual island.
 *
 *  - Unsafe: the module carries a contract but calibration caught an
 *    access outside it. The verdict cites a witness — the exact channel
 *    and the access pair (who else touches it, in which phase) — and
 *    `vidi_lint --interference` exits nonzero: promoting this module
 *    would be unsound.
 *
 *  - Unknown: the module carries no contract at all. It stays residual;
 *    the report names the one missing fact (the footprint declaration
 *    that would make it provable, synthesized from observation).
 *
 * The analysis also builds the pairwise interference graph over the
 * elaborated design — an edge per channel shared by two modules — and
 * previews the island cut the Parallel kernel will use, so the report
 * shows exactly what the contracts buy.
 *
 * Static analysis sees only what calibration exercised; the VidiSan
 * shadow checker (src/par/vidisan.h) is the runtime backstop for the
 * paths calibration missed. Out-of-band shared state is visible here
 * only through declared state() tokens — an *undeclared* shared object
 * (false sharing) is VidiSan's to catch, and documented as this
 * analysis's blind spot.
 */

#ifndef VIDI_LINT_INTERFERENCE_H
#define VIDI_LINT_INTERFERENCE_H

#include <cstddef>
#include <string>
#include <vector>

#include "lint/design_graph.h"
#include "lint/lint_report.h"
#include "par/partition.h"

namespace vidi {

/** Per-module outcome of the interference analysis. */
enum class InterferenceVerdict
{
    Proven,   ///< contract present and observed ⊆ declared
    Unsafe,   ///< contract present but calibration escaped it
    Unknown,  ///< no contract — stays residual
};

const char *interferenceVerdictName(InterferenceVerdict v);

/** One concrete violation backing an Unsafe verdict. */
struct InterferenceWitness
{
    std::string channel;  ///< exact channel (or state token)
    std::string detail;   ///< the access pair, human-readable
    /** True when the violation is an *uncontracted* module reaching this
     *  module's claimed channel (rather than this module escaping its
     *  own declaration). */
    bool residual_reach = false;
};

/** Analysis record for one module. */
struct ModuleInterference
{
    std::string module;
    InterferenceVerdict verdict = InterferenceVerdict::Unknown;
    /** Provenance in the island cut (proven/residual). */
    SafetyProvenance provenance = SafetyProvenance::Residual;
    bool has_contract = false;   ///< called declareFootprint()
    size_t island = Partition::kNone;
    /** Witnesses for Unsafe verdicts (empty otherwise). */
    std::vector<InterferenceWitness> witnesses;
    /** For Unknown verdicts: the one missing fact (a footprint synthesized
     *  from observation); empty otherwise. */
    std::string missing;
};

/** One edge of the pairwise interference graph. */
struct InterferenceEdge
{
    std::string a;        ///< module name (lower registration index)
    std::string b;        ///< module name
    std::string channel;  ///< the shared channel
};

/** Full analysis result for one design. */
struct InterferenceResult
{
    std::vector<ModuleInterference> modules;
    std::vector<InterferenceEdge> edges;

    size_t proven = 0;
    size_t unsafe = 0;
    size_t unknown = 0;

    /// @name Island-cut preview
    /// @{
    size_t islands = 0;
    size_t residual_modules = 0;
    /// @}

    std::string toString() const;
    JsonValue toJson() const;
};

/** Run the analysis over an elaborated design. */
InterferenceResult analyzeInterference(const DesignGraph &g);

/**
 * Lint pass wrapping analyzeInterference(). Opt-in (NOT part of
 * runLintPasses()): enabled by `vidi_lint --interference` and the
 * interference unit tests. Emits
 *
 *  - Error "unproven-promotion" per Unsafe module (witness cited);
 *  - Error "cross-island-residual-access" when an *uncontracted* module
 *    observedly touches a channel the cut assigns to another island;
 *  - one Warning "parallel-degenerate" per island grouping the promoted
 *    modules that still fused into the residual island (deduplicated
 *    per island, not per module);
 *  - Note "interference-summary" with the verdict counts and the
 *    island cut's size and residual.
 *
 * Designs with no contracts at all produce no findings.
 *
 * @param out when non-null, receives the full analysis result.
 */
void passInterference(const DesignGraph &g, LintReport &report,
                      InterferenceResult *out = nullptr);

} // namespace vidi

#endif // VIDI_LINT_INTERFERENCE_H
