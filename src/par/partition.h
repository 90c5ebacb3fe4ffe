/**
 * @file
 * Island partitioning for the parallel simulation kernel.
 *
 * An *island* is a set of modules and channels that is closed under
 * every declared interaction: all claimants of a channel live in the
 * channel's island, and directly coupled modules share an island. Two
 * islands therefore share no mutable simulation state at all, which is
 * what lets the Parallel kernel evaluate them on different threads with
 * no locks and still produce bit-identical traces: the per-cycle phase
 * barrier (see simulator.h) is the only synchronization, and every
 * cross-island effect (counter deltas, raised exceptions) is staged
 * per island and committed at the barrier in fixed island order.
 *
 * The input is one contract, Module::declareFootprint(): channel
 * entries (plus the read entries sensitive() adds) link a module to
 * channels, couples() links it to peer modules, and state() tokens link
 * every declarer of one shared object. Partitioning is conservative:
 *
 *  - every module that did NOT call declareFootprint() is fused into a
 *    single *residual* island (its undeclared accesses could reach
 *    anything owned by another undeclared module);
 *  - every channel in no module's footprint joins the residual island;
 *  - footprint, coupling and state-token edges union islands
 *    transitively.
 *
 * A design whose modules never declared therefore degenerates to one
 * island — exactly the sequential activity schedule, still correct,
 * just not parallel. `vidi_lint --interference` proves each
 * declaration against the calibration run and reports promoted modules
 * that still fused into the residual island ("parallel-degenerate").
 *
 * Islands are canonically ordered by their lowest module registration
 * index, and module/channel lists inside an island are sorted in
 * registration order, so the partition — and everything scheduled from
 * it — is a pure function of the design, independent of thread count.
 */

#ifndef VIDI_PAR_PARTITION_H
#define VIDI_PAR_PARTITION_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vidi {

class ChannelBase;
class Module;

/**
 * Why a module sits where it sits in the island cut.
 *
 * - Residual: no declareFootprint() contract — fused into the residual
 *   island because its accesses are undeclared.
 * - Proven: promoted by a declareFootprint() contract that the
 *   interference analysis can prove and VidiSan can enforce.
 */
enum class SafetyProvenance : uint8_t { Residual, Proven };

/** Human-readable provenance name ("residual"/"proven"). */
const char *safetyProvenanceName(SafetyProvenance p);

/** One island of the partition. */
struct IslandDef
{
    /** Module indices (into the design's registration order), sorted. */
    std::vector<size_t> modules;
    /** Channel indices (into the design's creation order), sorted. */
    std::vector<size_t> channels;
    /** Whether this is the residual island of undeclared modules and
     *  unclaimed channels. */
    bool residual = false;
};

/**
 * The island cut of one design.
 */
struct Partition
{
    static constexpr size_t kNone = ~size_t(0);

    /** Islands in canonical order (lowest module index first). */
    std::vector<IslandDef> islands;
    /** Island index of each module, by registration index. */
    std::vector<size_t> module_island;
    /** Island index of each channel, by creation index. */
    std::vector<size_t> channel_island;
    /** Index of the residual island, or kNone if all modules declared. */
    size_t residual = kNone;

    /** Safety provenance of each module, by registration index. */
    std::vector<SafetyProvenance> module_safety;

    /**
     * For each *promoted* module that nevertheless ended up inside the
     * residual island: a human-readable witness for what dragged it in
     * (the shared channel or undeclared coupled peer). Empty for
     * residual-provenance modules and for modules outside the residual
     * island.
     */
    std::vector<std::string> residual_witness;

    size_t islandCount() const { return islands.size(); }

    /** Modules in the residual island, or 0 when there is none. */
    size_t residualModules() const;

    /** One-line summary, e.g. "3 islands (16 modules, 16 channels; ...". */
    std::string summary() const;
};

/**
 * Compute the island cut of a design.
 *
 * @param modules design modules in registration order
 * @param channels design channels in creation order
 */
Partition computePartition(const std::vector<const Module *> &modules,
                           const std::vector<const ChannelBase *> &channels);

} // namespace vidi

#endif // VIDI_PAR_PARTITION_H
