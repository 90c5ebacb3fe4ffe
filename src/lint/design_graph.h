/**
 * @file
 * Elaborated design model for the static lint passes.
 *
 * The linter does not parse source — it *elaborates* a live design: the
 * application is built exactly as for a recording run, an AccessTracker
 * (ElabTracker) is installed, and a short calibration run under
 * KernelMode::FullEval observes which module reads and drives which
 * channel signal in which clock phase. Elaboration then folds the
 * simulator's module/channel lists, the record/replay boundary and the
 * observed access sets into one explicit DesignGraph:
 *
 *  - a ModuleNode per module (eval mode, declared sensitivities, and its
 *    structural role: plain logic, monitor, bridge or replayer);
 *  - a ChannelNode per channel with per-signal access sets. Every channel
 *    has two *signals*: the forward signal (VALID + payload, driven by
 *    the sender) and the reverse signal (READY, driven by the receiver);
 *  - a BoundaryPair per boundary channel, resolved to whichever
 *    interposer (ChannelMonitor / Passthrough / ChannelReplayer) actually
 *    sits between its outer and inner instances.
 *
 * The calibration run uses the FullEval reference schedule so that every
 * module's eval() — including EvalMode::Never modules — is invoked and
 * observed; the sensitivity-soundness pass then compares the observed
 * read sets against what the activity-driven kernel would assume.
 */

#ifndef VIDI_LINT_DESIGN_GRAPH_H
#define VIDI_LINT_DESIGN_GRAPH_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/access_tracker.h"
#include "sim/module.h"

namespace vidi {

class Boundary;
class ChannelBase;
class ChannelMonitor;
class ChannelReplayer;
class Passthrough;
class Simulator;

/**
 * Observed accesses to one channel signal (one side of one channel).
 */
struct SignalAccess
{
    std::set<const Module *> eval_readers;
    std::set<const Module *> eval_drivers;
    std::set<const Module *> seq_readers;  ///< tick()/tickLate() reads
    std::set<const Module *> seq_drivers;  ///< tick()/tickLate() drives

    /** Union of eval- and sequential-phase drivers. */
    std::set<const Module *> allDrivers() const;

    bool
    touched() const
    {
        return !eval_readers.empty() || !eval_drivers.empty() ||
               !seq_readers.empty() || !seq_drivers.empty();
    }
};

/**
 * AccessTracker that accumulates per-signal reader/driver sets during
 * the calibration run.
 */
class ElabTracker : public AccessTracker
{
  public:
    void noteRead(const ChannelBase &ch, SignalSide side, const Module *m,
                  SimPhase phase) override;
    void noteDrive(const ChannelBase &ch, SignalSide side, const Module *m,
                   SimPhase phase) override;

    /** Observed accesses for a signal (empty sets if never touched). */
    const SignalAccess &access(const ChannelBase *ch, SignalSide side) const;

  private:
    struct PerChannel
    {
        SignalAccess fwd;
        SignalAccess rev;
    };

    SignalAccess &slot(const ChannelBase &ch, SignalSide side);

    std::map<const ChannelBase *, PerChannel> channels_;
};

/** Structural role a module plays in the record/replay architecture. */
enum class ModuleRole
{
    Plain,        ///< application / host / infrastructure logic
    Monitor,      ///< ChannelMonitor (records one boundary channel)
    Bridge,       ///< Passthrough (forwards transparently, records nothing)
    Replayer,     ///< ChannelReplayer (recreates recorded transactions)
};

const char *moduleRoleName(ModuleRole role);

/** One module of the elaborated design. */
struct ModuleNode
{
    const Module *module = nullptr;
    std::string name;
    EvalMode mode = EvalMode::EveryCycle;
    bool has_sensitivities = false;
    ModuleRole role = ModuleRole::Plain;
    /** Channels this module declared via sensitive(), in order. */
    std::vector<const ChannelBase *> declared;
};

/** One channel of the elaborated design with its observed access sets. */
struct ChannelNode
{
    const ChannelBase *channel = nullptr;
    std::string name;
    SignalAccess fwd;  ///< VALID + payload (sender-driven)
    SignalAccess rev;  ///< READY (receiver-driven)

    /** Index into DesignGraph::boundary, or -1 if not a boundary channel. */
    int boundary_index = -1;
    bool is_outer = false;  ///< environment-facing boundary instance
    bool is_inner = false;  ///< application-facing boundary instance

    const SignalAccess &
    side(SignalSide s) const
    {
        return s == SignalSide::Forward ? fwd : rev;
    }
};

/**
 * One record/replay boundary channel, resolved to its interposer.
 */
struct BoundaryPair
{
    std::string name;
    bool input = false;  ///< environment → application
    const ChannelBase *outer = nullptr;
    const ChannelBase *inner = nullptr;
    /** At most one of these is non-null per well-formed pair. */
    const ChannelMonitor *monitor = nullptr;
    const Passthrough *bridge = nullptr;
    const ChannelReplayer *replayer = nullptr;
};

/**
 * The elaborated design: all modules, all channels (with observed access
 * sets) and the resolved record/replay boundary.
 */
struct DesignGraph
{
    std::vector<ModuleNode> modules;
    std::vector<ChannelNode> channels;
    std::vector<BoundaryPair> boundary;

    std::map<const Module *, size_t> module_index;
    std::map<const ChannelBase *, size_t> channel_index;

    const ModuleNode *find(const Module *m) const;
    const ChannelNode *find(const ChannelBase *ch) const;

    /** One-line statistics (module/channel/boundary counts). */
    std::string summary() const;
};

/**
 * Fold a live design plus calibration observations into a DesignGraph.
 *
 * @param sim the built simulator
 * @param boundary the record/replay boundary, or nullptr when the design
 *        under lint has none (unit-test fixtures)
 * @param tracker access sets observed during the calibration run
 */
DesignGraph elaborateDesign(const Simulator &sim, const Boundary *boundary,
                            const ElabTracker &tracker);

} // namespace vidi

#endif // VIDI_LINT_DESIGN_GRAPH_H
