/**
 * @file
 * Base class for all simulated hardware modules.
 *
 * The kernel models synchronous digital logic with a two-phase clock:
 *
 *  1. Combinational settling: module eval() functions are called (in
 *     registration order) until no channel signal changes. eval() must
 *     be a pure function of the module's registered state and of the
 *     current channel signal values: it drives output signals and must be
 *     idempotent within a cycle. This supports Mealy-style pass-through
 *     logic (e.g. a channel monitor forwarding VALID/READY combinationally)
 *     and detects combinational loops.
 *
 *  2. Sequential update: after settling, every channel latches its
 *     handshake (fired = VALID && READY), then every module's tick() runs
 *     (observe fired handshakes, update registered state), then every
 *     module's tickLate() runs. tickLate() exists for aggregators such as
 *     the trace encoder and the replay coordinator that must observe events
 *     pushed to them by other modules' tick() in the *same* cycle.
 *
 * Under the activity-driven kernel (see simulator.h) a module may
 * additionally declare which channels its eval() reads via sensitive(),
 * pick an EvalMode, and report idle stretches via idleUntil() so the
 * kernel can skip cycles in bulk. All of these are opt-in: the defaults
 * (EvalMode::EveryCycle, no sensitivities, idleUntil == now) reproduce
 * the brute-force schedule exactly.
 */

#ifndef VIDI_SIM_MODULE_H
#define VIDI_SIM_MODULE_H

#include <cstdint>
#include <string>

namespace vidi {

class ChannelBase;
class Simulator;
class StateReader;
class StateWriter;

/**
 * How the activity-driven kernel schedules a module's eval().
 *
 * - EveryCycle (default): eval() runs in the seed pass of every cycle and
 *   again in later settling passes. A module in this mode that has declared
 *   sensitivities is re-evaluated within a cycle only when one of its
 *   sensitive channels changed; without sensitivities it conservatively
 *   runs in every settling pass, which is exactly the FullEval schedule.
 * - OnDemand: eval() runs only when a sensitive channel changed since the
 *   module's last eval. Only safe for pure combinational bridges whose
 *   outputs depend solely on the declared channels (no registered state
 *   updated in tick() feeds eval()).
 * - Never: the module has no eval() logic at all (pure sequential logic);
 *   the activity-driven kernel skips the virtual call entirely.
 */
enum class EvalMode : uint8_t { Never, OnDemand, EveryCycle };

/**
 * A named, clocked hardware module.
 *
 * Modules are owned by the Simulator that created them and are evaluated
 * every cycle in creation order.
 */
class Module
{
  public:
    /** idleUntil() return value meaning "idle until someone else acts". */
    static constexpr uint64_t kIdleForever = ~uint64_t(0);

    explicit Module(std::string name);
    virtual ~Module();

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /** Hierarchical instance name, for diagnostics. */
    const std::string &name() const { return name_; }

    /**
     * Drive output signals from registered state and current inputs.
     *
     * Called one or more times per cycle until signals settle; must be
     * idempotent and must not modify registered state.
     */
    virtual void eval() {}

    /** Observe fired handshakes and update registered state. */
    virtual void tick() {}

    /** Late sequential phase; runs after every module's tick(). */
    virtual void tickLate() {}

    /** Return the module to its power-on state. */
    virtual void reset() {}

    /**
     * First future cycle at which this module needs to execute, assuming
     * no other module acts and no channel fires in the meantime.
     *
     * Returning @p now means "active every cycle" (the default, and always
     * safe). Returning now + k promises that the next k ticks are pure
     * no-ops except for any internal countdown, which the module must
     * replay in onCyclesSkipped(). Returning kIdleForever promises the
     * module does nothing until some *other* module changes state it can
     * observe; the kernel re-queries after every executed cycle, so the
     * promise only needs to hold while the whole design is frozen.
     */
    virtual uint64_t idleUntil(uint64_t now) const { return now; }

    /**
     * Notification that cycles [from, to) were skipped by the quiescence
     * fast path: tick()/tickLate() were not called for them. Modules whose
     * idleUntil() accounts for an internal countdown must advance that
     * countdown by (to - from) here.
     */
    virtual void onCyclesSkipped(uint64_t from, uint64_t to)
    {
        (void)from;
        (void)to;
    }

    /// @name Checkpoint serialization (src/checkpoint/)
    /// @{
    /**
     * Whether this module supports saveState()/loadState(). Debug-only
     * observers (VCD dumpers, protocol group checkers) return false; a
     * checkpointed session that contains one is refused up front rather
     * than silently resumed with half its state missing.
     */
    virtual bool checkpointable() const { return true; }

    /**
     * Serialize all registered state into @p w. The default is correct
     * only for stateless modules; every module with registers must
     * override both hooks symmetrically.
     */
    virtual void saveState(StateWriter &w) const { (void)w; }

    /** Restore exactly the state written by saveState(). */
    virtual void loadState(StateReader &r) { (void)r; }
    /// @}

    /// @name Activity-kernel plumbing (read by Simulator and channels)
    /// @{
    EvalMode evalMode() const { return eval_mode_; }
    bool needsEval() const { return needs_eval_; }
    bool hasSensitivities() const { return has_sensitivities_; }
    uint64_t evalCount() const { return eval_count_; }

    /** Called by a sensitive channel when one of its signals changes. */
    void markNeedsEval() { needs_eval_ = true; }
    /// @}

    /** The simulator that owns this module (set on registration). */
    const Simulator *owner() const { return owner_sim_; }

  protected:
    /** Select how the activity-driven kernel schedules eval(). */
    void setEvalMode(EvalMode m) { eval_mode_ = m; }

    /**
     * The owning simulator's current cycle. Valid from any phase hook
     * (eval/tick/tickLate): the cycle counter only advances between
     * cycles, so the value is phase-stable. Panics when the module was
     * never registered.
     */
    uint64_t nowCycle() const;

    /**
     * Declare that eval() reads @p ch: the channel will mark this module
     * for re-evaluation whenever one of its signals changes. A
     * scheduling hint for the activity-driven kernel; the lint's
     * sensitivity-soundness pass checks it against observed reads.
     */
    void sensitive(ChannelBase &ch);

  private:
    friend class Simulator;

    std::string name_;
    const Simulator *owner_sim_ = nullptr;  ///< owner; set by Simulator::add
    EvalMode eval_mode_ = EvalMode::EveryCycle;
    bool needs_eval_ = true;
    bool has_sensitivities_ = false;
    uint64_t eval_count_ = 0;
};

} // namespace vidi

#endif // VIDI_SIM_MODULE_H
