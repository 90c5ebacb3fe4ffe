/**
 * @file
 * The clocked simulation kernel.
 *
 * A Simulator owns a set of Modules and ChannelBase instances and advances
 * them cycle by cycle:
 *
 *   per cycle:
 *     repeat until no channel signal changes (bounded):
 *         for each scheduled module (registration order): eval()
 *     for each channel: latch handshakes, run protocol checker
 *     for each module: tick()
 *     for each module: tickLate()
 *     for each channel: postTick()
 *
 * The bounded combinational-settling loop supports Mealy-style logic (the
 * channel monitors forward VALID/READY combinationally) and reports
 * genuine combinational loops as errors.
 *
 * Two scheduling strategies are available (see KernelMode):
 *
 * - FullEval evaluates every module in every settling pass — the original
 *   brute-force reference schedule.
 * - ActivityDriven (default) evaluates only modules whose sensitive
 *   channels changed since their last eval (modules without declared
 *   sensitivities still run every pass, so legacy modules behave exactly
 *   as under FullEval), and adds a quiescence fast path: when every module
 *   reports an idle stretch via Module::idleUntil() and no channel has a
 *   handshake in flight, stepUntil() advances cycle_ in bulk to the next
 *   wake cycle. Because a skipped cycle by construction changes no state
 *   and fires no handshake, both modes produce bit-identical results.
 */

#ifndef VIDI_SIM_SIMULATOR_H
#define VIDI_SIM_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "channel/channel.h"
#include "sim/kernel_mode.h"
#include "sim/module.h"
#include "sim/random.h"

namespace vidi {

/**
 * Scheduling counters of a Simulator, for perf observability.
 */
struct KernelStats
{
    KernelMode mode = KernelMode::ActivityDriven;
    uint64_t cycles = 0;         ///< current cycle count
    uint64_t eval_passes = 0;    ///< settling passes executed
    uint64_t module_evals = 0;   ///< individual Module::eval() calls
    uint64_t cycles_skipped = 0; ///< cycles bulk-skipped while quiescent
    uint64_t skip_events = 0;    ///< number of bulk skips
    /** Per-module eval() call counts, in registration order. */
    std::vector<std::pair<std::string, uint64_t>> per_module_evals;

    std::string toString() const;
};

/**
 * Owns and steps a simulated design.
 */
class Simulator
{
  public:
    /** @param seed seed for the simulation-wide RNG tree. */
    explicit Simulator(uint64_t seed = 1);

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Construct a module in place; the simulator owns it.
     *
     * @return reference to the constructed module.
     */
    template <typename M, typename... Args>
    M &
    add(Args &&...args)
    {
        auto mod = std::make_unique<M>(std::forward<Args>(args)...);
        M &ref = *mod;
        ref.Module::owner_sim_ = this;
        modules_.push_back(std::move(mod));
        return ref;
    }

    /**
     * Construct a typed channel; the simulator owns it.
     *
     * @param name diagnostic name
     * @param width_bits logical protocol width of the payload
     */
    template <typename T>
    Channel<T> &
    makeChannel(std::string name, unsigned width_bits)
    {
        auto ch = std::make_unique<Channel<T>>(std::move(name), width_bits);
        Channel<T> &ref = *ch;
        ref.setSettleFlag(&settle_dirty_);
        channel_index_.emplace(ref.name(), channels_.size());
        channels_.push_back(std::move(ch));
        return ref;
    }

    /** Advance the design by exactly one clock cycle (never skips). */
    void step();

    /**
     * Advance the design towards @p deadline: possibly bulk-skip a
     * quiescent stretch, then execute at most one real cycle. Never moves
     * cycle() past @p deadline. The driver loops in recorder/replayer use
     * this so idle-heavy workloads don't pay per-cycle cost.
     */
    void stepUntil(uint64_t deadline);

    /**
     * Run until a module calls requestStop() or @p max_cycles elapse.
     *
     * @return true if the run stopped via requestStop(); false if the cycle
     *         budget was exhausted (a likely deadlock or hang).
     */
    bool run(uint64_t max_cycles);

    /** Return all modules and channels to their power-on state. */
    void reset();

    uint64_t cycle() const { return cycle_; }

    /** Request the end of the current run (typically from a driver). */
    void requestStop() { stop_requested_ = true; }
    bool stopRequested() const { return stop_requested_; }

    SimRandom &rng() { return rng_; }

    const std::vector<std::unique_ptr<ChannelBase>> &
    channels() const
    {
        return channels_;
    }

    /** All owned modules, in registration (schedule) order. */
    const std::vector<std::unique_ptr<Module>> &
    modules() const
    {
        return modules_;
    }

    /** Find a channel by name; nullptr if absent. O(1) via name index. */
    ChannelBase *findChannel(const std::string &name) const;

    /** Cap on combinational settling iterations per cycle. */
    void setMaxEvalIterations(unsigned n) { max_eval_iterations_ = n; }

    /** Total eval passes executed (settling-cost diagnostic). */
    uint64_t totalEvalPasses() const { return total_eval_passes_; }

    /** Select the scheduling strategy (affects subsequent cycles only). */
    void setKernelMode(KernelMode mode) { mode_ = mode; }
    KernelMode kernelMode() const { return mode_; }

    /** Cycles elided by the quiescence fast path since reset. */
    uint64_t cyclesSkipped() const { return cycles_skipped_; }

    /** Snapshot of the scheduling counters. */
    KernelStats kernelStats() const;

    /// @name Checkpointing (src/checkpoint/)
    /// @{
    /**
     * Serialize the complete dynamic state of the simulation: kernel
     * counters and RNG, every channel's signal plane and every module's
     * registered state, each under a named section. Raises SimFatal if
     * any registered module is not checkpointable.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState() into an identically
     * constructed design (same channels and modules, same order). Any
     * topology mismatch raises SimFatal naming the divergent element.
     */
    void loadState(StateReader &r);
    /// @}

  private:
    void stepOnce();
    void settleFullEval();
    void settleActivity();
    void trySkip(uint64_t deadline);
    [[noreturn]] void settleOverflow();

    uint64_t cycle_ = 0;
    bool stop_requested_ = false;
    unsigned max_eval_iterations_ = 64;
    uint64_t total_eval_passes_ = 0;
    uint64_t module_evals_ = 0;
    uint64_t cycles_skipped_ = 0;
    uint64_t skip_events_ = 0;
    KernelMode mode_;
    /** Raised by any channel markDirty(); cleared per settling pass. */
    bool settle_dirty_ = false;
    /** True once a cycle has executed since reset (skips need a baseline). */
    bool settled_once_ = false;
    SimRandom rng_;

    std::vector<std::unique_ptr<Module>> modules_;
    std::vector<std::unique_ptr<ChannelBase>> channels_;
    std::unordered_map<std::string, size_t> channel_index_;
};

} // namespace vidi

#endif // VIDI_SIM_SIMULATOR_H
