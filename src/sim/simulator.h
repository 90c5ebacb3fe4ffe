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
 * Three scheduling strategies are available (see KernelMode):
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
 * - Parallel shards the design into islands (src/par/partition.h) whose
 *   only declared coupling is channels, and runs each island's activity
 *   schedule on a fixed worker pool. Islands share no mutable state, so
 *   a cycle is one fork-join: every active island settles, latches and
 *   ticks independently, then the deterministic phase barrier commits
 *   staged cross-island effects (counter deltas, raised exceptions) in
 *   fixed island order before the cycle counter advances. Idle islands
 *   skip their phase work entirely (per-island quiescence), and the
 *   whole-design bulk skip still engages when every island is idle. The
 *   schedule inside an island is the sequential activity schedule, and
 *   islands are canonically ordered, so results are bit-identical for
 *   every thread count — and to the sequential kernels. Checkpoints
 *   commit only at the barrier: worker-pool state is never serialized.
 */

#ifndef VIDI_SIM_SIMULATOR_H
#define VIDI_SIM_SIMULATOR_H

#include <cstdint>
#include <exception>
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

class IslandPool;
struct Partition;
class VidiSan;

/**
 * Scheduling counters of one island of the Parallel kernel.
 */
struct IslandStats
{
    std::string anchor;       ///< name of the island's first module
    bool residual = false;    ///< the undeclared-modules island
    uint64_t modules = 0;     ///< modules in the island
    uint64_t channels = 0;    ///< channels owned by the island
    uint64_t eval_passes = 0; ///< settling passes executed
    uint64_t module_evals = 0;
    uint64_t cycles_executed = 0; ///< cycles with real phase work
    uint64_t cycles_skipped = 0;  ///< island-locally skipped cycles
    /** Island members annotated with their safety provenance
     *  ("proven" / "residual") and, for promoted
     *  modules fused into the residual island, the witness that
     *  dragged them in. */
    std::vector<std::string> members;
};

/**
 * Scheduling counters of a Simulator, for perf observability.
 */
struct KernelStats
{
    KernelMode mode = KernelMode::ActivityDriven;
    bool vidisan = false;        ///< shadow checker armed (Parallel only)
    unsigned threads = 1;        ///< worker-pool width (Parallel only)
    uint64_t cycles = 0;         ///< current cycle count
    uint64_t eval_passes = 0;    ///< settling passes executed
    uint64_t module_evals = 0;   ///< individual Module::eval() calls
    uint64_t cycles_skipped = 0; ///< cycles bulk-skipped while quiescent
    uint64_t skip_events = 0;    ///< number of bulk skips
    /** Per-module eval() call counts, in registration order. */
    std::vector<std::pair<std::string, uint64_t>> per_module_evals;
    /** Per-island counters (Parallel kernel only; else empty). */
    std::vector<IslandStats> islands;

    /** Max/mean ratio of per-island module_evals (1.0 = balanced;
     *  0.0 when there are no islands or no evals). */
    double islandImbalance() const;

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
    ~Simulator();

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
        invalidatePartition();
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
        invalidatePartition();
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
    void setKernelMode(KernelMode mode);
    KernelMode kernelMode() const { return mode_; }

    /**
     * Worker-thread budget of the Parallel kernel (>= 1; the other
     * modes ignore it). Thread count never affects results — only how
     * many islands evaluate concurrently.
     */
    void setSimThreads(unsigned threads);
    unsigned simThreads() const { return sim_threads_; }

    /** The VidiSan instance checking this simulator's parallel steps,
     *  or nullptr when not armed (see resolveVidiSanArmed()). */
    VidiSan *vidisan() const { return vidisan_.get(); }

    /**
     * The island cut the Parallel kernel would use, computed on demand
     * from the registered modules' footprint declarations.
     */
    const Partition &partition();

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
     * any registered module is not checkpointable. Under the Parallel
     * kernel this may only be called between steps — i.e. at the phase
     * barrier, when no worker is running; pending per-island skip
     * notifications are flushed first so module state is exact, and
     * worker-pool state itself is never part of the image.
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
    /** Runtime state of one island of the Parallel schedule. */
    struct IslandState
    {
        std::vector<Module *> modules;       ///< registration order
        std::vector<ChannelBase *> channels; ///< creation order
        bool residual = false;
        /** Settle flag: island channels' markDirty() raises this. */
        bool dirty = false;
        /** First cycle this island must execute again; valid only when
         *  wake_valid. */
        uint64_t wake = 0;
        bool wake_valid = false;
        /** First cycle of an unflushed skipped span, or kNoPending. */
        uint64_t pending_from = kNoPending;
        /// @name Cumulative counters (observability)
        /// @{
        uint64_t eval_passes = 0;
        uint64_t module_evals = 0;
        uint64_t cycles_executed = 0;
        uint64_t cycles_skipped = 0;
        /// @}
        /// @name Staged per-cycle effects, committed at the barrier
        /// @{
        uint64_t d_eval_passes = 0;
        uint64_t d_module_evals = 0;
        std::exception_ptr error;
        /// @}
    };

    static constexpr uint64_t kNoPending = ~uint64_t(0);

    void stepOnce();
    void settleFullEval();
    void settleActivity();
    void trySkip(uint64_t deadline);
    [[noreturn]] void settleOverflow();

    /// @name Parallel (island) engine
    /// @{
    /** Whether the island engine runs this step (Parallel mode and no
     *  calibration tracker installed). */
    bool parallelActive() const;
    void ensurePartition();
    void invalidatePartition();
    void ensurePool();
    void stepOnceParallel();
    void parallelTrySkip(uint64_t deadline);
    void runIslandCycle(IslandState &isl);
    void settleIsland(IslandState &isl);
    void flushIslandSkips(IslandState &isl);
    [[noreturn]] void settleOverflowIsland(const IslandState &isl);
    /// @}

    uint64_t cycle_ = 0;
    bool stop_requested_ = false;
    unsigned max_eval_iterations_ = 64;
    uint64_t total_eval_passes_ = 0;
    uint64_t module_evals_ = 0;
    uint64_t cycles_skipped_ = 0;
    uint64_t skip_events_ = 0;
    KernelMode mode_;
    unsigned sim_threads_ = 1;
    /** Arm VidiSan for parallel steps (compiled in by
     *  -DVIDI_SANITIZE=vidi or requested via the VIDI_SANITIZE=vidi
     *  environment variable when the simulator is constructed). */
    bool vidisan_requested_;
    /** Raised by any channel markDirty(); cleared per settling pass. */
    bool settle_dirty_ = false;
    /** True once a cycle has executed since reset (skips need a baseline). */
    bool settled_once_ = false;
    SimRandom rng_;

    std::vector<std::unique_ptr<Module>> modules_;
    std::vector<std::unique_ptr<ChannelBase>> channels_;
    std::unordered_map<std::string, size_t> channel_index_;

    std::unique_ptr<Partition> partition_;
    std::vector<IslandState> islands_;
    std::vector<size_t> active_; ///< islands executing this cycle
    std::unique_ptr<IslandPool> pool_;
    std::unique_ptr<VidiSan> vidisan_;
};

} // namespace vidi

#endif // VIDI_SIM_SIMULATOR_H
