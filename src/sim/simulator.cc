#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>

#include "checkpoint/state_io.h"
#include "par/island_pool.h"
#include "par/partition.h"
#include "par/vidisan.h"
#include "sim/access_tracker.h"
#include "sim/logging.h"

namespace vidi {

Simulator::Simulator(uint64_t seed)
    : mode_(resolveKernelMode(KernelMode::ActivityDriven)),
      sim_threads_(resolveSimThreads(1)),
      vidisan_requested_(resolveVidiSanArmed()), rng_(seed)
{
}

Simulator::~Simulator() = default;

void
Simulator::setKernelMode(KernelMode mode)
{
    if (mode == mode_)
        return;
    mode_ = mode;
    invalidatePartition();
}

void
Simulator::setSimThreads(unsigned threads)
{
    threads = std::max(threads, 1u);
    if (threads == sim_threads_)
        return;
    sim_threads_ = threads;
    pool_.reset(); // rebuilt lazily at the new width
}

const Partition &
Simulator::partition()
{
    ensurePartition();
    return *partition_;
}

void
Simulator::settleOverflow()
{
    std::string culprits;
    for (auto &ch : channels_) {
        if (ch->dirty()) {
            if (!culprits.empty())
                culprits += ", ";
            culprits += ch->name();
        }
    }
    panic("combinational loop detected at cycle %llu "
          "(unsettled channels: %s)",
          static_cast<unsigned long long>(cycle_), culprits.c_str());
}

void
Simulator::settleFullEval()
{
    // Reference schedule: evaluate all modules until no channel signal
    // changes across a full pass.
    const bool tracking = AccessTracker::current() != nullptr;
    unsigned iters = 0;
    while (true) {
        for (auto &ch : channels_)
            ch->clearDirty();
        for (auto &m : modules_) {
            if (tracking)
                AccessTracker::setContext(m.get(), SimPhase::Eval);
            m->eval();
            ++m->eval_count_;
            ++module_evals_;
        }
        if (tracking)
            AccessTracker::setContext(nullptr, SimPhase::None);
        ++total_eval_passes_;
        bool changed = false;
        for (auto &ch : channels_) {
            if (ch->dirty()) {
                changed = true;
                break;
            }
        }
        if (!changed)
            break;
        if (++iters >= max_eval_iterations_)
            settleOverflow();
    }
    settle_dirty_ = false;
}

void
Simulator::settleActivity()
{
    // Sensitivity-driven schedule. The seed pass runs every EveryCycle
    // module (their eval() may depend on state updated in tick());
    // settling passes run only modules whose sensitive channels changed
    // since their last eval. Modules in EveryCycle mode without declared
    // sensitivities conservatively run in every pass — exactly the
    // FullEval schedule for them. The combinational network is acyclic
    // with a unique fixpoint, so evaluating a subset per pass settles to
    // the same signal values as evaluating everyone.
    const bool tracking = AccessTracker::current() != nullptr;
    unsigned iters = 0;
    bool first = true;
    while (true) {
        for (auto &ch : channels_)
            ch->clearDirty();
        settle_dirty_ = false;
        for (auto &m : modules_) {
            bool run = false;
            switch (m->eval_mode_) {
            case EvalMode::Never:
                break;
            case EvalMode::OnDemand:
                run = m->needs_eval_;
                break;
            case EvalMode::EveryCycle:
                run = first || m->needs_eval_ || !m->has_sensitivities_;
                break;
            }
            if (run) {
                m->needs_eval_ = false;
                if (tracking)
                    AccessTracker::setContext(m.get(), SimPhase::Eval);
                m->eval();
                ++m->eval_count_;
                ++module_evals_;
            }
        }
        if (tracking)
            AccessTracker::setContext(nullptr, SimPhase::None);
        ++total_eval_passes_;
        if (!settle_dirty_)
            break;
        first = false;
        if (++iters >= max_eval_iterations_)
            settleOverflow();
    }
}

void
Simulator::stepOnce()
{
    // The sequential schedule must own the channel settle flags: if a
    // partition is live (e.g. Parallel mode falling back while a
    // calibration tracker is installed), tear it down first.
    if (partition_)
        invalidatePartition();
    if (mode_ == KernelMode::FullEval)
        settleFullEval();
    else
        settleActivity();

    // Sequential phase.
    const bool tracking = AccessTracker::current() != nullptr;
    for (auto &ch : channels_)
        ch->latch(cycle_);
    for (auto &m : modules_) {
        if (tracking)
            AccessTracker::setContext(m.get(), SimPhase::Tick);
        m->tick();
    }
    for (auto &m : modules_) {
        if (tracking)
            AccessTracker::setContext(m.get(), SimPhase::TickLate);
        m->tickLate();
    }
    if (tracking)
        AccessTracker::setContext(nullptr, SimPhase::None);
    for (auto &ch : channels_)
        ch->postTick();
    ++cycle_;
    settled_once_ = true;
}

void
Simulator::trySkip(uint64_t deadline)
{
    // The quiescence fast path may only engage from a settled baseline
    // with no pending signal change (settle_dirty_ is raised by any
    // markDirty(), including ones made between steps by external code).
    if (!settled_once_ || settle_dirty_)
        return;

    uint64_t wake = Module::kIdleForever;
    for (auto &m : modules_) {
        const uint64_t w = m->idleUntil(cycle_);
        if (w <= cycle_)
            return;
        wake = std::min(wake, w);
    }
    // An in-flight handshake would fire on every skipped cycle.
    for (auto &ch : channels_) {
        if (ch->valid() && ch->ready())
            return;
    }

    const uint64_t target = std::min(wake, deadline);
    if (target <= cycle_)
        return;
    for (auto &m : modules_)
        m->onCyclesSkipped(cycle_, target);
    cycles_skipped_ += target - cycle_;
    ++skip_events_;
    cycle_ = target;
}

bool
Simulator::parallelActive() const
{
    // Calibration tracking (vidi_lint) assumes single-threaded,
    // phase-tagged execution; while a tracker is installed the Parallel
    // mode falls back to the bit-identical sequential activity schedule.
    return mode_ == KernelMode::Parallel &&
           AccessTracker::current() == nullptr;
}

void
Simulator::ensurePartition()
{
    if (partition_)
        return;
    std::vector<const Module *> mods;
    mods.reserve(modules_.size());
    for (const auto &m : modules_)
        mods.push_back(m.get());
    std::vector<const ChannelBase *> chans;
    chans.reserve(channels_.size());
    for (const auto &ch : channels_)
        chans.push_back(ch.get());
    partition_ = std::make_unique<Partition>(
        computePartition(mods, chans));

    islands_.clear();
    islands_.resize(partition_->islands.size());
    for (size_t i = 0; i < islands_.size(); ++i) {
        const IslandDef &def = partition_->islands[i];
        IslandState &isl = islands_[i];
        isl.residual = def.residual;
        isl.modules.reserve(def.modules.size());
        for (const size_t mi : def.modules)
            isl.modules.push_back(modules_[mi].get());
        isl.channels.reserve(def.channels.size());
        for (const size_t ci : def.channels)
            isl.channels.push_back(channels_[ci].get());
        // No wake baseline yet (wake_valid=false): every island executes
        // its first cycle, absorbing any stale settle_dirty_ state.
    }
    // Re-route each channel's settle flag to its island so settling is
    // island-local — and so an undeclared cross-island write becomes a
    // plain data race that TSan can see.
    for (size_t ci = 0; ci < channels_.size(); ++ci)
        channels_[ci]->setSettleFlag(
            &islands_[partition_->channel_island[ci]].dirty);

    // Arm the domain race sanitizer when requested (VIDI_SANITIZE=vidi /
    // -DVIDI_SANITIZE=vidi).
    if (vidisan_requested_) {
        vidisan_ = std::make_unique<VidiSan>();
        vidisan_->arm(*partition_, mods, chans);
        vidisan_->setCycle(cycle_);
    }
}

void
Simulator::invalidatePartition()
{
    if (!partition_)
        return;
    // Flush deferred skip notifications so module state is exact under
    // whichever schedule runs next.
    for (IslandState &isl : islands_)
        flushIslandSkips(isl);
    for (auto &ch : channels_)
        ch->setSettleFlag(&settle_dirty_);
    // Conservative: the next settle/skip decision starts from a dirty
    // baseline (island-local dirtiness is lost in the teardown).
    settle_dirty_ = true;
    partition_.reset();
    islands_.clear();
    vidisan_.reset(); // disarms the global hook gate
}

void
Simulator::ensurePool()
{
    // Useful parallelism is capped by both the thread budget and the
    // island count; the stepping thread always participates, so the
    // pool holds one fewer worker.
    const size_t useful = std::min<size_t>(sim_threads_, islands_.size());
    const unsigned workers = useful > 1 ? unsigned(useful - 1) : 0;
    if (pool_ && pool_->workers() == workers)
        return;
    pool_.reset();
    if (workers > 0)
        pool_ = std::make_unique<IslandPool>(workers);
}

void
Simulator::flushIslandSkips(IslandState &isl)
{
    if (isl.pending_from == kNoPending)
        return;
    // onCyclesSkipped is linear in its span, so notifying lazily — once,
    // when the island next executes — is equivalent to the sequential
    // kernel's eager notification at each bulk skip.
    for (Module *m : isl.modules)
        m->onCyclesSkipped(isl.pending_from, cycle_);
    isl.cycles_skipped += cycle_ - isl.pending_from;
    isl.pending_from = kNoPending;
}

void
Simulator::settleOverflowIsland(const IslandState &isl)
{
    std::string culprits;
    for (const ChannelBase *ch : isl.channels) {
        if (ch->dirty()) {
            if (!culprits.empty())
                culprits += ", ";
            culprits += ch->name();
        }
    }
    panic("combinational loop detected at cycle %llu in island %s "
          "(unsettled channels: %s)",
          static_cast<unsigned long long>(cycle_),
          isl.modules.empty() ? "?" : isl.modules.front()->name().c_str(),
          culprits.c_str());
}

void
Simulator::settleIsland(IslandState &isl)
{
    // The sequential activity schedule, restricted to one island. The
    // island owns the settle flags of all its channels, so the loop is
    // fully island-local.
    const bool san = vidisan_ != nullptr;
    unsigned iters = 0;
    bool first = true;
    while (true) {
        for (ChannelBase *ch : isl.channels)
            ch->clearDirty();
        isl.dirty = false;
        for (Module *m : isl.modules) {
            bool run = false;
            switch (m->eval_mode_) {
            case EvalMode::Never:
                break;
            case EvalMode::OnDemand:
                run = m->needs_eval_;
                break;
            case EvalMode::EveryCycle:
                run = first || m->needs_eval_ || !m->has_sensitivities_;
                break;
            }
            if (run) {
                m->needs_eval_ = false;
                if (san)
                    VidiSan::setContext(m, SimPhase::Eval);
                m->eval();
                ++m->eval_count_;
                ++isl.d_module_evals;
            }
        }
        ++isl.d_eval_passes;
        if (!isl.dirty)
            break;
        first = false;
        if (++iters >= max_eval_iterations_)
            settleOverflowIsland(isl);
    }
}

void
Simulator::runIslandCycle(IslandState &isl)
{
    // Tag this thread with the executing island (and, per callback, the
    // module/phase) so VidiSan can attribute every channel access. The
    // scope is a no-op when the sanitizer is off.
    const bool san = vidisan_ != nullptr;
    VidiSan::IslandScope scope(vidisan_.get(),
                               size_t(&isl - islands_.data()));
    try {
        flushIslandSkips(isl);
        settleIsland(isl);
        if (san)
            VidiSan::setContext(nullptr, SimPhase::None);
        for (ChannelBase *ch : isl.channels)
            ch->latch(cycle_);
        for (Module *m : isl.modules) {
            if (san)
                VidiSan::setContext(m, SimPhase::Tick);
            m->tick();
        }
        for (Module *m : isl.modules) {
            if (san)
                VidiSan::setContext(m, SimPhase::TickLate);
            m->tickLate();
        }
        if (san)
            VidiSan::setContext(nullptr, SimPhase::None);
        for (ChannelBase *ch : isl.channels)
            ch->postTick();
        ++isl.cycles_executed;

        // Cache the island's next wake cycle from fresh module state,
        // exactly as the sequential fast path would compute it at
        // cycle_ + 1. Cross-island state is unobservable by contract,
        // and external (between-step) writes raise isl.dirty, so the
        // cache stays valid until this island runs again.
        const uint64_t now = cycle_ + 1;
        uint64_t wake = Module::kIdleForever;
        for (Module *m : isl.modules) {
            const uint64_t w = m->idleUntil(now);
            if (w <= now) {
                wake = now;
                break;
            }
            wake = std::min(wake, w);
        }
        if (wake > now) {
            // An in-flight handshake fires every cycle; no skipping.
            for (ChannelBase *ch : isl.channels) {
                if (ch->valid() && ch->ready()) {
                    wake = now;
                    break;
                }
            }
        }
        isl.wake = wake;
        isl.wake_valid = true;
    } catch (...) {
        // Staged; the barrier rethrows the lowest island's error so the
        // surfaced failure is independent of worker interleaving.
        isl.error = std::current_exception();
        isl.wake_valid = false;
    }
}

void
Simulator::stepOnceParallel()
{
    // Decide the active set on the stepping thread: an island executes
    // this cycle if external code dirtied one of its channels, if it
    // has no wake baseline yet, or if its cached wake cycle arrived.
    // Every other island extends its pending skip span — per-island
    // quiescence, composing with the bulk skip in parallelTrySkip().
    if (vidisan_)
        vidisan_->setCycle(cycle_);
    active_.clear();
    for (size_t i = 0; i < islands_.size(); ++i) {
        IslandState &isl = islands_[i];
        if (isl.dirty || !isl.wake_valid || isl.wake <= cycle_) {
            isl.d_eval_passes = 0;
            isl.d_module_evals = 0;
            active_.push_back(i);
        } else if (isl.pending_from == kNoPending) {
            isl.pending_from = cycle_;
        }
    }

    if (active_.size() > 1 && sim_threads_ > 1) {
        ensurePool();
        pool_->run(active_.size(), [this](size_t k) {
            runIslandCycle(islands_[active_[k]]);
        });
    } else {
        // Degenerate cases (a single busy island, or a 1-thread budget)
        // run inline in canonical order — identical results either way,
        // since islands are independent.
        for (const size_t i : active_)
            runIslandCycle(islands_[i]);
    }

    // The phase barrier: commit staged effects in fixed island order so
    // global counters and the surfaced error do not depend on which
    // worker ran what.
    std::exception_ptr first_error;
    for (const size_t i : active_) {
        IslandState &isl = islands_[i];
        total_eval_passes_ += isl.d_eval_passes;
        module_evals_ += isl.d_module_evals;
        isl.eval_passes += isl.d_eval_passes;
        isl.module_evals += isl.d_module_evals;
        if (isl.error && !first_error)
            first_error = isl.error;
        isl.error = nullptr;
        // Vector clocks advance at the barrier for each executed island;
        // the commit order is canonical, so clocks are deterministic.
        if (vidisan_)
            vidisan_->advanceClock(i);
    }
    if (first_error)
        std::rethrow_exception(first_error);
    ++cycle_;
    settled_once_ = true;
}

void
Simulator::parallelTrySkip(uint64_t deadline)
{
    if (!settled_once_)
        return;
    // The bulk skip engages only when every island is quiescent; wake
    // cycles come from the per-island caches (refreshed whenever an
    // island executes), so an idle design costs O(islands) here rather
    // than O(modules).
    uint64_t wake = Module::kIdleForever;
    for (const IslandState &isl : islands_) {
        if (isl.dirty || !isl.wake_valid || isl.wake <= cycle_)
            return;
        wake = std::min(wake, isl.wake);
    }
    const uint64_t target = std::min(wake, deadline);
    if (target <= cycle_)
        return;
    for (IslandState &isl : islands_) {
        if (isl.pending_from == kNoPending)
            isl.pending_from = cycle_;
    }
    cycles_skipped_ += target - cycle_;
    ++skip_events_;
    cycle_ = target;
}

void
Simulator::step()
{
    if (parallelActive()) {
        ensurePartition();
        stepOnceParallel();
        return;
    }
    stepOnce();
}

void
Simulator::stepUntil(uint64_t deadline)
{
    if (parallelActive()) {
        ensurePartition();
        if (cycle_ < deadline)
            parallelTrySkip(deadline);
        if (cycle_ >= deadline)
            return;
        stepOnceParallel();
        return;
    }
    // Parallel with a tracker installed falls through here and runs the
    // (bit-identical) sequential activity schedule, skips included. A
    // live partition must go first: trySkip reads the global settle
    // flag, which island channels would bypass.
    if (partition_)
        invalidatePartition();
    if (mode_ != KernelMode::FullEval && cycle_ < deadline)
        trySkip(deadline);
    if (cycle_ >= deadline)
        return;
    stepOnce();
}

bool
Simulator::run(uint64_t max_cycles)
{
    const uint64_t deadline = cycle_ + max_cycles;
    while (!stop_requested_ && cycle_ < deadline)
        stepUntil(deadline);
    return stop_requested_;
}

void
Simulator::reset()
{
    cycle_ = 0;
    stop_requested_ = false;
    total_eval_passes_ = 0;
    module_evals_ = 0;
    cycles_skipped_ = 0;
    skip_events_ = 0;
    settle_dirty_ = false;
    settled_once_ = false;
    // The island topology survives a reset, but all runtime scheduling
    // state restarts from the power-on baseline. Pending skip spans are
    // discarded, not flushed: module state is being reset anyway.
    for (IslandState &isl : islands_) {
        isl.dirty = false;
        isl.wake = 0;
        isl.wake_valid = false;
        isl.pending_from = kNoPending;
        isl.eval_passes = 0;
        isl.module_evals = 0;
        isl.cycles_executed = 0;
        isl.cycles_skipped = 0;
        isl.d_eval_passes = 0;
        isl.d_module_evals = 0;
        isl.error = nullptr;
    }
    for (auto &ch : channels_)
        ch->resetState();
    for (auto &m : modules_) {
        m->reset();
        m->needs_eval_ = true;
        m->eval_count_ = 0;
    }
}

ChannelBase *
Simulator::findChannel(const std::string &name) const
{
    auto it = channel_index_.find(name);
    if (it == channel_index_.end())
        return nullptr;
    return channels_[it->second].get();
}

KernelStats
Simulator::kernelStats() const
{
    KernelStats s;
    s.mode = mode_;
    s.threads = sim_threads_;
    s.vidisan = vidisan_ != nullptr;
    s.cycles = cycle_;
    s.eval_passes = total_eval_passes_;
    s.module_evals = module_evals_;
    s.cycles_skipped = cycles_skipped_;
    s.skip_events = skip_events_;
    s.per_module_evals.reserve(modules_.size());
    for (auto &m : modules_)
        s.per_module_evals.emplace_back(m->name(), m->eval_count_);
    s.islands.reserve(islands_.size());
    for (size_t ii = 0; ii < islands_.size(); ++ii) {
        const IslandState &isl = islands_[ii];
        IslandStats is;
        is.anchor = isl.modules.empty() ? std::string("(channels)")
                                        : isl.modules.front()->name();
        is.residual = isl.residual;
        is.modules = isl.modules.size();
        is.channels = isl.channels.size();
        is.eval_passes = isl.eval_passes;
        is.module_evals = isl.module_evals;
        is.cycles_executed = isl.cycles_executed;
        is.cycles_skipped = isl.cycles_skipped;
        // Per-member safety provenance: how each module earned (or
        // failed to earn) its island seat, with the witness that pinned
        // promoted modules inside the residual island.
        if (partition_ && ii < partition_->islands.size()) {
            const IslandDef &def = partition_->islands[ii];
            is.members.reserve(def.modules.size());
            for (const size_t mi : def.modules) {
                std::string entry = modules_[mi]->name();
                entry += " [";
                entry +=
                    safetyProvenanceName(partition_->module_safety[mi]);
                entry += "]";
                if (!partition_->residual_witness[mi].empty())
                    entry += " (witness: " +
                             partition_->residual_witness[mi] + ")";
                is.members.push_back(std::move(entry));
            }
        }
        s.islands.push_back(std::move(is));
    }
    return s;
}

double
KernelStats::islandImbalance() const
{
    if (islands.empty())
        return 0.0;
    uint64_t max = 0;
    uint64_t total = 0;
    for (const IslandStats &i : islands) {
        max = std::max(max, i.module_evals);
        total += i.module_evals;
    }
    if (total == 0)
        return 0.0;
    return double(max) * double(islands.size()) / double(total);
}

std::string
KernelStats::toString() const
{
    std::string out;
    out += "kernel mode:        ";
    out += kernelModeName(mode);
    out += "\n";
    auto line = [&out](const char *label, uint64_t v) {
        out += label;
        out += std::to_string(v);
        out += "\n";
    };
    if (mode == KernelMode::Parallel) {
        line("threads:            ", threads);
        if (vidisan)
            out += "vidisan armed\n";
        line("islands:            ", islands.size());
    }
    line("cycles:             ", cycles);
    line("eval passes:        ", eval_passes);
    line("module evals:       ", module_evals);
    line("cycles skipped:     ", cycles_skipped);
    line("skip events:        ", skip_events);
    if (!islands.empty()) {
        out += "per-island stats:\n";
        for (const IslandStats &i : islands) {
            out += "  ";
            out += i.anchor;
            if (i.residual)
                out += " [residual]";
            out += ": " + std::to_string(i.modules) + " modules, " +
                   std::to_string(i.module_evals) + " evals, " +
                   std::to_string(i.eval_passes) + " passes, " +
                   std::to_string(i.cycles_executed) + " executed, " +
                   std::to_string(i.cycles_skipped) + " skipped\n";
            for (const std::string &member : i.members)
                out += "    - " + member + "\n";
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", islandImbalance());
        out += "island imbalance:   ";
        out += buf;
        out += "\n";
    }
    out += "per-module evals:\n";
    for (const auto &[name, count] : per_module_evals) {
        out += "  ";
        out += name;
        out += ": ";
        out += std::to_string(count);
        out += "\n";
    }
    return out;
}

void
Simulator::saveState(StateWriter &w) const
{
    // Under the Parallel kernel a checkpoint commits only at the phase
    // barrier, where no worker is running and the only lazily deferred
    // module state is the pending skip notifications — flush them so
    // the image is exactly what the sequential kernel would have saved.
    // (logically const: observable simulation state is unchanged.)
    auto *self = const_cast<Simulator *>(this);
    for (IslandState &isl : self->islands_)
        self->flushIslandSkips(isl);

    const size_t kernel = w.beginSection("kernel");
    w.u64(cycle_);
    w.b(stop_requested_);
    w.u64(total_eval_passes_);
    w.u64(module_evals_);
    w.u64(cycles_skipped_);
    w.u64(skip_events_);
    w.b(settle_dirty_);
    w.b(settled_once_);
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (const uint64_t s : rng_state)
        w.u64(s);
    w.endSection(kernel);

    const size_t chans = w.beginSection("channels");
    w.u32(uint32_t(channels_.size()));
    for (const auto &ch : channels_) {
        w.str(ch->name());
        ch->saveState(w);
    }
    w.endSection(chans);

    const size_t mods = w.beginSection("modules");
    w.u32(uint32_t(modules_.size()));
    for (const auto &m : modules_) {
        if (!m->checkpointable())
            fatal("checkpoint: module %s does not support state "
                  "serialization — remove it from the design or "
                  "implement saveState/loadState",
                  m->name().c_str());
        const size_t sec = w.beginSection(m->name());
        w.b(m->needs_eval_);
        w.u64(m->eval_count_);
        m->saveState(w);
        w.endSection(sec);
    }
    w.endSection(mods);
}

void
Simulator::loadState(StateReader &r)
{
    StateReader kernel = r.enterSection("kernel");
    const uint64_t cycle = kernel.u64();
    const bool stop_requested = kernel.b();
    const uint64_t total_eval_passes = kernel.u64();
    const uint64_t module_evals = kernel.u64();
    const uint64_t cycles_skipped = kernel.u64();
    const uint64_t skip_events = kernel.u64();
    const bool settle_dirty = kernel.b();
    const bool settled_once = kernel.b();
    uint64_t rng_state[4];
    for (uint64_t &s : rng_state)
        s = kernel.u64();
    kernel.expectEnd();

    StateReader chans = r.enterSection("channels");
    const uint32_t nchan = chans.u32();
    if (nchan != channels_.size())
        fatal("checkpoint: design has %zu channels but the checkpoint "
              "holds %u — the session was built differently",
              channels_.size(), nchan);
    for (const auto &ch : channels_) {
        const std::string name = chans.str();
        if (name != ch->name())
            fatal("checkpoint: channel order mismatch (design has %s, "
                  "checkpoint has %s)",
                  ch->name().c_str(), name.c_str());
        ch->loadState(chans);
    }
    chans.expectEnd();

    StateReader mods = r.enterSection("modules");
    const uint32_t nmod = mods.u32();
    if (nmod != modules_.size())
        fatal("checkpoint: design has %zu modules but the checkpoint "
              "holds %u — the session was built differently",
              modules_.size(), nmod);
    for (const auto &m : modules_) {
        StateReader sec = mods.enterSection(m->name());
        m->needs_eval_ = sec.b();
        m->eval_count_ = sec.u64();
        m->loadState(sec);
        sec.expectEnd();
    }
    mods.expectEnd();

    // Kernel scalars last: channel/module restoration above may have
    // raised settle_dirty_ via markDirty(), and the saved value is the
    // one that reproduces the original schedule.
    cycle_ = cycle;
    stop_requested_ = stop_requested;
    total_eval_passes_ = total_eval_passes;
    module_evals_ = module_evals;
    cycles_skipped_ = cycles_skipped;
    skip_events_ = skip_events;
    settle_dirty_ = settle_dirty;
    settled_once_ = settled_once;
    rng_.setState(rng_state);

    // Island runtime state (wake caches, pending spans) is derived from
    // module state and rebuilds itself: with no wake baseline every
    // island executes the next cycle, and because idleUntil() is a pure
    // function of the restored state, the schedule thereafter matches an
    // uninterrupted run. Saved dirtiness propagates to every island.
    for (IslandState &isl : islands_) {
        isl.dirty = settle_dirty_;
        isl.wake_valid = false;
        isl.pending_from = kNoPending;
        isl.error = nullptr;
    }
}

} // namespace vidi
