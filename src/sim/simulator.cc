#include "sim/simulator.h"

#include <algorithm>

#include "checkpoint/state_io.h"
#include "sim/access_tracker.h"
#include "sim/logging.h"

namespace vidi {

Simulator::Simulator(uint64_t seed)
    : mode_(resolveKernelMode(KernelMode::ActivityDriven)), rng_(seed)
{
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

void
Simulator::step()
{
    stepOnce();
}

void
Simulator::stepUntil(uint64_t deadline)
{
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
    s.cycles = cycle_;
    s.eval_passes = total_eval_passes_;
    s.module_evals = module_evals_;
    s.cycles_skipped = cycles_skipped_;
    s.skip_events = skip_events_;
    s.per_module_evals.reserve(modules_.size());
    for (auto &m : modules_)
        s.per_module_evals.emplace_back(m->name(), m->eval_count_);
    return s;
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
    line("cycles:             ", cycles);
    line("eval passes:        ", eval_passes);
    line("module evals:       ", module_evals);
    line("cycles skipped:     ", cycles_skipped);
    line("skip events:        ", skip_events);
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
}

} // namespace vidi
