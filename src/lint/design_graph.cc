#include "lint/design_graph.h"

#include "channel/channel.h"
#include "channel/passthrough.h"
#include "core/boundary.h"
#include "monitor/channel_monitor.h"
#include "replay/channel_replayer.h"
#include "sim/simulator.h"

namespace vidi {

std::set<const Module *>
SignalAccess::allDrivers() const
{
    std::set<const Module *> out = eval_drivers;
    out.insert(seq_drivers.begin(), seq_drivers.end());
    return out;
}

SignalAccess &
ElabTracker::slot(const ChannelBase &ch, SignalSide side)
{
    PerChannel &pc = channels_[&ch];
    return side == SignalSide::Forward ? pc.fwd : pc.rev;
}

void
ElabTracker::noteRead(const ChannelBase &ch, SignalSide side,
                      const Module *m, SimPhase phase)
{
    // Accesses from outside any module (driver loops, the shim) carry no
    // scheduling obligation and are not part of the design graph.
    if (m == nullptr)
        return;
    SignalAccess &sa = slot(ch, side);
    if (phase == SimPhase::Eval)
        sa.eval_readers.insert(m);
    else
        sa.seq_readers.insert(m);
}

void
ElabTracker::noteDrive(const ChannelBase &ch, SignalSide side,
                       const Module *m, SimPhase phase)
{
    if (m == nullptr)
        return;
    SignalAccess &sa = slot(ch, side);
    if (phase == SimPhase::Eval)
        sa.eval_drivers.insert(m);
    else
        sa.seq_drivers.insert(m);
}

const SignalAccess &
ElabTracker::access(const ChannelBase *ch, SignalSide side) const
{
    static const SignalAccess kEmpty;
    auto it = channels_.find(ch);
    if (it == channels_.end())
        return kEmpty;
    return side == SignalSide::Forward ? it->second.fwd : it->second.rev;
}

const char *
moduleRoleName(ModuleRole role)
{
    switch (role) {
    case ModuleRole::Plain: return "plain";
    case ModuleRole::Monitor: return "monitor";
    case ModuleRole::Bridge: return "bridge";
    case ModuleRole::Replayer: return "replayer";
    }
    return "?";
}

const ModuleNode *
DesignGraph::find(const Module *m) const
{
    auto it = module_index.find(m);
    return it == module_index.end() ? nullptr : &modules[it->second];
}

const ChannelNode *
DesignGraph::find(const ChannelBase *ch) const
{
    auto it = channel_index.find(ch);
    return it == channel_index.end() ? nullptr : &channels[it->second];
}

std::string
DesignGraph::summary() const
{
    size_t monitored = 0;
    size_t bridged = 0;
    size_t replayed = 0;
    size_t bare = 0;
    for (const auto &pair : boundary) {
        if (pair.monitor != nullptr)
            ++monitored;
        else if (pair.replayer != nullptr)
            ++replayed;
        else if (pair.bridge != nullptr)
            ++bridged;
        else
            ++bare;
    }
    std::string out = "design: " + std::to_string(modules.size()) +
                      " modules, " + std::to_string(channels.size()) +
                      " channels, " + std::to_string(boundary.size()) +
                      " boundary channels (" + std::to_string(monitored) +
                      " monitored, " + std::to_string(bridged) +
                      " bridged, " + std::to_string(replayed) +
                      " replayed, " + std::to_string(bare) +
                      " uninterposed)";
    return out;
}

DesignGraph
elaborateDesign(const Simulator &sim, const Boundary *boundary,
                const ElabTracker &tracker)
{
    DesignGraph g;

    g.modules.reserve(sim.modules().size());
    for (const auto &m : sim.modules()) {
        ModuleNode node;
        node.module = m.get();
        node.name = m->name();
        node.mode = m->evalMode();
        node.has_sensitivities = m->hasSensitivities();
        if (dynamic_cast<const ChannelMonitor *>(m.get()) != nullptr)
            node.role = ModuleRole::Monitor;
        else if (dynamic_cast<const Passthrough *>(m.get()) != nullptr)
            node.role = ModuleRole::Bridge;
        else if (dynamic_cast<const ChannelReplayer *>(m.get()) != nullptr)
            node.role = ModuleRole::Replayer;
        g.module_index.emplace(m.get(), g.modules.size());
        g.modules.push_back(std::move(node));
    }

    g.channels.reserve(sim.channels().size());
    for (const auto &ch : sim.channels()) {
        ChannelNode node;
        node.channel = ch.get();
        node.name = ch->name();
        node.fwd = tracker.access(ch.get(), SignalSide::Forward);
        node.rev = tracker.access(ch.get(), SignalSide::Reverse);
        g.channel_index.emplace(ch.get(), g.channels.size());
        g.channels.push_back(std::move(node));

        // Sensitivity declarations are stored on the channel (listener
        // lists); fold them back into per-module declared sets.
        for (Module *listener : ch->listeners()) {
            auto it = g.module_index.find(listener);
            if (it != g.module_index.end())
                g.modules[it->second].declared.push_back(ch.get());
        }
    }

    if (boundary != nullptr) {
        g.boundary.reserve(boundary->size());
        for (const auto &bc : boundary->channels()) {
            BoundaryPair pair;
            pair.name = bc.name;
            pair.input = bc.input;
            pair.outer = bc.outer;
            pair.inner = bc.inner;
            const int idx = static_cast<int>(g.boundary.size());
            if (auto it = g.channel_index.find(bc.outer);
                it != g.channel_index.end()) {
                g.channels[it->second].boundary_index = idx;
                g.channels[it->second].is_outer = true;
            }
            if (auto it = g.channel_index.find(bc.inner);
                it != g.channel_index.end()) {
                g.channels[it->second].boundary_index = idx;
                g.channels[it->second].is_inner = true;
            }
            g.boundary.push_back(std::move(pair));
        }

        // Resolve each pair's interposer: whichever monitor / bridge /
        // replayer connects the pair's outer and inner instances (in
        // either orientation — the direction of src/dst depends on the
        // channel's direction).
        auto matches = [](const ChannelBase &a, const ChannelBase &b,
                          const BoundaryPair &pair) {
            return (&a == pair.outer && &b == pair.inner) ||
                   (&a == pair.inner && &b == pair.outer);
        };
        for (const auto &m : sim.modules()) {
            if (const auto *mon =
                    dynamic_cast<const ChannelMonitor *>(m.get())) {
                for (auto &pair : g.boundary) {
                    if (matches(mon->srcChannel(), mon->dstChannel(), pair))
                        pair.monitor = mon;
                }
            } else if (const auto *bridge =
                           dynamic_cast<const Passthrough *>(m.get())) {
                for (auto &pair : g.boundary) {
                    if (matches(bridge->srcChannel(), bridge->dstChannel(),
                                pair))
                        pair.bridge = bridge;
                }
            } else if (const auto *rep =
                           dynamic_cast<const ChannelReplayer *>(m.get())) {
                for (auto &pair : g.boundary) {
                    if (&rep->innerChannel() == pair.inner)
                        pair.replayer = rep;
                }
            }
        }
    }

    return g;
}

} // namespace vidi
