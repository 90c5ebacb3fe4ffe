#include "lint/lint_passes.h"

#include <algorithm>
#include <functional>

#include "channel/channel.h"
#include "channel/passthrough.h"
#include "monitor/channel_monitor.h"
#include "sim/module.h"
#include "trace/packets.h"

namespace vidi {

namespace {

std::string
signalName(const ChannelNode &cn, SignalSide side)
{
    return cn.name +
           (side == SignalSide::Forward ? ".fwd(valid/data)"
                                        : ".rev(ready)");
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const auto &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

/**
 * Tarjan strongly-connected components over a small adjacency list.
 */
class Tarjan
{
  public:
    explicit Tarjan(const std::vector<std::vector<int>> &adj) : adj_(adj)
    {
        const size_t n = adj.size();
        index_.assign(n, -1);
        low_.assign(n, 0);
        on_stack_.assign(n, false);
        for (size_t v = 0; v < n; ++v) {
            if (index_[v] < 0)
                strongConnect(static_cast<int>(v));
        }
    }

    const std::vector<std::vector<int>> &sccs() const { return sccs_; }

  private:
    void
    strongConnect(int v)
    {
        index_[v] = low_[v] = next_index_++;
        stack_.push_back(v);
        on_stack_[v] = true;
        for (int w : adj_[v]) {
            if (index_[w] < 0) {
                strongConnect(w);
                low_[v] = std::min(low_[v], low_[w]);
            } else if (on_stack_[w]) {
                low_[v] = std::min(low_[v], index_[w]);
            }
        }
        if (low_[v] == index_[v]) {
            std::vector<int> scc;
            int w;
            do {
                w = stack_.back();
                stack_.pop_back();
                on_stack_[w] = false;
                scc.push_back(w);
            } while (w != v);
            sccs_.push_back(std::move(scc));
        }
    }

    const std::vector<std::vector<int>> &adj_;
    std::vector<int> index_;
    std::vector<int> low_;
    std::vector<bool> on_stack_;
    std::vector<int> stack_;
    std::vector<std::vector<int>> sccs_;
    int next_index_ = 0;
};

} // namespace

void
passCombinationalLoops(const DesignGraph &g, LintReport &report)
{
    // Bipartite dependency graph over eval()-phase accesses only:
    // nodes [0, M) are modules, node M + 2*c + s is signal s of channel c.
    // A module that eval-drives a signal depends-on→ nothing through it;
    // the edge direction is "value flows": signal → reader module,
    // driver module → signal. A cycle therefore means some signal's
    // settled value combinationally depends on itself.
    const size_t num_modules = g.modules.size();
    const size_t num_nodes = num_modules + 2 * g.channels.size();
    std::vector<std::vector<int>> adj(num_nodes);

    auto signalNode = [&](size_t chan, SignalSide side) {
        return static_cast<int>(num_modules + 2 * chan +
                                (side == SignalSide::Reverse ? 1 : 0));
    };

    for (size_t c = 0; c < g.channels.size(); ++c) {
        const ChannelNode &cn = g.channels[c];
        for (SignalSide side : {SignalSide::Forward, SignalSide::Reverse}) {
            const SignalAccess &sa = cn.side(side);
            const int snode = signalNode(c, side);
            for (const Module *m : sa.eval_drivers) {
                auto it = g.module_index.find(m);
                if (it != g.module_index.end())
                    adj[it->second].push_back(snode);
            }
            for (const Module *m : sa.eval_readers) {
                // A module reading back a signal it drives itself is
                // Mealy-style output observation (e.g. "did my push get
                // accepted"), not a dependency on another driver.
                if (sa.eval_drivers.count(m) != 0)
                    continue;
                auto it = g.module_index.find(m);
                if (it != g.module_index.end())
                    adj[snode].push_back(static_cast<int>(it->second));
            }
        }
    }

    Tarjan tarjan(adj);
    for (const auto &scc : tarjan.sccs()) {
        if (scc.size() < 2)
            continue;
        std::vector<std::string> member_names;
        std::string subject;
        for (int node : scc) {
            if (node < static_cast<int>(num_modules)) {
                const ModuleNode &mn = g.modules[node];
                if (subject.empty())
                    subject = mn.name;
                member_names.push_back("module '" + mn.name + "'");
            } else {
                const size_t rel = node - num_modules;
                const ChannelNode &cn = g.channels[rel / 2];
                const SignalSide side = (rel % 2) != 0
                                            ? SignalSide::Reverse
                                            : SignalSide::Forward;
                member_names.push_back("signal " + signalName(cn, side));
            }
        }
        std::reverse(member_names.begin(), member_names.end());
        report.add(LintSeverity::Error, "comb-loop", "combinational-loop",
                   subject,
                   "eval()-phase reads and drives form a combinational "
                   "cycle with no unique fixpoint — the settle loop's "
                   "result depends on module registration order (or never "
                   "settles): " +
                       joinNames(member_names));
    }
}

void
passBoundaryCoverage(const DesignGraph &g, LintReport &report)
{
    for (const auto &pair : g.boundary) {
        if (pair.monitor != nullptr || pair.replayer != nullptr)
            continue;
        std::string message =
            "channel crosses the record/replay boundary without a "
            "ChannelMonitor";
        if (pair.bridge != nullptr) {
            message += " (bridged transparently by '" +
                       pair.bridge->name() + "')";
        } else {
            message += " (no interposer connects its outer and inner "
                       "instances)";
        }
        const uint64_t crossed =
            pair.outer != nullptr ? pair.outer->firedCount() : 0;
        if (crossed > 0) {
            message += "; " + std::to_string(crossed) +
                       " transaction(s) crossed unrecorded during "
                       "calibration — a silent-nondeterminism hole: a "
                       "replay of this trace cannot reproduce them";
        } else {
            message += "; any transaction on it would be invisible to "
                       "replay";
        }
        report.add(LintSeverity::Error, "boundary-coverage",
                   "unmonitored-boundary-channel", pair.name,
                   std::move(message));
    }
}

void
passSensitivitySoundness(const DesignGraph &g, LintReport &report)
{
    for (const auto &mn : g.modules) {
        if (mn.mode == EvalMode::Never) {
            // The calibration run uses FullEval, which calls eval() even
            // on Never modules — so a non-empty eval() shows up here.
            for (const auto &cn : g.channels) {
                for (SignalSide side :
                     {SignalSide::Forward, SignalSide::Reverse}) {
                    const SignalAccess &sa = cn.side(side);
                    if (sa.eval_readers.count(mn.module) == 0 &&
                        sa.eval_drivers.count(mn.module) == 0)
                        continue;
                    report.add(
                        LintSeverity::Error, "sensitivity",
                        "never-mode-eval", mn.name,
                        "declared EvalMode::Never but its eval() touched " +
                            signalName(cn, side) +
                            " during the FullEval calibration run; the "
                            "activity-driven kernel never calls this "
                            "eval(), so the two kernels diverge");
                    goto next_module;  // one finding per module suffices
                }
            }
            goto next_module;
        }

        {
            // OnDemand evals are skipped unless a *declared* channel
            // changed; EveryCycle-with-sensitivities evals are skipped in
            // settling passes (but re-seeded each cycle), which narrows
            // the hazard to intra-cycle staleness — hence Warning.
            const bool on_demand = mn.mode == EvalMode::OnDemand;
            if (!on_demand && !mn.has_sensitivities)
                goto next_module;

            for (const auto &cn : g.channels) {
                const bool declared =
                    std::find(mn.declared.begin(), mn.declared.end(),
                              cn.channel) != mn.declared.end();
                if (declared)
                    continue;
                for (SignalSide side :
                     {SignalSide::Forward, SignalSide::Reverse}) {
                    const SignalAccess &sa = cn.side(side);
                    if (sa.eval_readers.count(mn.module) == 0)
                        continue;
                    // Reading back its own drive needs no wakeup — the
                    // module itself is the only source of change.
                    if (sa.eval_drivers.count(mn.module) != 0)
                        continue;
                    report.add(
                        on_demand ? LintSeverity::Error
                                  : LintSeverity::Warning,
                        "sensitivity", "under-declared-sensitivity",
                        mn.name,
                        "eval() reads " + signalName(cn, side) +
                            " but the module never declared sensitive(" +
                            cn.name +
                            "); under KernelMode::ActivityDriven its "
                            "eval() is not re-run when that signal "
                            "changes, diverging from the FullEval "
                            "reference schedule");
                    break;  // one finding per (module, channel)
                }
            }
        }
    next_module:;
    }
}

void
passStructural(const DesignGraph &g, LintReport &report)
{
    for (const auto &cn : g.channels) {
        for (SignalSide side : {SignalSide::Forward, SignalSide::Reverse}) {
            const auto drivers = cn.side(side).allDrivers();
            if (drivers.size() >= 2) {
                std::vector<std::string> names;
                for (const Module *m : drivers) {
                    const ModuleNode *mn = g.find(m);
                    names.push_back(mn != nullptr ? mn->name : "?");
                }
                std::sort(names.begin(), names.end());
                report.add(LintSeverity::Error, "structural",
                           "multiple-drivers", signalName(cn, side),
                           "signal is driven by " +
                               std::to_string(names.size()) +
                               " modules (" + joinNames(names) +
                               "); the settled value depends on module "
                               "registration order");
            }
        }

        const bool driven = !cn.fwd.allDrivers().empty() ||
                            !cn.rev.allDrivers().empty();
        const bool observed =
            !cn.fwd.eval_readers.empty() || !cn.fwd.seq_readers.empty() ||
            !cn.rev.eval_readers.empty() || !cn.rev.seq_readers.empty() ||
            !cn.channel->listeners().empty();
        if (!driven && observed) {
            report.add(LintSeverity::Warning, "structural",
                       "undriven-channel", cn.name,
                       "no module ever drives this channel (either side) "
                       "yet it is read or listened to — its observers can "
                       "only ever see the reset value");
        }
    }

    // Monitors must interpose exactly on boundary pairs; one anywhere
    // else records events outside the trace's vector-clock domain.
    for (const auto &mn : g.modules) {
        if (mn.role != ModuleRole::Monitor)
            continue;
        const auto *mon = dynamic_cast<const ChannelMonitor *>(mn.module);
        bool on_boundary = false;
        for (const auto &pair : g.boundary) {
            if (pair.monitor == mon) {
                on_boundary = true;
                break;
            }
        }
        if (!on_boundary) {
            report.add(LintSeverity::Warning, "structural",
                       "monitor-outside-boundary", mn.name,
                       "ChannelMonitor interposes on channels that are "
                       "not a record/replay boundary pair; its events are "
                       "outside the trace's vector-clock domain");
        }
    }

    if (g.boundary.size() > kMaxChannels) {
        report.add(LintSeverity::Error, "structural", "vector-clock-width",
                   "boundary",
                   "boundary has " + std::to_string(g.boundary.size()) +
                       " channels but the trace format's vector clock "
                       "(and per-cycle event bitvectors) hold kMaxChannels"
                       " = " +
                       std::to_string(kMaxChannels) + " components");
    }

    // Distinct monitors writing the same trace channel index would
    // interleave their events into one logical clock component.
    std::map<size_t, std::vector<std::string>> by_index;
    for (const auto &pair : g.boundary) {
        if (pair.monitor != nullptr)
            by_index[pair.monitor->channelIndex()].push_back(
                pair.monitor->name());
    }
    for (const auto &[index, names] : by_index) {
        if (names.size() < 2)
            continue;
        report.add(LintSeverity::Error, "structural",
                   "duplicate-channel-index",
                   "channel " + std::to_string(index),
                   "monitors " + joinNames(names) +
                       " share trace channel index " +
                       std::to_string(index) +
                       "; their events would interleave into one "
                       "vector-clock component");
    }
}

void
runLintPasses(const DesignGraph &g, LintReport &report)
{
    passCombinationalLoops(g, report);
    passBoundaryCoverage(g, report);
    passSensitivitySoundness(g, report);
    passStructural(g, report);
}

} // namespace vidi
