#include "lint/interference.h"

#include <algorithm>
#include <map>
#include <set>

#include "channel/channel.h"
#include "sim/module.h"

namespace vidi {

namespace {

std::string
signalName(const ChannelNode &cn, SignalSide side)
{
    return cn.name +
           (side == SignalSide::Forward ? ".fwd(valid/data)"
                                        : ".rev(ready)");
}

/** Observed access directions of one module on one channel. */
struct ObservedDirs
{
    bool read = false;
    bool write = false;
};

/** Human-readable list of every observed access @p m made to @p cn. */
std::string
describeAccesses(const ChannelNode &cn, const Module *m)
{
    std::string out;
    auto append = [&out](const std::string &s) {
        if (!out.empty())
            out += ", ";
        out += s;
    };
    for (SignalSide side : {SignalSide::Forward, SignalSide::Reverse}) {
        const SignalAccess &sa = cn.side(side);
        if (sa.eval_readers.count(m) != 0)
            append("eval-phase read of " + signalName(cn, side));
        if (sa.eval_drivers.count(m) != 0)
            append("eval-phase drive of " + signalName(cn, side));
        if (sa.seq_readers.count(m) != 0)
            append("tick-phase read of " + signalName(cn, side));
        if (sa.seq_drivers.count(m) != 0)
            append("tick-phase drive of " + signalName(cn, side));
    }
    return out;
}

/** Whether @p mn's footprint (declared or sensitive()) lists @p ch. */
bool
inFootprint(const ModuleNode &mn, const ChannelBase *ch)
{
    for (const FootprintChannel &fc : mn.footprint) {
        if (fc.channel == ch)
            return true;
    }
    return false;
}

/** Every module that observedly touched @p cn, in registration order. */
std::vector<const Module *>
touchers(const DesignGraph &g, const ChannelNode &cn)
{
    std::set<const Module *> set;
    for (SignalSide side : {SignalSide::Forward, SignalSide::Reverse}) {
        const SignalAccess &sa = cn.side(side);
        set.insert(sa.eval_readers.begin(), sa.eval_readers.end());
        set.insert(sa.eval_drivers.begin(), sa.eval_drivers.end());
        set.insert(sa.seq_readers.begin(), sa.seq_readers.end());
        set.insert(sa.seq_drivers.begin(), sa.seq_drivers.end());
    }
    std::vector<const Module *> out(set.begin(), set.end());
    std::sort(out.begin(), out.end(),
              [&g](const Module *a, const Module *b) {
                  return g.module_index.at(a) < g.module_index.at(b);
              });
    return out;
}

/** First toucher of @p cn other than @p self, or nullptr. */
const Module *
otherToucher(const DesignGraph &g, const ChannelNode &cn, const Module *self)
{
    for (const Module *m : touchers(g, cn)) {
        if (m != self)
            return m;
    }
    return nullptr;
}

/** The access-pair witness for @p self's access to @p cn. */
std::string
witnessDetail(const DesignGraph &g, const ChannelNode &cn,
              const Module *self)
{
    std::string detail = describeAccesses(cn, self);
    if (const Module *other = otherToucher(g, cn, self)) {
        const ModuleNode *on = g.find(other);
        detail += "; channel also touched by '" +
                  (on != nullptr ? on->name : std::string("?")) + "' (" +
                  describeAccesses(cn, other) + ")";
    }
    return detail;
}

/** Synthesize the footprint declaration observation would support. */
std::string
synthesizeFootprint(const DesignGraph &g, const ModuleNode &mn)
{
    std::string reads;
    std::string writes;
    for (const auto &cn : g.channels) {
        ObservedDirs d;
        for (SignalSide side : {SignalSide::Forward, SignalSide::Reverse}) {
            const SignalAccess &sa = cn.side(side);
            d.read = d.read || sa.eval_readers.count(mn.module) != 0 ||
                     sa.seq_readers.count(mn.module) != 0;
            d.write = d.write || sa.eval_drivers.count(mn.module) != 0 ||
                      sa.seq_drivers.count(mn.module) != 0;
        }
        if (d.read) {
            if (!reads.empty())
                reads += ", ";
            reads += cn.name;
        }
        if (d.write) {
            if (!writes.empty())
                writes += ", ";
            writes += cn.name;
        }
    }
    if (reads.empty() && writes.empty())
        return "no declareFootprint() contract; calibration observed no "
               "channel accesses at all — declareFootprint() alone would "
               "prove it";
    std::string out = "no declareFootprint() contract; the observed "
                      "footprint it would need to declare: ";
    if (!reads.empty())
        out += "reads [" + reads + "]";
    if (!writes.empty()) {
        if (!reads.empty())
            out += ", ";
        out += "writes [" + writes + "]";
    }
    return out;
}

} // namespace

const char *
interferenceVerdictName(InterferenceVerdict v)
{
    switch (v) {
    case InterferenceVerdict::Proven:
        return "proven";
    case InterferenceVerdict::Unsafe:
        return "unsafe";
    case InterferenceVerdict::Unknown:
        return "unknown";
    }
    return "?";
}

InterferenceResult
analyzeInterference(const DesignGraph &g)
{
    InterferenceResult r;
    r.modules.resize(g.modules.size());

    // The island cut the Parallel kernel builds from the contracts.
    std::vector<const Module *> modules;
    modules.reserve(g.modules.size());
    for (const auto &mn : g.modules)
        modules.push_back(mn.module);
    std::vector<const ChannelBase *> channels;
    channels.reserve(g.channels.size());
    for (const auto &cn : g.channels)
        channels.push_back(cn.channel);
    const Partition part = computePartition(modules, channels);
    r.islands = part.islandCount();
    r.residual_modules = part.residualModules();

    // Per-module verdicts: observed ⊆ declared.
    for (size_t mi = 0; mi < g.modules.size(); ++mi) {
        const ModuleNode &mn = g.modules[mi];
        ModuleInterference &out = r.modules[mi];
        out.module = mn.name;
        out.provenance = part.module_safety[mi];
        out.has_contract = mn.footprint_declared;
        out.island = part.module_island[mi];

        if (!out.has_contract) {
            out.verdict = InterferenceVerdict::Unknown;
            out.missing = synthesizeFootprint(g, mn);
            continue;
        }

        // Declared direction bits per channel: each footprint entry
        // licenses exactly its bits (a sensitive() entry is a read).
        std::map<const ChannelBase *, uint8_t> declared;
        for (const FootprintChannel &fc : mn.footprint)
            declared[fc.channel] = uint8_t(fc.dir);

        for (const auto &cn : g.channels) {
            ObservedDirs d;
            for (SignalSide side :
                 {SignalSide::Forward, SignalSide::Reverse}) {
                const SignalAccess &sa = cn.side(side);
                d.read = d.read ||
                         sa.eval_readers.count(mn.module) != 0 ||
                         sa.seq_readers.count(mn.module) != 0;
                d.write = d.write ||
                          sa.eval_drivers.count(mn.module) != 0 ||
                          sa.seq_drivers.count(mn.module) != 0;
            }
            if (!d.read && !d.write)
                continue;
            const auto it = declared.find(cn.channel);
            const uint8_t have =
                it != declared.end() ? it->second : uint8_t(0);
            const uint8_t need =
                uint8_t((d.read ? uint8_t(FootprintDir::Read) : 0) |
                        (d.write ? uint8_t(FootprintDir::Write) : 0));
            if ((need & ~have) == 0)
                continue;
            InterferenceWitness w;
            w.channel = cn.name;
            if (have == 0) {
                w.detail = "undeclared channel: " +
                           witnessDetail(g, cn, mn.module);
            } else {
                w.detail =
                    "declared " +
                    std::string(have == uint8_t(FootprintDir::Read)
                                    ? "read-only"
                                    : "write-only") +
                    " but calibration observed " +
                    witnessDetail(g, cn, mn.module);
            }
            out.witnesses.push_back(std::move(w));
        }
        out.verdict = out.witnesses.empty() ? InterferenceVerdict::Proven
                                            : InterferenceVerdict::Unsafe;
    }

    // Cross-island residual hazard: an uncontracted module observedly
    // touching a channel the cut assigns elsewhere. The partitioner
    // cannot see the access (it is undeclared), so the cut would let it
    // cross islands at runtime — promoting the channel's claimants is
    // unsound until the toucher declares. Downgrade them with a witness.
    for (size_t mi = 0; mi < g.modules.size(); ++mi) {
        const ModuleNode &mn = g.modules[mi];
        if (r.modules[mi].has_contract)
            continue;
        for (size_t ci = 0; ci < g.channels.size(); ++ci) {
            const ChannelNode &cn = g.channels[ci];
            const size_t owner = part.channel_island[ci];
            if (owner == part.module_island[mi])
                continue;
            bool touched = false;
            for (SignalSide side :
                 {SignalSide::Forward, SignalSide::Reverse}) {
                const SignalAccess &sa = cn.side(side);
                touched = touched ||
                          sa.eval_readers.count(mn.module) != 0 ||
                          sa.eval_drivers.count(mn.module) != 0 ||
                          sa.seq_readers.count(mn.module) != 0 ||
                          sa.seq_drivers.count(mn.module) != 0;
            }
            if (!touched)
                continue;
            for (size_t oi = 0; oi < g.modules.size(); ++oi) {
                const ModuleNode &on = g.modules[oi];
                if (!r.modules[oi].has_contract ||
                    part.module_island[oi] != owner ||
                    !inFootprint(on, cn.channel))
                    continue;
                InterferenceWitness w;
                w.channel = cn.name;
                w.residual_reach = true;
                w.detail = "undeclared module '" + mn.name +
                           "' reaches this claimed channel: " +
                           describeAccesses(cn, mn.module) +
                           " — promotion is unsound until '" + mn.name +
                           "' declares its footprint";
                r.modules[oi].witnesses.push_back(std::move(w));
                r.modules[oi].verdict = InterferenceVerdict::Unsafe;
            }
        }
    }

    for (const ModuleInterference &m : r.modules) {
        switch (m.verdict) {
        case InterferenceVerdict::Proven:
            ++r.proven;
            break;
        case InterferenceVerdict::Unsafe:
            ++r.unsafe;
            break;
        case InterferenceVerdict::Unknown:
            ++r.unknown;
            break;
        }
    }

    // Pairwise interference graph: one edge per channel shared by two
    // modules (observed or declared — footprint entries count even if
    // calibration never exercised them).
    for (const auto &cn : g.channels) {
        std::set<const Module *> set;
        for (const Module *m : touchers(g, cn))
            set.insert(m);
        for (const auto &mn : g.modules) {
            if (inFootprint(mn, cn.channel))
                set.insert(mn.module);
        }
        std::vector<const Module *> mods(set.begin(), set.end());
        std::sort(mods.begin(), mods.end(),
                  [&g](const Module *a, const Module *b) {
                      return g.module_index.at(a) < g.module_index.at(b);
                  });
        for (size_t i = 0; i < mods.size(); ++i) {
            for (size_t j = i + 1; j < mods.size(); ++j) {
                InterferenceEdge e;
                e.a = g.find(mods[i])->name;
                e.b = g.find(mods[j])->name;
                e.channel = cn.name;
                r.edges.push_back(std::move(e));
            }
        }
    }

    return r;
}

std::string
InterferenceResult::toString() const
{
    std::string out = "interference analysis: " +
                      std::to_string(modules.size()) + " modules, " +
                      std::to_string(edges.size()) +
                      " interference edges\n";
    out += "  verdicts: " + std::to_string(proven) + " proven, " +
           std::to_string(unsafe) + " unsafe, " + std::to_string(unknown) +
           " unknown\n";
    out += "  island cut: " + std::to_string(islands) + " island(s), " +
           std::to_string(residual_modules) + " residual module(s)\n";
    for (const ModuleInterference &m : modules) {
        out += "  " + m.module + ": " +
               interferenceVerdictName(m.verdict) + " [" +
               safetyProvenanceName(m.provenance) + "]";
        if (m.verdict == InterferenceVerdict::Unknown)
            out += " — " + m.missing;
        out += "\n";
        for (const InterferenceWitness &w : m.witnesses)
            out += "    witness: channel '" + w.channel + "' — " +
                   w.detail + "\n";
    }
    return out;
}

JsonValue
InterferenceResult::toJson() const
{
    JsonValue root = JsonValue::object();
    JsonValue mods = JsonValue::array();
    for (const ModuleInterference &m : modules) {
        JsonValue jm = JsonValue::object();
        jm.set("module", m.module);
        jm.set("verdict", interferenceVerdictName(m.verdict));
        jm.set("provenance", safetyProvenanceName(m.provenance));
        jm.set("has_contract", m.has_contract);
        if (m.island != Partition::kNone)
            jm.set("island", uint64_t(m.island));
        if (!m.witnesses.empty()) {
            JsonValue jw = JsonValue::array();
            for (const InterferenceWitness &w : m.witnesses) {
                JsonValue e = JsonValue::object();
                e.set("channel", w.channel);
                e.set("detail", w.detail);
                jw.push(std::move(e));
            }
            jm.set("witnesses", std::move(jw));
        }
        if (!m.missing.empty())
            jm.set("missing", m.missing);
        mods.push(std::move(jm));
    }
    root.set("modules", std::move(mods));

    JsonValue jedges = JsonValue::array();
    for (const InterferenceEdge &e : edges) {
        JsonValue je = JsonValue::object();
        je.set("a", e.a);
        je.set("b", e.b);
        je.set("channel", e.channel);
        jedges.push(std::move(je));
    }
    root.set("edges", std::move(jedges));

    JsonValue summary = JsonValue::object();
    summary.set("proven", uint64_t(proven));
    summary.set("unsafe", uint64_t(unsafe));
    summary.set("unknown", uint64_t(unknown));
    summary.set("islands", uint64_t(islands));
    summary.set("residual_modules", uint64_t(residual_modules));
    root.set("summary", std::move(summary));
    return root;
}

void
passInterference(const DesignGraph &g, LintReport &report,
                 InterferenceResult *out)
{
    InterferenceResult r = analyzeInterference(g);

    size_t contracts = 0;
    for (const ModuleInterference &m : r.modules) {
        if (m.has_contract)
            ++contracts;
    }
    if (contracts > 0) {
        for (const ModuleInterference &m : r.modules) {
            if (m.verdict != InterferenceVerdict::Unsafe)
                continue;
            for (const InterferenceWitness &w : m.witnesses) {
                report.add(
                    LintSeverity::Error, "interference",
                    w.residual_reach ? "cross-island-residual-access"
                                     : "unproven-promotion",
                    m.module,
                    "promotion contract cannot be proven: channel '" +
                        w.channel + "' — " + w.detail);
            }
        }

        // Degenerate-cut diagnostics, deduplicated per island: promoted
        // modules that still fused into the residual island are grouped
        // into ONE warning per island, each member with its witness.
        std::map<size_t, std::vector<std::string>> fused;
        for (size_t mi = 0; mi < r.modules.size(); ++mi) {
            const ModuleInterference &m = r.modules[mi];
            if (m.provenance == SafetyProvenance::Residual ||
                m.island == Partition::kNone)
                continue;
            // A promoted module is "fused" when its island is residual.
            bool in_residual = false;
            for (size_t mj = 0; mj < r.modules.size(); ++mj) {
                if (r.modules[mj].provenance ==
                        SafetyProvenance::Residual &&
                    r.modules[mj].island == m.island) {
                    in_residual = true;
                    break;
                }
            }
            if (in_residual)
                fused[m.island].push_back(m.module);
        }
        for (const auto &[island, members] : fused) {
            std::string list;
            for (const std::string &name : members) {
                if (!list.empty())
                    list += ", ";
                list += "'" + name + "'";
            }
            report.add(
                LintSeverity::Warning, "interference",
                "parallel-degenerate",
                "island " + std::to_string(island),
                std::to_string(members.size()) +
                    " promoted module(s) (" + list +
                    ") fused into the residual island anyway — their "
                    "declared edges reach undeclared modules, so "
                    "promotion buys no parallelism here (see the "
                    "per-module witnesses in `vidi_trace stats`)");
        }

        report.add(
            LintSeverity::Note, "interference", "interference-summary",
            "design",
            "verdicts: " + std::to_string(r.proven) + " proven, " +
                std::to_string(r.unsafe) + " unsafe, " +
                std::to_string(r.unknown) + " unknown; island cut: " +
                std::to_string(r.islands) + " island(s), residual island: " +
                std::to_string(r.residual_modules) + " module(s)");
    }

    if (out != nullptr)
        *out = std::move(r);
}

} // namespace vidi
