#include "par/partition.h"

#include <algorithm>
#include <map>

#include "channel/channel.h"
#include "sim/module.h"

namespace vidi {

namespace {

/** Plain union-find with path halving over node ids. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : parent_(n)
    {
        for (size_t i = 0; i < n; ++i)
            parent_[i] = i;
    }

    size_t
    find(size_t x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void
    merge(size_t a, size_t b)
    {
        a = find(a);
        b = find(b);
        if (a != b)
            parent_[std::max(a, b)] = std::min(a, b);
    }

  private:
    std::vector<size_t> parent_;
};

/** Whether @p m's footprint lists @p ch. */
bool
inFootprint(const Module *m, const ChannelBase *ch)
{
    for (const FootprintChannel &fc : m->footprintChannels()) {
        if (fc.channel == ch)
            return true;
    }
    return false;
}

} // namespace

const char *
safetyProvenanceName(SafetyProvenance p)
{
    switch (p) {
    case SafetyProvenance::Residual:
        return "residual";
    case SafetyProvenance::Proven:
        return "proven";
    }
    return "?";
}

Partition
computePartition(const std::vector<const Module *> &modules,
                 const std::vector<const ChannelBase *> &channels)
{
    const size_t nmod = modules.size();
    const size_t nchan = channels.size();
    // Node ids: [0, nmod) are modules, [nmod, nmod + nchan) channels.
    UnionFind uf(nmod + nchan);

    std::map<const Module *, size_t> mod_of;
    std::map<const ChannelBase *, size_t> chan_of;
    for (size_t i = 0; i < nmod; ++i)
        mod_of[modules[i]] = i;
    for (size_t i = 0; i < nchan; ++i)
        chan_of[channels[i]] = i;

    // Footprint and coupling edges. Entries naming channels (or peers)
    // outside the design — possible in unit fixtures wiring channels by
    // hand — are ignored rather than crashed on.
    for (size_t i = 0; i < nmod; ++i) {
        for (const FootprintChannel &fc : modules[i]->footprintChannels()) {
            auto it = chan_of.find(fc.channel);
            if (it != chan_of.end())
                uf.merge(i, nmod + it->second);
        }
        for (const Module *peer : modules[i]->coupledModules()) {
            auto it = mod_of.find(peer);
            if (it != mod_of.end())
                uf.merge(i, it->second);
        }
    }

    // Declared shared-state tokens co-locate their declarers: the token
    // names one mutable object (e.g. "host-dram") that every declarer
    // may touch outside the channel plane.
    std::map<std::string, size_t> token_anchor;
    for (size_t i = 0; i < nmod; ++i) {
        for (const std::string &tok : modules[i]->sharedStateTokens()) {
            auto [it, fresh] = token_anchor.emplace(tok, i);
            if (!fresh)
                uf.merge(it->second, i);
        }
    }

    // Fuse every module without a completeness contract into one
    // residual component: their channel accesses are undeclared, so they
    // may only be scheduled together (where registration-order execution
    // makes any sharing safe, exactly as in the sequential kernel).
    size_t residual_anchor = Partition::kNone;
    for (size_t i = 0; i < nmod; ++i) {
        if (modules[i]->footprintDeclared())
            continue;
        if (residual_anchor == Partition::kNone)
            residual_anchor = i;
        else
            uf.merge(residual_anchor, i);
    }

    // Unclaimed channels can only be touched by undeclared modules (a
    // declared module's footprint lists everything it touches), so they
    // belong to the residual component too.
    for (size_t i = 0; i < nchan; ++i) {
        bool claimed = false;
        for (size_t m = 0; m < nmod && !claimed; ++m)
            claimed = inFootprint(modules[m], channels[i]);
        if (claimed)
            continue;
        if (residual_anchor == Partition::kNone) {
            // Fully declared design with an untouched channel: park it
            // with the first module so it still has an owner.
            if (nmod > 0)
                uf.merge(0, nmod + i);
        } else {
            uf.merge(residual_anchor, nmod + i);
        }
    }

    // Collect components that contain at least one module, in canonical
    // order (components are rooted at their smallest node id, and module
    // ids precede channel ids, so root order == lowest-module order).
    Partition part;
    part.module_island.assign(nmod, Partition::kNone);
    part.channel_island.assign(nchan, Partition::kNone);
    std::map<size_t, size_t> island_of_root;
    for (size_t i = 0; i < nmod; ++i) {
        const size_t root = uf.find(i);
        auto [it, fresh] =
            island_of_root.emplace(root, part.islands.size());
        if (fresh)
            part.islands.emplace_back();
        part.islands[it->second].modules.push_back(i);
        part.module_island[i] = it->second;
    }
    for (size_t i = 0; i < nchan; ++i) {
        const size_t root = uf.find(nmod + i);
        auto it = island_of_root.find(root);
        size_t island;
        if (it == island_of_root.end()) {
            // Channel-only component (no modules at all in the design):
            // attach to island 0, creating it if necessary.
            if (part.islands.empty()) {
                part.islands.emplace_back();
                island_of_root.emplace(root, 0);
            }
            island = 0;
        } else {
            island = it->second;
        }
        part.islands[island].channels.push_back(i);
        part.channel_island[i] = island;
    }

    if (residual_anchor != Partition::kNone) {
        part.residual = part.module_island[residual_anchor];
        part.islands[part.residual].residual = true;
    }

    part.module_safety.assign(nmod, SafetyProvenance::Residual);
    part.residual_witness.assign(nmod, std::string());
    for (size_t i = 0; i < nmod; ++i) {
        if (modules[i]->footprintDeclared())
            part.module_safety[i] = SafetyProvenance::Proven;
    }

    // Witness computation: a promoted module inside the residual island
    // got dragged in through some declared edge; name the first direct
    // one (a footprint channel an undeclared module is sensitive to, or an
    // undeclared coupled peer) so diagnostics can cite it.
    if (part.residual != Partition::kNone) {
        for (size_t i = 0; i < nmod; ++i) {
            if (part.module_safety[i] == SafetyProvenance::Residual ||
                part.module_island[i] != part.residual)
                continue;
            std::string witness;
            for (const FootprintChannel &fc :
                 modules[i]->footprintChannels()) {
                const ChannelBase *ch = fc.channel;
                if (chan_of.find(ch) == chan_of.end())
                    continue;
                for (size_t m = 0; m < nmod && witness.empty(); ++m) {
                    if (part.module_safety[m] == SafetyProvenance::Residual &&
                        inFootprint(modules[m], ch))
                        witness = "channel '" + ch->name() +
                                  "' shared with undeclared module '" +
                                  modules[m]->name() + "'";
                }
                if (!witness.empty())
                    break;
            }
            if (witness.empty()) {
                for (const Module *peer : modules[i]->coupledModules()) {
                    auto mit = mod_of.find(peer);
                    if (mit == mod_of.end())
                        continue;
                    if (part.module_safety[mit->second] ==
                        SafetyProvenance::Residual) {
                        witness = "coupled to undeclared module '" +
                                  peer->name() + "'";
                        break;
                    }
                }
            }
            if (witness.empty())
                witness = "transitively coupled into the residual island";
            part.residual_witness[i] = std::move(witness);
        }
    }
    return part;
}

size_t
Partition::residualModules() const
{
    if (residual == kNone)
        return 0;
    return islands[residual].modules.size();
}

std::string
Partition::summary() const
{
    size_t nmod = 0;
    size_t nchan = 0;
    size_t largest = 0;
    for (const IslandDef &i : islands) {
        nmod += i.modules.size();
        nchan += i.channels.size();
        largest = std::max(largest, i.modules.size());
    }
    std::string out = std::to_string(islands.size()) + " island";
    if (islands.size() != 1)
        out += "s";
    out += " (" + std::to_string(nmod) + " modules, " +
           std::to_string(nchan) + " channels; largest island " +
           std::to_string(largest) + " modules";
    if (residual != kNone) {
        out += "; residual island has " +
               std::to_string(islands[residual].modules.size()) +
               " undeclared modules";
    }
    out += ")";
    return out;
}

} // namespace vidi
