#include "sim/module.h"

#include <algorithm>

#include "channel/channel.h"
#include "sim/simulator.h"

namespace vidi {

Module::Module(std::string name) : name_(std::move(name)) {}

uint64_t
Module::nowCycle() const
{
    if (owner_sim_ == nullptr)
        panic("Module(%s)::nowCycle: module is not owned by a simulator",
              name_.c_str());
    return owner_sim_->cycle();
}

Module::~Module() = default;

void
Module::sensitive(ChannelBase &ch)
{
    ch.addListener(this);
    has_sensitivities_ = true;
    addFootprint(ch, FootprintDir::Read);
}

Module::FootprintBuilder
Module::declareFootprint()
{
    footprint_declared_ = true;
    return FootprintBuilder(*this);
}

void
Module::addFootprint(ChannelBase &ch, FootprintDir dir)
{
    for (FootprintChannel &fc : footprint_) {
        if (fc.channel == &ch) {
            fc.dir = FootprintDir(uint8_t(fc.dir) | uint8_t(dir));
            return;
        }
    }
    footprint_.push_back({&ch, dir});
}

Module::FootprintBuilder &
Module::FootprintBuilder::reads(ChannelBase &ch)
{
    m_.addFootprint(ch, FootprintDir::Read);
    return *this;
}

Module::FootprintBuilder &
Module::FootprintBuilder::writes(ChannelBase &ch)
{
    m_.addFootprint(ch, FootprintDir::Write);
    return *this;
}

Module::FootprintBuilder &
Module::FootprintBuilder::readsWrites(ChannelBase &ch)
{
    m_.addFootprint(ch, FootprintDir::ReadWrite);
    return *this;
}

Module::FootprintBuilder &
Module::FootprintBuilder::state(std::string token)
{
    auto &tokens = m_.state_tokens_;
    if (std::find(tokens.begin(), tokens.end(), token) == tokens.end())
        tokens.push_back(std::move(token));
    return *this;
}

Module::FootprintBuilder &
Module::FootprintBuilder::couples(const Module &peer)
{
    auto &couples = m_.couples_;
    if (std::find(couples.begin(), couples.end(), &peer) == couples.end())
        couples.push_back(&peer);
    return *this;
}

} // namespace vidi
