#include "sim/module.h"

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
}

} // namespace vidi
