#include "sim/kernel_mode.h"

#include <cstdlib>
#include <string>

namespace vidi {

const char *
kernelModeName(KernelMode mode)
{
    switch (mode) {
    case KernelMode::FullEval:
        return "full-eval";
    case KernelMode::ActivityDriven:
        return "activity-driven";
    }
    return "?";
}

KernelMode
resolveKernelMode(KernelMode configured)
{
    const char *env = std::getenv("VIDI_KERNEL");
    if (env == nullptr)
        return configured;
    std::string v(env);
    for (char &c : v)
        c = (c >= 'A' && c <= 'Z') ? char(c - 'A' + 'a') : c;
    if (v == "full" || v == "fulleval" || v == "full-eval")
        return KernelMode::FullEval;
    if (v == "activity" || v == "activitydriven" || v == "activity-driven")
        return KernelMode::ActivityDriven;
    return configured;
}

} // namespace vidi
