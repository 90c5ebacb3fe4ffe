#include "sim/kernel_mode.h"

#include <cstdlib>
#include <string>
#include <thread>

namespace vidi {

const char *
kernelModeName(KernelMode mode)
{
    switch (mode) {
    case KernelMode::FullEval:
        return "full-eval";
    case KernelMode::ActivityDriven:
        return "activity-driven";
    case KernelMode::Parallel:
        return "parallel";
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
    if (v == "parallel" || v == "par")
        return KernelMode::Parallel;
    return configured;
}

bool
resolveVidiSanArmed()
{
#ifdef VIDI_SANITIZE_VIDI
    return true;
#else
    const char *env = std::getenv("VIDI_SANITIZE");
    if (env == nullptr)
        return false;
    std::string v(env);
    for (char &c : v)
        c = (c >= 'A' && c <= 'Z') ? char(c - 'A' + 'a') : c;
    return v == "vidi";
#endif
}

unsigned
resolveSimThreads(unsigned configured)
{
    unsigned threads = configured;
    const char *env = std::getenv("VIDI_THREADS");
    if (env != nullptr && *env != '\0') {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end != nullptr && *end == '\0')
            threads = unsigned(v);
    }
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (threads > 256)
        threads = 256;
    return threads;
}

} // namespace vidi
