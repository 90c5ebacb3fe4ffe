#include "core/vidi_config.h"

#include <cstdlib>
#include <cstring>

#include "sim/logging.h"

namespace vidi {

const char *
toString(VidiMode mode)
{
    switch (mode) {
      case VidiMode::R1_Transparent: return "R1";
      case VidiMode::R2_Record: return "R2";
      case VidiMode::R3_Replay: return "R3";
    }
    panic("invalid VidiMode");
}

namespace {

/** Parse @p name as a u64 into @p out; false when unset or malformed. */
bool
envU64(const char *name, uint64_t *out)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (end == nullptr || *end != '\0') {
        warn("%s='%s' is not a number; ignored", name, env);
        return false;
    }
    *out = v;
    return true;
}

} // namespace

void
applyEnvOverrides(VidiConfig &cfg)
{
    uint64_t v = 0;
    if (envU64("VIDI_JOB_TIMEOUT_MS", &v))
        cfg.job_timeout_ms = v;
    if (envU64("VIDI_MAX_RETRIES", &v))
        cfg.max_retries = uint32_t(v);
    if (envU64("VIDI_RETRY_BACKOFF_MS", &v))
        cfg.retry_backoff_ms = v;
}

} // namespace vidi
