/**
 * @file
 * VidiSan — the domain race sanitizer of the Parallel kernel.
 *
 * The interference analysis (src/lint/interference.h) proves partition
 * safety *statically*, from calibration observations checked against
 * declared footprints. VidiSan is the runtime backstop: armed via
 * VIDI_SANITIZE=vidi (or compiled in with -DVIDI_SANITIZE=vidi; see
 * resolveVidiSanArmed()), it shadows every channel/state
 * access made during island execution with the executing island and the
 * island's vector-clock component, and aborts with a structured report
 * the moment an access lands on a channel (or declared state token) the
 * partition licensed to a *different* island.
 *
 * Such an access is NOT a C++ data race — the per-cycle phase barrier
 * and staged commits give it a happens-before edge, so TSan stays
 * silent — but it is a *domain* race: the value read (or clobbered)
 * depends on which island the scheduler happened to run first, so the
 * trace is no longer a pure function of the design. VidiSan reports it
 * deterministically: the DomainRaceError is staged by the island runner
 * and rethrown at the barrier in canonical island order, so the surfaced
 * failure is identical across thread counts and runs.
 */

#ifndef VIDI_PAR_VIDISAN_H
#define VIDI_PAR_VIDISAN_H

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/access_tracker.h" // SignalSide, SimPhase
#include "sim/vidisan_hook.h"

namespace vidi {

class ChannelBase;
class Module;
struct Partition;

/** Phase name for reports ("eval"/"tick"/"tickLate"/"none"). */
const char *simPhaseName(SimPhase phase);

/** One shadow-tagged access site. */
struct VidiSanAccess
{
    std::string module;    ///< module executing at the access (may be "?")
    size_t island = ~size_t(0);
    SimPhase phase = SimPhase::None;
    uint64_t cycle = 0;
    uint64_t clock = 0;    ///< executing island's vector-clock component
    bool write = false;
    bool valid = false;    ///< false until the site has been observed

    std::string toString() const;
};

/** Structured report of one domain race. */
struct VidiSanReport
{
    std::string subject;     ///< channel or state-token name
    bool is_state = false;   ///< subject is a shared-state token
    std::string side;        ///< "fwd"/"rev" for channels, "" for state
    size_t owner_island = ~size_t(0);
    std::string owner_anchor;    ///< anchor module of the owning island
    VidiSanAccess offender;      ///< the unlicensed access (always valid)
    VidiSanAccess prior;         ///< last licensed access, if any
    std::vector<uint64_t> clocks; ///< vector clock at the violation

    std::string toString() const;
};

/** Thrown (and deterministically rethrown at the phase barrier) on a
 *  domain race. what() is the full report. */
class DomainRaceError : public std::runtime_error
{
  public:
    explicit DomainRaceError(VidiSanReport report);
    const VidiSanReport &report() const { return report_; }

  private:
    VidiSanReport report_;
};

/**
 * The shadow checker. One instance per armed Simulator; the Simulator
 * owns it, arms it against the live Partition, and publishes execution
 * context (island / module / phase) through thread-local state so the
 * inline channel hooks can attribute every access.
 */
class VidiSan
{
  public:
    VidiSan();
    ~VidiSan();
    VidiSan(const VidiSan &) = delete;
    VidiSan &operator=(const VidiSan &) = delete;

    /**
     * Build the license maps from @p part and arm the global hook gate.
     * Channel licenses come from the partition's channel→island map;
     * state-token licenses from the declaring module's island (a token
     * unknown at arm time is licensed to its first accessor's island).
     */
    void arm(const Partition &part,
             const std::vector<const Module *> &modules,
             const std::vector<const ChannelBase *> &channels);

    void disarm();
    bool armed() const { return armed_; }

    /// @name Execution-context publication (Simulator only)
    /// @{
    /** RAII: tag the calling thread as executing @p island of @p san.
     *  A null @p san makes the scope a no-op. */
    class IslandScope
    {
      public:
        IslandScope(VidiSan *san, size_t island);
        ~IslandScope();
        IslandScope(const IslandScope &) = delete;
        IslandScope &operator=(const IslandScope &) = delete;
    };

    /** Publish the module/phase about to execute on this thread. */
    static void setContext(const Module *m, SimPhase phase);

    /** Current simulation cycle (set at the barrier, read by workers). */
    void setCycle(uint64_t cycle) { cycle_ = cycle; }

    /** Bump @p island's vector-clock component (barrier only). */
    void advanceClock(size_t island);

    const std::vector<uint64_t> &clocks() const { return clocks_; }
    /// @}

    /// @name Slow-path checks (called via the vidisan:: hooks)
    /// @{
    void onChannelAccess(const ChannelBase &ch, SignalSide side,
                         bool write, size_t island);
    void onStateAccess(const char *token, bool write, size_t island);
    /// @}

  private:
    VidiSanAccess siteHere(bool write, size_t island) const;
    [[noreturn]] void raise(const std::string &subject, bool is_state,
                            const char *side, size_t owner,
                            const VidiSanAccess &prior, bool write,
                            size_t island);

    bool armed_ = false;
    uint64_t cycle_ = 0;
    std::vector<uint64_t> clocks_;        ///< one component per island
    std::vector<std::string> anchors_;    ///< island anchor names

    std::map<const ChannelBase *, size_t> channel_owner_;

    // Shadow state: written from worker threads, hence the mutex. This
    // is the sanitizer path — perf is deliberately traded for fidelity.
    std::mutex mutex_;
    std::map<const ChannelBase *, VidiSanAccess> channel_shadow_;
    std::map<std::string, size_t> token_owner_;
    std::map<std::string, VidiSanAccess> token_shadow_;
};

} // namespace vidi

#endif // VIDI_PAR_VIDISAN_H
