#include "replay/replay_coordinator.h"

#include "checkpoint/state_io.h"

#include "replay/channel_replayer.h"
#include "sim/logging.h"
#include "trace/trace_decoder.h"

namespace vidi {

ReplayCoordinator::ReplayCoordinator(const std::string &name, TraceMeta meta,
                                     std::vector<ChannelBase *>
                                         inner_channels,
                                     bool record_validation)
    : Module(name), meta_(std::move(meta)), inner_(std::move(inner_channels)),
      record_validation_(record_validation),
      t_current_(meta_.channelCount()), inflight_(meta_.channelCount(),
                                                  false)
{
    if (inner_.size() != meta_.channelCount())
        fatal("ReplayCoordinator %s: %zu channels but metadata describes "
              "%zu", name.c_str(), inner_.size(), meta_.channelCount());
    validation_.meta = meta_;
    validation_.meta.record_output_content = true;
    setEvalMode(EvalMode::Never);  // observes in tickLate only
}

void
ReplayCoordinator::tickLate()
{
    CyclePacket pkt;
    for (size_t i = 0; i < inner_.size(); ++i) {
        ChannelBase *ch = inner_[i];
        if (ch->valid() && !inflight_[i]) {
            inflight_[i] = true;
            if (meta_.channels[i].input) {
                pkt.starts = bitvec::set(pkt.starts, i);
                if (record_validation_) {
                    std::vector<uint8_t> content(ch->dataBytes());
                    ch->copyData(content.data());
                    pkt.start_contents.push_back(std::move(content));
                }
            }
        }
        if (ch->fired()) {
            inflight_[i] = false;
            t_current_.increment(i);
            ++completions_;
            pkt.ends = bitvec::set(pkt.ends, i);
            if (record_validation_ && !meta_.channels[i].input) {
                std::vector<uint8_t> content(ch->dataBytes());
                ch->copyData(content.data());
                pkt.end_contents.push_back(std::move(content));
            }
        }
    }
    if (record_validation_ && !pkt.empty())
        validation_.packets.push_back(std::move(pkt));

    // Replay watchdog: progress means a completed transaction or a
    // freshly decoded packet. A replay making neither for a whole
    // horizon is wedged — a coarse cycle budget would eventually notice,
    // but only this captures *which* channel is stuck on *what*.
    if (watchdog_horizon_ == 0 || tripped_)
        return;
    const uint64_t progress =
        completions_ +
        (decoder_ != nullptr ? decoder_->packetsDecoded() : 0);
    if (progress != last_progress_) {
        last_progress_ = progress;
        no_progress_cycles_ = 0;
        return;
    }
    if (++no_progress_cycles_ >= watchdog_horizon_) {
        tripped_ = true;
        diagnostic_ = buildDiagnostic();
        warn("%s", diagnostic_.c_str());
    }
}

uint64_t
ReplayCoordinator::idleUntil(uint64_t now) const
{
    // During a frozen stretch tickLate() observes no edges and no fires,
    // so its only effect is the watchdog count. With the watchdog off
    // (or already tripped) the coordinator never forces a cycle; armed,
    // the next interesting tick is the one that would trip it: executing
    // cycles now .. now+k-1 adds k no-progress counts, reaching the
    // horizon when k = horizon - no_progress_cycles_.
    if (watchdog_horizon_ == 0 || tripped_)
        return kIdleForever;
    return now + (watchdog_horizon_ - no_progress_cycles_) - 1;
}

void
ReplayCoordinator::onCyclesSkipped(uint64_t from, uint64_t to)
{
    // Skipped cycles are by construction progress-free.
    if (watchdog_horizon_ == 0 || tripped_)
        return;
    no_progress_cycles_ += to - from;
}

void
ReplayCoordinator::configureWatchdog(
    uint64_t horizon_cycles, const TraceDecoder *decoder,
    std::vector<const ChannelReplayer *> replayers)
{
    watchdog_horizon_ = horizon_cycles;
    decoder_ = decoder;
    watched_ = std::move(replayers);
    last_progress_ = 0;
    no_progress_cycles_ = 0;
    tripped_ = false;
    diagnostic_.clear();
}

std::string
ReplayCoordinator::buildDiagnostic() const
{
    std::string s = "replay watchdog: no progress for " +
                    std::to_string(no_progress_cycles_) +
                    " cycles after " + std::to_string(completions_) +
                    " completed transactions";
    if (decoder_ != nullptr) {
        s += "; decoder: " + std::to_string(decoder_->packetsDecoded()) +
             " packets decoded, " +
             (decoder_->finished() ? "finished" : "not finished");
    }
    s += "\n  T_current = " + t_current_.toString();
    for (const ChannelReplayer *r : watched_) {
        if (r == nullptr)
            continue;
        const size_t i = r->channelIndex();
        const std::string name =
            i < meta_.channels.size() ? meta_.channels[i].name
                                      : std::to_string(i);
        s += "\n  channel " + std::to_string(i) + " (" + name + ", " +
             (i < meta_.channels.size() && meta_.channels[i].input
                  ? "input" : "output") +
             "): T_expected = " + r->expected().toString();
        if (decoder_ != nullptr)
            s += ", " + std::to_string(decoder_->queueDepth(i)) +
                 " pairs queued";
        if (r->presenting())
            s += ", start released but unaccepted";
        if (r->pendingEnds() != 0)
            s += ", " + std::to_string(r->pendingEnds()) +
                 " released ends unfired";
        if (!t_current_.dominates(r->expected()))
            s += "  <-- blocked: T_current < T_expected";
        else if (r->idle() &&
                 (decoder_ == nullptr || decoder_->queueDepth(i) == 0))
            s += "  (idle: out of pairs)";
    }
    return s;
}

void
ReplayCoordinator::reset()
{
    t_current_.clear();
    completions_ = 0;
    std::fill(inflight_.begin(), inflight_.end(), false);
    validation_.packets.clear();
    last_progress_ = 0;
    no_progress_cycles_ = 0;
    tripped_ = false;
    diagnostic_.clear();
}

void
ReplayCoordinator::saveState(StateWriter &w) const
{
    w.u32(uint32_t(t_current_.channels()));
    for (size_t i = 0; i < t_current_.channels(); ++i)
        w.u64(t_current_[i]);
    w.u64(completions_);
    w.u32(uint32_t(inflight_.size()));
    for (const bool f : inflight_)
        w.b(f);
    w.blob(validation_.serialize());
    w.u64(last_progress_);
    w.u64(no_progress_cycles_);
    w.b(tripped_);
    w.str(diagnostic_);
}

void
ReplayCoordinator::loadState(StateReader &r)
{
    const uint32_t nc = r.u32();
    if (nc != t_current_.channels())
        fatal("checkpoint state [%s]: vector clock spans %zu channels, "
              "checkpoint has %u",
              r.context().c_str(), t_current_.channels(), nc);
    for (size_t i = 0; i < t_current_.channels(); ++i)
        t_current_.setCount(i, r.u64());
    completions_ = r.u64();
    const uint32_t ni = r.u32();
    if (ni != inflight_.size())
        fatal("checkpoint state [%s]: %zu inner channels, checkpoint "
              "has %u",
              r.context().c_str(), inflight_.size(), ni);
    for (size_t i = 0; i < inflight_.size(); ++i)
        inflight_[i] = r.b();
    const std::vector<uint8_t> validation = r.blob();
    validation_ = Trace::fromBytes(meta_, validation.data(),
                                   validation.size());
    last_progress_ = r.u64();
    no_progress_cycles_ = r.u64();
    tripped_ = r.b();
    diagnostic_ = r.str();
}

} // namespace vidi
