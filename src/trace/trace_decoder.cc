#include "trace/trace_decoder.h"

#include "channel/channel.h"
#include "checkpoint/state_io.h"

#include "sim/logging.h"

namespace vidi {

TraceDecoder::TraceDecoder(const std::string &name, TraceMeta meta,
                           TraceStore &store, size_t queue_capacity)
    : Module(name), meta_(std::move(meta)), store_(store),
      queue_capacity_(queue_capacity), queues_(meta_.channelCount())
{
    // Sanity: the peek buffer in tick() must fit any cycle packet.
    size_t max_pkt = 2 * meta_.bitvecBytes();
    for (const auto &ch : meta_.channels)
        max_pkt += 2 * ch.data_bytes;
    if (max_pkt > 4096)
        fatal("TraceDecoder: worst-case packet of %zu bytes exceeds the "
              "4096-byte parse buffer", max_pkt);
    setEvalMode(EvalMode::Never);  // no combinational logic
}

bool
TraceDecoder::queuesHaveSpace() const
{
    for (const auto &q : queues_) {
        if (q.size() >= queue_capacity_)
            return false;
    }
    return true;
}

bool
TraceDecoder::finished() const
{
    if (!store_.exhausted())
        return false;
    for (const auto &q : queues_) {
        if (!q.empty())
            return false;
    }
    return true;
}

void
TraceDecoder::tick()
{
    while (queuesHaveSpace()) {
        uint8_t buf[4096];
        const size_t n = store_.peek(buf, sizeof(buf));
        CyclePacket pkt;
        const size_t consumed = parsePacket(meta_, buf, n, pkt);
        if (consumed == 0) {
            if (n > 0 && store_.exhausted()) {
                if (store_.damage().clean())
                    fatal("TraceDecoder(%s): trailing %zu bytes do not "
                          "form a complete cycle packet", name().c_str(),
                          n);
                // Damaged stream: the tail is a packet cut short by the
                // damage. Discard it and account it instead of dying.
                store_.consume(n);
                store_.noteTailDiscard(n);
            }
            break;
        }
        store_.consume(consumed);
        ++packets_decoded_;

        // Decompose into one ⟨channel packet, Ends⟩ pair per channel.
        size_t ci = 0;
        std::vector<size_t> start_content_of(meta_.channelCount(),
                                             SIZE_MAX);
        bitvec::forEach(pkt.starts, [&](size_t i) {
            start_content_of[i] = ci++;
        });
        for (size_t i = 0; i < meta_.channelCount(); ++i) {
            ReplayPair p;
            p.ends = pkt.ends;
            if (bitvec::test(pkt.starts, i)) {
                p.start = true;
                p.content = pkt.start_contents[start_content_of[i]];
            }
            p.end = bitvec::test(pkt.ends, i);
            queues_[i].push_back(std::move(p));
        }
    }

    if (store_.damageBarrier() && queuesHaveSpace()) {
        // The loop above consumed every complete packet, so what remains
        // in the FIFO is the packet the damage cut short. Discard it and
        // acknowledge the barrier so the re-aligned payload the store
        // staged can flow.
        const size_t n = store_.availableBytes();
        if (n > 0) {
            store_.consume(n);
            store_.noteTailDiscard(n);
        }
        store_.clearDamageBarrier();
    }
}

void
TraceDecoder::reset()
{
    for (auto &q : queues_)
        q.clear();
    pending_.clear();
    packets_decoded_ = 0;
}

void
TraceDecoder::saveState(StateWriter &w) const
{
    w.u32(uint32_t(queues_.size()));
    for (const auto &q : queues_) {
        w.u32(uint32_t(q.size()));
        for (const ReplayPair &p : q) {
            w.b(p.start);
            w.b(p.end);
            w.u64(p.ends);
            w.u32(uint32_t(p.content.size()));
            w.bytes(p.content.data(), p.content.size());
        }
    }
    w.podVec(pending_);
    w.u64(packets_decoded_);
}

void
TraceDecoder::loadState(StateReader &r)
{
    const uint32_t nq = r.u32();
    if (nq != queues_.size())
        fatal("checkpoint state [%s]: decoder has %zu queues, "
              "checkpoint has %u",
              r.context().c_str(), queues_.size(), nq);
    for (auto &q : queues_) {
        q.clear();
        const uint32_t n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            ReplayPair p;
            p.start = r.b();
            p.end = r.b();
            p.ends = r.u64();
            const uint32_t clen = r.u32();
            uint8_t buf[kMaxPayloadBytes];
            if (clen > sizeof(buf))
                fatal("checkpoint state [%s]: replay-pair content of %u "
                      "bytes exceeds the payload limit",
                      r.context().c_str(), clen);
            r.bytes(buf, clen);
            p.content = ContentBuf(buf, buf + clen);
            q.push_back(std::move(p));
        }
    }
    r.podVec(pending_);
    packets_decoded_ = r.u64();
}

} // namespace vidi
