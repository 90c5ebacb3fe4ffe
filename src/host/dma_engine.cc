#include "host/dma_engine.h"

#include "checkpoint/state_io.h"

#include <algorithm>

namespace vidi {

namespace {

constexpr uint64_t kBeat = kAxiDataBytes;

uint64_t
alignDown(uint64_t addr)
{
    return addr & ~(kBeat - 1);
}

} // namespace

DmaEngine::DmaEngine(Simulator &sim, const std::string &name,
                     const Axi4Bus &bus, PcieBus *pcie)
    : Module(name), sim_(sim), rng_(sim.rng().fork()), pcie_(pcie),
      aw_(*bus.aw), w_(*bus.w), b_(*bus.b, 64), ar_(*bus.ar), r_(*bus.r, 64)
{
    // eval() only drives the port endpoints from registered state;
    // re-running it mid-settle is needed only when a bus channel moved.
    sensitive(*bus.aw);
    sensitive(*bus.w);
    sensitive(*bus.b);
    sensitive(*bus.ar);
    sensitive(*bus.r);
}

void
DmaEngine::setIssueGap(uint64_t lo, uint64_t hi)
{
    gap_lo_ = lo;
    gap_hi_ = hi;
}

void
DmaEngine::setMaxBurstBeats(unsigned beats)
{
    if (beats == 0 || beats > 256)
        fatal("DmaEngine: burst length %u out of range", beats);
    max_burst_beats_ = beats;
}

void
DmaEngine::startWrite(uint64_t addr, std::vector<uint8_t> data)
{
    Job j;
    j.is_write = true;
    j.addr = addr;
    j.data = std::move(data);
    j.len = j.data.size();
    jobs_.push_back(std::move(j));
}

void
DmaEngine::startRead(uint64_t addr, size_t len)
{
    Job j;
    j.is_write = false;
    j.addr = addr;
    j.len = len;
    jobs_.push_back(std::move(j));
}

bool
DmaEngine::idle() const
{
    return jobs_.empty() && aw_.idle() && w_.idle() && ar_.idle() &&
           write_bursts_acked_ == write_bursts_issued_ &&
           read_beats_received_ == read_beats_expected_;
}

uint64_t
DmaEngine::idleUntil(uint64_t now) const
{
    // Beats in flight imply per-cycle work (handshakes, PCIe token
    // refills). With the bus quiet, the only per-cycle state is the
    // issue-gap countdown before the next burst.
    const bool quiet = aw_.idle() && w_.idle() && ar_.idle() &&
                       write_bursts_acked_ == write_bursts_issued_ &&
                       read_beats_received_ == read_beats_expected_;
    if (!quiet)
        return now;
    if (gap_remaining_ > 0)
        return now + gap_remaining_;
    return jobs_.empty() ? kIdleForever : now;
}

void
DmaEngine::onCyclesSkipped(uint64_t from, uint64_t to)
{
    const uint64_t n = to - from;
    gap_remaining_ -= n < gap_remaining_ ? n : gap_remaining_;
}

std::vector<uint8_t>
DmaEngine::popReadData()
{
    if (completed_reads_.empty())
        panic("DmaEngine(%s)::popReadData with no completed read",
              name().c_str());
    std::vector<uint8_t> v = std::move(completed_reads_.front());
    completed_reads_.pop_front();
    return v;
}

void
DmaEngine::eval()
{
    // Data beats consume PCIe bandwidth; withhold them until tokens are
    // available. Tokens are only consumed when a beat fires, so a
    // presented payload is never retracted.
    if (pcie_ != nullptr) {
        w_.setEnabled(tokens_ >= static_cast<int64_t>(kBeat));
        r_.setEnabled(tokens_ >= static_cast<int64_t>(kBeat));
    }
    aw_.eval();
    w_.eval();
    b_.eval();
    ar_.eval();
    r_.eval();
}

void
DmaEngine::issueNextBurst()
{
    Job &job = jobs_.front();
    const uint64_t base = alignDown(job.addr);
    const uint64_t lead = job.addr - base;
    const size_t span = static_cast<size_t>(lead) + job.len;
    const size_t total_beats = (span + kBeat - 1) / kBeat;
    const size_t beat_idx = job_offset_;  // next beat of the job
    const size_t burst_beats =
        std::min<size_t>(max_burst_beats_, total_beats - beat_idx);

    AxiAx ax;
    // The first burst carries the (possibly unaligned) job address; later
    // bursts are beat-aligned, per AXI addressing rules.
    ax.addr = beat_idx == 0 ? job.addr : base + beat_idx * kBeat;
    ax.id = next_id_++;
    ax.len = static_cast<uint8_t>(burst_beats - 1);

    if (job.is_write) {
        aw_.queue(ax);
        for (size_t i = 0; i < burst_beats; ++i) {
            const size_t beat = beat_idx + i;
            AxiW wbeat;
            wbeat.id = ax.id;
            wbeat.strb = 0;
            wbeat.last = (i + 1 == burst_beats) ? 1 : 0;
            // Byte lane l of beat covers address base + beat*64 + l.
            for (size_t l = 0; l < kBeat; ++l) {
                const uint64_t pos = beat * kBeat + l;  // offset from base
                if (pos < lead || pos >= span)
                    continue;
                wbeat.data[l] = job.data[pos - lead];
                wbeat.strb |= 1ull << l;
            }
            w_.queue(wbeat);
        }
        ++write_bursts_issued_;
    } else {
        ar_.queue(ax);
        read_beats_expected_ += burst_beats;
    }

    job_offset_ += burst_beats;
    if (job_offset_ >= total_beats) {
        if (!job.is_write) {
            read_jobs_.push_back(
                {static_cast<size_t>(lead), job.len, total_beats});
        }
        jobs_.pop_front();
        job_offset_ = 0;
    }
}

void
DmaEngine::tick()
{
    aw_.tick();
    if (w_.tick() && pcie_ != nullptr)
        tokens_ -= static_cast<int64_t>(kBeat);
    ar_.tick();
    if (b_.tick()) {
        b_.pop();
        ++write_bursts_acked_;
    }
    if (r_.tick()) {
        if (pcie_ != nullptr)
            tokens_ -= static_cast<int64_t>(kBeat);
        const AxiR beat = r_.pop();
        read_accum_.insert(read_accum_.end(), beat.data.begin(),
                           beat.data.end());
        ++read_beats_received_;
        if (!read_jobs_.empty() &&
            read_accum_.size() >= read_jobs_.front().beats * kBeat) {
            const ReadJob rj = read_jobs_.front();
            read_jobs_.pop_front();
            std::vector<uint8_t> result(
                read_accum_.begin() + static_cast<ptrdiff_t>(rj.lead),
                read_accum_.begin() + static_cast<ptrdiff_t>(rj.lead +
                                                             rj.len));
            read_accum_.erase(read_accum_.begin(),
                              read_accum_.begin() +
                                  static_cast<ptrdiff_t>(rj.beats * kBeat));
            completed_reads_.push_back(std::move(result));
            ++reads_completed_;
        }
    }

    if (pcie_ != nullptr) {
        // Refill the token reserve while data movement is pending, up to
        // two beats of headroom so a beat can stream every cycle.
        const bool moving = !w_.idle() ||
                            read_beats_received_ < read_beats_expected_;
        const int64_t target = 2 * static_cast<int64_t>(kBeat);
        if (moving && tokens_ < target) {
            tokens_ += static_cast<int64_t>(
                pcie_->request(static_cast<uint64_t>(target - tokens_)));
        }
    }

    if (gap_remaining_ > 0) {
        --gap_remaining_;
        return;
    }
    if (!jobs_.empty()) {
        issueNextBurst();
        if (gap_hi_ > 0)
            gap_remaining_ = rng_.range(gap_lo_, gap_hi_);
    }
}

void
DmaEngine::reset()
{
    aw_.reset();
    w_.reset();
    b_.reset();
    ar_.reset();
    r_.reset();
    jobs_.clear();
    job_offset_ = 0;
    write_bursts_issued_ = 0;
    write_bursts_acked_ = 0;
    read_accum_.clear();
    read_jobs_.clear();
    read_beats_expected_ = 0;
    read_beats_received_ = 0;
    completed_reads_.clear();
    reads_completed_ = 0;
    gap_remaining_ = 0;
    next_id_ = 0;
    tokens_ = 0;
}

void
DmaEngine::saveState(StateWriter &w) const
{
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (const uint64_t v : rng_state)
        w.u64(v);
    w.u64(uint64_t(tokens_));
    w.u64(gap_remaining_);

    aw_.saveState(w);
    w_.saveState(w);
    b_.saveState(w);
    ar_.saveState(w);
    r_.saveState(w);

    w.u32(uint32_t(jobs_.size()));
    for (const Job &j : jobs_) {
        w.b(j.is_write);
        w.u64(j.addr);
        w.blob(j.data);
        w.u64(j.len);
    }
    w.u64(job_offset_);
    w.u64(write_bursts_issued_);
    w.u64(write_bursts_acked_);

    w.podDeque(read_jobs_);
    w.podVec(read_accum_);
    w.u64(read_beats_expected_);
    w.u64(read_beats_received_);

    w.u32(uint32_t(completed_reads_.size()));
    for (const auto &data : completed_reads_)
        w.blob(data);
    w.u64(reads_completed_);
    w.u16(next_id_);
}

void
DmaEngine::loadState(StateReader &r)
{
    uint64_t rng_state[4];
    for (uint64_t &v : rng_state)
        v = r.u64();
    rng_.setState(rng_state);
    tokens_ = int64_t(r.u64());
    gap_remaining_ = r.u64();

    aw_.loadState(r);
    w_.loadState(r);
    b_.loadState(r);
    ar_.loadState(r);
    r_.loadState(r);

    jobs_.clear();
    const uint32_t njobs = r.u32();
    for (uint32_t i = 0; i < njobs; ++i) {
        Job j;
        j.is_write = r.b();
        j.addr = r.u64();
        j.data = r.blob();
        j.len = r.u64();
        jobs_.push_back(std::move(j));
    }
    job_offset_ = r.u64();
    write_bursts_issued_ = r.u64();
    write_bursts_acked_ = r.u64();

    r.podDeque(read_jobs_);
    r.podVec(read_accum_);
    read_beats_expected_ = r.u64();
    read_beats_received_ = r.u64();

    completed_reads_.clear();
    const uint32_t nreads = r.u32();
    for (uint32_t i = 0; i < nreads; ++i)
        completed_reads_.push_back(r.blob());
    reads_completed_ = r.u64();
    next_id_ = r.u16();
}

} // namespace vidi
