#include "host/mmio_driver.h"

#include "checkpoint/state_io.h"

namespace vidi {

MmioMaster::MmioMaster(Simulator &sim, const std::string &name,
                       const LiteBus &bus)
    : Module(name), sim_(sim), rng_(sim.rng().fork()), aw_(*bus.aw),
      w_(*bus.w), b_(*bus.b, 16), ar_(*bus.ar), r_(*bus.r, 16)
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
MmioMaster::setIssueGap(uint64_t lo, uint64_t hi)
{
    gap_lo_ = lo;
    gap_hi_ = hi;
}

void
MmioMaster::issueWrite(uint32_t addr, uint32_t data)
{
    ops_.push_back({true, addr, data});
}

void
MmioMaster::issueRead(uint32_t addr)
{
    ops_.push_back({false, addr, 0});
}

uint32_t
MmioMaster::popRead()
{
    if (read_results_.empty())
        panic("MmioMaster(%s)::popRead with no completed read",
              name().c_str());
    const uint32_t v = read_results_.front();
    read_results_.pop_front();
    return v;
}

bool
MmioMaster::idle() const
{
    return ops_.empty() && writes_acked_ == writes_issued_ &&
           reads_completed_ == reads_issued_ && aw_.idle() && w_.idle() &&
           ar_.idle();
}

uint64_t
MmioMaster::idleUntil(uint64_t now) const
{
    // While operations or responses are in flight every cycle matters.
    // With the bus quiet, the only per-cycle state is the issue-gap
    // countdown: the next interesting tick is the one that issues.
    const bool quiet = aw_.idle() && w_.idle() && ar_.idle() &&
                       writes_acked_ == writes_issued_ &&
                       reads_completed_ == reads_issued_;
    if (!quiet)
        return now;
    if (gap_remaining_ > 0)
        return now + gap_remaining_;
    return ops_.empty() ? kIdleForever : now;
}

void
MmioMaster::onCyclesSkipped(uint64_t from, uint64_t to)
{
    const uint64_t n = to - from;
    gap_remaining_ -= n < gap_remaining_ ? n : gap_remaining_;
}

void
MmioMaster::eval()
{
    aw_.eval();
    w_.eval();
    b_.eval();
    ar_.eval();
    r_.eval();
}

void
MmioMaster::tick()
{
    aw_.tick();
    w_.tick();
    ar_.tick();
    if (b_.tick()) {
        b_.pop();
        ++writes_acked_;
    }
    if (r_.tick()) {
        read_results_.push_back(r_.pop().data);
        ++reads_completed_;
    }

    if (gap_remaining_ > 0) {
        --gap_remaining_;
        return;
    }
    if (!ops_.empty()) {
        const Op op = ops_.front();
        ops_.pop_front();
        if (op.is_write) {
            LiteAx a;
            a.addr = op.addr;
            aw_.queue(a);
            LiteW d;
            d.data = op.data;
            w_.queue(d);
            ++writes_issued_;
        } else {
            LiteAx a;
            a.addr = op.addr;
            ar_.queue(a);
            ++reads_issued_;
        }
        if (gap_hi_ > 0)
            gap_remaining_ = rng_.range(gap_lo_, gap_hi_);
    }
}

void
MmioMaster::reset()
{
    aw_.reset();
    w_.reset();
    b_.reset();
    ar_.reset();
    r_.reset();
    ops_.clear();
    read_results_.clear();
    writes_issued_ = 0;
    writes_acked_ = 0;
    reads_issued_ = 0;
    reads_completed_ = 0;
    gap_remaining_ = 0;
}

void
MmioMaster::saveState(StateWriter &w) const
{
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (const uint64_t v : rng_state)
        w.u64(v);
    w.u64(gap_remaining_);

    aw_.saveState(w);
    w_.saveState(w);
    b_.saveState(w);
    ar_.saveState(w);
    r_.saveState(w);

    w.podDeque(ops_);
    w.podDeque(read_results_);
    w.u64(writes_issued_);
    w.u64(writes_acked_);
    w.u64(reads_issued_);
    w.u64(reads_completed_);
}

void
MmioMaster::loadState(StateReader &r)
{
    uint64_t rng_state[4];
    for (uint64_t &v : rng_state)
        v = r.u64();
    rng_.setState(rng_state);
    gap_remaining_ = r.u64();

    aw_.loadState(r);
    w_.loadState(r);
    b_.loadState(r);
    ar_.loadState(r);
    r_.loadState(r);

    r.podDeque(ops_);
    r.podDeque(read_results_);
    writes_issued_ = r.u64();
    writes_acked_ = r.u64();
    reads_issued_ = r.u64();
    reads_completed_ = r.u64();
}

} // namespace vidi
