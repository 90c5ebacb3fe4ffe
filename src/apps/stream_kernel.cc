#include "apps/stream_kernel.h"

#include "checkpoint/state_io.h"

#include <cmath>

#include "sim/logging.h"

namespace vidi {

StreamKernel::StreamKernel(const std::string &name, DramModel &ddr,
                           ComputeFn compute, Costs costs,
                           DmaEngine *doorbell)
    : Module(name), ddr_(ddr), compute_(std::move(compute)), costs_(costs),
      doorbell_(doorbell)
{
    if (!compute_)
        fatal("StreamKernel %s: compute function required", name.c_str());
    setEvalMode(EvalMode::Never);  // no combinational logic
}

uint64_t
StreamKernel::idleUntil(uint64_t now) const
{
    switch (state_) {
      case State::Idle:
        // Started by a register write, i.e. by another module's tick.
        return kIdleForever;
      case State::Doorbell:
        // Polling the pcim master for completion.
        return now;
      default:
        // Burning down a phase: the next interesting tick is the one
        // where the countdown has reached zero and the phase advances.
        return now + phase_cycles_left_;
    }
}

void
StreamKernel::onCyclesSkipped(uint64_t from, uint64_t to)
{
    const uint64_t n = to - from;
    phase_cycles_left_ -= n < phase_cycles_left_ ? n : phase_cycles_left_;
}

void
StreamKernel::writeReg(uint32_t addr, uint32_t value)
{
    switch (addr) {
      case hlsreg::kCtrl:
        if ((value & 1u) && state_ == State::Idle) {
            state_ = State::Reading;
            done_ = false;
            phase_cycles_left_ = static_cast<uint64_t>(
                std::ceil(in_len_ / costs_.read_bytes_per_cycle));
        }
        break;
      case hlsreg::kInAddrLo:
        in_addr_ = (in_addr_ & ~0xffffffffull) | value;
        break;
      case hlsreg::kInAddrHi:
        in_addr_ = (in_addr_ & 0xffffffffull) |
                   (static_cast<uint64_t>(value) << 32);
        break;
      case hlsreg::kInLen:
        in_len_ = value;
        break;
      case hlsreg::kOutAddrLo:
        out_addr_ = (out_addr_ & ~0xffffffffull) | value;
        break;
      case hlsreg::kOutAddrHi:
        out_addr_ = (out_addr_ & 0xffffffffull) |
                    (static_cast<uint64_t>(value) << 32);
        break;
      case hlsreg::kJobId:
        job_id_ = value;
        break;
      case hlsreg::kDoorbellLo:
        doorbell_addr_ = (doorbell_addr_ & ~0xffffffffull) | value;
        break;
      case hlsreg::kDoorbellHi:
        doorbell_addr_ = (doorbell_addr_ & 0xffffffffull) |
                         (static_cast<uint64_t>(value) << 32);
        break;
      default:
        // Unknown registers are write-ignored, as HLS stubs do.
        break;
    }
}

uint32_t
StreamKernel::readReg(uint32_t addr) const
{
    switch (addr) {
      case hlsreg::kCtrl:
        return (busy() ? 1u : 0u) | (done_ ? 2u : 0u);
      case hlsreg::kInLen:
        return in_len_;
      case hlsreg::kJobId:
        return job_id_;
      case hlsreg::kStatus:
        return done_ ? (0x80000000u | job_id_) : 0u;
      default:
        return 0;
    }
}

void
StreamKernel::tick()
{
    switch (state_) {
      case State::Idle:
        break;

      case State::Reading:
        if (phase_cycles_left_ > 0) {
            --phase_cycles_left_;
            break;
        }
        state_ = State::Computing;
        phase_cycles_left_ =
            costs_.compute_fixed_cycles +
            static_cast<uint64_t>(costs_.compute_cycles_per_byte * in_len_);
        break;

      case State::Computing:
        if (phase_cycles_left_ > 0) {
            --phase_cycles_left_;
            break;
        }
        {
            const std::vector<uint8_t> input =
                ddr_.readVec(in_addr_, in_len_);
            output_ = compute_(input);
            digest_.add(output_);
        }
        state_ = State::Writing;
        phase_cycles_left_ = static_cast<uint64_t>(
            std::ceil(output_.size() / costs_.write_bytes_per_cycle));
        break;

      case State::Writing:
        if (phase_cycles_left_ > 0) {
            --phase_cycles_left_;
            break;
        }
        ddr_.writeVec(out_addr_, output_);
        if (doorbell_ != nullptr && doorbell_addr_ != 0) {
            // Signal completion with a single-beat pcim write carrying
            // the job id (cycle-independent, unlike MMIO polling).
            std::vector<uint8_t> payload(kAxiDataBytes, 0);
            const uint64_t v = job_id_ + 1;
            std::memcpy(payload.data(), &v, sizeof(v));
            doorbell_->startWrite(doorbell_addr_, std::move(payload));
            state_ = State::Doorbell;
        } else {
            done_ = true;
            ++jobs_completed_;
            state_ = State::Idle;
        }
        break;

      case State::Doorbell:
        if (doorbell_->idle()) {
            done_ = true;
            ++jobs_completed_;
            state_ = State::Idle;
        }
        break;
    }
}

void
StreamKernel::reset()
{
    in_addr_ = 0;
    in_len_ = 0;
    out_addr_ = 0;
    job_id_ = 0;
    doorbell_addr_ = 0;
    state_ = State::Idle;
    done_ = false;
    phase_cycles_left_ = 0;
    output_.clear();
    jobs_completed_ = 0;
    digest_ = Digest{};
}

void
StreamKernel::saveState(StateWriter &w) const
{
    w.u64(in_addr_);
    w.u32(in_len_);
    w.u64(out_addr_);
    w.u32(job_id_);
    w.u64(doorbell_addr_);
    w.u8(uint8_t(state_));
    w.b(done_);
    w.u64(phase_cycles_left_);
    w.blob(output_);
    w.u64(jobs_completed_);
    w.u64(digest_.value());
}

void
StreamKernel::loadState(StateReader &r)
{
    in_addr_ = r.u64();
    in_len_ = r.u32();
    out_addr_ = r.u64();
    job_id_ = r.u32();
    doorbell_addr_ = r.u64();
    state_ = State(r.u8());
    done_ = r.b();
    phase_cycles_left_ = r.u64();
    output_ = r.blob();
    jobs_completed_ = r.u64();
    digest_.restore(r.u64());
}

} // namespace vidi
