#include "apps/dram_dma.h"

#include "checkpoint/state_io.h"

#include "sim/logging.h"

namespace vidi {

std::vector<uint8_t>
dmaTransform(const std::vector<uint8_t> &input)
{
    // Bytewise whitening plus a running mix — cheap "acceleration" work
    // whose output the host can cross-check in software.
    std::vector<uint8_t> out(input.size());
    uint8_t carry = 0x3c;
    for (size_t i = 0; i < input.size(); ++i) {
        out[i] = static_cast<uint8_t>((input[i] ^ 0xa5) + carry);
        carry = static_cast<uint8_t>(carry * 31 + out[i]);
    }
    return out;
}

DmaAppKernel::DmaAppKernel(const std::string &name, DramModel &ddr,
                           DmaEngine &pcim, bool patched)
    : Module(name), ddr_(ddr), pcim_(pcim), patched_(patched)
{
}

uint64_t
DmaAppKernel::idleUntil(uint64_t now) const
{
    switch (state_) {
      case State::Idle:
        // Started by a register write, i.e. by another module's tick.
        return kIdleForever;
      case State::WaitWriteback:
      case State::WaitAcks:
        // Polling the pcim master for completion.
        return now;
      default:
        // Reading, Chunk and StatusDelay burn down a countdown: the next
        // interesting tick is the one where it has reached zero.
        return now + phase_cycles_left_;
    }
}

void
DmaAppKernel::onCyclesSkipped(uint64_t from, uint64_t to)
{
    const uint64_t n = to - from;
    phase_cycles_left_ -= n < phase_cycles_left_ ? n : phase_cycles_left_;
}

void
DmaAppKernel::writeReg(uint32_t addr, uint32_t value)
{
    switch (addr) {
      case hlsreg::kCtrl:
        if ((value & 1u) && state_ == State::Idle) {
            state_ = State::Reading;
            compute_done_ = false;
            chunk_ = 0;
            chunks_total_ = (in_len_ + kChunkBytes - 1) / kChunkBytes;
            phase_cycles_left_ = in_len_ / 32 + 16;
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
      case hlsreg::kResultLo:
        result_addr_ = (result_addr_ & ~0xffffffffull) | value;
        break;
      case hlsreg::kResultHi:
        result_addr_ = (result_addr_ & 0xffffffffull) |
                       (static_cast<uint64_t>(value) << 32);
        break;
      default:
        break;
    }
}

uint32_t
DmaAppKernel::readReg(uint32_t addr) const
{
    switch (addr) {
      case hlsreg::kCtrl:
        return (state_ != State::Idle ? 1u : 0u) |
               (compute_done_ ? 2u : 0u);
      case hlsreg::kStatus:
        // The cycle-dependent status flag the host polls.
        return compute_done_ ? (0x80000000u | job_id_) : 0u;
      default:
        return 0;
    }
}

void
DmaAppKernel::tick()
{
    switch (state_) {
      case State::Idle:
        break;

      case State::Reading:
        if (phase_cycles_left_ > 0) {
            --phase_cycles_left_;
            break;
        }
        input_ = ddr_.readVec(in_addr_, in_len_);
        state_ = State::Chunk;
        phase_cycles_left_ = 7 * kChunkBytes / 4;  // per-chunk compute
        break;

      case State::Chunk: {
        if (phase_cycles_left_ > 0) {
            --phase_cycles_left_;
            break;
        }
        const size_t off = chunk_ * kChunkBytes;
        const size_t n = std::min(kChunkBytes, input_.size() - off);
        const std::vector<uint8_t> piece(input_.begin() + off,
                                         input_.begin() + off + n);
        std::vector<uint8_t> transformed = dmaTransform(piece);
        digest_.add(transformed);
        ddr_.writeVec(out_addr_ + off, transformed);
        // Bidirectional DMA: stream the chunk back to CPU DRAM.
        pcim_.startWrite(result_addr_ + off, std::move(transformed));

        if (++chunk_ < chunks_total_) {
            phase_cycles_left_ = 7 * kChunkBytes / 4;
            break;
        }
        state_ = State::WaitWriteback;
        break;
      }

      case State::WaitWriteback:
        // All chunks computed; once the writebacks drain, raise the
        // polled status after a small *data-dependent* settle delay.
        // Whether a poll arriving right at this boundary observes
        // "done" depends on the exact cycle — the cycle-dependent
        // behaviour of §3.6 that transaction determinism cannot
        // reproduce.
        if (pcim_.idle()) {
            // Usually the status settles immediately; for a small
            // data-dependent fraction of tasks it takes a few extra
            // cycles, and a poll racing that window flips.
            phase_cycles_left_ = (digest_.value() & 0xff) < 6 ? 8 : 0;
            state_ = State::StatusDelay;
        }
        break;

      case State::StatusDelay:
        if (phase_cycles_left_ > 0) {
            --phase_cycles_left_;
            break;
        }
        compute_done_ = true;
        if (patched_) {
            state_ = State::WaitAcks;
        } else {
            ++jobs_completed_;
            state_ = State::Idle;
        }
        break;

      case State::WaitAcks:
        // Patched: only signal completion once every writeback is
        // acknowledged, via a doorbell transaction.
        if (pcim_.idle()) {
            std::vector<uint8_t> payload(kAxiDataBytes, 0);
            const uint64_t v = job_id_ + 1;
            std::memcpy(payload.data(), &v, sizeof(v));
            pcim_.startWrite(doorbell_addr_, std::move(payload));
            ++jobs_completed_;
            state_ = State::Idle;
        }
        break;
    }
}

void
DmaAppKernel::reset()
{
    in_addr_ = 0;
    in_len_ = 0;
    out_addr_ = 0;
    result_addr_ = 0;
    doorbell_addr_ = 0;
    job_id_ = 0;
    state_ = State::Idle;
    phase_cycles_left_ = 0;
    chunk_ = 0;
    chunks_total_ = 0;
    input_.clear();
    compute_done_ = false;
    jobs_completed_ = 0;
    digest_ = Digest{};
}

DmaHostDriver::DmaHostDriver(Simulator &sim, const std::string &name,
                             std::vector<std::vector<uint8_t>> inputs,
                             MmioMaster &mmio, DmaEngine &dma,
                             HostMemory &host, uint64_t result_addr,
                             uint64_t doorbell_addr, bool patched,
                             uint64_t poll_interval)
    : Module(name), inputs_(std::move(inputs)), mmio_(mmio), dma_(dma),
      host_(host), result_addr_(result_addr),
      doorbell_addr_(doorbell_addr), patched_(patched),
      poll_interval_(poll_interval), rng_(sim.rng().fork())
{
    if (inputs_.empty())
        fatal("DmaHostDriver %s: empty workload", name.c_str());
    mmio_.setIssueGap(0, 24);
    dma_.setIssueGap(0, 24);
}

bool
DmaHostDriver::done() const
{
    return state_ == State::AllDone && mmio_.idle() && dma_.idle();
}

void
DmaHostDriver::tick()
{
    switch (state_) {
      case State::StartJob:
        expected_ = dmaTransform(inputs_[job_]);
        dma_.startWrite(kDdrIn, inputs_[job_]);
        state_ = State::WaitDma;
        break;

      case State::WaitDma:
        if (!dma_.idle())
            break;
        mmio_.issueWrite(hlsreg::kInAddrLo, static_cast<uint32_t>(kDdrIn));
        mmio_.issueWrite(hlsreg::kInAddrHi,
                         static_cast<uint32_t>(kDdrIn >> 32));
        mmio_.issueWrite(hlsreg::kInLen,
                         static_cast<uint32_t>(inputs_[job_].size()));
        mmio_.issueWrite(hlsreg::kOutAddrLo,
                         static_cast<uint32_t>(kDdrOut));
        mmio_.issueWrite(hlsreg::kOutAddrHi,
                         static_cast<uint32_t>(kDdrOut >> 32));
        mmio_.issueWrite(hlsreg::kJobId, static_cast<uint32_t>(job_));
        mmio_.issueWrite(hlsreg::kResultLo,
                         static_cast<uint32_t>(result_addr_));
        mmio_.issueWrite(hlsreg::kResultHi,
                         static_cast<uint32_t>(result_addr_ >> 32));
        mmio_.issueWrite(hlsreg::kDoorbellLo,
                         static_cast<uint32_t>(doorbell_addr_));
        mmio_.issueWrite(hlsreg::kDoorbellHi,
                         static_cast<uint32_t>(doorbell_addr_ >> 32));
        mmio_.issueWrite(hlsreg::kCtrl, 1);
        if (patched_) {
            state_ = State::WaitDoorbell;
        } else {
            wait_left_ = poll_interval_ + rng_.below(poll_interval_ / 4);
            state_ = State::PollWait;
        }
        break;

      case State::PollWait:
        if (wait_left_ > 0) {
            --wait_left_;
            break;
        }
        state_ = State::PollIssue;
        break;

      case State::PollIssue:
        mmio_.issueRead(hlsreg::kStatus);
        state_ = State::PollResult;
        break;

      case State::PollResult:
        if (!mmio_.readAvailable())
            break;
        if (mmio_.popRead() ==
            (0x80000000u | static_cast<uint32_t>(job_))) {
            dma_.startRead(kDdrOut, expected_.size());
            state_ = State::WaitRead;
        } else {
            wait_left_ =
                poll_interval_ + rng_.below(poll_interval_ / 4);
            state_ = State::PollWait;
        }
        break;

      case State::WaitDoorbell:
        if (host_.mem().read64(doorbell_addr_) == job_ + 1) {
            dma_.startRead(kDdrOut, expected_.size());
            state_ = State::WaitRead;
        }
        break;

      case State::WaitRead:
        if (!dma_.readDataAvailable())
            break;
        {
            const std::vector<uint8_t> data = dma_.popReadData();
            if (data != expected_)
                mismatch_ = true;
            // Cross-check the pcim writeback path as well.
            const std::vector<uint8_t> writeback =
                host_.mem().readVec(result_addr_, expected_.size());
            if (writeback != expected_)
                mismatch_ = true;
            digest_.add(data);
        }
        wait_left_ = rng_.range(32, 512);
        state_ = State::Think;
        break;

      case State::Think:
        if (wait_left_ > 0) {
            --wait_left_;
            break;
        }
        if (++job_ >= inputs_.size())
            state_ = State::AllDone;
        else
            state_ = State::StartJob;
        break;

      case State::AllDone:
        break;
    }
}

void
DmaHostDriver::reset()
{
    state_ = State::StartJob;
    job_ = 0;
    expected_.clear();
    wait_left_ = 0;
    mismatch_ = false;
    digest_ = Digest{};
}

namespace {

class DmaAppInstance : public AppInstance
{
  public:
    std::unique_ptr<DramModel> ddr;
    DmaAppKernel *kernel = nullptr;
    DmaHostDriver *driver = nullptr;

    bool
    done() const override
    {
        return driver == nullptr || driver->done();
    }

    uint64_t
    outputDigest() const override
    {
        uint64_t d = kernel->outputChecksum();
        if (driver != nullptr && driver->anyMismatch())
            d ^= 0xdeadbeefdeadbeefull;
        return d;
    }
};

} // namespace

std::unique_ptr<AppInstance>
DmaAppBuilder::build(Simulator &sim, const F1Channels &inner,
                     const F1Channels *outer, HostMemory *host,
                     PcieBus *pcie, uint64_t seed)
{
    (void)seed;
    auto instance = std::make_unique<DmaAppInstance>();
    instance->ddr = std::make_unique<DramModel>();

    DmaEngine &pcim_master =
        sim.add<DmaEngine>(sim, name() + ".fpga.pcim", inner.pcim);
    DmaAppKernel &kernel = sim.add<DmaAppKernel>(
        name() + ".kernel", *instance->ddr, pcim_master, patched_);
    instance->kernel = &kernel;
    LiteRegFile &regs = sim.add<LiteRegFile>(
        name() + ".regs", inner.ocl,
        [&kernel](uint32_t addr) { return kernel.readReg(addr); },
        [&kernel](uint32_t addr, uint32_t v) { kernel.writeReg(addr, v); });
    AxiMemory &pcis_slave = sim.add<AxiMemory>(
        sim, name() + ".pcis_slave", inner.pcis, *instance->ddr);
    // The instance DDR is reachable only through this app; the slave
    // carries its image in checkpoints (the kernel shares the pointer).
    pcis_slave.setCheckpointOwnsMem(true);

    if (outer != nullptr) {
        if (host == nullptr)
            fatal("DmaAppBuilder: outer channels without host memory");
        MmioMaster &mmio =
            sim.add<MmioMaster>(sim, name() + ".host.mmio", outer->ocl);
        DmaEngine &dma =
            sim.add<DmaEngine>(sim, name() + ".host.dma", outer->pcis,
                               pcie);
        AxiMemory &pcim_target = sim.add<AxiMemory>(
            sim, name() + ".host.pcim", outer->pcim, host->mem());
        pcim_target.setPcieBus(pcie);

        const size_t jobs = std::max<size_t>(1, size_t(6 * scale_));
        std::vector<std::vector<uint8_t>> inputs;
        for (size_t j = 0; j < jobs; ++j)
            inputs.push_back(patternBytes(content_seed_ + j, 16384));

        const uint64_t result = host->alloc(16384, 64);
        const uint64_t doorbell = host->alloc(64, 64);
        instance->driver = &sim.add<DmaHostDriver>(
            sim, name() + ".host.driver", std::move(inputs), mmio, dma,
            *host, result, doorbell, patched_, poll_interval_);
    }
    return instance;
}

void
DmaAppKernel::saveState(StateWriter &w) const
{
    w.u64(in_addr_);
    w.u32(in_len_);
    w.u64(out_addr_);
    w.u64(result_addr_);
    w.u64(doorbell_addr_);
    w.u32(job_id_);
    w.u8(uint8_t(state_));
    w.u64(phase_cycles_left_);
    w.u64(chunk_);
    w.u64(chunks_total_);
    w.blob(input_);
    w.b(compute_done_);
    w.u64(jobs_completed_);
    w.u64(digest_.value());
}

void
DmaAppKernel::loadState(StateReader &r)
{
    in_addr_ = r.u64();
    in_len_ = r.u32();
    out_addr_ = r.u64();
    result_addr_ = r.u64();
    doorbell_addr_ = r.u64();
    job_id_ = r.u32();
    state_ = State(r.u8());
    phase_cycles_left_ = r.u64();
    chunk_ = r.u64();
    chunks_total_ = r.u64();
    input_ = r.blob();
    compute_done_ = r.b();
    jobs_completed_ = r.u64();
    digest_.restore(r.u64());
}

void
DmaHostDriver::saveState(StateWriter &w) const
{
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (const uint64_t v : rng_state)
        w.u64(v);
    w.u8(uint8_t(state_));
    w.u64(job_);
    w.blob(expected_);
    w.u64(wait_left_);
    w.b(mismatch_);
    w.u64(digest_.value());
}

void
DmaHostDriver::loadState(StateReader &r)
{
    uint64_t rng_state[4];
    for (uint64_t &v : rng_state)
        v = r.u64();
    rng_.setState(rng_state);
    state_ = State(r.u8());
    job_ = r.u64();
    expected_ = r.blob();
    wait_left_ = r.u64();
    mismatch_ = r.b();
    digest_.restore(r.u64());
}

} // namespace vidi
