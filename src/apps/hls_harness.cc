#include "apps/hls_harness.h"

#include "checkpoint/state_io.h"

#include "sim/logging.h"

namespace vidi {

LiteRegFile::LiteRegFile(const std::string &name, const LiteBus &bus,
                         ReadFn read_fn, WriteFn write_fn)
    : Module(name), read_fn_(std::move(read_fn)),
      write_fn_(std::move(write_fn)), aw_(*bus.aw, 4), w_(*bus.w, 4),
      b_(*bus.b), ar_(*bus.ar, 4), r_(*bus.r)
{
    // eval() only drives the port endpoints from registered state;
    // re-running it mid-settle is needed only when a bus channel moved.
    sensitive(*bus.aw);
    sensitive(*bus.w);
    sensitive(*bus.b);
    sensitive(*bus.ar);
    sensitive(*bus.r);
}

uint64_t
LiteRegFile::idleUntil(uint64_t now) const
{
    if (aw_.available() || w_.available() || ar_.available() ||
        !b_.idle() || !r_.idle())
        return now;
    return kIdleForever;  // a request arriving blocks the skip anyway
}

void
LiteRegFile::eval()
{
    aw_.eval();
    w_.eval();
    b_.eval();
    ar_.eval();
    r_.eval();
}

void
LiteRegFile::tick()
{
    aw_.tick();
    w_.tick();
    b_.tick();
    ar_.tick();
    r_.tick();

    while (aw_.available() && w_.available()) {
        const LiteAx a = aw_.pop();
        const LiteW d = w_.pop();
        write_fn_(a.addr, d.data);
        b_.queue(LiteB{});
    }
    while (ar_.available()) {
        const LiteAx a = ar_.pop();
        LiteR resp;
        resp.data = read_fn_(a.addr);
        r_.queue(resp);
    }
}

void
LiteRegFile::reset()
{
    aw_.reset();
    w_.reset();
    b_.reset();
    ar_.reset();
    r_.reset();
}

HlsHostDriver::HlsHostDriver(Simulator &sim, const std::string &name,
                             const HlsAppSpec &spec,
                             std::vector<std::vector<uint8_t>> inputs,
                             MmioMaster &mmio, DmaEngine &dma,
                             HostMemory &host, uint64_t doorbell_addr)
    : Module(name), spec_(spec), inputs_(std::move(inputs)), mmio_(mmio),
      dma_(dma), host_(host), doorbell_addr_(doorbell_addr),
      rng_(sim.rng().fork())
{
    if (inputs_.empty())
        fatal("HlsHostDriver %s: empty workload", name.c_str());
    mmio_.setIssueGap(0, spec_.host_jitter);
    dma_.setIssueGap(0, spec_.host_jitter);
    setEvalMode(EvalMode::Never);  // no combinational logic
}

uint64_t
HlsHostDriver::idleUntil(uint64_t now) const
{
    // The wait states poll conditions that only change through another
    // module's tick — that module reports itself active until then, and
    // the kernel re-queries after every executed cycle.
    switch (state_) {
      case State::StartJob:
        return now;
      case State::WaitDma:
        return dma_.idle() ? now : kIdleForever;
      case State::WaitDoorbell:
        return host_.mem().read64(doorbell_addr_) == job_ + 1
                   ? now : kIdleForever;
      case State::WaitRead:
        return dma_.readDataAvailable() ? now : kIdleForever;
      case State::Think:
        return now + think_left_;
      case State::AllDone:
        return kIdleForever;
    }
    return now;
}

void
HlsHostDriver::onCyclesSkipped(uint64_t from, uint64_t to)
{
    const uint64_t n = to - from;
    think_left_ -= n < think_left_ ? n : think_left_;
}

bool
HlsHostDriver::done() const
{
    return state_ == State::AllDone && mmio_.idle() && dma_.idle();
}

void
HlsHostDriver::tick()
{
    switch (state_) {
      case State::StartJob: {
        const std::vector<uint8_t> &input = inputs_[job_];
        expected_ = spec_.compute(input);
        dma_.startWrite(kDdrIn, input);
        state_ = State::WaitDma;
        break;
      }

      case State::WaitDma:
        if (!dma_.idle())
            break;
        // Program the kernel; the control write is last, so argument
        // writes are in place when the kernel starts.
        mmio_.issueWrite(hlsreg::kInAddrLo,
                         static_cast<uint32_t>(kDdrIn));
        mmio_.issueWrite(hlsreg::kInAddrHi,
                         static_cast<uint32_t>(kDdrIn >> 32));
        mmio_.issueWrite(hlsreg::kInLen,
                         static_cast<uint32_t>(inputs_[job_].size()));
        mmio_.issueWrite(hlsreg::kOutAddrLo,
                         static_cast<uint32_t>(kDdrOut));
        mmio_.issueWrite(hlsreg::kOutAddrHi,
                         static_cast<uint32_t>(kDdrOut >> 32));
        mmio_.issueWrite(hlsreg::kJobId, static_cast<uint32_t>(job_));
        mmio_.issueWrite(hlsreg::kDoorbellLo,
                         static_cast<uint32_t>(doorbell_addr_));
        mmio_.issueWrite(hlsreg::kDoorbellHi,
                         static_cast<uint32_t>(doorbell_addr_ >> 32));
        mmio_.issueWrite(hlsreg::kCtrl, 1);
        state_ = State::WaitDoorbell;
        break;

      case State::WaitDoorbell:
        // The kernel's completion interrupt: a pcim write of job+1 into
        // host DRAM (cycle-independent, unlike MMIO polling).
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
            digest_.add(data);
        }
        think_left_ = rng_.range(spec_.think_lo, spec_.think_hi);
        state_ = State::Think;
        break;

      case State::Think:
        if (think_left_ > 0) {
            --think_left_;
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
HlsHostDriver::reset()
{
    state_ = State::StartJob;
    job_ = 0;
    expected_.clear();
    think_left_ = 0;
    mismatch_ = false;
    digest_ = Digest{};
}

namespace {

/** Owns the application's non-module state and exposes completion. */
class HlsAppInstance : public AppInstance
{
  public:
    std::unique_ptr<DramModel> ddr;
    StreamKernel *kernel = nullptr;
    HlsHostDriver *driver = nullptr;  // null during replay

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
            d ^= 0xdeadbeefdeadbeefull;  // readback mismatch marker
        return d;
    }
};

} // namespace

std::unique_ptr<AppInstance>
HlsAppBuilder::build(Simulator &sim, const F1Channels &inner,
                     const F1Channels *outer, HostMemory *host,
                     PcieBus *pcie, uint64_t seed)
{
    (void)seed;  // jitter streams fork from the simulator RNG
    auto instance = std::make_unique<HlsAppInstance>();
    instance->ddr = std::make_unique<DramModel>();

    // FPGA side (always present; deterministic).
    DmaEngine &pcim_master =
        sim.add<DmaEngine>(sim, spec_.name + ".fpga.pcim", inner.pcim);
    StreamKernel &kernel = sim.add<StreamKernel>(
        spec_.name + ".kernel", *instance->ddr, spec_.compute, spec_.costs,
        &pcim_master);
    instance->kernel = &kernel;
    LiteRegFile &regs = sim.add<LiteRegFile>(
        spec_.name + ".regs", inner.ocl,
        [&kernel](uint32_t addr) { return kernel.readReg(addr); },
        [&kernel](uint32_t addr, uint32_t v) { kernel.writeReg(addr, v); });
    AxiMemory &pcis_slave = sim.add<AxiMemory>(
        sim, spec_.name + ".pcis_slave", inner.pcis, *instance->ddr);
    // The instance DDR is reachable only through this app; the slave
    // carries its image in checkpoints (the kernel shares the pointer).
    pcis_slave.setCheckpointOwnsMem(true);

    // CPU side (recording modes only).
    if (outer != nullptr) {
        if (host == nullptr)
            fatal("HlsAppBuilder: outer channels without host memory");
        MmioMaster &mmio =
            sim.add<MmioMaster>(sim, spec_.name + ".host.mmio", outer->ocl);
        DmaEngine &dma = sim.add<DmaEngine>(sim, spec_.name + ".host.dma",
                                            outer->pcis, pcie);
        AxiMemory &pcim_target = sim.add<AxiMemory>(
            sim, spec_.name + ".host.pcim", outer->pcim, host->mem());
        pcim_target.setPcieBus(pcie);

        const uint64_t doorbell = host->alloc(64, 64);
        instance->driver = &sim.add<HlsHostDriver>(
            sim, spec_.name + ".host.driver", spec_,
            spec_.workload(scale_), mmio, dma, *host, doorbell);
    }
    return instance;
}

void
LiteRegFile::saveState(StateWriter &w) const
{
    aw_.saveState(w);
    w_.saveState(w);
    b_.saveState(w);
    ar_.saveState(w);
    r_.saveState(w);
}

void
LiteRegFile::loadState(StateReader &r)
{
    aw_.loadState(r);
    w_.loadState(r);
    b_.loadState(r);
    ar_.loadState(r);
    r_.loadState(r);
}

void
HlsHostDriver::saveState(StateWriter &w) const
{
    uint64_t rng_state[4];
    rng_.getState(rng_state);
    for (const uint64_t v : rng_state)
        w.u64(v);
    w.u8(uint8_t(state_));
    w.u64(job_);
    w.blob(expected_);
    w.u64(think_left_);
    w.b(mismatch_);
    w.u64(digest_.value());
}

void
HlsHostDriver::loadState(StateReader &r)
{
    uint64_t rng_state[4];
    for (uint64_t &v : rng_state)
        v = r.u64();
    rng_.setState(rng_state);
    state_ = State(r.u8());
    job_ = r.u64();
    expected_ = r.blob();
    think_left_ = r.u64();
    mismatch_ = r.b();
    digest_.restore(r.u64());
}

} // namespace vidi
