/**
 * @file
 * Shared PCIe bandwidth arbiter.
 *
 * The paper's prototype multiplexes the single PCIe interface between
 * the application's DMA traffic and Vidi's trace store using an
 * AXI-Interconnect (§4.1); trace traffic therefore competes with the
 * application for PCIe bandwidth, which is the dominant source of
 * Vidi's recording slowdown on DMA-heavy applications (Table 1).
 *
 * PcieBus models that contention as a per-cycle token bucket refilled at
 * the link rate. Consumers (trace store, host DMA engine, pcim target)
 * request bytes during their tick(); the bus must be registered with the
 * simulator *before* any consumer so its refill runs first each cycle.
 */

#ifndef VIDI_HOST_PCIE_BUS_H
#define VIDI_HOST_PCIE_BUS_H

#include <algorithm>
#include <cstdint>

#include "host/pcie_link.h"
#include "sim/module.h"

namespace vidi {

/**
 * Token-bucket PCIe bandwidth shared by multiple consumers.
 */
class PcieBus : public Module
{
  public:
    /**
     * @param name instance name
     * @param bytes_per_sec link bandwidth
     * @param clock_hz FPGA clock
     * @param burst_bytes token-bucket depth (queueing the link absorbs)
     */
    PcieBus(const std::string &name,
            double bytes_per_sec = kF1PcieBytesPerSec,
            double clock_hz = kF1ClockHz, uint64_t burst_bytes = 4096)
        : Module(name), link_(bytes_per_sec, clock_hz),
          burst_bytes_(burst_bytes)
    {
        setEvalMode(EvalMode::Never);  // no combinational logic
    }

    /**
     * Claim up to @p bytes of this cycle's budget; call from tick().
     *
     * @return bytes actually granted.
     */
    uint64_t
    request(uint64_t bytes)
    {
        const uint64_t granted = std::min(bytes, budget_);
        budget_ -= granted;
        granted_total_ += granted;
        return granted;
    }

    /** Bytes moved over the link since reset (diagnostic). */
    uint64_t grantedTotal() const { return granted_total_; }

    /** Subject the underlying link to injected stall/throttle windows. */
    void attachFault(const FaultInjector *fault)
    {
        link_.attachFault(fault);
        fault_attached_ = fault != nullptr;
    }

    /** Cycles the link was fully stalled by an injected fault. */
    uint64_t faultStallCycles() const { return link_.faultStallCycles(); }

    void
    tick() override
    {
        budget_ = std::min(budget_ + link_.grant(), burst_bytes_);
    }

    void
    reset() override
    {
        budget_ = 0;
        granted_total_ = 0;
        link_.reset();
    }

    /**
     * The bus itself never forces a cycle to execute: with nobody
     * drawing tokens, n per-cycle refills capped at the bucket depth
     * equal one bulk refill capped once, so the skip path below is
     * exact. Fault stall/throttle windows are indexed by link cycle,
     * so with a fault attached every cycle must run for real.
     */
    uint64_t
    idleUntil(uint64_t now) const override
    {
        return fault_attached_ ? now : kIdleForever;
    }

    void
    onCyclesSkipped(uint64_t from, uint64_t to) override
    {
        budget_ =
            std::min(budget_ + link_.skipGrants(to - from), burst_bytes_);
    }

    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

  private:
    PcieLink link_;
    uint64_t burst_bytes_;
    uint64_t budget_ = 0;
    uint64_t granted_total_ = 0;
    bool fault_attached_ = false;
};

} // namespace vidi

#endif // VIDI_HOST_PCIE_BUS_H
