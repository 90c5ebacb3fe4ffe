/**
 * @file
 * An AXI4 slave memory module.
 *
 * Terminates one 512-bit AXI4 interface against a DramModel with
 * configurable response latencies. Used as the CPU-side target of pcim
 * DMA writes (host DRAM) and, in the DDR-monitoring extension (§4.1),
 * as the on-FPGA DDR4 controller.
 *
 * Per the AXI specification, write data beats may arrive before their
 * write address (this legal reordering is what the §5.3 testing case
 * study exploits); the module buffers both sides and matches them.
 */

#ifndef VIDI_MEM_AXI_MEMORY_H
#define VIDI_MEM_AXI_MEMORY_H

#include <deque>
#include <utility>

#include "axi/f1_interfaces.h"
#include "channel/ports.h"
#include "host/pcie_bus.h"
#include "mem/dram_model.h"
#include "sim/module.h"
#include "sim/simulator.h"

namespace vidi {

/**
 * AXI4 slave backed by a DramModel.
 */
class AxiMemory : public Module
{
  public:
    /**
     * @param sim owning simulator (for the cycle counter)
     * @param name instance name
     * @param bus interface on which this module is the subordinate
     * @param mem backing store (owned by the caller)
     * @param read_latency cycles from AR completion to the first R beat
     * @param write_ack_latency cycles from the final W beat to B
     */
    AxiMemory(Simulator &sim, const std::string &name, const Axi4Bus &bus,
              DramModel &mem, unsigned read_latency = 8,
              unsigned write_ack_latency = 4);

    /**
     * Make this memory's data beats consume bandwidth from a shared
     * PCIe bus (used when the module models the CPU-side pcim target).
     */
    void
    setPcieBus(PcieBus *bus)
    {
        pcie_ = bus;
    }

    /**
     * Make this module serialize its backing DramModel in its own
     * checkpoint state. Set exactly when no other checkpointed component
     * covers @p mem (e.g. the DDR-extension controller, whose DramModel
     * is otherwise unreachable); host memory and kernel-owned DDR are
     * serialized by their owners and must leave this off.
     */
    void setCheckpointOwnsMem(bool owns) { checkpoint_owns_mem_ = owns; }

    void eval() override;
    void tick() override;
    void reset() override;
    uint64_t idleUntil(uint64_t now) const override;
    void saveState(StateWriter &w) const override;
    void loadState(StateReader &r) override;

    /** Completed write bursts (B responses sent). */
    uint64_t writesCompleted() const { return writes_completed_; }
    /** Completed read bursts. */
    uint64_t readsCompleted() const { return reads_completed_; }

  private:
    Simulator &sim_;
    Axi4Bus bus_;
    DramModel &mem_;
    unsigned read_latency_;
    unsigned write_ack_latency_;
    PcieBus *pcie_ = nullptr;
    int64_t tokens_ = 0;
    bool checkpoint_owns_mem_ = false;

    RxSink<AxiAx> aw_;
    RxSink<AxiW> w_;
    TxDriver<AxiB> b_;
    RxSink<AxiAx> ar_;
    TxDriver<AxiR> r_;

    std::deque<std::pair<uint64_t, AxiB>> pending_b_;
    std::deque<std::pair<uint64_t, AxiR>> pending_r_;

    uint64_t writes_completed_ = 0;
    uint64_t reads_completed_ = 0;
};

} // namespace vidi

#endif // VIDI_MEM_AXI_MEMORY_H
