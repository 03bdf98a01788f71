#include "analysis/cost_model.hh"

#include "mcu/mcu.hh"
#include "sim/time.hh"
#include "target/wisp.hh"

namespace edb::analysis {

namespace {

double
seconds(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::oneSec);
}

} // namespace

CostModel
CostModel::fromWisp(const target::Wisp &wisp)
{
    const mcu::Mcu &core = wisp.mcu();
    const mcu::McuConfig &mc = core.config();
    const target::WispConfig &wc = wisp.config();
    const energy::PowerSystemConfig &pc = wisp.power().config();
    using mcu::Mcu;
    using mcu::Uart;

    CostModel m;
    m.cyclePeriod = 1.0 / Mcu::clockHz;
    m.activeAmps = Mcu::activeAmps;
    m.haltAmps = Mcu::haltAmps;
    m.sleepAmps = Mcu::sleepAmps;
    m.ledAmps = target::Wisp::ledAmps;

    // Both UARTs run one line rate; only their drive current differs.
    m.uartFrameSeconds = Uart::bitsPerByte / Uart::baud;
    m.uartTxAmps = target::Wisp::consoleUartTxAmps;
    m.dbgUartFrameSeconds = m.uartFrameSeconds;
    m.dbgUartTxAmps = mcu::DebugPort::uartTxAmps;
    m.nvWriteCharge = wc.nvTech.writeChargeCoulombs;

    m.checkpointing = mc.checkpointingEnabled;
    m.chkptBaseCycles = core.checkpointCostCyclesFor(0);
    m.chkptCyclesPerWord =
        core.checkpointCostCyclesFor(4) - m.chkptBaseCycles;
    m.chkptBaseWords = m.chkptCyclesPerWord > 0
                           ? m.chkptBaseCycles / m.chkptCyclesPerWord
                           : 0;
    m.chkptSlotBytes = Mcu::checkpointSlotSize;

    m.capacitanceF = pc.capacitanceF;
    m.turnOnVolts = pc.turnOnVolts;
    m.brownOutVolts = pc.brownOutVolts;
    m.bootSeconds = seconds(Mcu::bootDelay);

    m.sramBase = target::layout::sramBase;
    m.sramSize = target::layout::sramSize;
    m.framBase = target::layout::framBase;
    m.framSize = target::layout::framSize;
    m.mmioBase = target::layout::mmioBase;
    m.mmioSize = target::layout::mmioSize;
    m.stackTop = Mcu::stackTop;

    for (unsigned b = 0; b < 256; ++b) {
        std::uint32_t word = static_cast<std::uint32_t>(b) << 24;
        auto decoded = isa::decode(word);
        if (!decoded)
            continue;
        mcu::Mcu::CostQuote q = core.costQuote(decoded->op);
        Quote &out = m.quotes[b];
        out.cycles = q.cycles;
        out.framExtraCycles = q.framExtraCycles;
        out.stackDependent = q.stackDependent;
        out.valid = true;
    }
    return m;
}

} // namespace edb::analysis
