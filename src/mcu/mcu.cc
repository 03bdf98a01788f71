#include "mcu/mcu.hh"

#include <algorithm>

#include "mcu/mmio_map.hh"
#include "mem/nv_audit.hh"
#include "mem/nv_region.hh"
#include "runtime/checkpoint.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::mcu {

namespace {

/** Checkpoint slot field offsets (bytes); the canonical frame format
 *  lives in runtime/checkpoint.hh and is shared with the auditor and
 *  the tests. */
constexpr mem::Addr ckMagicOff = runtime::ckfmt::magicOff;
constexpr mem::Addr ckSeqOff = runtime::ckfmt::seqOff;
constexpr mem::Addr ckPcOff = runtime::ckfmt::pcOff;
constexpr mem::Addr ckFlagsOff = runtime::ckfmt::flagsOff;
constexpr mem::Addr ckSpOff = runtime::ckfmt::spOff;
constexpr mem::Addr ckStackLenOff = runtime::ckfmt::stackLenOff;
constexpr mem::Addr ckRegsOff = runtime::ckfmt::regsOff;
constexpr mem::Addr ckStackOff = runtime::ckfmt::stackOff;
constexpr std::uint32_t ckMagic = runtime::ckfmt::magic;

} // namespace

const char *
mcuStateName(McuState state)
{
    switch (state) {
      case McuState::Off: return "off";
      case McuState::Booting: return "booting";
      case McuState::Running: return "running";
      case McuState::Halted: return "halted";
      case McuState::Faulted: return "faulted";
    }
    return "unknown";
}

const char *
mcuFaultName(McuFault fault)
{
    switch (fault) {
      case McuFault::None: return "none";
      case McuFault::IllegalInstr: return "illegal-instruction";
      case McuFault::BusError: return "bus-error";
      case McuFault::Misaligned: return "misaligned";
    }
    return "unknown";
}

Mcu::Mcu(sim::Simulator &simulator, std::string component_name,
         sim::TimeCursor &time_cursor, mem::MemoryMap &memory,
         energy::PowerSystem &power_sys, McuConfig config)
    : sim::Component(simulator, std::move(component_name)),
      cursor(time_cursor),
      mem_(memory),
      power(power_sys),
      cfg(config),
      fast_(power_sys.config().engine == energy::Engine::Fast)
{
    chkptEnabled = cfg.checkpointingEnabled;
    coreLoad = power.addLoad(name() + ".core", activeAmps, false);
    power.addPowerListener([this](bool on) { onPowerChange(on); });
    mem_.setFindCacheEnabled(fast_);
}

Mcu::~Mcu()
{
    // The write watch closes over `this`; drop it before the map can
    // outlive the core.
    if (icacheReady_)
        mem_.clearWriteWatch();
}

void
Mcu::installMmio(mem::MmioRegion &mmio)
{
    mmio.addRegister(
        mmio::cycleLo, name() + ".cycleLo",
        [this] { return static_cast<std::uint32_t>(cycles); }, nullptr);
    mmio.addRegister(
        mmio::cycleHi, name() + ".cycleHi",
        [this] { return static_cast<std::uint32_t>(cycles >> 32); },
        nullptr);
    mmio.addRegister(
        mmio::chkptCtl, name() + ".chkptCtl",
        [this] { return chkptEnabled ? 1u : 0u; },
        [this](std::uint32_t v) { chkptEnabled = v & 1u; });
    mmio.addRegister(
        mmio::sleep, name() + ".sleep",
        [this] {
            return static_cast<std::uint32_t>(sleepCycles);
        },
        [this](std::uint32_t v) {
            sleepCycles = v;
            if (sleepCycles > 0)
                power.setLoadCurrent(coreLoad, sleepAmps);
        });
}

void
Mcu::loadProgram(const isa::Program &program)
{
    // Bulk-copy each segment straight into the backing store of the
    // region(s) it lands in. Flashing is not a program store: it
    // must neither pollute the wear statistics nor cost O(bytes)
    // routed byte writes.
    for (const auto &seg : program.segments) {
        std::size_t off = 0;
        while (off < seg.bytes.size()) {
            mem::Addr addr = seg.base + static_cast<mem::Addr>(off);
            mem::Region *region = mem_.find(addr);
            if (!region) {
                sim::fatal("Mcu::loadProgram: address ", addr,
                           " is not mapped");
            }
            std::size_t room = region->base() + region->size() - addr;
            std::size_t chunk =
                std::min(seg.bytes.size() - off, room);
            if (auto *ram = dynamic_cast<mem::Ram *>(region)) {
                ram->load(addr, seg.bytes.data() + off, chunk);
            } else {
                for (std::size_t i = 0; i < chunk; ++i)
                    mem_.write8(addr + static_cast<mem::Addr>(i),
                                seg.bytes[off + i]);
            }
            off += chunk;
        }
    }
    entry = program.entry;
    irqHandler = program.irqHandler;
    chkptEnabled = cfg.checkpointingEnabled;
    icacheInvalidateAll();
    invalidateCheckpoints();
    if (audit_)
        audit_->reset();
}

void
Mcu::icacheEnsure()
{
    icacheReady_ = true;
    mem::Addr lo = ~mem::Addr{0};
    mem::Addr hi = 0;
    framRanges_.clear();
    for (auto *region : mem_.regions()) {
        if (region->kind() == mem::RegionKind::Fram)
            framRanges_.emplace_back(region->base(), region->size());
        if (region->kind() == mem::RegionKind::Mmio)
            continue;
        lo = std::min(lo, region->base());
        hi = std::max(hi, region->base() + region->size());
    }
    if (lo >= hi) {
        icache_.clear();
        icacheValid_.clear();
        return;
    }
    lo &= ~mem::Addr{3};
    icacheBase_ = lo;
    icache_.assign((hi - lo) / 4, {});
    icacheValid_.assign(icache_.size(), 0);
    // Any routed store into the cached span drops the covering word
    // (the map clears the valid byte directly). Bulk mutations that
    // bypass the map (Ram::load, SRAM poison) are handled by the
    // explicit icacheInvalidateAll calls in loadProgram,
    // onPowerChange and state().
    mem_.setWriteWatch(lo, hi, icacheValid_.data());
}

void
Mcu::icacheInvalidateAll()
{
    if (!icacheValid_.empty())
        std::fill(icacheValid_.begin(), icacheValid_.end(),
                  std::uint8_t{0});
}

void
Mcu::classifyCost(isa::Opcode op, unsigned &cyc, InstrClass &cls) const
{
    cyc = isa::baseCycles(op);
    cls = InstrClass::Static;
    switch (op) {
      case isa::Opcode::Ldw:
      case isa::Opcode::Ldb:
      case isa::Opcode::Push:
      case isa::Opcode::Pop:
      case isa::Opcode::Call:
      case isa::Opcode::Callr:
      case isa::Opcode::Ret:
      case isa::Opcode::Reti:
        cyc += memExtraCycles;
        break;
      case isa::Opcode::Stw:
      case isa::Opcode::Stb:
        cyc += memExtraCycles;
        cls = InstrClass::Store;
        break;
      case isa::Opcode::Chkpt:
        cls = InstrClass::Chkpt;
        break;
      default:
        break;
    }
}

void
Mcu::invalidateCheckpoints()
{
    for (int slot = 0; slot < 2; ++slot) {
        mem::Addr base =
            checkpointBase + slot * checkpointSlotSize;
        mem_.write32(base + ckMagicOff, 0);
        mem_.write32(base + ckSeqOff, 0);
    }
}

void
Mcu::onPowerChange(bool on)
{
    if (on) {
        state_ = McuState::Booting;
        power.setLoadCurrent(coreLoad, activeAmps);
        power.setLoadEnabled(coreLoad, true);
        bootEvent = cursor.scheduleIn(bootDelay, [this] { boot(); });
        return;
    }
    // Brown-out: volatile state is lost; the board reset hook poisons
    // SRAM and resets peripherals.
    if (audit_ && state_ != McuState::Off)
        audit_->onPowerLoss(cursor.now());
    state_ = McuState::Off;
    fault_ = McuFault::None;
    inIrq = false;
    sleepCycles = 0;
    if (sliceEvent != sim::invalidEventId) {
        sim().cancel(sliceEvent);
        sliceEvent = sim::invalidEventId;
    }
    if (bootEvent != sim::invalidEventId) {
        sim().cancel(bootEvent);
        bootEvent = sim::invalidEventId;
    }
    power.setLoadEnabled(coreLoad, false);
    // The reset hook poisons SRAM behind the map's back; any
    // predecoded instruction may now be stale.
    icacheInvalidateAll();
    if (resetHook)
        resetHook();
}

void
Mcu::boot()
{
    bootEvent = sim::invalidEventId;
    if (state_ != McuState::Booting)
        return;
    regs.fill(0);
    flags_ = isa::Flags{};
    fault_ = McuFault::None;
    inIrq = false;
    sleepCycles = 0;
    regs[isa::regSp] = stackTop;
    pc_ = entry;
    state_ = McuState::Running;
    ++reboots;
    if (audit_)
        audit_->onBoot(cursor.now());
    power.setLoadCurrent(coreLoad, activeAmps);
    power.setLoadEnabled(coreLoad, true);
    if (chkptEnabled)
        tryRestore();
    sliceEvent = sim().schedule(cursor.now(), [this] { runSlice(); });
}

void
Mcu::runSlice()
{
    sliceEvent = sim::invalidEventId;
    if (state_ != McuState::Running)
        return;
    sim::Tick t = std::max(now(), cursor.now());
    sim::Tick end = t + sliceQuantum;
    if (!fast_) {
        // Reference path: peek the event queue before every
        // instruction.
        while (state_ == McuState::Running && t < end) {
            if (sim().nextEventTime() <= t)
                break;
            if (!step(t))
                break;
        }
    } else {
        // Segment-amortized path: the next-event time can only move
        // when an event is scheduled or cancelled, and during a
        // slice only MMIO-touching instructions, the tracer, or a
        // power transition (which ends the slice anyway) can do
        // that. So read it once per segment and re-read only after
        // such an instruction. Instruction-for-instruction identical
        // to the reference path.
        const bool traced = static_cast<bool>(tracer);
        while (state_ == McuState::Running && t < end) {
            sim::Tick next_evt = sim().nextEventTime();
            if (next_evt <= t)
                break;
            const sim::Tick seg_end = std::min(end, next_evt);
            bool live = true;
            mem_.clearMmioTouched();
            while (state_ == McuState::Running && t < seg_end) {
                if (!step(t)) {
                    live = false;
                    break;
                }
                if (mem_.mmioTouched() || traced)
                    break; // resync with the event queue
            }
            if (!live)
                break;
        }
    }
    if (state_ == McuState::Running)
        sliceEvent = sim().schedule(t, [this] { runSlice(); });
}

bool
Mcu::step(sim::Tick &t)
{
    // Timed low-power wait: consume the remaining sleep budget in
    // bounded chunks (so queued events interleave at their proper
    // times) at the sleep current. A debug interrupt wakes early.
    if (sleepCycles > 0) {
        if (irqLine && irqHandler != 0) {
            sleepCycles = 0;
        } else {
            std::uint64_t chunk = std::min<std::uint64_t>(
                sleepCycles, 200); // 50 us at 4 MHz
            sim::Tick dt =
                static_cast<sim::Tick>(chunk) * cycleTicks;
            power.advanceTo(t + dt);
            if (state_ != McuState::Running)
                return false;
            cursor.advance(t + dt);
            cycles += chunk;
            t += dt;
            sleepCycles -= chunk;
        }
        if (sleepCycles == 0)
            power.setLoadCurrent(coreLoad, activeAmps);
        return true;
    }

    // Fetch: hit the predecode cache, else fetch + decode + classify
    // and (when the PC is cacheable) remember the result.
    const isa::Instr *ip = nullptr;
    unsigned cyc = 0;
    double dt_sec = 0.0;
    bool have_dt_sec = false;
    InstrClass cls = InstrClass::Static;
    std::size_t idx = 0;
    bool cacheable = false;
    if (fast_) {
        if (!icacheReady_)
            icacheEnsure();
        if (!(pc_ & 3u) && pc_ >= icacheBase_) {
            idx = (pc_ - icacheBase_) >> 2;
            if (idx < icache_.size()) {
                cacheable = true;
                if (icacheValid_[idx]) {
                    const CachedInstr &entry = icache_[idx];
                    ip = &entry.instr;
                    cyc = entry.cycles;
                    cls = entry.cls;
                    dt_sec = entry.dtSeconds;
                    have_dt_sec = true;
                }
            }
        }
    }
    isa::Instr fetched;
    if (!ip) {
        std::uint32_t word;
        if (!memRead32(pc_, word))
            return false;
        auto decoded = isa::decode(word);
        if (!decoded) {
            raiseFault(McuFault::IllegalInstr);
            return false;
        }
        fetched = *decoded;
        ip = &fetched;
        classifyCost(fetched.op, cyc, cls);
        if (cacheable) {
            // Never cache instruction words read from MMIO: those
            // reads have side effects and must stay on the slow
            // path.
            mem::Region *region = mem_.find(pc_);
            if (region && region->kind() != mem::RegionKind::Mmio) {
                icache_[idx] = CachedInstr{
                    fetched, cyc,
                    sim::secondsFromTicks(
                        static_cast<sim::Tick>(cyc) * cycleTicks),
                    cls};
                icacheValid_[idx] = 1;
            }
        }
    }
    const isa::Instr &instr = *ip;

    // Dynamic cost components (same order of operations as the
    // reference cost switch).
    if (cls == InstrClass::Store) {
        mem::Addr ea = regs[instr.rs] +
                       static_cast<std::uint32_t>(instr.imm);
        bool fram = false;
        if (icacheReady_) {
            // Exact per-region ranges (gaps stay non-FRAM), so this
            // matches the map lookup for every address.
            for (const auto &[fbase, fspan] : framRanges_) {
                if (ea - fbase < fspan) {
                    fram = true;
                    break;
                }
            }
        } else {
            mem::Region *region = mem_.find(ea);
            fram = region && region->kind() == mem::RegionKind::Fram;
        }
        if (fram) {
            cyc += cfg.framWriteExtraCycles;
            have_dt_sec = false;
        }
    } else if (cls == InstrClass::Chkpt) {
        if (chkptEnabled && !cfg.interruptibleCommit) {
            // Atomic commit: the whole checkpoint cost is drained
            // before the burst, so the commit can never tear. The
            // interruptible path keeps the base cost here and drains
            // word by word inside doCheckpoint().
            cyc = checkpointCostCycles();
            have_dt_sec = false;
        }
    }

    // Drain the supply across the instruction; a brown-out mid
    // instruction kills it before it commits.
    sim::Tick dt = static_cast<sim::Tick>(cyc) * cycleTicks;
    if (fast_ && dt <= energy::PowerSystem::maxStep &&
        power.lastUpdateTick() == t) {
        if (!have_dt_sec)
            dt_sec = sim::secondsFromTicks(dt);
        power.drainStep(dt, dt_sec);
    } else {
        power.advanceTo(t + dt);
    }
    if (state_ != McuState::Running)
        return false;
    cursor.advance(t + dt);
    cycles += cyc;
    ++instrs;
    if (tracer)
        tracer(pc_, instr);
    if (audit_)
        auditExec(instr);
    execute(instr, t + dt);
    t += dt;
    if (commitExtraTicks_ != 0) {
        // An interruptible checkpoint commit advanced the power
        // system and cursor word by word; fold its duration back
        // into the slice clock.
        t += commitExtraTicks_;
        commitExtraTicks_ = 0;
    }
    if (state_ != McuState::Running)
        return false;

    // Debug interrupt, taken at instruction boundaries.
    if (irqLine && !inIrq && irqHandler != 0) {
        sim::Tick idt =
            static_cast<sim::Tick>(irqEntryCycles) * cycleTicks;
        power.advanceTo(t + idt);
        if (state_ != McuState::Running)
            return false;
        cursor.advance(t + idt);
        cycles += irqEntryCycles;
        t += idt;
        enterIrq();
        if (state_ != McuState::Running)
            return false;
    }
    return true;
}

void
Mcu::enterIrq()
{
    regs[isa::regSp] -= 4;
    if (!memWrite32(regs[isa::regSp], flags_.pack()))
        return;
    regs[isa::regSp] -= 4;
    if (!memWrite32(regs[isa::regSp], pc_))
        return;
    pc_ = irqHandler;
    inIrq = true;
}

void
Mcu::setFlagsFromCompare(std::uint32_t a, std::uint32_t b)
{
    std::uint32_t r = a - b;
    flags_.z = a == b;
    flags_.n = (r >> 31) & 1u;
    flags_.c = a >= b;
    flags_.v = (((a ^ b) & (a ^ r)) >> 31) & 1u;
}

void
Mcu::execute(const isa::Instr &i, sim::Tick)
{
    using isa::Opcode;
    mem::Addr next = pc_ + 4;
    auto uimm = static_cast<std::uint32_t>(i.imm);

    switch (i.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        state_ = McuState::Halted;
        power.setLoadCurrent(coreLoad, haltAmps);
        break;
      case Opcode::Li:
        regs[i.rd] = uimm;
        break;
      case Opcode::Lui:
        regs[i.rd] = (uimm & 0xFFFFu) << 16;
        break;
      case Opcode::Mov:
        regs[i.rd] = regs[i.rs];
        break;
      case Opcode::Add:
        regs[i.rd] = regs[i.rs] + regs[i.rt];
        break;
      case Opcode::Sub:
        regs[i.rd] = regs[i.rs] - regs[i.rt];
        break;
      case Opcode::Mul:
        regs[i.rd] = regs[i.rs] * regs[i.rt];
        break;
      case Opcode::Divu:
        regs[i.rd] = regs[i.rt] == 0 ? 0xFFFFFFFFu
                                     : regs[i.rs] / regs[i.rt];
        break;
      case Opcode::Remu:
        regs[i.rd] =
            regs[i.rt] == 0 ? regs[i.rs] : regs[i.rs] % regs[i.rt];
        break;
      case Opcode::And:
        regs[i.rd] = regs[i.rs] & regs[i.rt];
        break;
      case Opcode::Or:
        regs[i.rd] = regs[i.rs] | regs[i.rt];
        break;
      case Opcode::Xor:
        regs[i.rd] = regs[i.rs] ^ regs[i.rt];
        break;
      case Opcode::Shl:
        regs[i.rd] = regs[i.rs] << (regs[i.rt] & 31u);
        break;
      case Opcode::Shr:
        regs[i.rd] = regs[i.rs] >> (regs[i.rt] & 31u);
        break;
      case Opcode::Sar:
        regs[i.rd] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(regs[i.rs]) >>
            (regs[i.rt] & 31u));
        break;
      case Opcode::Addi:
        regs[i.rd] = regs[i.rs] + uimm;
        break;
      case Opcode::Andi:
        regs[i.rd] = regs[i.rs] & (uimm & 0xFFFFu);
        break;
      case Opcode::Ori:
        regs[i.rd] = regs[i.rs] | (uimm & 0xFFFFu);
        break;
      case Opcode::Xori:
        regs[i.rd] = regs[i.rs] ^ (uimm & 0xFFFFu);
        break;
      case Opcode::Shli:
        regs[i.rd] = regs[i.rs] << (uimm & 31u);
        break;
      case Opcode::Shri:
        regs[i.rd] = regs[i.rs] >> (uimm & 31u);
        break;
      case Opcode::Cmp:
        setFlagsFromCompare(regs[i.rs], regs[i.rt]);
        break;
      case Opcode::Cmpi:
        setFlagsFromCompare(regs[i.rs], uimm);
        break;
      case Opcode::Br:
        next = pc_ + 4 + uimm;
        break;
      case Opcode::Beq:
        if (flags_.z)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bne:
        if (!flags_.z)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Blt:
        if (flags_.n != flags_.v)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bge:
        if (flags_.n == flags_.v)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bltu:
        if (!flags_.c)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Bgeu:
        if (flags_.c)
            next = pc_ + 4 + uimm;
        break;
      case Opcode::Ldw: {
        std::uint32_t v;
        if (!memRead32(regs[i.rs] + uimm, v))
            return;
        regs[i.rd] = v;
        break;
      }
      case Opcode::Ldb: {
        std::uint8_t v;
        if (!memRead8(regs[i.rs] + uimm, v))
            return;
        regs[i.rd] = v;
        break;
      }
      case Opcode::Stw:
        if (!memWrite32(regs[i.rs] + uimm, regs[i.rd]))
            return;
        break;
      case Opcode::Stb:
        if (!memWrite8(regs[i.rs] + uimm,
                       static_cast<std::uint8_t>(regs[i.rd])))
            return;
        break;
      case Opcode::Push:
        regs[isa::regSp] -= 4;
        if (!memWrite32(regs[isa::regSp], regs[i.rd]))
            return;
        break;
      case Opcode::Pop: {
        std::uint32_t v;
        if (!memRead32(regs[isa::regSp], v))
            return;
        regs[isa::regSp] += 4;
        regs[i.rd] = v;
        break;
      }
      case Opcode::Call:
        regs[isa::regSp] -= 4;
        if (!memWrite32(regs[isa::regSp], pc_ + 4))
            return;
        next = pc_ + 4 + uimm;
        break;
      case Opcode::Callr:
        regs[isa::regSp] -= 4;
        if (!memWrite32(regs[isa::regSp], pc_ + 4))
            return;
        next = regs[i.rs];
        break;
      case Opcode::Ret: {
        std::uint32_t ra;
        if (!memRead32(regs[isa::regSp], ra))
            return;
        regs[isa::regSp] += 4;
        next = ra;
        break;
      }
      case Opcode::Reti: {
        std::uint32_t ra;
        if (!memRead32(regs[isa::regSp], ra))
            return;
        regs[isa::regSp] += 4;
        std::uint32_t fw;
        if (!memRead32(regs[isa::regSp], fw))
            return;
        regs[isa::regSp] += 4;
        flags_ = isa::Flags::unpack(fw);
        inIrq = false;
        next = ra;
        break;
      }
      case Opcode::Chkpt:
        if (chkptEnabled)
            regs[0] = doCheckpoint() ? 1u : 0u;
        break;
    }
    pc_ = next;
}

void
Mcu::auditExec(const isa::Instr &i)
{
    using isa::Opcode;
    auto uimm = static_cast<std::uint32_t>(i.imm);
    switch (i.op) {
      case Opcode::Ldw:
        audit_->onLoad(i.rd, regs[i.rs] + uimm, 4);
        break;
      case Opcode::Ldb:
        audit_->onLoad(i.rd, regs[i.rs] + uimm, 1);
        break;
      case Opcode::Stw:
        audit_->onStore(i.rs, regs[i.rs] + uimm, pc_, 4);
        break;
      case Opcode::Stb:
        audit_->onStore(i.rs, regs[i.rs] + uimm, pc_, 1);
        break;
      case Opcode::Mov:
      case Opcode::Addi:
        audit_->onRegDerive(i.rd, i.rs);
        break;
      case Opcode::Add:
      case Opcode::Sub:
        audit_->onRegCombine(i.rd, i.rs, i.rt);
        break;
      case Opcode::Li:
      case Opcode::Lui:
      case Opcode::Mul:
      case Opcode::Divu:
      case Opcode::Remu:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sar:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Shli:
      case Opcode::Shri:
      case Opcode::Pop:
        audit_->onRegWrite(i.rd);
        break;
      case Opcode::Chkpt:
        if (chkptEnabled)
            audit_->onRegWrite(0);
        break;
      default:
        break;
    }
}

unsigned
Mcu::checkpointCostCycles() const
{
    mem::Addr sp = regs[isa::regSp];
    mem::Addr stack_bytes = sp <= stackTop ? stackTop - sp : 0;
    return checkpointCostCyclesFor(stack_bytes);
}

unsigned
Mcu::checkpointCostCyclesFor(std::uint32_t stack_bytes) const
{
    unsigned words = 22 + stack_bytes / 4;
    if (cfg.commitDiscipline == CommitDiscipline::Sealed)
        ++words; // the seal word
    return words * (1 + memExtraCycles + cfg.framWriteExtraCycles);
}

Mcu::CostQuote
Mcu::costQuote(isa::Opcode op) const
{
    unsigned cyc = 0;
    InstrClass cls = InstrClass::Static;
    classifyCost(op, cyc, cls);
    CostQuote q;
    q.cycles = cyc;
    q.framExtraCycles =
        cls == InstrClass::Store ? cfg.framWriteExtraCycles : 0;
    q.stackDependent = cls == InstrClass::Chkpt;
    return q;
}

std::uint32_t
Mcu::frameCrcAt(mem::Addr base, std::uint32_t stack_bytes,
                std::uint32_t seq) const
{
    mem::Region *region = mem_.find(base);
    if (auto *ram = dynamic_cast<mem::Ram *>(region)) {
        const mem::Addr end = base + ckStackOff + stack_bytes;
        if (end <= ram->base() + ram->size()) {
            const std::uint8_t *frame =
                ram->data() + (base - ram->base());
            return runtime::ckfmt::frameCrc(frame, stack_bytes, seq);
        }
    }
    // Slow path for exotic layouts: stream the frame byte-wise.
    std::uint32_t crc = seq;
    for (mem::Addr off = ckPcOff; off < ckStackOff + stack_bytes;
         ++off) {
        std::uint8_t b = 0;
        mem_.read8(base + off, b);
        crc = sim::crc32(&b, 1, crc);
    }
    return crc;
}

bool
Mcu::slotSealed(int slot, std::uint32_t &seq_out) const
{
    mem::Addr base = checkpointBase + slot * checkpointSlotSize;
    if (debugRead32(base + ckMagicOff) != ckMagic)
        return false;
    std::uint32_t seq = debugRead32(base + ckSeqOff);
    std::uint32_t sp = debugRead32(base + ckSpOff);
    std::uint32_t stack_bytes = debugRead32(base + ckStackLenOff);
    if (sp > stackTop ||
        ckStackOff + stack_bytes > checkpointSlotSize ||
        runtime::ckfmt::sealOff(stack_bytes) + 4 >
            checkpointSlotSize) {
        return false;
    }
    std::uint32_t seal =
        debugRead32(base + runtime::ckfmt::sealOff(stack_bytes));
    if (seal != frameCrcAt(base, stack_bytes, seq))
        return false;
    seq_out = seq;
    return true;
}

bool
Mcu::commitAtomic(mem::Addr base, std::uint32_t sp,
                  std::uint32_t stack_bytes, std::uint32_t next_seq)
{
    const bool naive = cfg.commitDiscipline == CommitDiscipline::Naive;
    // pc saved as the instruction after CHKPT: execution resumes
    // there on restore.
    if (!memWrite32(base + ckMagicOff, ckMagic))
        return false;
    // Naive discipline: sequence number written eagerly, before the
    // payload. Harmless here (the whole burst is atomic) but the
    // ordering bug it models shows its teeth under interruptible
    // commits.
    if (naive && !memWrite32(base + ckSeqOff, next_seq))
        return false;
    if (!memWrite32(base + ckPcOff, pc_ + 4) ||
        !memWrite32(base + ckFlagsOff, flags_.pack()) ||
        !memWrite32(base + ckSpOff, sp) ||
        !memWrite32(base + ckStackLenOff, stack_bytes)) {
        return false;
    }
    for (unsigned r = 0; r < isa::numRegs; ++r) {
        if (!memWrite32(base + ckRegsOff + r * 4, regs[r]))
            return false;
    }
    for (mem::Addr off = 0; off < stack_bytes; ++off) {
        std::uint8_t b;
        if (!memRead8(sp + off, b) ||
            !memWrite8(base + ckStackOff + off, b)) {
            return false;
        }
    }
    if (cfg.commitDiscipline == CommitDiscipline::Sealed &&
        !memWrite32(base + runtime::ckfmt::sealOff(stack_bytes),
                    frameCrcAt(base, stack_bytes, next_seq))) {
        return false;
    }
    if (!naive && !memWrite32(base + ckSeqOff, next_seq))
        return false;
    return true;
}

bool
Mcu::commitInterruptible(mem::Addr base, std::uint32_t sp,
                         std::uint32_t stack_bytes,
                         std::uint32_t next_seq)
{
    const unsigned word_cyc =
        1 + memExtraCycles + cfg.framWriteExtraCycles;
    const sim::Tick word_dt =
        static_cast<sim::Tick>(word_cyc) * cycleTicks;
    const bool naive = cfg.commitDiscipline == CommitDiscipline::Naive;
    const bool sealed = cfg.commitDiscipline == CommitDiscipline::Sealed;
    // Magic, sequence number, pc, flags, sp, stack length, the
    // register file, the word-padded stack image and the seal.
    const std::uint32_t burst_words =
        6 + isa::numRegs + runtime::ckfmt::align4(stack_bytes) / 4 +
        (sealed ? 1 : 0);
    std::uint32_t words_started = 0;
    bool torn = false;
    // The tear hit the burst's last word and that word still landed
    // with its intended value (the partial-write bit flips cancelled
    // out): the frame is complete, so the commit completed.
    bool torn_whole = false;
    if (nv_)
        nv_->beginBurst(base);

    // One NV word write: drain its energy first (the cell program
    // pulse), then land the value. If the supply browns out during
    // the pulse the burst tears here -- the word either never lands
    // or lands with corrupted bits (partial cell write).
    auto commitWord = [&](mem::Addr addr, std::uint32_t value) {
        if (torn || state_ != McuState::Running)
            return false;
        ++words_started;
        if (faults_)
            faults_->onNvCommitWord();
        const sim::Tick at = cursor.now() + word_dt;
        power.advanceTo(at);
        cursor.advance(at);
        cycles += word_cyc;
        commitExtraTicks_ += word_dt;
        if (state_ != McuState::Running) {
            torn = true;
            std::uint32_t v = value;
            if (faults_ && faults_->onTornWord(v)) {
                mem_.write32(addr, v);
                torn_whole = words_started == burst_words && v == value;
            }
            return false;
        }
        if (nv_)
            nv_->noteBurstWord();
        return memWrite32(addr, value);
    };
    auto stackWord = [&](mem::Addr off) {
        std::uint32_t w = 0;
        for (unsigned b = 0; b < 4 && off + b < stack_bytes; ++b) {
            std::uint8_t byte = 0;
            mem_.read8(sp + off + b, byte);
            w |= static_cast<std::uint32_t>(byte) << (8 * b);
        }
        return w;
    };

    bool ok = commitWord(base + ckMagicOff, ckMagic);
    if (naive)
        ok = ok && commitWord(base + ckSeqOff, next_seq);
    ok = ok && commitWord(base + ckPcOff, pc_ + 4);
    ok = ok && commitWord(base + ckFlagsOff, flags_.pack());
    ok = ok && commitWord(base + ckSpOff, sp);
    ok = ok && commitWord(base + ckStackLenOff, stack_bytes);
    for (unsigned r = 0; ok && r < isa::numRegs; ++r)
        ok = commitWord(base + ckRegsOff + r * 4, regs[r]);
    for (mem::Addr off = 0; ok && off < stack_bytes; off += 4)
        ok = commitWord(base + ckStackOff + off, stackWord(off));
    if (ok && sealed) {
        ok = commitWord(base + runtime::ckfmt::sealOff(stack_bytes),
                        frameCrcAt(base, stack_bytes, next_seq));
    }
    if (ok && !naive)
        ok = commitWord(base + ckSeqOff, next_seq);

    torn = torn && !torn_whole;
    if (nv_)
        nv_->endBurst(torn);
    if (torn)
        ++tornCommits_;
    return ok || torn_whole;
}

bool
Mcu::doCheckpoint()
{
    mem::Addr sp = regs[isa::regSp];
    if (sp > stackTop)
        return false;
    mem::Addr stack_bytes = stackTop - sp;
    if (ckStackOff + stack_bytes > checkpointSlotSize)
        return false;
    // The interruptible path word-pads the stack image; the sealed
    // discipline appends the seal word after it. Either needs room.
    const std::uint32_t padded =
        runtime::ckfmt::align4(static_cast<std::uint32_t>(stack_bytes));
    if (cfg.interruptibleCommit &&
        ckStackOff + padded > checkpointSlotSize)
        return false;
    if (cfg.commitDiscipline == CommitDiscipline::Sealed &&
        runtime::ckfmt::sealOff(static_cast<std::uint32_t>(
            stack_bytes)) + 4 > checkpointSlotSize)
        return false;

    // Double-buffered: write into the slot with the older sequence
    // number, then commit by writing the new sequence number last
    // (SeqLast/Sealed; Naive writes it first, which is the bug the
    // crash-anywhere oracle exists to catch).
    std::uint32_t seq0 = debugRead32(checkpointBase + ckSeqOff);
    std::uint32_t seq1 = debugRead32(checkpointBase +
                                     checkpointSlotSize + ckSeqOff);
    int slot = seq0 <= seq1 ? 0 : 1;
    std::uint32_t next_seq = std::max(seq0, seq1) + 1;
    mem::Addr base = checkpointBase + slot * checkpointSlotSize;
    if (nv_)
        nv_->setCommitSlot(slot);

    bool ok = cfg.interruptibleCommit
                  ? commitInterruptible(base, sp, stack_bytes, next_seq)
                  : commitAtomic(base, sp, stack_bytes, next_seq);
    if (!ok)
        return false;
    ++checkpointsTaken;
    if (audit_) {
        audit_->onCheckpointCommit(
            cursor.now(), slot,
            frameCrcAt(base, stack_bytes, next_seq));
    }
    return true;
}

bool
Mcu::tryRestore()
{
    int best_slot = -1;
    std::uint32_t best_seq = 0;
    if (cfg.commitDiscipline == CommitDiscipline::Sealed) {
        // Recovery scan: newest *sealed* frame wins. A torn newest
        // frame fails its seal check and the scan falls back to the
        // surviving older frame -- crash-anywhere thus resumes from
        // either the pre- or post-checkpoint world, never a hybrid.
        for (int slot = 0; slot < 2; ++slot) {
            std::uint32_t seq = 0;
            if (slotSealed(slot, seq) && seq > best_seq) {
                best_seq = seq;
                best_slot = slot;
            }
        }
    } else {
        for (int slot = 0; slot < 2; ++slot) {
            mem::Addr base =
                checkpointBase + slot * checkpointSlotSize;
            std::uint32_t magic = debugRead32(base + ckMagicOff);
            std::uint32_t seq = debugRead32(base + ckSeqOff);
            if (magic == ckMagic && seq > best_seq) {
                best_seq = seq;
                best_slot = slot;
            }
        }
    }
    if (best_slot < 0)
        return false;
    mem::Addr base =
        checkpointBase + best_slot * checkpointSlotSize;
    mem::Addr sp = debugRead32(base + ckSpOff);
    mem::Addr stack_bytes = debugRead32(base + ckStackLenOff);
    if (sp > stackTop ||
        ckStackOff + stack_bytes > checkpointSlotSize) {
        return false;
    }
    for (unsigned r = 0; r < isa::numRegs; ++r)
        regs[r] = debugRead32(base + ckRegsOff + r * 4);
    regs[isa::regSp] = sp;
    flags_ = isa::Flags::unpack(debugRead32(base + ckFlagsOff));
    for (mem::Addr off = 0; off < stack_bytes; ++off) {
        std::uint8_t b = 0;
        mem_.read8(base + ckStackOff + off, b);
        mem_.write8(sp + off, b);
    }
    pc_ = debugRead32(base + ckPcOff);
    ++checkpointsRestored;
    if (audit_) {
        audit_->onCheckpointRestore(
            cursor.now(), best_slot,
            frameCrcAt(base,
                       static_cast<std::uint32_t>(stack_bytes),
                       debugRead32(base + ckSeqOff)));
    }
    return true;
}

void
Mcu::raiseFault(McuFault cause)
{
    // A crashed core keeps drawing current until the supply browns
    // out: the symptom the paper's case study describes as "the GPIO
    // pin indicating main loop progress stops toggling".
    fault_ = cause;
    state_ = McuState::Faulted;
    ++faults;
}

bool
Mcu::memRead32(mem::Addr addr, std::uint32_t &value)
{
    switch (mem_.read32(addr, value)) {
      case mem::AccessResult::Ok:
        return true;
      case mem::AccessResult::Misaligned:
        raiseFault(McuFault::Misaligned);
        return false;
      case mem::AccessResult::Unmapped:
        raiseFault(McuFault::BusError);
        return false;
    }
    return false;
}

bool
Mcu::memWrite32(mem::Addr addr, std::uint32_t value)
{
    switch (mem_.write32(addr, value)) {
      case mem::AccessResult::Ok:
        return true;
      case mem::AccessResult::Misaligned:
        raiseFault(McuFault::Misaligned);
        return false;
      case mem::AccessResult::Unmapped:
        raiseFault(McuFault::BusError);
        return false;
    }
    return false;
}

bool
Mcu::memRead8(mem::Addr addr, std::uint8_t &value)
{
    if (mem_.read8(addr, value) == mem::AccessResult::Ok)
        return true;
    raiseFault(McuFault::BusError);
    return false;
}

bool
Mcu::memWrite8(mem::Addr addr, std::uint8_t value)
{
    if (mem_.write8(addr, value) == mem::AccessResult::Ok)
        return true;
    raiseFault(McuFault::BusError);
    return false;
}

std::uint32_t
Mcu::debugRead32(mem::Addr addr) const
{
    std::uint32_t value = 0;
    if (mem_.read32(addr, value) != mem::AccessResult::Ok)
        return 0xFFFFFFFFu;
    return value;
}

void
Mcu::debugWrite32(mem::Addr addr, std::uint32_t value)
{
    mem_.write32(addr, value);
}

void
Mcu::state(sim::StateIo &io)
{
    io.section("mcu");
    for (std::uint32_t &reg : regs)
        io.u32(reg);
    io.u32(pc_);
    std::uint32_t flags = flags_.pack();
    io.u32(flags);
    io.u8(state_);
    io.u8(fault_);
    io.u32(entry);
    io.u32(irqHandler);
    io.boolean(irqLine);
    io.boolean(inIrq);
    io.boolean(chkptEnabled);
    io.u64(sleepCycles);
    io.u64(cycles);
    io.u64(instrs);
    io.u64(reboots);
    io.u64(faults);
    io.u64(checkpointsTaken);
    io.u64(checkpointsRestored);
    io.u64(tornCommits_);
    if (io.restoring()) {
        flags_ = isa::Flags::unpack(flags);
        // The predecode cache is not architectural state: restored
        // memory may differ arbitrarily from the pre-restore image,
        // so drop it and let it refill (bit-identical either way).
        icacheInvalidateAll();
    }
    io.event(sliceEvent, [this] { runSlice(); });
    io.event(bootEvent, [this] { boot(); });
}

} // namespace edb::mcu
