#include "fuzz/oracle.hh"

#include <algorithm>
#include <memory>
#include <sstream>

#include "analysis/analyzer.hh"
#include "analysis/cost_model.hh"
#include "energy/harvester.hh"
#include "isa/assembler.hh"
#include "mem/nv_audit.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"
#include "sim/snapshot.hh"
#include "target/wisp.hh"

namespace edb::fuzz {

namespace {

constexpr sim::Tick pollQuantum = sim::oneMs;

/** Thevenin source parameters derived from the case seed: some
 *  worlds sustain the core, others sawtooth naturally on top of the
 *  forced brown-outs. */
struct SrcParams
{
    double voc;
    double ohms;
};

SrcParams
sourceParams(std::uint64_t seed)
{
    sim::Rng rng(seed ^ 0x68617276ULL); // "harv"
    SrcParams p;
    p.voc = rng.uniform(2.8, 3.3);
    p.ohms = rng.uniform(400.0, 2500.0);
    return p;
}

target::WispConfig
worldConfig(const OracleCase &c, bool reference, bool checkpointing,
            bool crash_commit)
{
    target::WispConfig config;
    config.power.capacitanceF = c.capacitanceF;
    config.power.initialVolts = c.initialVolts;
    config.mcu.checkpointingEnabled = checkpointing;
    if (crash_commit) {
        // The crash-anywhere world: sealed frames, commits that can
        // tear at any NV word.
        config.mcu.commitDiscipline = mcu::CommitDiscipline::Sealed;
        config.mcu.interruptibleCommit = true;
    }
    if (reference)
        config.power.engine = energy::Engine::Reference;
    return config;
}

/** A leg's fault plan: its NV tear settings plus the case's forced
 *  brown-out schedule. */
sim::FaultPlan
withSchedule(sim::FaultPlan plan, const OracleCase &c)
{
    plan.brownOuts = c.schedule;
    return plan;
}

/** One oracle leg: simulator + harvester + target (+ auditor) with
 *  the case's brown-out schedule armed. */
struct World
{
    struct Options
    {
        bool reference = false;
        bool checkpointing = true;
        bool withAuditor = false;
        /** false for snapshot-restore legs (no start, no arm). */
        bool startAndArm = true;
        /** Sealed + interruptible commits (crash-anywhere leg). */
        bool crashCommit = false;
        /** NV torn-write settings of the leg's fault plan (the
         *  crash-anywhere leg tears one commit word). */
        sim::FaultPlan nvPlan = {};
    };

    sim::Simulator sim;
    energy::TheveninHarvester src;
    target::Wisp wisp;
    std::unique_ptr<mem::NvAuditor> aud;
    sim::FaultInjector fault;

    /** Coverage probe state (valid while instrumented). */
    mem::Addr lastPc = 0;
    std::uint64_t prevBoots = 0;
    std::uint64_t prevCheckpoints = 0;
    std::uint64_t prevRestores = 0;
    std::uint64_t prevFaults = 0;
    /** Audit-completeness probe: true while the WAR gadget has
     *  completed in the current power-on interval (its open record
     *  survives until a loss), and losses observed in that window. */
    mem::Addr warDonePc = 0;
    bool gadgetLive = false;
    std::uint64_t lossAfterGadget = 0;
    /** Extra per-instruction probe run by the instrumented tracer
     *  (etap leg: persist-boundary charge sampling). */
    std::function<void(mem::Addr, const isa::Instr &)> preInstr;

    World(const OracleCase &c, const isa::Program &prog,
          const Options &opt)
        : sim(c.seed),
          src(sourceParams(c.seed).voc, sourceParams(c.seed).ohms),
          wisp(sim, "wisp", &src, nullptr,
               worldConfig(c, opt.reference, opt.checkpointing,
                           opt.crashCommit)),
          fault(sim, "fault", withSchedule(opt.nvPlan, c))
    {
        wisp.attachFaults(&fault);
        if (opt.withAuditor) {
            aud = std::make_unique<mem::NvAuditor>(wisp.auditConfig(),
                                                   wisp.framRegion());
            wisp.attachAuditor(aud.get());
        }
        // Passive observer, attached to every leg for symmetry: a
        // loss while the gadget's record is open is exactly the
        // window the auditor must flag. (Boot counts cannot be used
        // here -- they count turn-ons, and the first boot precedes
        // the gadget rather than following it.)
        wisp.power().addPowerListener([this](bool on) {
            if (!on) {
                if (gadgetLive)
                    ++lossAfterGadget;
                gadgetLive = false;
            }
        });
        wisp.flash(prog);
        if (opt.startAndArm) {
            wisp.start();
            fault.armBrownOuts(0);
        }
    }

    /** Install the coverage tracer (and the war_done watchpoint). */
    void
    instrument(Coverage *cov)
    {
        prevBoots = wisp.power().bootCount();
        prevCheckpoints = wisp.mcu().checkpointCount();
        prevRestores = wisp.mcu().restoreCount();
        prevFaults = wisp.mcu().faultCount();
        wisp.mcu().setTracer([this, cov](mem::Addr pc,
                                         const isa::Instr &i) {
            lastPc = pc;
            if (preInstr)
                preInstr(pc, i);
            if (warDonePc != 0 && pc == warDonePc)
                gadgetLive = true;
            if (cov == nullptr)
                return;
            cov->noteExec(i.op);
            switch (i.op) {
              case isa::Opcode::Ldw:
              case isa::Opcode::Ldb:
              case isa::Opcode::Stw:
              case isa::Opcode::Stb: {
                mem::Addr ea = wisp.mcu().reg(i.rs) +
                               static_cast<std::uint32_t>(i.imm);
                if (ea >= target::layout::mmioBase &&
                    ea < target::layout::mmioBase +
                             target::layout::mmioSize) {
                    cov->noteMem(i.op, MemClass::Mmio);
                    cov->noteMmio(ea & ~mem::Addr{3});
                } else if (ea >= target::layout::framBase &&
                           ea < target::layout::framBase +
                                    target::layout::framSize) {
                    cov->noteMem(i.op, MemClass::Fram);
                } else if (ea >= target::layout::sramBase &&
                           ea < target::layout::sramBase +
                                    target::layout::sramSize) {
                    cov->noteMem(i.op, MemClass::Sram);
                }
                break;
              }
              case isa::Opcode::Push:
              case isa::Opcode::Pop:
              case isa::Opcode::Call:
              case isa::Opcode::Callr:
              case isa::Opcode::Ret:
                cov->noteMem(i.op, MemClass::Sram);
                break;
              default:
                break;
            }
        });
    }

    /** Lifecycle-edge poll, run between quanta. */
    void
    pollEdges(Coverage *cov)
    {
        std::uint64_t boots = wisp.power().bootCount();
        if (boots > prevBoots) {
            if (cov != nullptr) {
                if (prevBoots == 0)
                    cov->noteEdge(Edge::Boot);
                if (boots > 1 || prevBoots > 0) {
                    cov->noteEdge(Edge::Reboot);
                    cov->noteRebootAt(lastPc);
                }
            }
            prevBoots = boots;
        }
        if (cov == nullptr)
            return;
        std::uint64_t v;
        if ((v = wisp.mcu().checkpointCount()) > prevCheckpoints) {
            cov->noteEdge(Edge::Checkpoint);
            prevCheckpoints = v;
        }
        if ((v = wisp.mcu().restoreCount()) > prevRestores) {
            cov->noteEdge(Edge::Restore);
            prevRestores = v;
        }
        if ((v = wisp.mcu().faultCount()) > prevFaults) {
            cov->noteEdge(Edge::Fault);
            prevFaults = v;
        }
        if (wisp.state() == mcu::McuState::Halted)
            cov->noteEdge(Edge::Halt);
    }

    /** Advance to `until`, polling for edges every quantum. */
    void
    runTo(sim::Tick until, Coverage *cov)
    {
        while (sim.now() < until) {
            sim.runFor(std::min(pollQuantum, until - sim.now()));
            pollEdges(cov);
        }
    }
};

/** Everything architecturally observable at the end of a run. */
struct Digest
{
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t reboots = 0;
    std::uint64_t faults = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t boots = 0;
    mem::Addr pc = 0;
    std::uint8_t state = 0;
    std::uint32_t flags = 0;
    std::array<std::uint32_t, isa::numRegs> regs{};
    double volts = 0.0;
    sim::Tick now = 0;
    std::uint32_t framCrc = 0;
    std::uint32_t sramCrc = 0;

    bool operator==(const Digest &) const = default;
};

Digest
digestOf(World &w)
{
    Digest d;
    const auto &m = w.wisp.mcu();
    d.instrs = m.instrCount();
    d.cycles = m.cycleCount();
    d.reboots = m.rebootCount();
    d.faults = m.faultCount();
    d.checkpoints = m.checkpointCount();
    d.restores = m.restoreCount();
    d.boots = w.wisp.power().bootCount();
    d.pc = m.pc();
    d.state = static_cast<std::uint8_t>(m.state());
    d.flags = m.flags().pack();
    for (unsigned i = 0; i < isa::numRegs; ++i)
        d.regs[i] = m.reg(i);
    d.volts = w.wisp.power().voltageNoAdvance();
    d.now = w.sim.now();
    const mem::Ram &fram = w.wisp.framRegion();
    d.framCrc = sim::crc32(fram.data(), fram.size());
    const mem::Ram &sram = w.wisp.sramRegion();
    d.sramCrc = sim::crc32(sram.data(), sram.size());
    return d;
}

std::string
digestDiff(const char *nameA, const Digest &a, const char *nameB,
           const Digest &b)
{
    std::ostringstream s;
    s << nameA << " vs " << nameB << " diverged:";
    auto field = [&](const char *n, auto va, auto vb) {
        if (va != vb)
            s << " " << n << "=" << va << "/" << vb;
    };
    field("instrs", a.instrs, b.instrs);
    field("cycles", a.cycles, b.cycles);
    field("reboots", a.reboots, b.reboots);
    field("faults", a.faults, b.faults);
    field("checkpoints", a.checkpoints, b.checkpoints);
    field("restores", a.restores, b.restores);
    field("boots", a.boots, b.boots);
    field("pc", a.pc, b.pc);
    field("state", unsigned(a.state), unsigned(b.state));
    field("flags", a.flags, b.flags);
    for (unsigned i = 0; i < isa::numRegs; ++i)
        if (a.regs[i] != b.regs[i])
            s << " r" << i << "=" << a.regs[i] << "/" << b.regs[i];
    field("volts", a.volts, b.volts);
    field("now", a.now, b.now);
    field("framCrc", a.framCrc, b.framCrc);
    field("sramCrc", a.sramCrc, b.sramCrc);
    return s.str();
}

OracleOutcome
runFastRef(const OracleCase &c, Coverage *cov)
{
    isa::Program prog = isa::assemble(c.program);
    World::Options opt;
    opt.checkpointing = c.checkpointing;

    // Fast leg: deliberately NOT instrumented, so the slice loop
    // runs whole event-free segments as it does in production.
    World fast(c, prog, opt);
    fast.runTo(c.horizon, nullptr);

    // The reference leg carries the coverage tracer; bit-identity
    // must hold across the instrumentation difference too.
    opt.reference = true;
    World ref(c, prog, opt);
    ref.instrument(cov);
    ref.runTo(c.horizon, cov);

    Digest a = digestOf(fast);
    Digest b = digestOf(ref);
    OracleOutcome out;
    if (!(a == b)) {
        out.failed = true;
        out.detail = digestDiff("fast", a, "reference", b);
    }
    return out;
}

OracleOutcome
runSnapshot(const OracleCase &c, Coverage *cov)
{
    isa::Program prog = isa::assemble(c.program);
    World::Options opt;
    opt.checkpointing = c.checkpointing;

    World w(c, prog, opt);
    w.instrument(cov);
    w.runTo(c.horizon / 2, cov);
    sim::SnapshotWriter writer;
    w.wisp.saveState(writer);
    std::vector<std::uint8_t> image = writer.finish();
    sim::Tick snapTick = w.sim.now();
    w.runTo(c.horizon, cov);
    Digest orig = digestOf(w);

    World::Options ropt = opt;
    ropt.startAndArm = false;
    World r(c, prog, ropt);
    sim::SnapshotReader reader;
    OracleOutcome out;
    if (!reader.load(std::move(image))) {
        out.failed = true;
        out.detail = "snapshot image failed to load";
        return out;
    }
    sim::EventRearmer rearmer(r.sim);
    r.wisp.restoreState(reader, rearmer);
    if (!reader.ok()) {
        out.failed = true;
        out.detail = "snapshot restore reported corruption";
        return out;
    }
    rearmer.flush();
    r.fault.armBrownOuts(snapTick);
    r.instrument(nullptr);
    r.runTo(c.horizon, nullptr);
    Digest resumed = digestOf(r);

    if (!(orig == resumed)) {
        out.failed = true;
        out.detail = digestDiff("uninterrupted", orig, "resumed",
                                resumed);
    }
    return out;
}

OracleOutcome
runReplay(const OracleCase &c, Coverage *cov)
{
    isa::Program prog = isa::assemble(c.program);
    World::Options opt;
    opt.checkpointing = c.checkpointing;

    World a(c, prog, opt);
    a.instrument(cov);
    a.runTo(c.horizon, cov);

    World b(c, prog, opt);
    b.instrument(nullptr);
    b.runTo(c.horizon, nullptr);

    Digest da = digestOf(a);
    Digest db = digestOf(b);
    OracleOutcome out;
    if (!(da == db)) {
        out.failed = true;
        out.detail = digestDiff("run1", da, "run2", db);
    }
    return out;
}

OracleOutcome
runAudit(const OracleCase &c, Coverage *cov)
{
    OracleOutcome out;

    // Soundness: the WAR-free clean program must audit clean.
    {
        isa::Program prog = isa::assemble(c.program);
        World::Options opt;
        opt.checkpointing = c.checkpointing;
        opt.withAuditor = true;
        World w(c, prog, opt);
        w.instrument(cov);
        w.runTo(c.horizon, cov);
        if (w.aud->violationCount() != 0) {
            out.failed = true;
            std::ostringstream s;
            s << "auditor flagged a WAR-free program ("
              << w.aud->violationCount() << " violations";
            if (!w.aud->findings().empty())
                s << "; first: "
                  << mem::nvFindingText(w.aud->findings().front());
            s << ")";
            out.detail = s.str();
            return out;
        }
    }

    // Completeness: the seeded-WAR mutant must be flagged whenever a
    // power loss exposed the hazard. The mutant runs without
    // checkpoints so every loss after `war_done` is a violation.
    if (c.mutant.empty()) {
        out.inconclusive = true;
        out.detail = "no mutant listing";
        return out;
    }
    isa::Program prog = isa::assemble(c.mutant);
    World::Options opt;
    opt.checkpointing = false;
    opt.withAuditor = true;
    World w(c, prog, opt);
    w.warDonePc = prog.symbol("war_done");
    w.instrument(cov);
    w.runTo(c.horizon, cov);
    if (w.lossAfterGadget == 0) {
        out.inconclusive = true;
        out.detail = "no power loss after the WAR gadget ran";
        return out;
    }
    if (w.aud->violationCount() == 0) {
        out.failed = true;
        std::ostringstream s;
        s << "auditor missed the seeded WAR hazard ("
          << w.lossAfterGadget << " losses after war_done)";
        out.detail = s.str();
    }
    return out;
}

OracleOutcome
runCrashAnywhere(const OracleCase &c, Coverage *cov)
{
    OracleOutcome out;
    if (!c.checkpointing) {
        out.inconclusive = true;
        out.detail = "case runs without checkpointing";
        return out;
    }

    isa::Program prog = isa::assemble(c.program);
    World::Options opt;
    opt.checkpointing = true;
    opt.withAuditor = true;
    opt.crashCommit = true;
    opt.nvPlan.seed = c.seed ^ 0x63726173ULL; // "cras"
    {
        // Seed-derived tear point: any word of any commit burst. The
        // range comfortably covers a full frame (23 header/seal words
        // + the stack image), so later commits get hit too.
        sim::Rng rng(opt.nvPlan.seed);
        opt.nvPlan.nvTearAtCommitWord = rng.uniformInt(1, 120);
        opt.nvPlan.nvTornCorruptProb = 0.5;
    }

    World w(c, prog, opt);
    w.instrument(cov);
    w.runTo(c.horizon, cov);

    if (w.aud->unsealedRestoreCount() != 0) {
        out.failed = true;
        std::ostringstream s;
        s << "recovery restored an unsealed frame ("
          << w.aud->unsealedRestoreCount()
          << " hybrid restores; tear at commit word "
          << opt.nvPlan.nvTearAtCommitWord << ", "
          << w.fault.stats().nvTears << " tears, "
          << w.wisp.mcu().restoreCount() << " restores)";
        out.detail = s.str();
        return out;
    }
    if (w.fault.stats().nvTears == 0) {
        out.inconclusive = true;
        std::ostringstream s;
        s << "no tear landed (tear word "
          << opt.nvPlan.nvTearAtCommitWord << ", "
          << w.fault.stats().nvCommitWords
          << " commit words observed)";
        out.detail = s.str();
    }
    return out;
}

/** Etap: the static energy analyzer vs. simulated ground truth (see
 *  the header). One instrumented world; the analyzer's per-boot
 *  worst-case bound is compared against every measured
 *  power-on→first-persist drain, and its starvation verdict against
 *  the observed persist history. */
OracleOutcome
runEtap(const OracleCase &c, Coverage *cov)
{
    OracleOutcome out;
    isa::Program prog = isa::assemble(c.program);
    World::Options opt;
    opt.checkpointing = c.checkpointing;
    World w(c, prog, opt);

    analysis::CostModel m = analysis::CostModel::fromWisp(w.wisp);
    SrcParams sp = sourceParams(c.seed);
    analysis::AnalyzerOptions aopt;
    aopt.maxSourceVolts = sp.voc;
    // The harvest noise is a multiplier 1+N(0,0.05) on the inflow;
    // 1.4 is an 8-sigma ceiling. Peak inflow is at the brown-out
    // floor, where the Thevenin drop is largest.
    aopt.maxInflowAmps = 1.4 * (sp.voc - m.brownOutVolts) / sp.ohms;
    aopt.expectedInflowAmps =
        (sp.voc - 0.5 * (m.turnOnVolts + m.brownOutVolts)) / sp.ohms;
    analysis::Report rep = analysis::analyze(prog, m, aopt);

    bool all_bounded = !rep.regions.empty();
    double worst_region = 0.0;
    for (const analysis::RegionInfo &r : rep.regions) {
        if (!r.bounded)
            all_bounded = false;
        worst_region = std::max(worst_region, r.chargeMax);
    }

    // Slack on top of the static bound, covering measurement lag
    // only: a checkpoint persist is detected one instruction late —
    // at worst that instruction is itself a full commit burst, run
    // with the LED left on — and a UART frame from the last
    // pre-persist store may still be shifting. Halts are sampled at
    // the halt instruction itself, so they carry no lag.
    double commit_seconds = m.restoreChargeMax() / m.activeAmps;
    double slack = (commit_seconds + 64.0 * m.cyclePeriod) *
                       (m.activeAmps + m.ledAmps) +
                   m.uartFrameCharge() + m.dbgUartFrameCharge();
    double bound =
        m.bootCharge() + m.restoreChargeMax() + worst_region + slack;

    // Ground truth: charge drained from each power-on to the first
    // persist (checkpoint commit or halt) of that interval.
    auto charge_out = [&] {
        return w.wisp.power().cumulativeChargeOut();
    };
    sim::Tick last_forced = 0;
    for (const sim::BrownOut &b : c.schedule)
        last_forced = std::max(last_forced, b.at);

    double window_start = charge_out();
    bool window_open = true;
    std::uint64_t last_ck = w.wisp.mcu().checkpointCount();
    double worst_observed = -1.0;
    unsigned observed_windows = 0;
    unsigned stall_boots = 0;
    bool ever_halted = false;

    auto record = [&](double obs) {
        worst_observed = std::max(worst_observed, obs);
        ++observed_windows;
        window_open = false;
    };
    w.wisp.power().addPowerListener([&](bool on) {
        if (on) {
            window_start = charge_out();
            window_open = true;
        } else {
            // A boot that ended with no persist: only un-forced
            // losses count toward the stall verdict.
            if (window_open && w.sim.now() > last_forced)
                ++stall_boots;
            window_open = false;
        }
    });
    w.preInstr = [&](mem::Addr, const isa::Instr &i) {
        std::uint64_t ck = w.wisp.mcu().checkpointCount();
        if (window_open && ck != last_ck)
            record(charge_out() - window_start);
        last_ck = ck;
        // The tracer fires after an instruction's cycles are billed,
        // so sampling at the HALT opcode itself excludes post-halt
        // drain (a program may halt with the LED left burning, and
        // the next poll is up to a millisecond away).
        if (i.op == isa::Opcode::Halt) {
            ever_halted = true;
            if (window_open)
                record(charge_out() - window_start);
        }
    };
    w.instrument(cov);
    w.runTo(c.horizon, cov);

    bool progress = ever_halted || w.wisp.mcu().checkpointCount() > 0;
    std::ostringstream s;
    s << "verdict=" << analysis::verdictName(rep.verdict)
      << " bound=" << bound << " worstObserved=" << worst_observed
      << " windows=" << observed_windows << " stallBoots="
      << stall_boots << " checkpoints="
      << w.wisp.mcu().checkpointCount() << " halted=" << ever_halted;

    // Soundness: no observed boot-to-persist drain may exceed the
    // static bound (only claimable when every region is bounded).
    if (all_bounded && observed_windows > 0 &&
        worst_observed > bound) {
        out.failed = true;
        out.detail = "static bound unsound: " + s.str();
        return out;
    }
    // Starvation, both directions.
    if (rep.verdict == analysis::Verdict::Starves && progress) {
        out.failed = true;
        out.detail = "starvation false positive: " + s.str();
        return out;
    }
    if (rep.verdict == analysis::Verdict::Completes && !progress &&
        stall_boots >= 6) {
        out.failed = true;
        out.detail = "starvation false negative: " + s.str();
        return out;
    }

    bool soundness_ran = all_bounded && observed_windows > 0;
    bool starve_ran =
        rep.verdict == analysis::Verdict::Starves ||
        (rep.verdict == analysis::Verdict::Completes &&
         (progress || stall_boots >= 6));
    if (!soundness_ran && !starve_ran)
        out.inconclusive = true;
    // Always report the comparison (corpus emission steers on it).
    out.detail = s.str();
    return out;
}

} // namespace

const char *
oracleName(OracleId id)
{
    switch (id) {
      case OracleId::FastRef: return "fastref";
      case OracleId::Snapshot: return "snapshot";
      case OracleId::Replay: return "replay";
      case OracleId::Audit: return "audit";
      case OracleId::CrashAnywhere: return "crashanywhere";
      case OracleId::Etap: return "etap";
    }
    return "unknown";
}

std::optional<OracleId>
oracleFromName(const std::string &name)
{
    for (unsigned i = 0; i < numOracles; ++i)
        if (name == oracleName(static_cast<OracleId>(i)))
            return static_cast<OracleId>(i);
    return std::nullopt;
}

OracleCase
makeOracleCase(const CaseSpec &spec)
{
    OracleCase c;
    c.program = renderProgram(spec);
    c.mutant = renderWarMutant(spec);
    c.seed = spec.worldSeed;
    c.checkpointing = spec.checkpointing;
    c.horizon = spec.horizon;
    c.schedule = spec.schedule;
    return c;
}

OracleOutcome
runOracle(OracleId id, const OracleCase &c, Coverage *coverage)
{
    switch (id) {
      case OracleId::FastRef: return runFastRef(c, coverage);
      case OracleId::Snapshot: return runSnapshot(c, coverage);
      case OracleId::Replay: return runReplay(c, coverage);
      case OracleId::Audit: return runAudit(c, coverage);
      case OracleId::CrashAnywhere:
        return runCrashAnywhere(c, coverage);
      case OracleId::Etap: return runEtap(c, coverage);
    }
    return {};
}

std::uint64_t
auditViolations(const OracleCase &c)
{
    isa::Program prog = isa::assemble(c.program);
    World::Options opt;
    opt.checkpointing = c.checkpointing;
    opt.withAuditor = true;
    World w(c, prog, opt);
    w.runTo(c.horizon, nullptr);
    return w.aud->violationCount();
}

} // namespace edb::fuzz
