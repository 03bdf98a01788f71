#include "edb/board.hh"

#include <algorithm>
#include <cmath>

#include "runtime/protocol_defs.hh"

namespace edb::edbdbg {

namespace proto = runtime::proto;

EdbBoard::EdbBoard(sim::Simulator &simulator,
                   std::string component_name,
                   target::Wisp &target_device,
                   rfid::RfChannel *channel, EdbConfig config)
    : sim::Component(simulator, std::move(component_name)),
      wisp(target_device),
      rfChannel(channel),
      pins(simulator.rng()),
      adc_(simulator.rng(), config.adc),
      charger(simulator, name() + ".charge", target_device.power(),
              adc_, config.charge),
      tether(tetherVolts, tetherOhms)
{
    auto &power = wisp.power();

    // Tethered supply and passive pin leakage inject through the
    // target's power integrator: interference is *measured*.
    power.addSource(
        name() + ".tether",
        [this](double v, double) { return tether.currentInto(v); });
    power.addSource(
        name() + ".pin_leakage",
        [this](double v, double) { return -pins.totalDrain(v); });

    // Debug-port wiring.
    wisp.debugPort().addReqListener(
        [this](bool level, sim::Tick when) {
            onReqChange(level, when);
        });
    wisp.debugPort().uart().addTxListener(
        [this](std::uint8_t byte, sim::Tick when) {
            onDebugByte(byte, when);
        });
    wisp.debugPort().addMarkerListener(
        [this](std::uint32_t id, sim::Tick when) {
            onMarker(id, when);
        });

    // Passive I/O monitors.
    wisp.uart().addTxListener([this](std::uint8_t byte,
                                     sim::Tick when) {
        if (streams_.iobus) {
            traceBuf.push(when, trace::Kind::IoByte, byte, 0.0, byte,
                          "uart0");
        }
    });
    wisp.i2c().addSniffer([this](std::uint8_t addr, std::uint8_t reg,
                                 std::uint8_t value, bool is_read,
                                 sim::Tick when) {
        if (streams_.iobus) {
            traceBuf.push(when, trace::Kind::IoByte, value,
                          is_read ? 1.0 : 0.0,
                          (std::uint32_t(addr) << 8) | reg, "i2c");
        }
    });
    if (rfChannel) {
        rfChannel->addTap([this](rfid::Direction dir,
                                 const rfid::Frame &frame,
                                 sim::Tick when) {
            if (!streams_.rfid)
                return;
            traceBuf.push(when, trace::Kind::RfidMessage,
                          frame.corrupted ? 1.0 : 0.0,
                          dir == rfid::Direction::ReaderToTag ? 0.0
                                                              : 1.0,
                          static_cast<std::uint32_t>(frame.type),
                          rfid::msgTypeName(frame.type));
        });
    }

    // Power-state transitions are always recorded: correlating them
    // with program events is the point of the tool.
    power.addPowerListener([this](bool on) {
        traceBuf.push(now(), trace::Kind::PowerEvent,
                      wisp.power().voltageNoAdvance(), 0.0, on ? 1 : 0,
                      on ? "turn-on" : "brown-out");
    });

    // Protocol event handlers. Each is gated to the modes where the
    // event is meaningful: duplicated frames (wire faults, probe
    // replays crossing the original) must not double-trigger.
    protocol.handlers.assertFail = [this](std::uint16_t id) {
        if (mode != Mode::AwaitFrame)
            return;
        ++asserts;
        traceBuf.push(now(), trace::Kind::AssertFail, savedVolts, 0.0,
                      id, "assert-fail");
        openSession(SessionReason::AssertFail, id);
    };
    protocol.handlers.bkptHit = [this](std::uint16_t id) {
        if (mode != Mode::AwaitFrame)
            return;
        auto it = codeBkpts.find(id);
        if (it != codeBkpts.end() && it->second &&
            savedVolts > *it->second) {
            // Combined breakpoint whose energy condition is not met:
            // resume immediately without opening a session.
            sendFrame({proto::cmdResume});
            return;
        }
        SessionReason reason = SessionReason::CodeBreakpoint;
        if (id == proto::energyBkptId)
            reason = pendingIrqReason;
        ++bkpts;
        traceBuf.push(now(), trace::Kind::Breakpoint, savedVolts, 0.0,
                      id, sessionReasonName(reason));
        openSession(reason, id);
    };
    protocol.handlers.guardBegin = [this] {
        if (mode != Mode::AwaitFrame)
            return;
        ++guards;
        mode = Mode::GuardActive;
        traceBuf.push(now(), trace::Kind::EnergyGuard, savedVolts, 0.0,
                      1, "guard-begin");
    };
    protocol.handlers.guardEnd = [this] {
        // Accepted from AwaitFrame too: if the guard-begin frame was
        // lost the guard still has to end with a restore.
        if (mode != Mode::GuardActive && mode != Mode::AwaitFrame)
            return;
        traceBuf.push(now(), trace::Kind::EnergyGuard, savedVolts, 0.0,
                      0, "guard-end");
        beginRestore(true);
    };
    protocol.handlers.printfText = [this](const std::string &text) {
        if (mode != Mode::AwaitFrame && mode != Mode::GuardActive)
            return;
        ++printfs;
        traceBuf.push(now(), trace::Kind::Printf, savedVolts, 0.0, 0,
                      text);
        if (printfSink)
            printfSink(text);
        beginRestore(true);
    };
    protocol.handlers.readReply =
        [this](const std::vector<std::uint8_t> &data) {
            if (mode == Mode::InSession)
                lastReadReply = data;
        };
    protocol.handlers.writeAck = [this] {
        if (mode == Mode::InSession)
            writeAcked = true;
    };
    protocol.handlers.waitRestore = [this] {
        // The target is stuck waiting for ackRestored: its event
        // frame (guard-end / printf) was lost. Restore and release
        // it; the episode completes degraded instead of deadlocking.
        if (mode != Mode::AwaitFrame && mode != Mode::GuardActive)
            return;
        ++linkStats_.degradedEpisodes;
        lastAbortReason_ = "event-frame-lost";
        traceBuf.push(now(), trace::Kind::Generic, savedVolts, 0.0, 0,
                      "recover-wait-restore");
        beginRestore(true);
    };

    // Continuous energy sampling (passive mode backbone).
    sim().schedule(now() + energySamplePeriod,
                   [this] { sampleEnergy(); });
}

void
EdbBoard::injectFaults(sim::FaultInjector *fault_injector)
{
    injector = fault_injector;
    if (injector) {
        adc_.setFaultHook(
            [inj = injector](double v) { return inj->onAdc(v); });
    } else {
        adc_.setFaultHook(nullptr);
    }
}

void
EdbBoard::attachAuditor(mem::NvAuditor *auditor)
{
    audit_ = auditor;
    wisp.attachAuditor(auditor);
    auditSeen = auditor ? auditor->violationCount() : 0;
}

bool
EdbBoard::setStream(const std::string &stream_name, bool on)
{
    if (stream_name == "energy")
        streams_.energy = on;
    else if (stream_name == "iobus")
        streams_.iobus = on;
    else if (stream_name == "rfid")
        streams_.rfid = on;
    else if (stream_name == "watchpoints")
        streams_.watchpoints = on;
    else
        return false;
    return true;
}

void
EdbBoard::sampleEnergy()
{
    double vcap = wisp.power().voltage();
    double reading = adc_.sampleVolts(vcap);
    lastVcapVolts = reading;
    if (streams_.energy) {
        double vreg = adc_.sampleVolts(wisp.power().regulatedVoltage());
        traceBuf.push(now(), trace::Kind::EnergySample, reading, vreg);
    }

    // Energy breakpoint: interrupt the target when the level falls
    // to the threshold (paper Section 3.3.1).
    if (energyBkptVolts && mode == Mode::Passive) {
        if (energyBkptArmed &&
            wisp.state() == mcu::McuState::Running &&
            reading <= *energyBkptVolts) {
            energyBkptArmed = false;
            pendingIrqReason = SessionReason::EnergyBreakpoint;
            wisp.mcu().raiseDebugIrq();
        } else if (!energyBkptArmed &&
                   reading >
                       *energyBkptVolts + energyBkptHysteresis) {
            energyBkptArmed = true;
        }
    }

    // NV consistency auditor: findings materialize at power loss,
    // when the target cannot run. Surface them by breaking in the
    // next time the target is up, through the same interrupt path
    // as an energy breakpoint.
    if (audit_ && mode == Mode::Passive &&
        audit_->violationCount() > auditSeen &&
        wisp.state() == mcu::McuState::Running) {
        auditSeen = audit_->violationCount();
        traceBuf.push(now(), trace::Kind::Generic, lastVcapVolts, 0.0,
                      static_cast<std::uint32_t>(
                          audit_->findings().size()),
                      "nv-consistency-violation");
        pendingIrqReason = SessionReason::ConsistencyViolation;
        wisp.mcu().raiseDebugIrq();
    }
    sim().schedule(now() + energySamplePeriod,
                   [this] { sampleEnergy(); });
}

void
EdbBoard::enableWatchpoint(unsigned id)
{
    watchpoints[id] = true;
}

void
EdbBoard::disableWatchpoint(unsigned id)
{
    watchpoints[id] = false;
}

bool
EdbBoard::watchpointEnabled(unsigned id) const
{
    auto it = watchpoints.find(id);
    return it != watchpoints.end() ? it->second : watchAll;
}

void
EdbBoard::onMarker(std::uint32_t id, sim::Tick when)
{
    if (!watchpointEnabled(id) || !streams_.watchpoints)
        return;
    // Each program event is paired with a concurrent energy reading:
    // the "multifaceted profile" of Section 4.1.3.
    double reading = adc_.sampleVolts(wisp.power().voltage());
    traceBuf.push(when, trace::Kind::Watchpoint, reading, 0.0, id);
}

void
EdbBoard::enableCodeBreakpoint(unsigned id,
                               std::optional<double> energy_threshold)
{
    codeBkpts[id] = energy_threshold;
    std::uint32_t mask = wisp.debugPort().breakpointMask();
    wisp.debugPort().setBreakpointMask(mask | (1u << id));
}

void
EdbBoard::disableCodeBreakpoint(unsigned id)
{
    codeBkpts.erase(id);
    std::uint32_t mask = wisp.debugPort().breakpointMask();
    wisp.debugPort().setBreakpointMask(mask & ~(1u << id));
}

void
EdbBoard::enableEnergyBreakpoint(double volts)
{
    energyBkptVolts = volts;
    energyBkptArmed = true;
}

void
EdbBoard::disableEnergyBreakpoint()
{
    energyBkptVolts.reset();
}

void
EdbBoard::onReqChange(bool level, sim::Tick when)
{
    reqHigh = level;
    if (level) {
        if (mode != Mode::Passive)
            return;
        // Firmware edge-interrupt latency before active-mode entry.
        reqHandlerEvent = sim().schedule(when + reqLatency,
                                         [this] { enterActive(); });
        return;
    }
    // Falling edge: resume completed, or the target died first.
    if (reqHandlerEvent != sim::invalidEventId) {
        sim().cancel(reqHandlerEvent);
        reqHandlerEvent = sim::invalidEventId;
    }
    switch (mode) {
      case Mode::Passive:
        break;
      case Mode::AwaitFrame:
      case Mode::GuardActive:
      case Mode::InSession:
        // Fall-gated restore path (session resume / target death).
        beginRestore(false);
        break;
      case Mode::Restoring:
        if (!charger.active())
            closeEpisode();
        break;
    }
}

void
EdbBoard::enterActive()
{
    reqHandlerEvent = sim::invalidEventId;
    if (!reqHigh || mode != Mode::Passive)
        return;
    // Save the energy level, then tether: "before performing an
    // active task the energy on the target device is measured and
    // recorded. While the active task executes, the target is
    // continuously powered." (Section 3.2)
    lastSavedTrue = wisp.power().voltage();
    savedVolts = adc_.sampleVolts(lastSavedTrue);
    restoredVolts = 0.0;
    lastRestoredTrue = 0.0;
    tether.setEnabled(true);
    protocol.reset();
    mode = Mode::AwaitFrame;
    lastAbortReason_.clear();
    probesSent = 0;
    ackRetries = 0;
    framesOkAtLastCheck = protocol.stats().framesOk;
    cancelWatchdog();
    watchdogEvent = sim().schedule(now() + linkProbeTimeout,
                                   [this] { episodeWatchdog(); });
    sendFrame({proto::ackActive});
}

void
EdbBoard::episodeWatchdog()
{
    watchdogEvent = sim::invalidEventId;
    switch (mode) {
      case Mode::Passive:
        return; // Episode already closed; stay disarmed.
      case Mode::InSession:
        // Session commands carry their own timeouts and retries.
        break;
      case Mode::AwaitFrame:
      case Mode::GuardActive: {
        std::uint64_t ok = protocol.stats().framesOk;
        if (ok != framesOkAtLastCheck) {
            framesOkAtLastCheck = ok;
            probesSent = 0;
        } else {
            unsigned budget = mode == Mode::GuardActive
                                  ? guardProbeMax
                                  : linkProbeMax;
            if (probesSent >= budget) {
                // No frame ever survived: abandon the episode,
                // restore whatever energy state we can, and re-arm.
                lastAbortReason_ = "link-dead";
                ++linkStats_.abortedEpisodes;
                traceBuf.push(now(), trace::Kind::Generic, savedVolts,
                              0.0, 0, "abort-link-dead");
                beginRestore(false);
                break;
            }
            ++probesSent;
            ++linkStats_.probes;
            sendFrame({proto::cmdStatus});
        }
        break;
      }
      case Mode::Restoring:
        // Restore finished but the request line never fell: the
        // ackRestored frame was lost. Resend it a bounded number of
        // times, then force the episode closed.
        if (!charger.active() && reqHigh) {
            if (ackRetries >= ackRetryMax) {
                lastAbortReason_ = "ack-restored-lost";
                ++linkStats_.abortedEpisodes;
                closeEpisode();
                return;
            }
            ++ackRetries;
            ++linkStats_.ackRetransmits;
            sendFrame({proto::ackRestored});
        }
        break;
    }
    if (mode != Mode::Passive) {
        watchdogEvent = sim().schedule(now() + linkProbeTimeout,
                                       [this] { episodeWatchdog(); });
    }
}

void
EdbBoard::cancelWatchdog()
{
    if (watchdogEvent != sim::invalidEventId) {
        sim().cancel(watchdogEvent);
        watchdogEvent = sim::invalidEventId;
    }
}

void
EdbBoard::onDebugByte(std::uint8_t byte, sim::Tick when)
{
    if (injector) {
        auto r = injector->onWire(byte);
        for (int i = 0; i < r.count; ++i)
            protocol.onByte(r.bytes[i], when);
        return;
    }
    protocol.onByte(byte, when);
}

void
EdbBoard::sendToTarget(std::uint8_t byte)
{
    txQueue.push_back(byte);
    pumpTxQueue();
}

void
EdbBoard::sendFrame(const std::vector<std::uint8_t> &payload)
{
    for (std::uint8_t byte : buildFrame(payload))
        sendToTarget(byte);
}

void
EdbBoard::pumpTxQueue()
{
    if (txBusy || txQueue.empty())
        return;
    txBusy = true;
    const std::uint8_t byte = txQueue.front();
    txQueue.pop_front();
    sim().schedule(now() + wisp.debugPort().uart().byteTime(),
                   [this, byte] { deliverTxByte(byte); });
}

void
EdbBoard::deliverTxByte(std::uint8_t byte)
{
    // The wire-fault model applies at delivery: this direction
    // feeds the target's deframer, which hunts past damage.
    if (injector) {
        auto r = injector->onWire(byte);
        for (int i = 0; i < r.count; ++i)
            wisp.debugPort().uart().receiveByte(r.bytes[i]);
    } else {
        wisp.debugPort().uart().receiveByte(byte);
    }
    txBusy = false;
    pumpTxQueue();
}

void
EdbBoard::beginRestore(bool ack_after)
{
    tether.setEnabled(false);
    mode = Mode::Restoring;
    if (!wisp.power().poweredOn()) {
        // The target died before/inside the episode; nothing to
        // restore onto.
        closeEpisode();
        return;
    }
    charger.restoreTo(savedVolts, [this, ack_after](RampResult result) {
        if (result == RampResult::DeadlineExceeded) {
            // Supply faulted mid-restore (fade, glitch): report the
            // episode degraded but still release the target rather
            // than spinning the control loop forever.
            lastAbortReason_ = "restore-deadline";
            ++linkStats_.degradedEpisodes;
        }
        lastRestoredTrue = wisp.power().voltage();
        restoredVolts = adc_.sampleVolts(lastRestoredTrue);
        // Record the episode's compensation so analyses can separate
        // target-side cost from debugger-injected energy.
        traceBuf.push(now(), trace::Kind::Generic, lastSavedTrue,
                      lastRestoredTrue, 0, "restore");
        if (ack_after) {
            sendFrame({proto::ackRestored});
            if (!reqHigh)
                closeEpisode();
            // else: the req falling edge closes the episode; the
            // watchdog retransmits ackRestored if it was lost.
        } else {
            closeEpisode();
        }
    });
}

void
EdbBoard::closeEpisode()
{
    mode = Mode::Passive;
    tether.setEnabled(false);
    charger.abort();
    protocol.reset();
    cancelWatchdog();
    lastReadReply.clear();
    writeAcked = false;
    if (activeSession && activeSession->open_) {
        activeSession->open_ = false;
        if (!activeSession->resumed_) {
            activeSession->aborted_ = true;
            activeSession->abortReason_ = lastAbortReason_.empty()
                                              ? "episode-closed"
                                              : lastAbortReason_;
        }
    }
    wisp.mcu().clearDebugIrq();
    // A new debug request may have been raised while this episode
    // was still restoring (e.g. back-to-back printfs); service it.
    if (reqHigh) {
        reqHandlerEvent = sim().schedule(now() + reqLatency,
                                         [this] { enterActive(); });
    }
}

void
EdbBoard::openSession(SessionReason reason, std::uint16_t id)
{
    mode = Mode::InSession;
    wisp.mcu().clearDebugIrq();
    activeSession = std::make_unique<DebugSession>(*this, reason, id,
                                                   savedVolts);
    if (sessionHook)
        sessionHook(*activeSession);
}

bool
EdbBoard::pumpUntil(const std::function<bool()> &cond,
                    sim::Tick timeout)
{
    sim::Tick deadline = sim().now() + timeout;
    while (!cond()) {
        if (sim().now() >= deadline)
            return false;
        sim().runFor(
            std::min<sim::Tick>(100 * sim::oneUs,
                                deadline - sim().now()));
    }
    return true;
}

bool
EdbBoard::waitForSession(sim::Tick timeout)
{
    return pumpUntil(
        [this] { return activeSession && activeSession->open(); },
        timeout);
}

bool
EdbBoard::waitPassive(sim::Tick timeout)
{
    return pumpUntil([this] { return mode == Mode::Passive; },
                     timeout);
}

bool
EdbBoard::breakIn(sim::Tick timeout)
{
    if (mode != Mode::Passive ||
        wisp.state() != mcu::McuState::Running) {
        return false;
    }
    // The break-in IRQ can be swallowed by a lost episode (ackActive
    // never arriving, event frame dead). Each failed episode clears
    // the IRQ on close, so re-raise and try again until the deadline.
    sim::Tick deadline = sim().now() + timeout;
    pendingIrqReason = SessionReason::Manual;
    wisp.mcu().raiseDebugIrq();
    while (sim().now() < deadline) {
        sim::Tick slice = std::min<sim::Tick>(
            50 * sim::oneMs, deadline - sim().now());
        if (waitForSession(slice))
            return true;
        if (mode == Mode::Passive &&
            wisp.state() == mcu::McuState::Running) {
            pendingIrqReason = SessionReason::Manual;
            wisp.mcu().raiseDebugIrq();
        }
    }
    return false;
}

bool
EdbBoard::chargeTo(double volts, sim::Tick timeout)
{
    bool finished = false;
    bool converged = false;
    charger.rampTo(volts, 0.0, [&](RampResult result) {
        finished = true;
        converged = result == RampResult::Converged;
    });
    bool ok = pumpUntil([&finished] { return finished; }, timeout);
    if (!ok) {
        charger.abort();
        return false;
    }
    return converged;
}

bool
EdbBoard::dischargeTo(double volts, sim::Tick timeout)
{
    return chargeTo(volts, timeout);
}

std::optional<std::vector<std::uint8_t>>
EdbBoard::sessionRead(std::uint32_t addr, std::uint16_t len,
                      sim::Tick timeout)
{
    if (mode != Mode::InSession || len == 0)
        return std::nullopt;
    sim::Tick per_attempt = std::max<sim::Tick>(
        10 * sim::oneMs,
        timeout / static_cast<sim::Tick>(readRetryMax + 1));
    std::vector<std::uint8_t> out;
    out.reserve(len);
    while (out.size() < len) {
        auto chunk = static_cast<std::uint16_t>(
            std::min<std::size_t>(readChunk, len - out.size()));
        std::uint32_t at =
            addr + static_cast<std::uint32_t>(out.size());
        bool got = false;
        for (unsigned attempt = 0; attempt <= readRetryMax;
             ++attempt) {
            if (attempt > 0)
                ++linkStats_.readRetries;
            lastReadReply.clear();
            std::vector<std::uint8_t> p;
            p.push_back(proto::cmdRead);
            for (int i = 0; i < 4; ++i)
                p.push_back(
                    static_cast<std::uint8_t>(at >> (8 * i)));
            p.push_back(static_cast<std::uint8_t>(chunk & 0xFF));
            p.push_back(static_cast<std::uint8_t>(chunk >> 8));
            sendFrame(p);
            bool done = pumpUntil(
                [this, chunk] {
                    return lastReadReply.size() == chunk ||
                           mode != Mode::InSession;
                },
                per_attempt);
            if (mode != Mode::InSession)
                return std::nullopt;
            if (done && lastReadReply.size() == chunk) {
                got = true;
                break;
            }
        }
        if (!got)
            return std::nullopt;
        out.insert(out.end(), lastReadReply.begin(),
                   lastReadReply.end());
    }
    return out;
}

bool
EdbBoard::sessionWrite(std::uint32_t addr, std::uint32_t value,
                       sim::Tick timeout)
{
    if (mode != Mode::InSession)
        return false;
    sim::Tick per_attempt = std::max<sim::Tick>(
        10 * sim::oneMs,
        timeout / static_cast<sim::Tick>(writeRetryMax + 1));
    // Writes are idempotent (absolute address and value), so a lost
    // command or lost ack is safely retried.
    for (unsigned attempt = 0; attempt <= writeRetryMax;
         ++attempt) {
        if (attempt > 0)
            ++linkStats_.writeRetries;
        writeAcked = false;
        std::vector<std::uint8_t> p;
        p.push_back(proto::cmdWrite);
        for (int i = 0; i < 4; ++i)
            p.push_back(static_cast<std::uint8_t>(addr >> (8 * i)));
        for (int i = 0; i < 4; ++i)
            p.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
        sendFrame(p);
        bool done = pumpUntil(
            [this] {
                return writeAcked || mode != Mode::InSession;
            },
            per_attempt);
        if (mode != Mode::InSession)
            return false;
        if (done && writeAcked)
            return true;
    }
    return false;
}

void
EdbBoard::pumpFor(sim::Tick duration)
{
    sim().runFor(duration);
}

void
EdbBoard::sessionResume()
{
    // A corrupted cmdResume leaves the target in its service loop
    // (mode stays InSession): resend a bounded number of times. A
    // duplicate resume is harmless — the stale frame is drained by
    // the target's next ackActive wait.
    for (unsigned attempt = 0; attempt <= resumeRetryMax;
         ++attempt) {
        if (attempt > 0)
            ++linkStats_.resumeRetries;
        sendFrame({proto::cmdResume});
        if (pumpUntil([this] { return mode != Mode::InSession; },
                      100 * sim::oneMs)) {
            break;
        }
    }
    if (mode == Mode::InSession) {
        // Every resend died on the wire: declare the episode lost
        // rather than leaving the session open forever. Restore the
        // saved energy level, drop the tether and close; the target
        // is still parked in its service loop with REQ high, so the
        // re-arm in closeEpisode starts a fresh handshake (a status
        // probe makes it resend its event frame) and the next
        // session gets a full retry budget.
        lastAbortReason_ = "resume-lost";
        ++linkStats_.abortedEpisodes;
        traceBuf.push(now(), trace::Kind::Generic, savedVolts, 0.0, 0,
                      "abort-resume-lost");
        if (activeSession)
            activeSession->resumed_ = false;
        beginRestore(false);
    }
    waitPassive(2 * sim::oneSec);
}

} // namespace edb::edbdbg
