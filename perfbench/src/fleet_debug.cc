/**
 * @file
 * fleet-debug: 256 RF-coupled tag worlds on a 2-worker pool, running
 * the default checkpointing firmware with rebalancing on, served by a
 * DebugServer to 4 read-only RpcClients. Each client is attached to
 * its own world with one conditional virtual breakpoint that rarely
 * hits. One op is one `runEpoch`: each client sends one request
 * (regs, read, vcap or info, in turn) and receives its reply. This is
 * the only workload where the fleet (pool, barrier, snapshot
 * migration), the rfid slotted arbiter and the server (framing, JSON,
 * breakpoint eval) do work, and the one whose memory footprint
 * (about 640 kB per booted world) sits far past the host's caches.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "edb/server.hh"
#include "fleet/fleet.hh"
#include "isa/listing.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace edb;

constexpr unsigned fleetTags = 256;
constexpr unsigned fleetWorkers = 2;
constexpr unsigned clientCount = 4;
/** Epochs run after every client is attached, so each world has
 *  executed its whole loop and one rebalance has migrated a world. */
constexpr unsigned warmupEpochs = 8;

const char *const requests[] = {
    "\"m\":\"regs\"",
    "\"m\":\"read\",\"addr\":\"0x6000\",\"len\":16",
    "\"m\":\"vcap\"",
    "\"m\":\"info\"",
};

fleet::FleetConfig
fleetConfig(std::uint64_t seed)
{
    fleet::FleetConfig cfg;
    cfg.tags = fleetTags;
    cfg.threads = fleetWorkers;
    cfg.seed = seed;
    cfg.rebalancePeriod = 4;
    // Tags start charged with a dev-board-sized capacitor so every
    // world executes (and breakpoints are evaluated) from epoch one.
    cfg.wisp.power.initialVolts = 2.6;
    cfg.wisp.power.capacitanceF = 4700e-9;
    cfg.wisp.mcu.checkpointingEnabled = true;
    return cfg;
}

bool
isOk(const edbdbg::JsonValue &reply)
{
    const edbdbg::JsonValue *ok = reply.get("ok");
    return ok && ok->boolean(false);
}

class FleetDebug : public Workload
{
  public:
    explicit FleetDebug(std::uint64_t seed)
        : fleet(fleetConfig(seed)), server(fleet)
    {
        server.setSymbols(
            isa::SymbolTable::fromProgram(fleet.worldProgram(0)));
        for (unsigned c = 0; c < clientCount; ++c) {
            clients.push_back(std::make_unique<edbdbg::RpcClient>(
                server, "client" + std::to_string(c)));
            pending.push_back(clients[c]->request(
                "\"m\":\"attach\",\"world\":" +
                std::to_string(c * (fleetTags / clientCount))));
        }
        Tracer off(false);
        if (!exchange(off)) {
            std::fprintf(stderr, "fleet-debug: attach failed\n");
            std::exit(1);
        }
        for (unsigned c = 0; c < clientCount; ++c)
            pending[c] = clients[c]->request(
                "\"m\":\"setbreak\",\"sym\":\"work\","
                "\"cond\":\"vcap<1.802\"");
        if (!exchange(off)) {
            std::fprintf(stderr, "fleet-debug: setbreak failed\n");
            std::exit(1);
        }
        for (unsigned e = 0; e < warmupEpochs; ++e) {
            if (!op(off)) {
                std::fprintf(stderr, "fleet-debug: warm-up failed\n");
                std::exit(1);
            }
        }
        instrs0 = fleet.totalInstrs();
        migrations0 = fleet.migrations();
        stolen0 = fleet.pool().executedStolen();
        chan0 = fleet.channelStats();
        stats0 = server.stats();
    }

    bool
    op(Tracer &t) override
    {
        for (unsigned c = 0; c < clientCount; ++c) {
            Span s(t, "client.request");
            pending[c] = clients[c]->request(
                requests[(served + c) % std::size(requests)]);
        }
        ++served;
        return exchange(t);
    }

    void
    fold(Digest &d) override
    {
        d.add(fleet.totalInstrs());
        d.add(fleet.migrations());
        d.add(fleet.channelStats().attempts);
        d.add(fleet.channelStats().replies);
        d.add(fleet.channelStats().collisions);
        const edbdbg::DebugServer::Stats &s = server.stats();
        d.add(s.framesIn);
        d.add(s.framesOut);
        d.add(s.commandsServed);
        d.add(s.hitsDelivered);
        d.add(s.hitsDropped);
        d.add(hitEvents);
    }

    void
    counts(unsigned ops, Metrics &out) override
    {
        const double n = ops;
        auto per = [n](std::uint64_t now, std::uint64_t then) {
            return static_cast<double>(now - then) / n;
        };
        const fleet::ChannelStats &ch = fleet.channelStats();
        const edbdbg::DebugServer::Stats &s = server.stats();
        out.set("fleet.instrs_per_op", per(fleet.totalInstrs(), instrs0),
                "instr");
        out.set("fleet.migrations", per(fleet.migrations(), migrations0),
                "count");
        out.set("fleet.stolen_tasks",
                per(fleet.pool().executedStolen(), stolen0), "count");
        out.set("rfid.attempts", per(ch.attempts, chan0.attempts),
                "count");
        out.set("rfid.collisions", per(ch.collisions, chan0.collisions),
                "count");
        const std::uint64_t attempts = ch.attempts - chan0.attempts;
        out.set("rfid.reply_ratio",
                attempts ? static_cast<double>(ch.replies -
                                               chan0.replies) /
                               static_cast<double>(attempts)
                         : 0.0,
                "ratio");
        out.set("server.frames_in", per(s.framesIn, stats0.framesIn),
                "count");
        out.set("server.frames_out", per(s.framesOut, stats0.framesOut),
                "count");
        out.set("server.commands_served",
                per(s.commandsServed, stats0.commandsServed), "count");
        out.set("server.hits_delivered",
                per(s.hitsDelivered, stats0.hitsDelivered), "count");
        out.set("server.hits_dropped",
                per(s.hitsDropped, stats0.hitsDropped), "count");
        out.set("server.interference_violations",
                per(s.interferenceViolations,
                    stats0.interferenceViolations),
                "count");
    }

    unsigned worlds() const override { return fleetTags; }

  private:
    /**
     * Send every client's staged request, run one epoch, and collect
     * the replies. @return true when every pending request was
     * answered `ok` within the epoch and the server saw neither
     * malformed JSON nor a capacitor-voltage delta.
     */
    bool
    exchange(Tracer &tr)
    {
        for (auto &client : clients) {
            Span s(tr, "client.pump");
            client->pump();
        }
        {
            Span s(tr, "server.epoch");
            const std::int64_t cpu0 = tr.on() ? processCpuNs() : 0;
            const std::int64_t wall0 = tr.on() ? wallNs() : 0;
            server.runEpoch();
            if (tr.on())
                tr.sample("fleet.worker_busy_ratio",
                          static_cast<double>(processCpuNs() - cpu0) /
                              (static_cast<double>(wallNs() - wall0) *
                               fleetWorkers),
                          "ratio");
        }
        bool ok = true;
        for (unsigned c = 0; c < clientCount; ++c) {
            {
                Span s(tr, "client.pump");
                clients[c]->pump();
            }
            bool answered = false;
            for (const edbdbg::JsonValue &r :
                 clients[c]->takeResponses()) {
                if (r.getUint("id").value_or(0) == pending[c])
                    answered = isOk(r);
            }
            for (const edbdbg::JsonValue &ev : clients[c]->takeEvents())
                hitEvents += ev.getStr("ev").value_or("") == "hit";
            ok &= answered;
        }
        const edbdbg::DebugServer::Stats &s = server.stats();
        return ok && s.interferenceViolations == 0 &&
               s.malformedJson == 0;
    }

    fleet::Fleet fleet;
    edbdbg::DebugServer server;
    std::vector<std::unique_ptr<edbdbg::RpcClient>> clients;
    std::vector<std::uint64_t> pending;
    std::uint64_t served = 0;
    std::uint64_t hitEvents = 0;
    std::uint64_t instrs0 = 0;
    std::uint64_t migrations0 = 0;
    std::uint64_t stolen0 = 0;
    fleet::ChannelStats chan0;
    edbdbg::DebugServer::Stats stats0;
};

} // namespace

std::unique_ptr<Workload>
makeFleetDebug(std::uint64_t seed)
{
    return std::make_unique<FleetDebug>(seed);
}

} // namespace perfbench
