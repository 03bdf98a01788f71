#include "edb/server.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "analysis/analyzer.hh"
#include "analysis/cost_model.hh"
#include "energy/power_system.hh"
#include "fleet/fleet.hh"
#include "mcu/mcu.hh"
#include "runtime/protocol_defs.hh"
#include "target/wisp.hh"

namespace edb::edbdbg {

namespace proto = runtime::proto;

// --------------------------------------------------------------------
// JsonValue

/** Named (not anonymous-namespace) so JsonValue can befriend it. */
class JsonBuilder
{
  public:
    static JsonValue
    null()
    {
        return JsonValue{};
    }
    static JsonValue
    boolean(bool b)
    {
        JsonValue v;
        v.type_ = JsonValue::Type::Bool;
        v.bool_ = b;
        return v;
    }
    static JsonValue
    number(double d)
    {
        JsonValue v;
        v.type_ = JsonValue::Type::Num;
        v.num_ = d;
        return v;
    }
    static JsonValue
    string(std::string s)
    {
        JsonValue v;
        v.type_ = JsonValue::Type::Str;
        v.str_ = std::move(s);
        return v;
    }
    static JsonValue
    array(std::vector<JsonValue> a)
    {
        JsonValue v;
        v.type_ = JsonValue::Type::Arr;
        v.arr_ = std::move(a);
        return v;
    }
    static JsonValue
    object(std::vector<std::pair<std::string, JsonValue>> o)
    {
        JsonValue v;
        v.type_ = JsonValue::Type::Obj;
        v.obj_ = std::move(o);
        return v;
    }
};

namespace {

/** Crash-proof, depth-capped JSON reader over a bounded buffer. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::size_t max_depth)
        : s(text), maxDepth(max_depth)
    {}

    std::optional<JsonValue>
    run()
    {
        auto v = value(maxDepth);
        if (!v)
            return std::nullopt;
        ws();
        if (pos != s.size())
            return std::nullopt;
        return v;
    }

  private:
    void
    ws()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    lit(const char *t)
    {
        std::size_t n = 0;
        while (t[n] != '\0')
            ++n;
        if (s.compare(pos, n, t) != 0)
            return false;
        pos += n;
        return true;
    }

    std::optional<std::string>
    string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return std::nullopt;
        ++pos;
        std::string out;
        while (pos < s.size()) {
            char c = s[pos++];
            if (c == '"')
                return out;
            // RFC 8259 §7: control characters must be escaped.
            if (static_cast<unsigned char>(c) < 0x20)
                return std::nullopt;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos >= s.size())
                return std::nullopt;
            char e = s[pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u':
                // Enough for symbol names and hex addresses: require
                // the four hex digits, substitute '?'.
                if (pos + 4 > s.size())
                    return std::nullopt;
                for (std::size_t i = pos; i < pos + 4; ++i)
                    if (!std::isxdigit(static_cast<unsigned char>(s[i])))
                        return std::nullopt;
                pos += 4;
                out.push_back('?');
                break;
              default:
                return std::nullopt;
            }
        }
        return std::nullopt; // unterminated
    }

    std::optional<JsonValue> value(std::size_t depth);

    const std::string &s;
    std::size_t pos = 0;
    std::size_t maxDepth;

    using Build = JsonBuilder;
};

std::optional<JsonValue>
JsonParser::value(std::size_t depth)
{
    ws();
    if (pos >= s.size())
        return std::nullopt;
    char c = s[pos];
    if (c == 'n')
        return lit("null") ? std::optional<JsonValue>(Build::null())
                           : std::nullopt;
    if (c == 't')
        return lit("true")
                   ? std::optional<JsonValue>(Build::boolean(true))
                   : std::nullopt;
    if (c == 'f')
        return lit("false")
                   ? std::optional<JsonValue>(Build::boolean(false))
                   : std::nullopt;
    if (c == '"') {
        auto str = string();
        if (!str)
            return std::nullopt;
        return Build::string(std::move(*str));
    }
    if (c == '[') {
        if (depth == 0)
            return std::nullopt;
        ++pos;
        std::vector<JsonValue> items;
        ws();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return Build::array(std::move(items));
        }
        while (true) {
            auto v = value(depth - 1);
            if (!v)
                return std::nullopt;
            items.push_back(std::move(*v));
            ws();
            if (pos >= s.size())
                return std::nullopt;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return Build::array(std::move(items));
            }
            return std::nullopt;
        }
    }
    if (c == '{') {
        if (depth == 0)
            return std::nullopt;
        ++pos;
        std::vector<std::pair<std::string, JsonValue>> members;
        ws();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return Build::object(std::move(members));
        }
        while (true) {
            ws();
            auto key = string();
            if (!key)
                return std::nullopt;
            ws();
            if (pos >= s.size() || s[pos] != ':')
                return std::nullopt;
            ++pos;
            auto v = value(depth - 1);
            if (!v)
                return std::nullopt;
            members.emplace_back(std::move(*key), std::move(*v));
            ws();
            if (pos >= s.size())
                return std::nullopt;
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return Build::object(std::move(members));
            }
            return std::nullopt;
        }
    }
    // Number, by the RFC 8259 grammar:
    //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // strtod alone would also take "nan", "inf", "+1" and "0x2".
    const std::size_t start = pos;
    auto digits = [this] {
        const std::size_t from = pos;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
            ++pos;
        return pos > from;
    };
    if (s[pos] == '-')
        ++pos;
    if (pos < s.size() && s[pos] == '0')
        ++pos;
    else if (!digits())
        return std::nullopt;
    if (pos < s.size() && s[pos] == '.') {
        ++pos;
        if (!digits())
            return std::nullopt;
    }
    if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
        ++pos;
        if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (!digits())
            return std::nullopt;
    }
    return Build::number(
        std::strtod(s.substr(start, pos - start).c_str(), nullptr));
}

/** Unsigned decimal (no leading zeros, as in a JSON number) or
 *  0x-hex text: no sign, no spaces, no overflow. */
std::optional<std::uint64_t>
parseUnsigned(const std::string &text)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    if (first == last || (!hex && *first == '0' && last - first > 1))
        return std::nullopt;
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (ec != std::errc() || end != last)
        return std::nullopt;
    return v;
}

} // namespace

std::optional<JsonValue>
JsonValue::parse(const std::string &text, std::size_t max_depth)
{
    JsonParser p(text, max_depth);
    return p.run();
}

std::optional<JsonValue>
JsonValue::parse(const std::vector<std::uint8_t> &bytes,
                 std::size_t max_depth)
{
    return parse(std::string(bytes.begin(), bytes.end()), max_depth);
}

const JsonValue *
JsonValue::get(const std::string &key) const
{
    if (type_ != Type::Obj)
        return nullptr;
    for (const auto &[k, v] : obj_) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

double
JsonValue::num(double fallback) const
{
    return type_ == Type::Num ? num_ : fallback;
}

bool
JsonValue::boolean(bool fallback) const
{
    return type_ == Type::Bool ? bool_ : fallback;
}

std::optional<std::uint64_t>
JsonValue::getUint(const std::string &key) const
{
    const JsonValue *v = get(key);
    if (!v)
        return std::nullopt;
    if (v->type_ == Type::Num) {
        // Finite, non-negative integers below 2^64 only: a fraction
        // must not truncate into a valid id, and casting NaN or an
        // out-of-range value is undefined behaviour.
        const double d = v->num_;
        if (!(d >= 0.0 && d < 0x1p64) || d != std::floor(d))
            return std::nullopt;
        return static_cast<std::uint64_t>(d);
    }
    if (v->type_ == Type::Str)
        return parseUnsigned(v->str_);
    return std::nullopt;
}

std::optional<std::string>
JsonValue::getStr(const std::string &key) const
{
    const JsonValue *v = get(key);
    if (!v || v->type_ != Type::Str)
        return std::nullopt;
    return v->str_;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += '?';
            else
                out.push_back(c);
        }
    }
    return out;
}

// --------------------------------------------------------------------
// ClientWire

bool
ClientWire::toServer(const std::vector<std::uint8_t> &bytes)
{
    if (!connected_ || c2s.size() + bytes.size() > cap)
        return false;
    c2s.insert(c2s.end(), bytes.begin(), bytes.end());
    return true;
}

std::vector<std::uint8_t>
ClientWire::fromServer()
{
    std::vector<std::uint8_t> out(s2c.begin(), s2c.end());
    s2c.clear();
    return out;
}

std::vector<std::uint8_t>
ClientWire::serverDrain(std::size_t max_bytes)
{
    std::size_t n = c2s.size();
    if (max_bytes != 0 && max_bytes < n)
        n = max_bytes;
    std::vector<std::uint8_t> out(c2s.begin(), c2s.begin() + n);
    c2s.erase(c2s.begin(), c2s.begin() + n);
    return out;
}

bool
ClientWire::toClient(const std::vector<std::uint8_t> &bytes)
{
    if (!connected_ || s2c.size() + bytes.size() > cap)
        return false;
    s2c.insert(s2c.end(), bytes.begin(), bytes.end());
    return true;
}

// --------------------------------------------------------------------
// DebugServer

const char *
sessionOutcomeName(SessionOutcome o)
{
    switch (o) {
      case SessionOutcome::Active: return "active";
      case SessionOutcome::Completed: return "completed";
      case SessionOutcome::Shed: return "shed";
      case SessionOutcome::Aborted: return "aborted";
      case SessionOutcome::Disconnected: return "disconnected";
    }
    return "?";
}

struct DebugServer::Session
{
    std::uint32_t id = 0;
    std::string name;
    SessionOutcome outcome = SessionOutcome::Active;
    std::string reason;
    bool attached = false;
    bool degraded = false;
    std::size_t world = SIZE_MAX;
    bool rw = false;
    std::size_t breakCount = 0;

    std::unique_ptr<ClientWire> wire;
    ProtocolEngine parser;

    struct Cmd
    {
        JsonValue req;
        sim::Tick at = 0;
    };
    std::deque<Cmd> cmds;
    std::deque<std::vector<std::uint8_t>> outbox;

    unsigned deliveryRetries = 0;
    sim::Tick nextDeliveryAt = 0;
    sim::Tick lastFrameAt = 0;
    unsigned probesSent = 0;
    sim::Tick nextProbeAt = 0;
    std::uint64_t evalsSeen = 0;
    /** Static-analysis work (priced instructions) not yet charged
     *  against the eval budget. */
    std::uint64_t analysisEvals = 0;

    SessionReport rpt;

    bool terminal() const { return outcome != SessionOutcome::Active; }
};

DebugServer::DebugServer(fleet::Fleet &fleet, ServerConfig config)
    : fleet_(fleet), cfg(config)
{}

// Destroying `probes` unwinds every tracer they installed, restoring
// any world-owned tracer they chained under, so the fleet can keep
// running without the server.
DebugServer::~DebugServer() = default;

void
DebugServer::setSymbols(isa::SymbolTable table)
{
    symbols_ = std::move(table);
}

ClientWire *
DebugServer::connect(const std::string &client_name)
{
    std::size_t live = 0;
    for (const auto &s : sessions) {
        if (!s->terminal())
            ++live;
    }
    if (live >= maxClients)
        return nullptr;
    auto s = std::make_unique<Session>();
    s->id = nextSessionId++;
    s->name = client_name;
    s->wire = std::make_unique<ClientWire>(cfg.maxQueuedBytes);
    s->lastFrameAt = fleet_.now();
    s->rpt.sessionId = s->id;
    s->rpt.client = client_name;
    Session *raw = s.get();
    s->parser.handlers.rawFrame =
        [this, raw](const std::vector<std::uint8_t> &pl) {
            onFrame(*raw, pl);
            return true; // every client frame belongs to this layer
        };
    sessions.push_back(std::move(s));
    return raw->wire.get();
}

void
DebugServer::runEpoch()
{
    fleet_.runEpochs(1);
    poll();
}

void
DebugServer::runEpochs(unsigned epochs)
{
    for (unsigned e = 0; e < epochs; ++e)
        runEpoch();
}

void
DebugServer::poll()
{
    ++stats_.polls;
    drainWires();
    reapDisconnected();
    serveCommands();
    deliverHits();
    shedOverBudget();
    superviseSessions();
    flushOutboxes();
    releaseEmptyProbes();
}

void
DebugServer::releaseEmptyProbes()
{
    for (auto it = probes.begin(); it != probes.end();) {
        if (!it->second.empty()) {
            ++it;
            continue;
        }
        // Last breakpoint on this world is gone: release the tracer
        // (the probe's destructor uninstalls it) so the world's
        // slices run untraced again. Fold any still-unaccounted
        // buffer overflow into stats first, and retire the drop
        // watermark with the probe — a stale watermark would
        // silently swallow the drops of a future probe on the same
        // world.
        const std::uint64_t d = it->second.droppedHits();
        const auto seen = probeDropsSeen.find(it->first);
        const std::uint64_t folded =
            seen == probeDropsSeen.end() ? 0 : seen->second;
        if (d > folded)
            stats_.hitsDropped += d - folded;
        if (seen != probeDropsSeen.end())
            probeDropsSeen.erase(seen);
        it = probes.erase(it);
    }
}

void
DebugServer::drainWires()
{
    const sim::Tick now = fleet_.now();
    for (auto &s : sessions) {
        if (s->terminal() || !s->wire->connected())
            continue;
        for (std::uint8_t b : s->wire->serverDrain(0))
            s->parser.onByte(b, now);
    }
}

void
DebugServer::reapDisconnected()
{
    for (auto &s : sessions) {
        if (!s->terminal() && !s->wire->connected())
            terminate(*s, SessionOutcome::Disconnected, "disconnect");
    }
}

void
DebugServer::onFrame(Session &s, const std::vector<std::uint8_t> &pl)
{
    ++stats_.framesIn;
    s.lastFrameAt = fleet_.now();
    s.probesSent = 0; // any valid frame proves liveness
    auto req = JsonValue::parse(pl);
    if (!req || !req->isObj()) {
        ++stats_.malformedJson;
        return;
    }
    if (req->get("ev"))
        return; // client-side event (pong); liveness already noted
    auto id = req->getUint("id");
    if (!id) {
        ++stats_.malformedJson;
        return;
    }
    if (s.cmds.size() >= cfg.maxPendingCmds) {
        // Explicit backpressure, not silent loss.
        ++stats_.commandsBackpressured;
        ++s.rpt.commandsBackpressured;
        s.degraded = true;
        std::ostringstream o;
        o << "{\"id\":" << *id << ",\"ok\":false,\"err\":\"busy\"}";
        enqueueReply(s, o.str());
        return;
    }
    s.cmds.push_back({std::move(*req), fleet_.now()});
}

void
DebugServer::serveCommands()
{
    const sim::Tick now = fleet_.now();
    const std::size_t n = sessions.size();
    if (n == 0)
        return;
    for (std::size_t k = 0; k < n; ++k) {
        Session &s = *sessions[(rrNext + k) % n];
        if (s.terminal())
            continue;
        for (unsigned q = 0;
             q < cfg.commandsPerPoll && !s.cmds.empty(); ++q) {
            Session::Cmd cmd = std::move(s.cmds.front());
            s.cmds.pop_front();
            auto id = cmd.req.getUint("id");
            if (cfg.commandDeadline > 0 &&
                now - cmd.at > cfg.commandDeadline) {
                // Too stale to execute safely; fail loudly.
                ++stats_.commandsDeadlined;
                ++s.rpt.commandsDeadlined;
                s.degraded = true;
                std::ostringstream o;
                o << "{\"id\":" << (id ? *id : 0)
                  << ",\"ok\":false,\"err\":\"deadline\"}";
                enqueueReply(s, o.str());
                continue;
            }
            execute(s, cmd.req);
            ++stats_.commandsServed;
            ++s.rpt.commandsServed;
            if (s.terminal())
                break; // detach mid-quantum
        }
    }
    rrNext = (rrNext + 1) % n; // rotate who goes first
}

namespace {

std::string
hexAddr(std::uint64_t v)
{
    std::ostringstream o;
    o << "\"0x" << std::hex << v << "\"";
    return o.str();
}

/** The request's "addr" member, when present and inside the EH32
 *  address space (a wider value would alias once cast to Addr). */
std::optional<mem::Addr>
addrArg(const JsonValue &req)
{
    auto v = req.getUint("addr");
    if (!v || *v >= mem::addrSpaceSize)
        return std::nullopt;
    return static_cast<mem::Addr>(*v);
}

} // namespace

void
DebugServer::execute(Session &s, const JsonValue &req)
{
    // The charge/restore discipline, virtual edition: a read-only
    // command may not move the capacitor at all. Sampled before and
    // after the handler; a nonzero delta is an interference bug.
    double v0 = 0.0;
    bool checkV = s.attached && s.world < fleet_.size() && !s.rw;
    if (checkV) {
        v0 = fleet_.world(s.world)
                 .wisp()
                 .power()
                 .voltageNoAdvance();
    }
    dispatchCmd(s, req);
    if (checkV && s.world < fleet_.size()) {
        double v1 = fleet_.world(s.world)
                        .wisp()
                        .power()
                        .voltageNoAdvance();
        if (v1 != v0)
            ++stats_.interferenceViolations;
    }
}

void
DebugServer::dispatchCmd(Session &s, const JsonValue &req)
{
    const std::uint64_t id = req.getUint("id").value_or(0);
    auto method = req.getStr("m");
    std::ostringstream o;
    o << "{\"id\":" << id << ",";
    auto err = [&](const char *what) {
        o << "\"ok\":false,\"err\":\"" << what << "\"}";
    };

    if (!method) {
        err("method");
        enqueueReply(s, o.str());
        return;
    }
    const std::string &m = *method;

    if (m == "attach") {
        auto world = req.getUint("world");
        if (s.attached) {
            err("attached");
        } else if (!world || *world >= fleet_.size()) {
            err("world");
        } else {
            s.attached = true;
            s.world = static_cast<std::size_t>(*world);
            s.rw = req.getStr("mode").value_or("ro") == "rw";
            s.rpt.world = s.world;
            o << "\"ok\":true,\"sess\":" << s.id << ",\"world\":"
              << s.world << ",\"rw\":" << (s.rw ? "true" : "false")
              << "}";
        }
        enqueueReply(s, o.str());
        return;
    }
    if (m == "ping") {
        o << "\"ok\":true,\"t\":" << fleet_.now() << "}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "symbols") {
        std::size_t off = static_cast<std::size_t>(
            req.getUint("off").value_or(0));
        const auto &all = symbols_.symbols();
        o << "\"ok\":true,\"total\":" << all.size() << ",\"off\":"
          << off << ",\"syms\":[";
        std::size_t i = 0, emitted = 0;
        for (const auto &[name, value] : all) {
            if (i++ < off)
                continue;
            if (emitted >= cfg.symbolsPerPage)
                break;
            if (emitted)
                o << ",";
            o << "[\"" << jsonEscape(name) << "\","
              << hexAddr(value) << "]";
            ++emitted;
        }
        o << "]}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "lookup") {
        if (auto name = req.getStr("sym")) {
            auto v = symbols_.lookup(*name);
            if (!v) {
                err("sym");
            } else {
                o << "\"ok\":true,\"v\":" << hexAddr(*v)
                  << ",\"line\":" << symbols_.lineOf(*v) << "}";
            }
        } else if (auto addr = addrArg(req)) {
            o << "\"ok\":true,\"sym\":\""
              << jsonEscape(symbols_.symbolize(*addr))
              << "\",\"line\":" << symbols_.lineOf(*addr) << "}";
        } else {
            err("args");
        }
        enqueueReply(s, o.str());
        return;
    }

    // Everything below needs an attached world.
    if (!s.attached || s.world >= fleet_.size()) {
        err("detached");
        enqueueReply(s, o.str());
        return;
    }
    target::Wisp &wisp = fleet_.world(s.world).wisp();

    if (m == "setbreak") {
        std::optional<mem::Addr> addr = addrArg(req);
        if (!addr) {
            if (auto sym = req.getStr("sym"))
                if (auto v = symbols_.lookup(*sym))
                    addr = *v;
        }
        if (!addr) {
            err("addr");
        } else if (s.breakCount >= cfg.maxBreakpointsPerSession) {
            err("quota");
        } else {
            std::string cond_text =
                req.getStr("cond").value_or("");
            std::string why;
            auto cond = VBreakCondition::parse(cond_text, &why);
            if (!cond) {
                err("cond");
            } else {
                auto [it, fresh] =
                    probes.try_emplace(s.world, maxHitsPerWorld);
                if (fresh)
                    it->second.install(wisp);
                VirtualBreakpoint bp;
                bp.id = nextBreakId++;
                bp.sessionId = s.id;
                bp.addr = *addr;
                bp.cond = std::move(*cond);
                it->second.put(bp);
                ++s.breakCount;
                o << "\"ok\":true,\"bk\":" << bp.id << "}";
            }
        }
        enqueueReply(s, o.str());
        return;
    }
    if (m == "clearbreak") {
        auto bk = req.getUint("bk");
        auto it = probes.find(s.world);
        const VirtualBreakpoint *bp =
            (bk && *bk <= UINT32_MAX && it != probes.end())
                ? it->second.find(static_cast<std::uint32_t>(*bk))
                : nullptr;
        if (!bp || bp->sessionId != s.id) {
            err("bk");
        } else {
            it->second.erase(bp->id);
            --s.breakCount;
            o << "\"ok\":true}";
        }
        enqueueReply(s, o.str());
        return;
    }
    if (m == "breaks") {
        auto it = probes.find(s.world);
        o << "\"ok\":true,\"n\":" << s.breakCount << ",\"bks\":[";
        std::size_t emitted = 0;
        if (it != probes.end()) {
            for (const auto &[bid, bp] : it->second.breakpoints()) {
                if (bp.sessionId != s.id)
                    continue;
                if (emitted >= 4)
                    break;
                if (emitted)
                    o << ",";
                o << "[" << bid << "," << hexAddr(bp.addr) << ","
                  << bp.hits << "]";
                ++emitted;
            }
        }
        o << "]}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "regs") {
        const mcu::Mcu &core = wisp.mcu();
        o << "\"ok\":true,\"pc\":" << hexAddr(core.pc())
          << ",\"r\":\"" << std::hex;
        for (unsigned i = 0; i < isa::numRegs; ++i)
            o << (i ? "," : "") << core.reg(i);
        o << std::dec << "\"}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "read") {
        auto addr = addrArg(req);
        std::size_t len = static_cast<std::size_t>(
            req.getUint("len").value_or(4));
        if (len > readChunkMax)
            len = readChunkMax;
        const std::uint8_t *base = nullptr;
        if (addr) {
            const mem::Addr a = *addr;
            namespace lay = target::layout;
            // Raw region arrays only: routing through the memory
            // map could touch MMIO and perturb the target.
            if (a >= lay::sramBase &&
                a + len <= lay::sramBase + lay::sramSize) {
                base = wisp.sramRegion().data() +
                       (a - lay::sramBase);
            } else if (a >= lay::framBase &&
                       a + len <= lay::framBase + lay::framSize) {
                base = wisp.framRegion().data() +
                       (a - lay::framBase);
            }
        }
        if (!base) {
            err("range");
        } else {
            static const char *digits = "0123456789abcdef";
            o << "\"ok\":true,\"d\":\"";
            for (std::size_t i = 0; i < len; ++i) {
                o << digits[base[i] >> 4] << digits[base[i] & 0xF];
            }
            o << "\"}";
        }
        enqueueReply(s, o.str());
        return;
    }
    if (m == "vcap") {
        o << "\"ok\":true,\"v\":"
          << wisp.power().voltageNoAdvance() << "}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "info") {
        const fleet::World &world = fleet_.world(s.world);
        o << "\"ok\":true,\"world\":" << s.world << ",\"i\":"
          << world.wisp().mcu().instrCount() << ",\"rb\":"
          << world.wisp().mcu().rebootCount() << ",\"t\":"
          << fleet_.now() << "}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "analyze" || m == "willComplete") {
        // Static energy-timing analysis of the attached world's
        // firmware (DESIGN.md §14): strictly read-only — the cost
        // table is extracted from configuration and the CFG walk
        // runs over the shared assembled image; the target itself
        // is never advanced (the capacitor-delta check in execute()
        // holds bitwise). The walk is real server compute, so its
        // priced instructions are charged against the same eval
        // budget as breakpoint condition evaluations.
        analysis::CostModel model =
            analysis::CostModel::fromWisp(wisp);
        analysis::AnalyzerOptions aopt;
        // Harvesting envelope, integer wire units: nA in, mV cap.
        if (auto imax = req.getUint("imaxNa"))
            aopt.maxInflowAmps = static_cast<double>(*imax) * 1e-9;
        if (auto iexp = req.getUint("iexpNa"))
            aopt.expectedInflowAmps =
                static_cast<double>(*iexp) * 1e-9;
        if (auto vmax = req.getUint("vmaxMv"))
            aopt.maxSourceVolts = static_cast<double>(*vmax) * 1e-3;
        analysis::Report rep = analysis::analyze(
            fleet_.worldProgram(s.world), model, aopt);
        s.analysisEvals += rep.analyzedInstructions;

        // Charges travel as integer nanocoulombs to keep replies
        // compact and the wire format float-free.
        auto nc = [](double coulombs) -> long long {
            return std::llround(coulombs * 1e9);
        };
        if (m == "willComplete") {
            const char *will = "unknown";
            switch (rep.verdict) {
              case analysis::Verdict::Completes: will = "yes"; break;
              case analysis::Verdict::Starves: will = "no"; break;
              case analysis::Verdict::MayStarve:
                will = "maybe";
                break;
              case analysis::Verdict::RunsForever:
                will = "never";
                break;
              case analysis::Verdict::Unknown: break;
            }
            o << "\"ok\":true,\"will\":\"" << will
              << "\",\"verdict\":\""
              << analysis::verdictName(rep.verdict) << "\"";
            if (rep.predictedBoots > 0.0)
                o << ",\"boots\":"
                  << static_cast<std::uint64_t>(
                         std::ceil(rep.predictedBoots));
            o << "}";
            enqueueReply(s, o.str());
            return;
        }
        bool bounded = !rep.regions.empty();
        for (const analysis::RegionInfo &r : rep.regions)
            bounded = bounded && r.bounded;
        o << "\"ok\":true,\"verdict\":\""
          << analysis::verdictName(rep.verdict) << "\",\"reason\":\""
          << jsonEscape(rep.reason) << "\",\"bounded\":"
          << (bounded ? "true" : "false") << ",\"budgetNc\":"
          << nc(rep.budget) << ",\"bootNc\":" << nc(rep.bootCharge)
          << ",\"worstNc\":" << nc(rep.worstRegionCharge)
          << ",\"instrs\":" << rep.analyzedInstructions
          << ",\"rg\":[";
        std::size_t emitted = 0;
        for (const analysis::RegionInfo &r : rep.regions) {
            if (emitted >= 4)
                break; // paginate like "breaks": bounded reply size
            if (emitted)
                o << ",";
            o << "[" << hexAddr(r.entryPc) << ","
              << (r.bounded ? nc(r.chargeMax) : -1) << "]";
            ++emitted;
        }
        o << "],\"nrg\":" << rep.regions.size() << "}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "write") {
        if (!s.rw) {
            // Read-only sessions may not touch the target; "rw" is
            // an explicit opt-in to interference at attach.
            err("ro");
            enqueueReply(s, o.str());
            return;
        }
        auto addr = addrArg(req);
        auto data = req.getStr("d");
        if (!addr || !data || data->empty() ||
            data->size() % 2 != 0 ||
            data->size() / 2 > readChunkMax) {
            err("args");
            enqueueReply(s, o.str());
            return;
        }
        auto nyb = [](char c) -> int {
            if (c >= '0' && c <= '9')
                return c - '0';
            if (c >= 'a' && c <= 'f')
                return c - 'a' + 10;
            if (c >= 'A' && c <= 'F')
                return c - 'A' + 10;
            return -1;
        };
        bool ok = true;
        std::size_t wrote = 0;
        for (std::size_t i = 0; ok && i < data->size(); i += 2) {
            int hi = nyb((*data)[i]), lo = nyb((*data)[i + 1]);
            if (hi < 0 || lo < 0) {
                ok = false;
                break;
            }
            // Routed through the memory map on purpose: rw writes
            // are honest interference (wear, NV energy, MMIO).
            auto res = wisp.memoryMap().write8(
                *addr + static_cast<mem::Addr>(wrote),
                static_cast<std::uint8_t>((hi << 4) | lo));
            ok = res == mem::AccessResult::Ok;
            if (ok)
                ++wrote;
        }
        if (!ok)
            err("range");
        else
            o << "\"ok\":true,\"n\":" << wrote << "}";
        enqueueReply(s, o.str());
        return;
    }
    if (m == "detach") {
        o << "\"ok\":true}";
        enqueueReply(s, o.str());
        terminate(s, SessionOutcome::Completed, "detach");
        return;
    }
    err("method");
    enqueueReply(s, o.str());
}

bool
DebugServer::enqueueReply(Session &s, const std::string &json,
                          bool hit_event)
{
    std::string body = json;
    if (body.size() > proto::maxPayload) {
        // Should be unreachable: every handler paginates/chunks to
        // fit. Count it and degrade to a well-formed error.
        ++stats_.oversizeReplies;
        body = "{\"ok\":false,\"err\":\"oversize\"}";
    }
    std::vector<std::uint8_t> payload(body.begin(), body.end());
    if (s.outbox.size() >= 4 * cfg.maxPendingCmds) {
        // Outbox cap: a client that never drains cannot grow
        // unbounded server state; the delivery retry path will shed
        // it shortly anyway. Shed breakpoint hits and shed command
        // replies are distinct metrics — the soak gates reason
        // about hit loss, so RPC responses must not inflate it.
        if (hit_event) {
            ++stats_.hitsDropped;
            ++s.rpt.hitsDropped;
        } else {
            ++stats_.repliesDropped;
            ++s.rpt.repliesDropped;
        }
        return false;
    }
    s.outbox.push_back(buildFrame(payload));
    ++stats_.framesOut;
    return true;
}

void
DebugServer::deliverHits()
{
    for (auto &[w, probe] : probes) {
        for (const VBreakHit &h : probe.drainHits()) {
            Session *owner = nullptr;
            for (auto &s : sessions) {
                if (s->id == h.sessionId && !s->terminal()) {
                    owner = s.get();
                    break;
                }
            }
            if (!owner) {
                ++stats_.hitsDropped;
                continue;
            }
            std::ostringstream o;
            o << "{\"ev\":\"hit\",\"bk\":" << h.bkptId << ",\"pc\":"
              << hexAddr(h.pc) << ",\"t\":" << h.when << ",\"i\":"
              << h.instrs << ",\"v\":" << h.vcap << ",\"r0\":"
              << h.r0 << "}";
            if (enqueueReply(*owner, o.str(), /*hit_event=*/true)) {
                ++stats_.hitsDelivered;
                ++owner->rpt.hitsDelivered;
            }
        }
        // Overflow inside the probe's bounded buffer (hot-loop
        // breakpoints) is also accounted, not silently eaten.
        std::uint64_t d = probe.droppedHits();
        std::uint64_t seen = probeDropsSeen[w];
        if (d > seen) {
            stats_.hitsDropped += d - seen;
            probeDropsSeen[w] = d;
        }
    }
}

void
DebugServer::flushOutboxes()
{
    const sim::Tick now = fleet_.now();
    for (auto &sp : sessions) {
        Session &s = *sp;
        if (s.terminal())
            continue;
        if (s.outbox.empty()) {
            s.deliveryRetries = 0;
            continue;
        }
        if (now < s.nextDeliveryAt)
            continue;
        bool progress = false;
        while (!s.outbox.empty() &&
               s.wire->toClient(s.outbox.front())) {
            s.outbox.pop_front();
            progress = true;
        }
        if (progress) {
            s.deliveryRetries = 0;
            s.nextDeliveryAt = 0;
        }
        if (!s.outbox.empty()) {
            // Receive queue full: the client stopped draining.
            // Bounded retries with exponential backoff, then shed.
            ++s.deliveryRetries;
            ++s.rpt.deliveryRetries;
            if (s.deliveryRetries > deliveryRetryMax) {
                terminate(s, SessionOutcome::Shed, "backpressure");
            } else {
                s.nextDeliveryAt =
                    now + (deliveryBackoffBase
                           << (s.deliveryRetries - 1));
            }
        }
    }
}

void
DebugServer::superviseSessions()
{
    const sim::Tick now = fleet_.now();
    for (auto &sp : sessions) {
        Session &s = *sp;
        if (s.terminal())
            continue;
        if (now - s.lastFrameAt <= cfg.idleTimeout)
            continue;
        if (s.probesSent >= cfg.maxProbes) {
            terminate(s, SessionOutcome::Aborted, "idle");
            continue;
        }
        if (now >= s.nextProbeAt) {
            std::ostringstream o;
            o << "{\"ev\":\"ping\",\"n\":" << s.probesSent << "}";
            enqueueReply(s, o.str());
            ++s.probesSent;
            ++stats_.probesSent;
            s.nextProbeAt = now + cfg.idleTimeout;
        }
    }
}

void
DebugServer::shedOverBudget()
{
    if (cfg.evalBudgetPerPoll == 0)
        return;
    // Charge each session for the condition evaluations its
    // breakpoints consumed this poll.
    std::map<std::uint32_t, std::uint64_t> evalsNow;
    for (const auto &[w, probe] : probes) {
        for (const auto &[bid, bp] : probe.breakpoints())
            evalsNow[bp.sessionId] += bp.evals;
    }
    std::uint64_t total = 0;
    std::vector<std::pair<std::uint64_t, Session *>> charged;
    for (auto &sp : sessions) {
        Session &s = *sp;
        if (s.terminal())
            continue;
        std::uint64_t cum = evalsNow.count(s.id) ? evalsNow[s.id] : 0;
        // cum can shrink when breakpoints are cleared mid-flight;
        // never charge a negative (underflowed) delta.
        std::uint64_t delta =
            cum > s.evalsSeen ? cum - s.evalsSeen : 0;
        s.evalsSeen = cum;
        // Static-analysis RPCs consume the same budget: an
        // "analyze"-spamming client is shed exactly like a
        // breakpoint-spamming one.
        delta += s.analysisEvals;
        s.analysisEvals = 0;
        total += delta;
        if (delta > 0)
            charged.emplace_back(delta, &s);
    }
    stats_.evalsCharged += total;
    if (total <= cfg.evalBudgetPerPoll)
        return;
    // Over budget: shed heaviest first until back under.
    std::sort(charged.begin(), charged.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    for (auto &[delta, s] : charged) {
        if (total <= cfg.evalBudgetPerPoll)
            break;
        terminate(*s, SessionOutcome::Shed, "eval-budget");
        total -= delta;
    }
}

void
DebugServer::terminate(Session &s, SessionOutcome outcome,
                       const std::string &reason)
{
    if (s.terminal())
        return;
    s.outcome = outcome;
    s.reason = reason;
    // Its breakpoints die with it (and the tracer, if it held the
    // last ones on that world, is released at the end of the poll).
    if (s.world < fleet_.size()) {
        auto it = probes.find(s.world);
        if (it != probes.end())
            s.breakCount -= it->second.eraseSession(s.id);
    }
    // Best-effort farewell + pending replies; one attempt each, a
    // dead wire gets no retries.
    while (!s.outbox.empty()) {
        if (!s.wire->toClient(s.outbox.front()))
            break;
        s.outbox.pop_front();
    }
    s.outbox.clear();
    std::string bye = "{\"ev\":\"bye\",\"reason\":\"" +
                      jsonEscape(reason) + "\",\"outcome\":\"" +
                      sessionOutcomeName(outcome) + "\"}";
    s.wire->toClient(
        buildFrame(std::vector<std::uint8_t>(bye.begin(), bye.end())));
    s.cmds.clear();

    s.rpt.outcome = outcome;
    s.rpt.reason = reason;
    s.rpt.degraded = s.degraded;
    s.rpt.world = s.world;
    reports_.push_back(s.rpt);
    if (outcome == SessionOutcome::Shed)
        ++stats_.sessionsShed;
    if (outcome == SessionOutcome::Aborted)
        ++stats_.sessionsAborted;
}

std::size_t
DebugServer::activeSessions() const
{
    std::size_t n = 0;
    for (const auto &s : sessions) {
        if (!s->terminal())
            ++n;
    }
    return n;
}

std::size_t
DebugServer::stuckSessions() const
{
    // A session is stuck when it is neither terminal nor healthy:
    // it holds queued commands, undelivered replies or a partial
    // frame it can no longer make progress on.
    std::size_t n = 0;
    for (const auto &s : sessions) {
        if (s->terminal())
            continue;
        if (!s->cmds.empty() || !s->outbox.empty() ||
            s->parser.midFrame() || !s->wire->connected())
            ++n;
    }
    return n;
}

// --------------------------------------------------------------------
// RpcClient

RpcClient::RpcClient(DebugServer &server, std::string client_name,
                     sim::ClientFaultPlan faults)
    : server_(server), name_(std::move(client_name)),
      wire_(server.connect(name_)), faults_(faults)
{
    parser.setInterByteTimeout(0);
    parser.handlers.rawFrame =
        [this](const std::vector<std::uint8_t> &pl) {
            auto v = JsonValue::parse(pl);
            if (v && v->isObj()) {
                if (v->get("ev"))
                    events.push_back(std::move(*v));
                else
                    responses.push_back(std::move(*v));
            }
            return true;
        };
}

std::uint64_t
RpcClient::request(const std::string &body)
{
    if (!connected())
        return 0;
    std::uint64_t id = nextId++;
    std::ostringstream o;
    o << "{\"id\":" << id << "," << body << "}";
    std::string json = o.str();
    auto frame = buildFrame(
        std::vector<std::uint8_t>(json.begin(), json.end()));
    auto bytes = faults_.onFrame(frame);
    staged.insert(staged.end(), bytes.begin(), bytes.end());
    if (faults_.wantsDisconnect())
        wire_->disconnect(); // mid-command vanishing act
    return id;
}

void
RpcClient::pump()
{
    if (!wire_ || !wire_->connected())
        return;
    unsigned budget = faults_.byteBudgetPerPoll();
    std::size_t n = staged.size();
    if (budget != 0 && budget < n)
        n = budget;
    if (n != 0) {
        std::vector<std::uint8_t> chunk(staged.begin(),
                                        staged.begin() + n);
        if (wire_->toServer(chunk))
            staged.erase(staged.begin(), staged.begin() + n);
        // else: wire full — client-side backpressure, retry later.
    }
    for (std::uint8_t b : wire_->fromServer())
        parser.onByte(b);
}

std::vector<JsonValue>
RpcClient::takeResponses()
{
    std::vector<JsonValue> out;
    out.swap(responses);
    return out;
}

std::vector<JsonValue>
RpcClient::takeEvents()
{
    std::vector<JsonValue> out;
    out.swap(events);
    return out;
}

std::optional<JsonValue>
RpcClient::await(std::uint64_t id, unsigned epochs)
{
    auto scan = [&]() -> std::optional<JsonValue> {
        for (std::size_t i = 0; i < responses.size(); ++i) {
            if (responses[i].getUint("id").value_or(0) == id) {
                JsonValue v = std::move(responses[i]);
                responses.erase(responses.begin() +
                                static_cast<std::ptrdiff_t>(i));
                return v;
            }
        }
        return std::nullopt;
    };
    for (unsigned e = 0; e < epochs; ++e) {
        pump();
        if (auto v = scan())
            return v;
        server_.runEpoch();
        pump();
        if (auto v = scan())
            return v;
    }
    return std::nullopt;
}

void
RpcClient::disconnect()
{
    if (wire_)
        wire_->disconnect();
}

} // namespace edb::edbdbg
