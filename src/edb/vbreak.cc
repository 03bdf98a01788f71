#include "edb/vbreak.hh"

#include <cctype>
#include <charconv>
#include <cmath>

#include "energy/power_system.hh"
#include "isa/isa.hh"
#include "mcu/mcu.hh"
#include "sim/simulator.hh"
#include "target/wisp.hh"

namespace edb::edbdbg {

namespace {

enum class OperandKind
{
    Literal,
    Reg,
    Pc,
    Vcap,
    Instrs,
    Cycles,
    NvWord,
    SramWord,
};

struct Operand
{
    OperandKind kind = OperandKind::Literal;
    double literal = 0.0;
    unsigned reg = 0;
    mem::Addr addr = 0;
};

enum class RelOp
{
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
};

/** Read a 32-bit LE word from a raw region array; 0 out of range. */
double
regionWord(const mem::Ram &region, mem::Addr base, mem::Addr addr)
{
    // Overflow-proof bounds check: `addr + 4` wraps for addresses
    // near the top of the 32-bit space, which would let a condition
    // like nv[0xfffffffe] read far past the region buffer.
    if (addr < base)
        return 0.0;
    const mem::Addr off = addr - base;
    if (off > region.size() || region.size() - off < 4)
        return 0.0;
    const std::uint8_t *p = region.data() + off;
    std::uint32_t w = 0;
    for (int b = 0; b < 4; ++b)
        w |= std::uint32_t(p[b]) << (8 * b);
    return static_cast<double>(w);
}

double
operandValue(const Operand &op, const target::Wisp &wisp)
{
    switch (op.kind) {
      case OperandKind::Literal:
        return op.literal;
      case OperandKind::Reg:
        return static_cast<double>(wisp.mcu().reg(op.reg));
      case OperandKind::Pc:
        return static_cast<double>(wisp.mcu().pc());
      case OperandKind::Vcap:
        // voltageNoAdvance: a pure read of the integrator state. The
        // plain voltage() accessor advances the analog model and
        // would perturb the trajectory — exactly the interference
        // this debugger exists to avoid.
        return wisp.power().voltageNoAdvance();
      case OperandKind::Instrs:
        return static_cast<double>(wisp.mcu().instrCount());
      case OperandKind::Cycles:
        return static_cast<double>(wisp.mcu().cycleCount());
      case OperandKind::NvWord:
        return regionWord(wisp.framRegion(),
                          target::layout::framBase, op.addr);
      case OperandKind::SramWord:
        return regionWord(wisp.sramRegion(),
                          target::layout::sramBase, op.addr);
    }
    return 0.0;
}

} // namespace

struct VBreakCondition::Node
{
    enum class Kind
    {
        Or,
        And,
        Cmp,
    } kind = Kind::Cmp;
    std::vector<std::shared_ptr<const Node>> kids; // Or / And
    Operand lhs, rhs;                              // Cmp
    RelOp op = RelOp::Eq;                          // Cmp

    bool
    eval(const target::Wisp &wisp) const
    {
        switch (kind) {
          case Kind::Or:
            for (const auto &k : kids) {
                if (k->eval(wisp))
                    return true;
            }
            return false;
          case Kind::And:
            for (const auto &k : kids) {
                if (!k->eval(wisp))
                    return false;
            }
            return true;
          case Kind::Cmp: {
            double a = operandValue(lhs, wisp);
            double b = operandValue(rhs, wisp);
            switch (op) {
              case RelOp::Eq: return a == b;
              case RelOp::Ne: return a != b;
              case RelOp::Lt: return a < b;
              case RelOp::Le: return a <= b;
              case RelOp::Gt: return a > b;
              case RelOp::Ge: return a >= b;
            }
            return false;
          }
        }
        return false;
    }
};

namespace {

/** Recursive-descent parser over the grammar in the header. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    std::shared_ptr<const VBreakCondition::Node>
    parse(std::string *error)
    {
        auto node = parseOr();
        skipWs();
        if (node && pos != s.size()) {
            fail("trailing characters after expression");
            node = nullptr;
        }
        if (!node && error)
            *error = err.empty() ? "parse error" : err;
        return node;
    }

  private:
    using NodePtr = std::shared_ptr<const VBreakCondition::Node>;

    void
    fail(const std::string &why)
    {
        if (err.empty())
            err = why;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    bool
    eat(const char *tok)
    {
        skipWs();
        std::size_t n = 0;
        while (tok[n] != '\0')
            ++n;
        if (s.compare(pos, n, tok) != 0)
            return false;
        pos += n;
        return true;
    }

    NodePtr
    parseOr()
    {
        auto first = parseAnd();
        if (!first)
            return nullptr;
        std::vector<NodePtr> kids{first};
        while (eat("||")) {
            auto next = parseAnd();
            if (!next)
                return nullptr;
            kids.push_back(next);
        }
        if (kids.size() == 1)
            return first;
        auto n = std::make_shared<VBreakCondition::Node>();
        n->kind = VBreakCondition::Node::Kind::Or;
        n->kids = std::move(kids);
        return n;
    }

    NodePtr
    parseAnd()
    {
        auto first = parseCmp();
        if (!first)
            return nullptr;
        std::vector<NodePtr> kids{first};
        while (eat("&&")) {
            auto next = parseCmp();
            if (!next)
                return nullptr;
            kids.push_back(next);
        }
        if (kids.size() == 1)
            return first;
        auto n = std::make_shared<VBreakCondition::Node>();
        n->kind = VBreakCondition::Node::Kind::And;
        n->kids = std::move(kids);
        return n;
    }

    NodePtr
    parseCmp()
    {
        skipWs();
        if (eat("(")) {
            // Depth cap: condition text arrives off the wire, and
            // the parser recurses per '(' — without a cap a
            // "((((..." payload walks the host off its stack.
            if (++depth > maxDepth) {
                fail("expression nested too deeply");
                return nullptr;
            }
            auto inner = parseOr();
            --depth;
            if (!inner)
                return nullptr;
            if (!eat(")")) {
                fail("expected ')'");
                return nullptr;
            }
            return inner;
        }
        Operand lhs;
        if (!parseOperand(lhs))
            return nullptr;
        skipWs();
        RelOp op;
        if (eat("==")) {
            op = RelOp::Eq;
        } else if (eat("!=")) {
            op = RelOp::Ne;
        } else if (eat("<=")) {
            op = RelOp::Le;
        } else if (eat(">=")) {
            op = RelOp::Ge;
        } else if (eat("<")) {
            op = RelOp::Lt;
        } else if (eat(">")) {
            op = RelOp::Gt;
        } else {
            fail("expected comparison operator");
            return nullptr;
        }
        Operand rhs;
        if (!parseOperand(rhs))
            return nullptr;
        auto n = std::make_shared<VBreakCondition::Node>();
        n->kind = VBreakCondition::Node::Kind::Cmp;
        n->lhs = lhs;
        n->rhs = rhs;
        n->op = op;
        return n;
    }

    /**
     * A literal: an unsigned decimal or `0x` hex integer below 2^64,
     * or a plain decimal fraction (`1.8`) for volts. No sign, no
     * exponent, no inf or nan.
     */
    bool
    parseNumber(double &out)
    {
        skipWs();
        const char *first = s.data() + pos;
        const char *last = s.data() + s.size();
        const bool hex = last - first > 2 && first[0] == '0' &&
                         (first[1] == 'x' || first[1] == 'X');
        std::uint64_t whole = 0;
        auto [end, ec] = std::from_chars(first + (hex ? 2 : 0), last,
                                         whole, hex ? 16 : 10);
        if (ec == std::errc::invalid_argument) {
            fail("expected a number");
            return false;
        }
        if (ec == std::errc::result_out_of_range) {
            fail("number out of range");
            return false;
        }
        out = static_cast<double>(whole);
        if (!hex && end != last && *end == '.') {
            const char *frac = end + 1;
            end = frac;
            while (end != last && *end >= '0' && *end <= '9')
                ++end;
            if (end == frac) {
                fail("expected digits after '.'");
                return false;
            }
            std::from_chars(first, end, out);
        }
        pos = static_cast<std::size_t>(end - s.data());
        return true;
    }

    bool
    parseIndexed(Operand &op, OperandKind kind)
    {
        if (!eat("[")) {
            fail("expected '['");
            return false;
        }
        double addr = 0.0;
        if (!parseNumber(addr))
            return false;
        if (!eat("]")) {
            fail("expected ']'");
            return false;
        }
        // A fractional or wider-than-32-bit index is no address, and
        // casting it would be undefined.
        if (addr >= 0x1p32 || addr != std::floor(addr)) {
            fail("address out of range");
            return false;
        }
        op.kind = kind;
        op.addr = static_cast<mem::Addr>(addr);
        return true;
    }

    bool
    parseOperand(Operand &op)
    {
        skipWs();
        if (eat("pc")) {
            op.kind = OperandKind::Pc;
            return true;
        }
        if (eat("vcap")) {
            op.kind = OperandKind::Vcap;
            return true;
        }
        if (eat("instrs")) {
            op.kind = OperandKind::Instrs;
            return true;
        }
        if (eat("cycles")) {
            op.kind = OperandKind::Cycles;
            return true;
        }
        if (eat("nv"))
            return parseIndexed(op, OperandKind::NvWord);
        if (eat("sram"))
            return parseIndexed(op, OperandKind::SramWord);
        if (pos < s.size() && s[pos] == 'r' && pos + 1 < s.size() &&
            std::isdigit(static_cast<unsigned char>(s[pos + 1]))) {
            ++pos;
            unsigned n = 0;
            while (pos < s.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(s[pos]))) {
                // Stop accumulating once out of range, so a long
                // index cannot wrap back onto a valid register.
                if (n < isa::numRegs)
                    n = n * 10 + static_cast<unsigned>(s[pos] - '0');
                ++pos;
            }
            if (n >= isa::numRegs) {
                fail("register index out of range");
                return false;
            }
            op.kind = OperandKind::Reg;
            op.reg = n;
            return true;
        }
        op.kind = OperandKind::Literal;
        return parseNumber(op.literal);
    }

    static constexpr unsigned maxDepth = 32;

    const std::string &s;
    std::size_t pos = 0;
    std::string err;
    unsigned depth = 0;
};

} // namespace

std::optional<VBreakCondition>
VBreakCondition::parse(const std::string &text, std::string *error)
{
    VBreakCondition c;
    // Length cap before anything else: condition text arrives off
    // the wire, and every byte is re-walked on parse failure paths.
    if (text.size() > 4096) {
        if (error)
            *error = "expression too long";
        return std::nullopt;
    }
    c.text_ = text;
    // All-whitespace text is the unconditional default.
    bool blank = true;
    for (char ch : text) {
        if (!std::isspace(static_cast<unsigned char>(ch)))
            blank = false;
    }
    if (blank)
        return c;
    Parser p(text);
    c.root = p.parse(error);
    if (!c.root)
        return std::nullopt;
    return c;
}

bool
VBreakCondition::eval(const target::Wisp &wisp) const
{
    return root == nullptr || root->eval(wisp);
}

void
WorldProbe::install(target::Wisp &wisp)
{
    if (device == &wisp)
        return; // our chain is already on this core
    uninstall();
    device = &wisp;
    // A world may own a tracer of its own (the WAR-gadget watch on
    // auditor-completeness worlds). Chain under it so attaching a
    // breakpoint never disables the world's probe; it is restored
    // verbatim by uninstall().
    chained = wisp.mcu().tracerHook();
    wisp.mcu().setTracer([this](mem::Addr pc, const isa::Instr &in) {
        if (chained)
            chained(pc, in);
        onInstruction(*device, pc);
    });
}

void
WorldProbe::uninstall()
{
    if (!device)
        return;
    device->mcu().setTracer(std::move(chained));
    chained = {};
    device = nullptr;
}

void
WorldProbe::put(const VirtualBreakpoint &bp)
{
    erase(bp.id);
    byId.emplace(bp.id, bp);
    byAddr.emplace(bp.addr, bp.id);
}

bool
WorldProbe::erase(std::uint32_t id)
{
    auto it = byId.find(id);
    if (it == byId.end())
        return false;
    auto range = byAddr.equal_range(it->second.addr);
    for (auto a = range.first; a != range.second; ++a) {
        if (a->second == id) {
            byAddr.erase(a);
            break;
        }
    }
    byId.erase(it);
    return true;
}

std::size_t
WorldProbe::eraseSession(std::uint32_t session_id)
{
    std::vector<std::uint32_t> doomed;
    for (const auto &[id, bp] : byId) {
        if (bp.sessionId == session_id)
            doomed.push_back(id);
    }
    for (std::uint32_t id : doomed)
        erase(id);
    return doomed.size();
}

const VirtualBreakpoint *
WorldProbe::find(std::uint32_t id) const
{
    auto it = byId.find(id);
    return it == byId.end() ? nullptr : &it->second;
}

std::vector<VBreakHit>
WorldProbe::drainHits()
{
    std::vector<VBreakHit> out;
    out.swap(hits);
    return out;
}

void
WorldProbe::onInstruction(const target::Wisp &wisp, mem::Addr pc)
{
    auto range = byAddr.equal_range(pc);
    for (auto it = range.first; it != range.second; ++it) {
        auto bi = byId.find(it->second);
        if (bi == byId.end())
            continue;
        VirtualBreakpoint &bp = bi->second;
        if (!bp.enabled)
            continue;
        ++bp.evals;
        ++evals_;
        if (!bp.cond.eval(wisp))
            continue;
        ++bp.hits;
        if (hits.size() >= maxPendingHits) {
            ++dropped;
            continue;
        }
        VBreakHit h;
        h.bkptId = bp.id;
        h.sessionId = bp.sessionId;
        h.pc = pc;
        h.when = wisp.sim().now();
        h.instrs = wisp.mcu().instrCount();
        h.vcap = wisp.power().voltageNoAdvance();
        h.r0 = wisp.mcu().reg(0);
        hits.push_back(h);
    }
}

} // namespace edb::edbdbg
