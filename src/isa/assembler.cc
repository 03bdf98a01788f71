#include "isa/assembler.hh"

#include <cctype>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "isa/isa.hh"
#include "mem/memory.hh"

namespace edb::isa {

namespace {

/** One source line split into label / op / operands. */
struct Line
{
    int number = 0;
    std::string label;
    std::string op;       // mnemonic or directive (lowercased)
    std::vector<std::string> operands;
};

[[noreturn]] void
err(int line, const std::string &msg)
{
    std::ostringstream oss;
    oss << "line " << line << ": " << msg;
    throw AsmError(oss.str());
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

std::string
lower(std::string s)
{
    for (auto &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** Strip ';' / '#' comments, respecting quoted strings and chars. */
std::string
stripComment(const std::string &s)
{
    bool in_str = false;
    bool in_chr = false;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
        } else if (in_chr) {
            if (c == '\\')
                ++i;
            else if (c == '\'')
                in_chr = false;
        } else if (c == '"') {
            in_str = true;
        } else if (c == '\'') {
            in_chr = true;
        } else if (c == ';' || c == '#') {
            return s.substr(0, i);
        }
    }
    return s;
}

/** Split operands on top-level commas (quotes / brackets respected). */
std::vector<std::string>
splitOperands(const std::string &s, int line)
{
    std::vector<std::string> out;
    std::string cur;
    bool in_str = false;
    bool in_chr = false;
    int depth = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (in_str) {
            cur += c;
            if (c == '\\' && i + 1 < s.size())
                cur += s[++i];
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (in_chr) {
            cur += c;
            if (c == '\\' && i + 1 < s.size())
                cur += s[++i];
            else if (c == '\'')
                in_chr = false;
            continue;
        }
        switch (c) {
          case '"': in_str = true; cur += c; break;
          case '\'': in_chr = true; cur += c; break;
          case '[': ++depth; cur += c; break;
          case ']': --depth; cur += c; break;
          case ',':
            if (depth == 0) {
                out.push_back(trim(cur));
                cur.clear();
            } else {
                cur += c;
            }
            break;
          default: cur += c; break;
        }
    }
    if (depth != 0)
        err(line, "unbalanced brackets");
    std::string last = trim(cur);
    if (!last.empty())
        out.push_back(last);
    return out;
}

/** Parse one source line. */
std::optional<Line>
parseLine(const std::string &raw, int number)
{
    std::string text = trim(stripComment(raw));
    if (text.empty())
        return std::nullopt;

    Line line;
    line.number = number;

    // Leading label(s): `name:`; only one per line is supported.
    std::size_t colon = text.find(':');
    if (colon != std::string::npos) {
        std::string maybe_label = trim(text.substr(0, colon));
        bool is_ident = !maybe_label.empty();
        for (char c : maybe_label) {
            if (!(std::isalnum(static_cast<unsigned char>(c)) ||
                  c == '_' || c == '.'))
                is_ident = false;
        }
        // Don't treat `'c':` inside operands as a label: a label must
        // be the first token and contain no spaces or quotes.
        if (is_ident && maybe_label.find('\'') == std::string::npos &&
            maybe_label.find('"') == std::string::npos) {
            line.label = maybe_label;
            text = trim(text.substr(colon + 1));
        }
    }
    if (text.empty())
        return line;

    std::size_t sp = text.find_first_of(" \t");
    line.op = lower(text.substr(0, sp == std::string::npos
                                        ? text.size()
                                        : sp));
    if (sp != std::string::npos) {
        line.operands = splitOperands(trim(text.substr(sp + 1)), number);
    }
    return line;
}

using SymbolTable = std::map<std::string, std::uint32_t>;

/** Parse a register operand. */
std::uint8_t
parseReg(const std::string &tok, int line)
{
    std::string t = lower(trim(tok));
    if (t == "sp")
        return regSp;
    if (t.size() >= 2 && t[0] == 'r') {
        unsigned n = 0;
        for (std::size_t i = 1; i < t.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(t[i])))
                err(line, "bad register '" + tok + "'");
            n = n * 10 + static_cast<unsigned>(t[i] - '0');
            // Stop as soon as the number leaves the register file,
            // before a long digit run can wrap it back in.
            if (n >= numRegs)
                err(line, "bad register '" + tok + "'");
        }
        return static_cast<std::uint8_t>(n);
    }
    err(line, "bad register '" + tok + "'");
}

/** Parse a numeric / char / symbol primary term. */
std::int64_t
parsePrimary(const std::string &tok, const SymbolTable &syms, int line)
{
    std::string t = trim(tok);
    if (t.empty())
        err(line, "empty expression term");
    if (t.front() == '\'') {
        // Char literal: 'a', '\n', '\0', '\\', '\''.
        if (t.size() >= 3 && t.back() == '\'') {
            std::string body = t.substr(1, t.size() - 2);
            if (body.size() == 1)
                return static_cast<unsigned char>(body[0]);
            if (body.size() == 2 && body[0] == '\\') {
                switch (body[1]) {
                  case 'n': return '\n';
                  case 't': return '\t';
                  case 'r': return '\r';
                  case '0': return 0;
                  case '\\': return '\\';
                  case '\'': return '\'';
                  default: err(line, "bad escape in char literal");
                }
            }
        }
        err(line, "bad char literal " + t);
    }
    bool neg = false;
    std::string num = t;
    if (!num.empty() && (num[0] == '-' || num[0] == '+')) {
        neg = num[0] == '-';
        num = trim(num.substr(1));
    }
    if (!num.empty() && std::isdigit(static_cast<unsigned char>(num[0]))) {
        std::int64_t value = 0;
        std::size_t used = 0;
        try {
            value = std::stoll(num, &used, 0);
        } catch (const std::exception &) {
            // Out of range: `used` stays 0 and fails the check below.
        }
        // stoll stops at the first stray byte: `12abc`, `0x10zz` and
        // `5 6` are not numbers.
        if (used != num.size())
            err(line, "bad number '" + t + "'");
        return neg ? -value : value;
    }
    auto it = syms.find(num);
    if (it == syms.end())
        err(line, "undefined symbol '" + num + "'");
    std::int64_t value = it->second;
    return neg ? -value : value;
}

/**
 * Evaluate `primary ((+|-) primary)*`. Splits on +/- that are not
 * the leading sign of a term.
 */
std::int64_t
parseExpr(const std::string &expr, const SymbolTable &syms, int line)
{
    std::string t = trim(expr);
    if (t.empty())
        err(line, "empty expression");
    std::vector<std::pair<char, std::string>> terms;
    std::string cur;
    char pending = '+';
    bool at_term_start = true;
    bool in_chr = false;
    for (std::size_t i = 0; i < t.size(); ++i) {
        char c = t[i];
        if (in_chr) {
            cur += c;
            if (c == '\\' && i + 1 < t.size())
                cur += t[++i];
            else if (c == '\'')
                in_chr = false;
            continue;
        }
        if (c == '\'') {
            in_chr = true;
            cur += c;
            at_term_start = false;
            continue;
        }
        if ((c == '+' || c == '-') && !at_term_start) {
            terms.emplace_back(pending, cur);
            pending = c;
            cur.clear();
            at_term_start = true;
            continue;
        }
        if (!std::isspace(static_cast<unsigned char>(c)))
            at_term_start = false;
        cur += c;
    }
    terms.emplace_back(pending, cur);

    // No EH32 operand is wider than 32 bits. Bounding every term and
    // running total to 2^32 rejects nonsense early and keeps the sum,
    // and the caller's negation of it, far from 64-bit overflow.
    constexpr std::int64_t limit = std::int64_t{1} << 32;
    std::int64_t total = 0;
    for (const auto &[sign, term] : terms) {
        std::int64_t v = parsePrimary(term, syms, line);
        if (v > limit || v < -limit)
            err(line, "expression term out of range: '" + trim(term) +
                          "'");
        total += sign == '-' ? -v : v;
        if (total > limit || total < -limit)
            err(line, "expression out of range: '" + t + "'");
    }
    return total;
}

/** A `.word` or `.equ` value: any 32-bit pattern, written signed or
 *  unsigned (as `.byte` takes -128..255). */
std::uint32_t
parseWord(const std::string &expr, const SymbolTable &syms, int line)
{
    std::int64_t v = parseExpr(expr, syms, line);
    if (v < INT32_MIN || v > UINT32_MAX)
        err(line, "32-bit value out of range: '" + trim(expr) + "'");
    return static_cast<std::uint32_t>(v);
}

/** Memory operand: [reg], [reg + expr], [reg - expr]. */
std::pair<std::uint8_t, std::int32_t>
parseMemOperand(const std::string &tok, const SymbolTable &syms, int line)
{
    std::string t = trim(tok);
    if (t.size() < 3 || t.front() != '[' || t.back() != ']')
        err(line, "expected memory operand [reg + off], got '" + tok +
                      "'");
    std::string body = trim(t.substr(1, t.size() - 2));
    // Find the end of the register token.
    std::size_t split = body.find_first_of("+-");
    std::string reg = trim(split == std::string::npos
                               ? body
                               : body.substr(0, split));
    std::int64_t off = 0;
    if (split != std::string::npos) {
        char sign = body[split];
        off = parseExpr(body.substr(split + 1), syms, line);
        if (sign == '-')
            off = -off;
    }
    if (off < -32768 || off > 32767)
        err(line, "memory offset out of range");
    return {parseReg(reg, line), static_cast<std::int32_t>(off)};
}

void
expectOperands(const Line &line, std::size_t n)
{
    if (line.operands.size() != n)
        err(line.number, "expected " + std::to_string(n) +
                             " operand(s) for '" + line.op + "', got " +
                             std::to_string(line.operands.size()));
}

std::int32_t
checkSigned16(std::int64_t v, int line, const char *what)
{
    if (v < -32768 || v > 32767)
        err(line, std::string(what) +
                      " out of signed 16-bit range: " +
                      std::to_string(v) + " (use `la` for addresses)");
    return static_cast<std::int32_t>(v);
}

std::int32_t
checkUnsigned16(std::int64_t v, int line, const char *what)
{
    if (v < 0 || v > 0xFFFF)
        err(line, std::string(what) +
                      " out of unsigned 16-bit range: " +
                      std::to_string(v));
    return static_cast<std::int32_t>(v);
}

/** Parse a string literal for .asciz. */
std::vector<std::uint8_t>
parseString(const std::string &tok, int line)
{
    std::string t = trim(tok);
    if (t.size() < 2 || t.front() != '"' || t.back() != '"')
        err(line, "expected string literal");
    std::vector<std::uint8_t> out;
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        char c = t[i];
        if (c == '\\' && i + 2 < t.size() + 1) {
            ++i;
            switch (t[i]) {
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case 'r': c = '\r'; break;
              case '0': c = '\0'; break;
              case '\\': c = '\\'; break;
              case '"': c = '"'; break;
              default: err(line, "bad escape in string");
            }
        }
        out.push_back(static_cast<std::uint8_t>(c));
    }
    return out;
}

/** Size in bytes a line contributes (pass 1). */
std::size_t
lineSize(const Line &line, const SymbolTable &syms, Addr lc)
{
    const std::string &op = line.op;
    if (op.empty())
        return 0;
    if (op == ".org" || op == ".entry" || op == ".irq" || op == ".equ")
        return 0;
    if (op == ".align")
        return (4 - (lc & 3u)) & 3u;
    if (op == ".word")
        return 4 * line.operands.size();
    if (op == ".byte")
        return line.operands.size();
    if (op == ".space") {
        expectOperands(line, 1);
        std::int64_t n = parseExpr(line.operands[0], syms, line.number);
        if (n < 0)
            err(line.number, ".space size must be >= 0");
        return static_cast<std::size_t>(n);
    }
    if (op == ".asciz")
        return parseString(line.operands.at(0), line.number).size() + 1;
    if (op == "la")
        return 8; // lui + ori
    if (op[0] == '.')
        err(line.number, "unknown directive '" + op + "'");
    if (!opcodeFromMnemonic(op))
        err(line.number, "unknown mnemonic '" + op + "'");
    return 4;
}

/** Encode one real instruction line (pass 2). */
std::vector<std::uint32_t>
encodeLine(const Line &line, const SymbolTable &syms, Addr addr)
{
    const int ln = line.number;
    if (line.op == "la") {
        expectOperands(line, 2);
        std::uint8_t rd = parseReg(line.operands[0], ln);
        std::int64_t v = parseExpr(line.operands[1], syms, ln);
        if (v < 0 || v > 0xFFFFFFFFll)
            err(ln, "la value out of 32-bit range");
        auto value = static_cast<std::uint32_t>(v);
        Instr hi{Opcode::Lui, rd, 0, 0,
                 static_cast<std::int32_t>(value >> 16)};
        Instr lo{Opcode::Ori, rd, rd, 0,
                 static_cast<std::int32_t>(value & 0xFFFFu)};
        return {encode(hi), encode(lo)};
    }

    Opcode op = *opcodeFromMnemonic(line.op);
    Instr i;
    i.op = op;
    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
      case Opcode::Reti:
      case Opcode::Chkpt:
        expectOperands(line, 0);
        break;
      case Opcode::Li:
      case Opcode::Lui:
        expectOperands(line, 2);
        i.rd = parseReg(line.operands[0], ln);
        if (op == Opcode::Li) {
            i.imm = checkSigned16(
                parseExpr(line.operands[1], syms, ln), ln, "li value");
        } else {
            i.imm = checkUnsigned16(
                parseExpr(line.operands[1], syms, ln), ln, "lui value");
        }
        break;
      case Opcode::Mov:
        expectOperands(line, 2);
        i.rd = parseReg(line.operands[0], ln);
        i.rs = parseReg(line.operands[1], ln);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Divu:
      case Opcode::Remu:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::Sar:
        expectOperands(line, 3);
        i.rd = parseReg(line.operands[0], ln);
        i.rs = parseReg(line.operands[1], ln);
        i.rt = parseReg(line.operands[2], ln);
        break;
      case Opcode::Addi:
        expectOperands(line, 3);
        i.rd = parseReg(line.operands[0], ln);
        i.rs = parseReg(line.operands[1], ln);
        i.imm = checkSigned16(parseExpr(line.operands[2], syms, ln), ln,
                              "immediate");
        break;
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Shli:
      case Opcode::Shri:
        expectOperands(line, 3);
        i.rd = parseReg(line.operands[0], ln);
        i.rs = parseReg(line.operands[1], ln);
        i.imm = checkUnsigned16(parseExpr(line.operands[2], syms, ln),
                                ln, "immediate");
        break;
      case Opcode::Cmp:
        expectOperands(line, 2);
        i.rs = parseReg(line.operands[0], ln);
        i.rt = parseReg(line.operands[1], ln);
        break;
      case Opcode::Cmpi:
        expectOperands(line, 2);
        i.rs = parseReg(line.operands[0], ln);
        i.imm = checkSigned16(parseExpr(line.operands[1], syms, ln), ln,
                              "immediate");
        break;
      case Opcode::Br:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
      case Opcode::Call: {
        expectOperands(line, 1);
        std::int64_t target = parseExpr(line.operands[0], syms, ln);
        std::int64_t disp =
            target - (static_cast<std::int64_t>(addr) + 4);
        i.imm = checkSigned16(disp, ln, "branch displacement");
        break;
      }
      case Opcode::Ldw:
      case Opcode::Ldb:
      case Opcode::Stw:
      case Opcode::Stb: {
        expectOperands(line, 2);
        i.rd = parseReg(line.operands[0], ln);
        auto [rs, off] = parseMemOperand(line.operands[1], syms, ln);
        i.rs = rs;
        i.imm = off;
        break;
      }
      case Opcode::Push:
      case Opcode::Pop:
        expectOperands(line, 1);
        i.rd = parseReg(line.operands[0], ln);
        break;
      case Opcode::Callr:
        expectOperands(line, 1);
        i.rs = parseReg(line.operands[0], ln);
        break;
    }
    return {encode(i)};
}

void
emitWord(Program &prog, Addr &lc, std::uint32_t word)
{
    auto &bytes = prog.segments.back().bytes;
    for (int b = 0; b < 4; ++b)
        bytes.push_back(static_cast<std::uint8_t>(word >> (8 * b)));
    lc += 4;
}

} // namespace

Program
assemble(const std::string &source, Addr origin)
{
    std::vector<Line> lines;
    {
        std::istringstream iss(source);
        std::string raw;
        int number = 0;
        while (std::getline(iss, raw)) {
            ++number;
            if (auto line = parseLine(raw, number))
                lines.push_back(std::move(*line));
        }
    }

    // Pass 1: label addresses, .equ values, location counting. The
    // counter stays inside the address space, so pass 2 never emits
    // (or allocates) past it.
    const auto outside = [](std::int64_t lc) {
        return lc < 0 || lc > static_cast<std::int64_t>(mem::addrSpaceSize);
    };
    SymbolTable syms;
    {
        Addr lc = origin;
        for (const auto &line : lines) {
            if (!line.label.empty()) {
                if (syms.count(line.label))
                    err(line.number,
                        "duplicate symbol '" + line.label + "'");
                syms[line.label] = lc;
            }
            if (line.op == ".org") {
                expectOperands(line, 1);
                std::int64_t to =
                    parseExpr(line.operands[0], syms, line.number);
                if (outside(to))
                    err(line.number,
                        ".org outside the 64 KiB address space");
                lc = static_cast<Addr>(to);
                // A label on the same line binds to the new counter.
                if (!line.label.empty())
                    syms[line.label] = lc;
                continue;
            }
            if (line.op == ".equ") {
                expectOperands(line, 2);
                std::string name = trim(line.operands[0]);
                if (syms.count(name))
                    err(line.number,
                        "duplicate symbol '" + name + "'");
                syms[name] =
                    parseWord(line.operands[1], syms, line.number);
                continue;
            }
            std::size_t size = lineSize(line, syms, lc);
            if (outside(std::int64_t{lc} + static_cast<std::int64_t>(size)))
                err(line.number,
                    "location counter passes the 64 KiB address space");
            lc += static_cast<Addr>(size);
        }
    }

    // Pass 2: emit.
    Program prog;
    prog.symbols = syms;
    prog.segments.push_back({origin, {}});
    std::string entry_symbol;
    std::string irq_symbol;
    Addr lc = origin;
    for (const auto &line : lines) {
        const int ln = line.number;
        if (line.op.empty())
            continue;
        if (line.op == ".org") {
            lc = static_cast<Addr>(parseExpr(line.operands[0], syms, ln));
            if (!prog.segments.back().bytes.empty())
                prog.segments.push_back({lc, {}});
            else
                prog.segments.back().base = lc;
            continue;
        }
        if (line.op == ".equ")
            continue;
        if (line.op == ".entry") {
            expectOperands(line, 1);
            entry_symbol = trim(line.operands[0]);
            continue;
        }
        if (line.op == ".irq") {
            expectOperands(line, 1);
            irq_symbol = trim(line.operands[0]);
            continue;
        }
        if (line.op == ".word") {
            for (const auto &operand : line.operands)
                emitWord(prog, lc, parseWord(operand, syms, ln));
            continue;
        }
        if (line.op == ".byte") {
            for (const auto &operand : line.operands) {
                std::int64_t v = parseExpr(operand, syms, ln);
                if (v < -128 || v > 255)
                    err(ln, ".byte value out of range");
                prog.segments.back().bytes.push_back(
                    static_cast<std::uint8_t>(v));
                ++lc;
            }
            continue;
        }
        if (line.op == ".align") {
            Addr pad = (4 - (lc & 3u)) & 3u;
            prog.segments.back().bytes.insert(
                prog.segments.back().bytes.end(), pad, std::uint8_t{0});
            lc += pad;
            continue;
        }
        if (line.op == ".space") {
            std::int64_t n = parseExpr(line.operands[0], syms, ln);
            prog.segments.back().bytes.insert(
                prog.segments.back().bytes.end(),
                static_cast<std::size_t>(n), std::uint8_t{0});
            lc += static_cast<Addr>(n);
            continue;
        }
        if (line.op == ".asciz") {
            expectOperands(line, 1);
            auto bytes = parseString(line.operands[0], ln);
            bytes.push_back(0);
            prog.segments.back().bytes.insert(
                prog.segments.back().bytes.end(), bytes.begin(),
                bytes.end());
            lc += static_cast<Addr>(bytes.size());
            continue;
        }
        for (std::uint32_t word : encodeLine(line, syms, lc))
            emitWord(prog, lc, word);
    }

    if (!entry_symbol.empty()) {
        auto it = syms.find(entry_symbol);
        if (it == syms.end())
            throw AsmError("undefined .entry symbol '" + entry_symbol +
                           "'");
        prog.entry = it->second;
    } else if (syms.count("main")) {
        prog.entry = syms["main"];
    } else {
        prog.entry = prog.segments.front().base;
    }
    if (!irq_symbol.empty()) {
        auto it = syms.find(irq_symbol);
        if (it == syms.end())
            throw AsmError("undefined .irq symbol '" + irq_symbol + "'");
        prog.irqHandler = it->second;
    }
    return prog;
}

} // namespace edb::isa
