#include "isa/isa.hh"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>
#include <utility>

namespace edb::isa {

namespace {

struct OpInfo
{
    Opcode op;
    const char *name;
    unsigned cycles;
};

constexpr std::array opTable = {
    OpInfo{Opcode::Nop, "nop", 1},
    OpInfo{Opcode::Halt, "halt", 1},
    OpInfo{Opcode::Li, "li", 1},
    OpInfo{Opcode::Lui, "lui", 1},
    OpInfo{Opcode::Mov, "mov", 1},
    OpInfo{Opcode::Add, "add", 1},
    OpInfo{Opcode::Sub, "sub", 1},
    OpInfo{Opcode::Mul, "mul", 3},
    OpInfo{Opcode::Divu, "divu", 10},
    OpInfo{Opcode::Remu, "remu", 10},
    OpInfo{Opcode::And, "and", 1},
    OpInfo{Opcode::Or, "or", 1},
    OpInfo{Opcode::Xor, "xor", 1},
    OpInfo{Opcode::Shl, "shl", 1},
    OpInfo{Opcode::Shr, "shr", 1},
    OpInfo{Opcode::Sar, "sar", 1},
    OpInfo{Opcode::Addi, "addi", 1},
    OpInfo{Opcode::Andi, "andi", 1},
    OpInfo{Opcode::Ori, "ori", 1},
    OpInfo{Opcode::Xori, "xori", 1},
    OpInfo{Opcode::Shli, "shli", 1},
    OpInfo{Opcode::Shri, "shri", 1},
    OpInfo{Opcode::Cmp, "cmp", 1},
    OpInfo{Opcode::Cmpi, "cmpi", 1},
    OpInfo{Opcode::Br, "br", 2},
    OpInfo{Opcode::Beq, "beq", 2},
    OpInfo{Opcode::Bne, "bne", 2},
    OpInfo{Opcode::Blt, "blt", 2},
    OpInfo{Opcode::Bge, "bge", 2},
    OpInfo{Opcode::Bltu, "bltu", 2},
    OpInfo{Opcode::Bgeu, "bgeu", 2},
    OpInfo{Opcode::Ldw, "ldw", 2},
    OpInfo{Opcode::Ldb, "ldb", 2},
    OpInfo{Opcode::Stw, "stw", 2},
    OpInfo{Opcode::Stb, "stb", 2},
    OpInfo{Opcode::Push, "push", 2},
    OpInfo{Opcode::Pop, "pop", 2},
    OpInfo{Opcode::Call, "call", 3},
    OpInfo{Opcode::Callr, "callr", 3},
    OpInfo{Opcode::Ret, "ret", 3},
    OpInfo{Opcode::Reti, "reti", 4},
    OpInfo{Opcode::Chkpt, "chkpt", 2},
};

const OpInfo *
lookup(Opcode op)
{
    for (const auto &info : opTable) {
        if (info.op == op)
            return &info;
    }
    return nullptr;
}

} // namespace

std::uint32_t
encode(const Instr &instr)
{
    std::uint32_t word = 0;
    word |= static_cast<std::uint32_t>(instr.op) << 24;
    word |= static_cast<std::uint32_t>(instr.rd & 0xF) << 20;
    word |= static_cast<std::uint32_t>(instr.rs & 0xF) << 16;
    std::uint32_t imm16 =
        static_cast<std::uint32_t>(instr.imm) & 0xFFFFu;
    // R-type ops carry rt in imm[3:0]; they have no immediate.
    switch (instr.op) {
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
      case Opcode::Cmp:
        imm16 = instr.rt & 0xFu;
        break;
      default:
        break;
    }
    word |= imm16;
    return word;
}

std::optional<Instr>
decode(std::uint32_t word)
{
    auto op = static_cast<Opcode>((word >> 24) & 0xFF);
    if (!lookup(op))
        return std::nullopt;
    Instr instr;
    instr.op = op;
    instr.rd = static_cast<std::uint8_t>((word >> 20) & 0xF);
    instr.rs = static_cast<std::uint8_t>((word >> 16) & 0xF);
    std::uint32_t imm16 = word & 0xFFFFu;
    switch (op) {
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
      case Opcode::Cmp:
        instr.rt = static_cast<std::uint8_t>(imm16 & 0xF);
        instr.imm = 0;
        break;
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Shli:
      case Opcode::Shri:
        // Zero-extended immediates.
        instr.imm = static_cast<std::int32_t>(imm16);
        break;
      default:
        // Sign-extended immediates.
        instr.imm = static_cast<std::int32_t>(
            static_cast<std::int16_t>(imm16));
        break;
    }
    return instr;
}

const char *
mnemonic(Opcode op)
{
    const OpInfo *info = lookup(op);
    return info ? info->name : "???";
}

std::optional<Opcode>
opcodeFromMnemonic(const std::string &name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (const auto &info : opTable) {
        if (lower == info.name)
            return info.op;
    }
    return std::nullopt;
}

bool
isBranch(Opcode op)
{
    switch (op) {
      case Opcode::Br:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
      case Opcode::Call:
        return true;
      default:
        return false;
    }
}

unsigned
baseCycles(Opcode op)
{
    const OpInfo *info = lookup(op);
    return info ? info->cycles : 1;
}

std::string
disassemble(const Instr &i)
{
    std::ostringstream oss;
    oss << mnemonic(i.op);
    auto r = [](unsigned n) { return "r" + std::to_string(n); };
    switch (i.op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::Ret:
      case Opcode::Reti:
      case Opcode::Chkpt:
        break;
      case Opcode::Li:
      case Opcode::Lui:
        oss << ' ' << r(i.rd) << ", " << i.imm;
        break;
      case Opcode::Mov:
        oss << ' ' << r(i.rd) << ", " << r(i.rs);
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
        oss << ' ' << r(i.rd) << ", " << r(i.rs) << ", " << r(i.rt);
        break;
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Shli:
      case Opcode::Shri:
        oss << ' ' << r(i.rd) << ", " << r(i.rs) << ", " << i.imm;
        break;
      case Opcode::Cmp:
        oss << ' ' << r(i.rs) << ", " << r(i.rt);
        break;
      case Opcode::Cmpi:
        oss << ' ' << r(i.rs) << ", " << i.imm;
        break;
      case Opcode::Br:
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
      case Opcode::Call:
        oss << ' ' << i.imm;
        break;
      case Opcode::Ldw:
      case Opcode::Ldb:
      case Opcode::Stw:
      case Opcode::Stb:
        oss << ' ' << r(i.rd) << ", [" << r(i.rs) << " + " << i.imm
            << ']';
        break;
      case Opcode::Push:
      case Opcode::Pop:
        oss << ' ' << r(i.rd);
        break;
      case Opcode::Callr:
        oss << ' ' << r(i.rs);
        break;
    }
    return oss.str();
}

} // namespace edb::isa
