#include "fuzz/generator.hh"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "mcu/mmio_map.hh"
#include "sim/rng.hh"

namespace edb::fuzz {

namespace {

using sim::Rng;

/** Forced brown-outs per generated schedule (uniform in
 *  [minBrownOuts, maxBrownOuts]). */
constexpr unsigned minBrownOuts = 1;
constexpr unsigned maxBrownOuts = 4;

/*
 * Register classes. Data registers may hold values loaded from
 * memory (and so may carry auditor taint); they are never used as a
 * store base. Pointer registers are only ever written by `la` (which
 * clears taint), so every store base is provably untainted. r10 is
 * the loop counter, r12 belongs to the WAR gadget, r0 is avoided
 * because CHKPT writes its status there, r15 is the stack pointer.
 */
constexpr unsigned dataRegs[] = {1, 2, 3, 4, 5, 11, 13, 14};
constexpr unsigned framPtrA = 6;
constexpr unsigned framPtrB = 7;
constexpr unsigned sramPtr = 8;
constexpr unsigned mmioPtr = 9;
constexpr unsigned loopReg = 10;

unsigned
dataReg(Rng &rng)
{
    return dataRegs[rng.uniformInt(0, 7)];
}

/** Word-aligned offset inside a scratch window. */
std::int32_t
wordOff(Rng &rng)
{
    return static_cast<std::int32_t>(
               rng.uniformInt(0, (gen_layout::scratchBytes / 4) - 1)) *
           4;
}

std::int32_t
byteOff(Rng &rng)
{
    return static_cast<std::int32_t>(
        rng.uniformInt(0, gen_layout::scratchBytes - 1));
}

std::string
r(unsigned n)
{
    return "r" + std::to_string(n);
}

std::string
memOp(unsigned base, std::int32_t off)
{
    std::ostringstream s;
    s << "[" << r(base);
    if (off != 0)
        s << " + " << off;
    s << "]";
    return s.str();
}

/** MMIO registers that are safe to poke from generated programs
 *  (no debugger handshake lines, no checkpoint control). */
struct MmioReg
{
    std::uint32_t addr;
    bool writable;
};
constexpr MmioReg mmioStoreRegs[] = {
    {mcu::mmio::gpioOut, true},    {mcu::mmio::gpioToggle, true},
    {mcu::mmio::uart0Tx, true},    {mcu::mmio::marker, true},
    {mcu::mmio::led, true},
};
constexpr MmioReg mmioLoadRegs[] = {
    {mcu::mmio::gpioIn, false},      {mcu::mmio::gpioOut, false},
    {mcu::mmio::uart0Status, false}, {mcu::mmio::cycleLo, false},
    {mcu::mmio::led, false},
};

Element
snippet(std::vector<std::string> lines)
{
    Element e;
    e.kind = Element::Kind::Snippet;
    e.lines = std::move(lines);
    return e;
}

/** One random straight-line snippet (self-contained: any pointer it
 *  needs is established with `la` inside the snippet). */
Element
makeSnippet(Rng &rng)
{
    std::vector<std::string> lines;
    auto emit = [&](const std::string &l) { lines.push_back(l); };

    switch (rng.uniformInt(0, 12)) {
      case 0: { // ALU immediate
        static const char *ops[] = {"li",   "addi", "andi", "ori",
                                    "xori", "shli", "shri"};
        const char *op = ops[rng.uniformInt(0, 6)];
        unsigned rd = dataReg(rng);
        std::ostringstream s;
        if (std::string(op) == "li") {
            s << "li " << r(rd) << ", " << rng.uniformInt(-32768, 32767);
        } else if (std::string(op) == "shli" ||
                   std::string(op) == "shri") {
            s << op << " " << r(rd) << ", " << r(dataReg(rng)) << ", "
              << rng.uniformInt(0, 31);
        } else if (std::string(op) == "addi") {
            s << op << " " << r(rd) << ", " << r(dataReg(rng)) << ", "
              << rng.uniformInt(-256, 255);
        } else {
            s << op << " " << r(rd) << ", " << r(dataReg(rng)) << ", "
              << rng.uniformInt(0, 0xFFFF);
        }
        emit(s.str());
        break;
      }
      case 1: { // ALU register
        static const char *ops[] = {"add", "sub", "mul", "and",  "or",
                                    "xor", "shl", "shr", "sar",  "divu",
                                    "remu"};
        std::ostringstream s;
        s << ops[rng.uniformInt(0, 10)] << " " << r(dataReg(rng)) << ", "
          << r(dataReg(rng)) << ", " << r(dataReg(rng));
        emit(s.str());
        break;
      }
      case 2: { // mov / cmp
        std::ostringstream s;
        if (rng.chance(0.5))
            s << "mov " << r(dataReg(rng)) << ", " << r(dataReg(rng));
        else if (rng.chance(0.5))
            s << "cmp " << r(dataReg(rng)) << ", " << r(dataReg(rng));
        else
            s << "cmpi " << r(dataReg(rng)) << ", "
              << rng.uniformInt(-100, 100);
        emit(s.str());
        break;
      }
      case 3: { // FRAM word store
        unsigned rv = dataReg(rng);
        emit("la " + r(framPtrA) + ", FSCRATCH");
        emit("li " + r(rv) + ", " +
             std::to_string(rng.uniformInt(-1000, 1000)));
        emit("stw " + r(rv) + ", " + memOp(framPtrA, wordOff(rng)));
        break;
      }
      case 4: { // FRAM word load
        emit("la " + r(framPtrB) + ", FSCRATCH");
        emit("ldw " + r(dataReg(rng)) + ", " +
             memOp(framPtrB, wordOff(rng)));
        break;
      }
      case 5: { // FRAM byte traffic
        unsigned rv = dataReg(rng);
        emit("la " + r(framPtrA) + ", FSCRATCH");
        if (rng.chance(0.5)) {
            emit("li " + r(rv) + ", " +
                 std::to_string(rng.uniformInt(0, 255)));
            emit("stb " + r(rv) + ", " + memOp(framPtrA, byteOff(rng)));
        } else {
            emit("ldb " + r(rv) + ", " + memOp(framPtrA, byteOff(rng)));
        }
        break;
      }
      case 6: { // SRAM traffic (word store + load back)
        unsigned rv = dataReg(rng);
        std::int32_t off = wordOff(rng);
        emit("la " + r(sramPtr) + ", SSCRATCH");
        emit("stw " + r(rv) + ", " + memOp(sramPtr, off));
        emit("ldw " + r(dataReg(rng)) + ", " + memOp(sramPtr, off));
        break;
      }
      case 7: { // benign FRAM read-modify-write (COUNTER += 1)
        unsigned rv = dataReg(rng);
        std::int32_t off = wordOff(rng);
        emit("la " + r(framPtrA) + ", FSCRATCH");
        emit("ldw " + r(rv) + ", " + memOp(framPtrA, off));
        emit("addi " + r(rv) + ", " + r(rv) + ", 1");
        emit("stw " + r(rv) + ", " + memOp(framPtrA, off));
        break;
      }
      case 8: { // MMIO store
        const MmioReg &m =
            mmioStoreRegs[rng.uniformInt(0, std::size(mmioStoreRegs) - 1)];
        unsigned rv = dataReg(rng);
        emit("la " + r(mmioPtr) + ", MMIO");
        emit("li " + r(rv) + ", " +
             std::to_string(rng.uniformInt(0, 255)));
        emit("stw " + r(rv) + ", " +
             memOp(mmioPtr, static_cast<std::int32_t>(
                                m.addr - mcu::mmio::base)));
        break;
      }
      case 9: { // MMIO load
        const MmioReg &m =
            mmioLoadRegs[rng.uniformInt(0, std::size(mmioLoadRegs) - 1)];
        emit("la " + r(mmioPtr) + ", MMIO");
        emit("ldw " + r(dataReg(rng)) + ", " +
             memOp(mmioPtr, static_cast<std::int32_t>(
                                m.addr - mcu::mmio::base)));
        break;
      }
      case 10: { // timed low-power sleep
        unsigned rv = dataReg(rng);
        emit("la " + r(mmioPtr) + ", MMIO");
        emit("li " + r(rv) + ", " +
             std::to_string(rng.uniformInt(4, 64)));
        emit("stw " + r(rv) + ", " +
             memOp(mmioPtr, static_cast<std::int32_t>(
                                mcu::mmio::sleep - mcu::mmio::base)));
        break;
      }
      case 11: { // balanced push/pop pair (swaps two data regs)
        unsigned ra = dataReg(rng);
        unsigned rb = dataReg(rng);
        emit("push " + r(ra));
        emit("push " + r(rb));
        emit("pop " + r(ra));
        emit("pop " + r(rb));
        break;
      }
      case 12: // leaf call (subroutine appended at render time)
        emit("call fuzz_fn");
        break;
    }
    return snippet(std::move(lines));
}

Element
makeChkpt()
{
    Element e;
    e.kind = Element::Kind::Chkpt;
    return e;
}

Element
makeLoop(Rng &rng, bool checkpointing)
{
    Element e;
    e.kind = Element::Kind::Loop;
    e.iterations = static_cast<unsigned>(rng.uniformInt(1, 12));
    unsigned n = static_cast<unsigned>(rng.uniformInt(1, 4));
    for (unsigned i = 0; i < n; ++i) {
        if (checkpointing && rng.chance(0.12))
            e.body.push_back(makeChkpt());
        else
            e.body.push_back(makeSnippet(rng));
    }
    return e;
}

Element
makeSkip(Rng &rng)
{
    Element e;
    e.kind = Element::Kind::Skip;
    static const char *branches[] = {"beq",  "bne", "blt",
                                     "bge",  "bltu", "bgeu"};
    e.branchOp = branches[rng.uniformInt(0, 5)];
    e.cmpReg = dataReg(rng);
    e.cmpImm = static_cast<std::int32_t>(rng.uniformInt(-50, 50));
    unsigned n = static_cast<unsigned>(rng.uniformInt(1, 3));
    for (unsigned i = 0; i < n; ++i)
        e.body.push_back(makeSnippet(rng));
    return e;
}

Element
makeElement(Rng &rng, bool checkpointing)
{
    double roll = rng.uniform();
    if (roll < 0.60)
        return makeSnippet(rng);
    if (roll < 0.75)
        return makeLoop(rng, checkpointing);
    if (roll < 0.85)
        return makeSkip(rng);
    if (checkpointing)
        return makeChkpt();
    return makeSnippet(rng);
}

std::vector<sim::BrownOut>
makeSchedule(Rng &rng, sim::Tick horizon)
{
    std::vector<sim::BrownOut> out;
    unsigned n = static_cast<unsigned>(
        rng.uniformInt(static_cast<std::int64_t>(minBrownOuts),
                       static_cast<std::int64_t>(maxBrownOuts)));
    sim::Tick lo = horizon / 8;
    sim::Tick hi = (horizon * 7) / 8;
    for (unsigned i = 0; i < n; ++i) {
        sim::BrownOut b;
        b.at = rng.uniformInt(lo, hi);
        b.volts = rng.uniform(0.8, 1.7);
        out.push_back(b);
    }
    std::sort(out.begin(), out.end(),
              [](const sim::BrownOut &a, const sim::BrownOut &b) {
                  return a.at < b.at;
              });
    // Enforce a recharge gap so forced losses stay distinct events.
    constexpr sim::Tick gap = 2 * sim::oneMs;
    for (std::size_t i = 1; i < out.size(); ++i)
        if (out[i].at < out[i - 1].at + gap)
            out[i].at = out[i - 1].at + gap;
    while (!out.empty() && out.back().at >= horizon)
        out.pop_back();
    return out;
}

void
renderElement(const Element &e, bool checkpointing, unsigned &labelId,
              std::ostringstream &s)
{
    auto line = [&](const std::string &l) { s << "    " << l << "\n"; };
    switch (e.kind) {
      case Element::Kind::Snippet:
        for (const auto &l : e.lines)
            line(l);
        break;
      case Element::Kind::Chkpt:
        if (checkpointing)
            line("chkpt");
        break;
      case Element::Kind::Loop: {
        unsigned id = labelId++;
        std::string lab = "loop_" + std::to_string(id);
        line("li " + r(loopReg) + ", " + std::to_string(e.iterations));
        s << lab << ":\n";
        for (const auto &b : e.body)
            renderElement(b, checkpointing, labelId, s);
        line("addi " + r(loopReg) + ", " + r(loopReg) + ", -1");
        line("cmpi " + r(loopReg) + ", 0");
        line("bne " + lab);
        break;
      }
      case Element::Kind::Skip: {
        unsigned id = labelId++;
        std::string lab = "skip_" + std::to_string(id);
        line("cmpi " + r(e.cmpReg) + ", " + std::to_string(e.cmpImm));
        line(e.branchOp + " " + lab);
        for (const auto &b : e.body)
            renderElement(b, checkpointing, labelId, s);
        s << lab << ":\n";
        break;
      }
    }
}

std::string
render(const CaseSpec &spec, bool warMutant)
{
    std::ostringstream s;
    s << "; generated fuzz case\n"
      << ".entry main\n"
      << ".equ FSCRATCH, " << gen_layout::framScratchBase << "\n"
      << ".equ SSCRATCH, " << gen_layout::sramScratchBase << "\n"
      << ".equ MMIO, " << mcu::mmio::base << "\n";
    if (warMutant)
        s << ".equ WAR_GUIDE, " << gen_layout::warGuideAddr << "\n"
          << ".equ WAR_TARGET, " << gen_layout::warTargetAddr << "\n"
          << ".equ WAR_SENT, " << gen_layout::warSentinelAddr << "\n";
    s << "main:\n";
    if (warMutant) {
        // Seeded write-after-read hazard: r12 is loaded from FRAM
        // and then used as a store base with no checkpoint before
        // the next power loss — the auditor must flag this.
        s << "    la r6, WAR_GUIDE\n"
          << "    la r1, WAR_TARGET\n"
          << "    stw r1, [r6]\n"
          << "    ldw r12, [r6]\n"
          << "    li r1, 123\n"
          << "    stw r1, [r12]\n"
          << "    la r7, WAR_SENT\n"
          << "    li r2, 1\n"
          << "    stw r2, [r7]\n"
          << "war_done:\n";
    }
    unsigned labelId = 0;
    bool chk = spec.checkpointing && !warMutant;
    for (const auto &e : spec.elements)
        renderElement(e, chk, labelId, s);
    s << "    halt\n";
    std::string text = s.str();
    if (text.find("call fuzz_fn") != std::string::npos)
        s << "fuzz_fn:\n    addi r13, r13, 7\n    ret\n";
    return s.str();
}

} // namespace

CaseSpec
generateCase(std::uint64_t seed, const GeneratorOptions &options)
{
    Rng rng(seed ^ 0x66757A7AULL); // "fuzz"
    CaseSpec spec;
    spec.worldSeed =
        static_cast<std::uint64_t>(rng.uniformInt(1, 1 << 30));
    spec.checkpointing = rng.chance(0.7);

    // A removable init element seeding the data registers.
    std::vector<std::string> init;
    for (unsigned reg : dataRegs)
        init.push_back("li " + r(reg) + ", " +
                       std::to_string(rng.uniformInt(-512, 511)));
    spec.elements.push_back(snippet(std::move(init)));

    unsigned n = static_cast<unsigned>(rng.uniformInt(
        options.minElements, options.maxElements));
    for (unsigned i = 0; i < n; ++i)
        spec.elements.push_back(makeElement(rng, spec.checkpointing));

    spec.schedule = makeSchedule(rng, spec.horizon);
    return spec;
}

CaseSpec
mutateCase(const CaseSpec &base, std::uint64_t seed)
{
    Rng rng(seed ^ 0x6D757461ULL); // "muta"
    CaseSpec spec = base;
    unsigned edits = static_cast<unsigned>(rng.uniformInt(1, 3));
    for (unsigned i = 0; i < edits; ++i) {
        switch (rng.uniformInt(0, 6)) {
          case 0: // append a new element
            spec.elements.push_back(
                makeElement(rng, spec.checkpointing));
            break;
          case 1: // drop a random element
            if (spec.elements.size() > 1)
                spec.elements.erase(
                    spec.elements.begin() +
                    rng.uniformInt(
                        0, static_cast<std::int64_t>(
                               spec.elements.size() - 1)));
            break;
          case 2: // replace a random element
            if (!spec.elements.empty())
                spec.elements[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(
                           spec.elements.size() - 1)))] =
                    makeElement(rng, spec.checkpointing);
            break;
          case 3: { // retune a loop
            for (auto &e : spec.elements)
                if (e.kind == Element::Kind::Loop && rng.chance(0.5)) {
                    e.iterations = static_cast<unsigned>(
                        rng.uniformInt(1, 16));
                    break;
                }
            break;
          }
          case 4: // regenerate the brown-out schedule
            spec.schedule = makeSchedule(rng, spec.horizon);
            break;
          case 5: // new world seed (different harvest noise)
            spec.worldSeed = static_cast<std::uint64_t>(
                rng.uniformInt(1, 1 << 30));
            break;
          case 6: // flip checkpointing
            if (rng.chance(0.3))
                spec.checkpointing = !spec.checkpointing;
            break;
        }
    }
    return spec;
}

std::string
renderProgram(const CaseSpec &spec)
{
    return render(spec, false);
}

std::string
renderWarMutant(const CaseSpec &spec)
{
    return render(spec, true);
}

std::size_t
instructionCountOf(const std::string &listing)
{
    std::istringstream in(listing);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        std::size_t b = line.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        std::string t = line.substr(b);
        if (t[0] == ';' || t[0] == '#' || t[0] == '.')
            continue;
        // Strip a leading label.
        std::size_t colon = t.find(':');
        if (colon != std::string::npos) {
            t = t.substr(colon + 1);
            b = t.find_first_not_of(" \t");
            if (b == std::string::npos)
                continue;
            t = t.substr(b);
            if (t[0] == ';' || t[0] == '#' || t[0] == '.')
                continue;
        }
        ++n;
    }
    return n;
}

std::size_t
instructionCount(const CaseSpec &spec)
{
    return instructionCountOf(renderProgram(spec));
}

} // namespace edb::fuzz
