#include "isa/listing.hh"

#include <iomanip>
#include <map>
#include <sstream>

#include "isa/isa.hh"

namespace edb::isa {

std::string
listingLine(Addr addr, std::uint32_t word, bool decode_instruction)
{
    std::ostringstream oss;
    oss << "  0x" << std::hex << std::setw(4) << std::setfill('0')
        << addr << ":  " << std::setw(8) << word << "  " << std::dec
        << std::setfill(' ');
    if (decode_instruction) {
        if (auto instr = decode(word)) {
            oss << disassemble(*instr);
            return oss.str();
        }
    }
    // Raw data: show printable ASCII when plausible.
    oss << ".word";
    std::string ascii;
    bool printable = true;
    for (int b = 0; b < 4; ++b) {
        char c = static_cast<char>(word >> (8 * b));
        if (c >= 0x20 && c < 0x7F)
            ascii.push_back(c);
        else if (c == 0)
            ascii.push_back('.');
        else
            printable = false;
    }
    if (printable)
        oss << "      ; \"" << ascii << '"';
    return oss.str();
}

std::size_t
writeListing(std::ostream &os, const Program &program,
             const ListingOptions &options)
{
    std::size_t lines = 0;
    auto emit = [&os, &lines, &options](const std::string &line) {
        if (options.maxLines && lines >= options.maxLines)
            return false;
        os << line << '\n';
        ++lines;
        return true;
    };

    // Invert the symbol table: address -> names.
    std::multimap<std::uint32_t, std::string> by_addr;
    for (const auto &[name, value] : program.symbols)
        by_addr.emplace(value, name);

    std::ostringstream hdr;
    hdr << "; entry 0x" << std::hex << program.entry;
    if (program.irqHandler)
        hdr << ", irq 0x" << program.irqHandler;
    hdr << std::dec << ", " << program.totalBytes() << " bytes in "
        << program.segments.size() << " segment(s)";
    if (!emit(hdr.str()))
        return lines;

    for (const auto &seg : program.segments) {
        {
            std::ostringstream shdr;
            shdr << "; segment @ 0x" << std::hex << seg.base
                 << std::dec << " (" << seg.bytes.size() << " bytes)";
            if (!emit(shdr.str()))
                return lines;
        }
        for (std::size_t i = 0; i + 4 <= seg.bytes.size(); i += 4) {
            Addr addr = seg.base + static_cast<Addr>(i);
            auto range = by_addr.equal_range(addr);
            for (auto it = range.first; it != range.second; ++it) {
                if (!emit(it->second + ":"))
                    return lines;
            }
            std::uint32_t word = 0;
            for (int b = 0; b < 4; ++b) {
                word |= std::uint32_t(seg.bytes[i + b]) << (8 * b);
            }
            if (!emit(listingLine(addr, word)))
                return lines;
        }
    }
    return lines;
}

SymbolTable
SymbolTable::fromProgram(const Program &program)
{
    SymbolTable t;
    for (const auto &[name, value] : program.symbols) {
        t.byName.emplace(name, value);
        // Ties (aliases for one address) keep the first name in
        // name order, deterministically.
        t.byValue.emplace(value, name);
    }
    // Line numbers mirror the default writeListing traversal: one
    // header line, then per segment a segment-header line, label
    // lines, and one line per word.
    std::multimap<std::uint32_t, std::string> by_addr;
    for (const auto &[name, value] : program.symbols)
        by_addr.emplace(value, name);
    std::size_t line = 1; // the "; entry ..." header
    for (const auto &seg : program.segments) {
        ++line; // "; segment @ ..." header
        for (std::size_t i = 0; i + 4 <= seg.bytes.size(); i += 4) {
            Addr addr = seg.base + static_cast<Addr>(i);
            auto range = by_addr.equal_range(addr);
            for (auto it = range.first; it != range.second; ++it)
                ++line; // "label:" line
            t.lines.emplace(addr, ++line);
        }
    }
    return t;
}

std::optional<std::uint32_t>
SymbolTable::lookup(const std::string &name) const
{
    auto it = byName.find(name);
    if (it == byName.end())
        return std::nullopt;
    return it->second;
}

std::string
SymbolTable::symbolize(std::uint32_t addr) const
{
    auto it = byValue.upper_bound(addr);
    if (it == byValue.begin())
        return "";
    --it;
    if (it->first == addr)
        return it->second;
    std::ostringstream oss;
    oss << it->second << "+0x" << std::hex << (addr - it->first);
    return oss.str();
}

std::size_t
SymbolTable::lineOf(Addr addr) const
{
    auto it = lines.find(addr);
    return it == lines.end() ? 0 : it->second;
}

} // namespace edb::isa
