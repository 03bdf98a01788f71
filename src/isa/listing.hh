/**
 * @file
 * Annotated program listings (objdump-style).
 *
 * Renders an assembled `Program` as address / raw word / mnemonic
 * columns with symbol labels interleaved — the firmware-inspection
 * view a developer expects from a toolchain, and what the examples
 * print when walking through the case-study binaries.
 */

#ifndef EDB_ISA_LISTING_HH
#define EDB_ISA_LISTING_HH

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>

#include "isa/program.hh"

namespace edb::isa {

/** Listing options. */
struct ListingOptions
{
    /** Limit emitted lines (0 = no limit). */
    std::size_t maxLines = 0;
};

/**
 * Write an annotated listing of `program` to `os`.
 * @return number of lines emitted.
 */
std::size_t writeListing(std::ostream &os, const Program &program,
                         const ListingOptions &options = {});

/** Render one address's word as a listing line (no label). */
std::string listingLine(Addr addr, std::uint32_t word,
                        bool decode_instruction = true);

/**
 * Debugger-facing symbol table emitted from an assembled program:
 * labels/.equ constants by name, addresses back to labels, and —
 * the "line info" a source-level frontend needs — the 1-based line
 * each instruction address occupies in the default `writeListing`
 * rendering, so a debug server can answer "what line is PC on?"
 * without shipping the listing text itself.
 */
class SymbolTable
{
  public:
    /** Build from an assembled image (labels, .equ, line numbers). */
    static SymbolTable fromProgram(const Program &program);

    /** Value of `name` (label or .equ); nullopt when unknown. */
    std::optional<std::uint32_t>
    lookup(const std::string &name) const;

    /** Symbolize an address as "label" / "label+0xNN" ("" when no
     *  label at or below `addr` exists). */
    std::string symbolize(std::uint32_t addr) const;

    /** 1-based default-listing line of an instruction address
     *  (0 when the address is not in any segment). */
    std::size_t lineOf(Addr addr) const;

    /** All symbols, name-ordered (frontend symbol browsing). */
    const std::map<std::string, std::uint32_t> &
    symbols() const
    {
        return byName;
    }

    std::size_t size() const { return byName.size(); }

  private:
    std::map<std::string, std::uint32_t> byName;
    std::map<std::uint32_t, std::string> byValue;
    std::map<Addr, std::size_t> lines;
};

} // namespace edb::isa

#endif // EDB_ISA_LISTING_HH
