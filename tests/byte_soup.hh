/**
 * @file
 * Deterministic mutations of well-formed text for the byte-surface
 * tests: each mutant is its base with a few edits drawn from a
 * splitmix64 stream, so a failing input is reproducible from the
 * stream's seed alone.
 */

#ifndef EDB_TESTS_BYTE_SOUP_HH
#define EDB_TESTS_BYTE_SOUP_HH

#include <cstdint>
#include <string>

#include "sim/rng.hh"

namespace edb::test {

/**
 * Apply 1–4 edits to `text`: overwrite a byte with any value,
 * truncate, insert a run of 1–24 decimal digits, or insert a `+` or
 * `-`. Digit runs and signs steer mutants into number and
 * expression parsing, where overflow lives.
 */
inline std::string
mutateText(std::string text, std::uint64_t &state)
{
    auto next = [&state] { return state = sim::splitmix64(state); };
    const unsigned edits = 1 + next() % 4;
    for (unsigned e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = next() % text.size();
        switch (next() % 8) {
          case 0:
            text.resize(at);
            break;
          case 1:
          case 2:
          case 3: {
            std::string digits(1 + next() % 24, '0');
            for (char &c : digits)
                c = static_cast<char>('0' + next() % 10);
            text.insert(at, digits);
            break;
          }
          case 4:
            text.insert(at, 1, next() & 1 ? '+' : '-');
            break;
          default:
            text[at] = static_cast<char>(next() & 0xFF);
            break;
        }
    }
    return text;
}

} // namespace edb::test

#endif // EDB_TESTS_BYTE_SOUP_HH
