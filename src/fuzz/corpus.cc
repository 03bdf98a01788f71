#include "fuzz/corpus.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace edb::fuzz {

namespace {

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Count newline-terminated lines (the framing for raw listings). */
std::size_t
lineCount(const std::string &text)
{
    std::size_t n = 0;
    for (char c : text)
        if (c == '\n')
            ++n;
    if (!text.empty() && text.back() != '\n')
        ++n;
    return n;
}

bool
readBlock(std::istream &in, std::size_t lines, std::string &out)
{
    out.clear();
    std::string line;
    for (std::size_t i = 0; i < lines; ++i) {
        if (!std::getline(in, line))
            return false;
        out += line;
        out += '\n';
    }
    return true;
}

} // namespace

std::string
artifactToText(const Artifact &artifact)
{
    const OracleCase &c = artifact.oracleCase;
    std::ostringstream s;
    s << "; fuzz_diff regression artifact";
    if (!artifact.note.empty())
        s << " -- " << artifact.note;
    s << "\n";
    s << "oracle " << oracleName(artifact.oracle) << "\n";
    s << "seed " << c.seed << "\n";
    s << "checkpointing " << (c.checkpointing ? 1 : 0) << "\n";
    s << "horizon " << c.horizon << "\n";
    s << "capacitance " << fmtDouble(c.capacitanceF) << "\n";
    s << "initial-volts " << fmtDouble(c.initialVolts) << "\n";
    for (const sim::BrownOut &b : c.schedule)
        s << "brownout " << b.at << " " << fmtDouble(b.volts) << "\n";
    s << "program " << lineCount(c.program) << "\n" << c.program;
    if (!c.program.empty() && c.program.back() != '\n')
        s << "\n";
    if (!c.mutant.empty()) {
        s << "mutant " << lineCount(c.mutant) << "\n" << c.mutant;
        if (c.mutant.back() != '\n')
            s << "\n";
    }
    s << "end\n";
    return s.str();
}

std::optional<Artifact>
artifactFromText(const std::string &text, std::string *error)
{
    auto fail = [&](const std::string &msg) -> std::optional<Artifact> {
        if (error != nullptr)
            *error = msg;
        return std::nullopt;
    };

    Artifact a;
    std::istringstream in(text);
    std::string line;
    bool sawOracle = false;
    bool sawEnd = false;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == ';' || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "oracle") {
            std::string name;
            ls >> name;
            auto id = oracleFromName(name);
            if (!id)
                return fail("unknown oracle '" + name + "'");
            a.oracle = *id;
            sawOracle = true;
        } else if (key == "seed") {
            ls >> a.oracleCase.seed;
        } else if (key == "checkpointing") {
            int v = 0;
            ls >> v;
            a.oracleCase.checkpointing = v != 0;
        } else if (key == "horizon") {
            ls >> a.oracleCase.horizon;
        } else if (key == "capacitance") {
            ls >> a.oracleCase.capacitanceF;
        } else if (key == "initial-volts") {
            ls >> a.oracleCase.initialVolts;
        } else if (key == "brownout") {
            sim::BrownOut b;
            ls >> b.at >> b.volts;
            if (ls.fail())
                return fail("malformed brownout line");
            a.oracleCase.schedule.push_back(b);
        } else if (key == "program" || key == "mutant") {
            std::size_t n = 0;
            ls >> n;
            if (ls.fail())
                return fail("missing line count after '" + key + "'");
            std::string block;
            if (!readBlock(in, n, block))
                return fail("truncated '" + key + "' block");
            if (key == "program")
                a.oracleCase.program = block;
            else
                a.oracleCase.mutant = block;
        } else if (key == "end") {
            sawEnd = true;
            break;
        } else {
            return fail("unknown key '" + key + "'");
        }
        if (ls.fail())
            return fail("malformed value for '" + key + "'");
    }
    if (!sawOracle)
        return fail("missing 'oracle' line");
    if (!sawEnd)
        return fail("missing 'end' line");
    const OracleCase &c = a.oracleCase;
    if (c.program.empty())
        return fail("missing 'program' block");
    if (c.horizon <= 0)
        return fail("horizon must be positive");
    if (!(std::isfinite(c.capacitanceF) && c.capacitanceF > 0.0))
        return fail("capacitance must be positive and finite");
    for (const sim::BrownOut &b : c.schedule)
        if (b.at < 0 || !(b.volts >= 0.0))
            return fail("brownout tick and volts must be non-negative");
    return a;
}

bool
saveArtifact(const Artifact &artifact, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << artifactToText(artifact);
    return static_cast<bool>(out);
}

std::optional<Artifact>
loadArtifact(const std::string &path, std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return artifactFromText(buf.str(), error);
}

} // namespace edb::fuzz
