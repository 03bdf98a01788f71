#include "sim/snapshot.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>

namespace edb::sim {

namespace {

const std::uint32_t *
crcTable()
{
    // Magic-static initialization: thread-safe under C++11 (fleet
    // worker threads snapshot worlds concurrently). The previous
    // lazily-flagged fill raced when two shards took their first
    // snapshot at once.
    static const auto table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table.data();
}

constexpr std::uint8_t sectionMark = 0xA5;
constexpr std::size_t headerSize = 8 + 4 + 4 + 4;

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t seed)
{
    const std::uint32_t *table = crcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

void
SnapshotWriter::f64(double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
SnapshotWriter::bytes(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + len);
}

void
SnapshotWriter::section(const char *tag)
{
    std::size_t len = std::strlen(tag);
    u8(sectionMark);
    u8(static_cast<std::uint8_t>(len));
    bytes(tag, len);
}

void
SnapshotWriter::rng(const Rng &r)
{
    Mt64::State s = r.exportState();
    section("rng");
    for (std::uint64_t w : s.state)
        u64(w);
    for (std::uint64_t w : s.out)
        u64(w);
    u32(s.index);
}

std::vector<std::uint8_t>
SnapshotWriter::finish() const
{
    std::vector<std::uint8_t> image(headerSize + buf.size());
    std::memcpy(image.data(), magic, 8);
    auto write32 = [&image](std::size_t at, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            image[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    write32(8, version);
    write32(12, static_cast<std::uint32_t>(buf.size()));
    write32(16, crc32(buf.data(), buf.size()));
    std::copy(buf.begin(), buf.end(), image.begin() + headerSize);
    return image;
}

bool
SnapshotReader::load(std::vector<std::uint8_t> image)
{
    fail_ = true;
    payload.clear();
    pos = 0;
    if (image.size() < headerSize)
        return false;
    if (std::memcmp(image.data(), SnapshotWriter::magic, 8) != 0)
        return false;
    auto read32 = [&image](std::size_t at) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(image[at + i]) << (8 * i);
        return v;
    };
    if (read32(8) != SnapshotWriter::version)
        return false;
    std::uint32_t len = read32(12);
    std::uint32_t crc = read32(16);
    if (image.size() != headerSize + len)
        return false;
    if (crc32(image.data() + headerSize, len) != crc)
        return false;
    payload.assign(image.begin() + headerSize, image.end());
    fail_ = false;
    return true;
}

bool
SnapshotReader::need(std::size_t n)
{
    if (fail_ || payload.size() - pos < n) {
        fail_ = true;
        return false;
    }
    return true;
}

std::uint8_t
SnapshotReader::u8()
{
    if (!need(1))
        return 0;
    return payload[pos++];
}

std::uint32_t
SnapshotReader::u32()
{
    if (!need(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(payload[pos + i]) << (8 * i);
    pos += 4;
    return v;
}

std::uint64_t
SnapshotReader::u64()
{
    if (!need(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(payload[pos + i]) << (8 * i);
    pos += 8;
    return v;
}

double
SnapshotReader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

void
SnapshotReader::bytes(void *out, std::size_t len)
{
    if (!need(len)) {
        std::memset(out, 0, len);
        return;
    }
    std::memcpy(out, payload.data() + pos, len);
    pos += len;
}

bool
SnapshotReader::section(const char *tag)
{
    std::size_t want = std::strlen(tag);
    if (u8() != sectionMark) {
        fail_ = true;
        return false;
    }
    std::size_t len = u8();
    if (len != want || !need(len)) {
        fail_ = true;
        return false;
    }
    if (std::memcmp(payload.data() + pos, tag, len) != 0) {
        fail_ = true;
        return false;
    }
    pos += len;
    return true;
}

void
SnapshotReader::rng(Rng &r)
{
    section("rng");
    Mt64::State s{};
    for (std::uint64_t &w : s.state)
        w = u64();
    for (std::uint64_t &w : s.out)
        w = u64();
    s.index = u32();
    if (ok())
        r.importState(s);
}

void
EventRearmer::flush()
{
    std::sort(pending.begin(), pending.end(),
              [](const Pending &a, const Pending &b) {
                  return a.savedId < b.savedId;
              });
    for (auto &p : pending)
        *p.slot = sim_.schedule(p.when, std::move(p.cb));
    pending.clear();
}

bool
StateIo::section(const char *tag)
{
    if (r_)
        return r_->section(tag);
    w_->section(tag);
    return true;
}

void
StateIo::boolean(bool &v)
{
    if (r_)
        v = r_->boolean();
    else
        w_->boolean(v);
}

void
StateIo::f64(double &v)
{
    if (r_)
        v = r_->f64();
    else
        w_->f64(v);
}

void
StateIo::bytes(void *data, std::size_t len)
{
    if (len == 0) // an empty vector's data() may be null
        return;
    if (r_)
        r_->bytes(data, len);
    else
        w_->bytes(data, len);
}

void
StateIo::rng(Rng &r)
{
    if (r_)
        r_->rng(r);
    else
        w_->rng(r);
}

bool
StateIo::check(bool ok)
{
    if (!ok && r_)
        r_->invalidate();
    return ok;
}

void
StateIo::event(EventId &id, EventQueue::Callback cb)
{
    if (!r_) {
        std::optional<Tick> due = sim_->dueTime(id);
        w_->boolean(due.has_value());
        if (due) {
            w_->u64(id);
            w_->tick(*due);
        }
        return;
    }
    rearmer_->simulator().cancel(id);
    id = invalidEventId;
    if (!r_->boolean())
        return;
    EventId savedId = r_->u64();
    Tick when = r_->tick();
    if (r_->ok())
        rearmer_->add(savedId, when, std::move(cb), id);
}

} // namespace edb::sim
