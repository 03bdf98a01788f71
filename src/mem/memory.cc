#include "mem/memory.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace edb::mem {

std::uint32_t
Region::read32(Addr addr)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(read8(addr + i)) << (8 * i);
    return v;
}

void
Region::write32(Addr addr, std::uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

Ram::Ram(std::string region_name, Addr base_addr, Addr size_bytes,
         RegionKind region_kind)
    : Region(std::move(region_name), base_addr, size_bytes, region_kind),
      store(size_bytes, 0)
{
    if (region_kind == RegionKind::Mmio)
        sim::fatal("Ram: cannot be an MMIO region");
    setDirectStore(store.data());
}

std::uint8_t
Ram::read8(Addr addr)
{
    return store[addr - base()];
}

void
Ram::write8(Addr addr, std::uint8_t value)
{
    store[addr - base()] = value;
    ++writes;
}

std::uint32_t
Ram::read32(Addr addr)
{
    // Word-native: the compiler folds the explicit little-endian
    // compose into a single load on LE hosts.
    const std::uint8_t *p = store.data() + (addr - base());
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

void
Ram::write32(Addr addr, std::uint32_t value)
{
    std::uint8_t *p = store.data() + (addr - base());
    p[0] = static_cast<std::uint8_t>(value);
    p[1] = static_cast<std::uint8_t>(value >> 8);
    p[2] = static_cast<std::uint8_t>(value >> 16);
    p[3] = static_cast<std::uint8_t>(value >> 24);
    ++writes; // one logical write, not four
}

void
Ram::powerLoss()
{
    if (kind() == RegionKind::Sram)
        std::fill(store.begin(), store.end(), std::uint8_t{0xCD});
}

void
Ram::clear()
{
    std::fill(store.begin(), store.end(), std::uint8_t{0});
}

void
Ram::load(Addr addr, const std::vector<std::uint8_t> &bytes_in)
{
    load(addr, bytes_in.data(), bytes_in.size());
}

void
Ram::load(Addr addr, const std::uint8_t *data, std::size_t len)
{
    if (addr < base() || addr + len > base() + size())
        sim::fatal("Ram::load: image does not fit region ", name());
    std::copy(data, data + len, store.begin() + (addr - base()));
}

void
Ram::state(sim::StateIo &io)
{
    io.section("ram");
    // A size mismatch means the snapshot was taken on a different
    // memory layout; leave the contents alone and fail the restore.
    if (!io.check(io.count<std::uint64_t>(store.size()) == store.size()))
        return;
    // Copy in place: the backing buffer must not move, other parts
    // of the system (direct-store readers) hold pointers into it.
    io.bytes(store.data(), store.size());
    io.u64(writes);
}

MmioRegion::MmioRegion(std::string region_name, Addr base_addr,
                       Addr size_bytes)
    : Region(std::move(region_name), base_addr, size_bytes,
             RegionKind::Mmio)
{}

void
MmioRegion::addRegister(Addr addr, std::string reg_name, ReadFn read_fn,
                        WriteFn write_fn)
{
    if (!contains(addr) || (addr & 3u))
        sim::fatal("MmioRegion: bad register address for ", reg_name);
    if (regs.count(addr))
        sim::fatal("MmioRegion: register already present at address ",
                   addr);
    regs.emplace(addr,
                 Reg{std::move(reg_name), std::move(read_fn),
                     std::move(write_fn)});
}

bool
MmioRegion::hasRegister(Addr addr) const
{
    return regs.count(addr) != 0;
}

std::uint32_t
MmioRegion::read32(Addr addr)
{
    auto it = regs.find(addr);
    if (it == regs.end() || !it->second.read)
        return 0;
    return it->second.read();
}

void
MmioRegion::write32(Addr addr, std::uint32_t value)
{
    auto it = regs.find(addr);
    if (it == regs.end() || !it->second.write)
        return;
    it->second.write(value);
}

std::uint8_t
MmioRegion::read8(Addr addr)
{
    Addr word = addr & ~Addr{3};
    return static_cast<std::uint8_t>(read32(word) >> (8 * (addr & 3u)));
}

void
MmioRegion::write8(Addr addr, std::uint8_t value)
{
    // Byte writes to MMIO replicate the byte into the low lane; real
    // hardware typically doesn't support sub-word peripheral writes
    // either. Documented, deterministic behaviour for stray stores.
    Addr word = addr & ~Addr{3};
    write32(word, value);
}

void
MemoryMap::addRegion(Region *region)
{
    if (!region)
        sim::fatal("MemoryMap: null region");
    for (const auto *existing : list) {
        bool disjoint = region->base() + region->size() <=
                            existing->base() ||
                        existing->base() + existing->size() <=
                            region->base();
        if (!disjoint)
            sim::fatal("MemoryMap: region ", region->name(),
                       " overlaps ", existing->name());
    }
    list.push_back(region);
}

Region *
MemoryMap::find(Addr addr) const
{
    Region *cached = hot;
    if (cached && cached->contains(addr))
        return cached;
    for (auto *region : list) {
        if (region->contains(addr)) {
            if (findCacheEnabled)
                hot = region;
            return region;
        }
    }
    return nullptr;
}

void
MemoryMap::setWriteWatch(Addr lo, Addr hi, std::uint8_t *valid)
{
    if (hi < lo)
        sim::fatal("MemoryMap::setWriteWatch: inverted range");
    watchLo = lo;
    watchSpan = valid ? hi - lo : 0;
    watchValid = valid;
}

void
MemoryMap::clearWriteWatch()
{
    watchSpan = 0;
    watchValid = nullptr;
}

AccessResult
MemoryMap::read8(Addr addr, std::uint8_t &value) const
{
    Region *r = find(addr);
    if (!r)
        return AccessResult::Unmapped;
    if (const std::uint8_t *p = r->directStore()) {
        value = p[addr - r->base()];
        return AccessResult::Ok;
    }
    if (r->kind() == RegionKind::Mmio)
        mmioHit = true;
    value = r->read8(addr);
    return AccessResult::Ok;
}

AccessResult
MemoryMap::write8(Addr addr, std::uint8_t value) const
{
    Region *r = find(addr);
    if (!r)
        return AccessResult::Unmapped;
    if (r->directStore()) {
        // directStore() implies Ram (see setDirectStore): call it
        // non-virtually so the interpreter's store path stays flat.
        static_cast<Ram *>(r)->Ram::write8(addr, value);
        noteWrite(addr, 1);
        return AccessResult::Ok;
    }
    if (r->kind() == RegionKind::Mmio)
        mmioHit = true;
    r->write8(addr, value);
    noteWrite(addr, 1);
    return AccessResult::Ok;
}

AccessResult
MemoryMap::read32(Addr addr, std::uint32_t &value) const
{
    if (addr & 3u)
        return AccessResult::Misaligned;
    Region *r = find(addr);
    if (!r || !r->contains(addr + 3))
        return AccessResult::Unmapped;
    if (const std::uint8_t *d = r->directStore()) {
        const std::uint8_t *p = d + (addr - r->base());
        value = static_cast<std::uint32_t>(p[0]) |
                static_cast<std::uint32_t>(p[1]) << 8 |
                static_cast<std::uint32_t>(p[2]) << 16 |
                static_cast<std::uint32_t>(p[3]) << 24;
        return AccessResult::Ok;
    }
    if (r->kind() == RegionKind::Mmio)
        mmioHit = true;
    value = r->read32(addr);
    return AccessResult::Ok;
}

AccessResult
MemoryMap::write32(Addr addr, std::uint32_t value) const
{
    if (addr & 3u)
        return AccessResult::Misaligned;
    Region *r = find(addr);
    if (!r || !r->contains(addr + 3))
        return AccessResult::Unmapped;
    if (r->directStore()) {
        // directStore() implies Ram (see setDirectStore).
        static_cast<Ram *>(r)->Ram::write32(addr, value);
        noteWrite(addr, 4);
        return AccessResult::Ok;
    }
    if (r->kind() == RegionKind::Mmio)
        mmioHit = true;
    r->write32(addr, value);
    noteWrite(addr, 4);
    return AccessResult::Ok;
}

} // namespace edb::mem
