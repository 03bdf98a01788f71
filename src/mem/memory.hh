/**
 * @file
 * Target memory system: volatile SRAM, non-volatile FRAM and the
 * memory map that routes accesses.
 *
 * The volatile / non-volatile split is the crux of the intermittent
 * execution model: "a reboot clears volatile state (e.g., register
 * file, SRAM) [and] retains non-volatile state (e.g., FRAM)"
 * (paper Section 1). Intermittence bugs are, at bottom, consistency
 * violations in the FRAM image across reboots.
 */

#ifndef EDB_MEM_MEMORY_HH
#define EDB_MEM_MEMORY_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace edb::sim {
class StateIo;
} // namespace edb::sim

namespace edb::mem {

/** Target address. The EH32 address space is 64 KiB. */
using Addr = std::uint32_t;

/** Size of the EH32 address space: every valid address is below it. */
constexpr std::uint64_t addrSpaceSize = 0x10000;

/** Classification used by the MCU to cost accesses. */
enum class RegionKind : std::uint8_t { Sram, Fram, Mmio };

/**
 * Abstract address-space region.
 */
class Region
{
  public:
    Region(std::string region_name, Addr base_addr, Addr size_bytes,
           RegionKind region_kind)
        : name_(std::move(region_name)), base_(base_addr),
          size_(size_bytes), kind_(region_kind)
    {}

    virtual ~Region() = default;

    const std::string &name() const { return name_; }
    Addr base() const { return base_; }
    Addr size() const { return size_; }
    RegionKind kind() const { return kind_; }

    /** True when `addr` falls inside this region. */
    bool
    contains(Addr addr) const
    {
        return addr >= base_ && addr < base_ + size_;
    }

    /** Byte read at an absolute address (must be contained). */
    virtual std::uint8_t read8(Addr addr) = 0;
    /** Byte write at an absolute address (must be contained). */
    virtual void write8(Addr addr, std::uint8_t value) = 0;

    /** Aligned 32-bit read; default composes byte reads (LE). */
    virtual std::uint32_t read32(Addr addr);
    /** Aligned 32-bit write; default composes byte writes (LE). */
    virtual void write32(Addr addr, std::uint32_t value);

    /**
     * Flat backing store for side-effect-free regions, or nullptr
     * when accesses must go through the virtual interface (MMIO).
     * Ram publishes its store so the memory map's routed *reads* can
     * skip the virtual dispatch; writes still dispatch, because Ram
     * keeps wear statistics.
     */
    const std::uint8_t *directStore() const { return direct_; }

  protected:
    /** Set by subclasses whose storage is a plain byte array.
     *  Only Ram may publish a direct store: the memory map relies on
     *  `directStore() != nullptr implies the region is a Ram` to
     *  devirtualize its routed write dispatch. */
    void setDirectStore(const std::uint8_t *store) { direct_ = store; }

  private:
    std::string name_;
    Addr base_;
    Addr size_;
    RegionKind kind_;
    const std::uint8_t *direct_ = nullptr;
};

/**
 * Flat byte-array region used for both SRAM (volatile) and FRAM
 * (non-volatile). "Volatile" here controls what `Ram::powerLoss`
 * does, which the MCU invokes on every reboot.
 */
class Ram : public Region
{
  public:
    Ram(std::string region_name, Addr base_addr, Addr size_bytes,
        RegionKind region_kind);

    std::uint8_t read8(Addr addr) override;
    void write8(Addr addr, std::uint8_t value) override;

    /** Word-native access to the backing store (LE). A `write32`
     *  counts as one logical write in the wear statistics, not
     *  four. */
    std::uint32_t read32(Addr addr) override;
    void write32(Addr addr, std::uint32_t value) override;

    /**
     * React to a power loss: volatile regions are filled with a
     * poison pattern (0xCD) so that software reading uninitialized
     * SRAM after reboot misbehaves loudly, as real SRAM decay does
     * unpredictably; non-volatile regions are untouched.
     */
    void powerLoss();

    /** Fill with zero (flash-programming, test setup). */
    void clear();

    /** Bulk load starting at an absolute address. Does not count
     *  toward the wear statistics (it models flash programming, not
     *  program stores). */
    void load(Addr addr, const std::vector<std::uint8_t> &bytes);
    void load(Addr addr, const std::uint8_t *data, std::size_t len);

    /** Direct backing-store access for instruments/tests. */
    std::vector<std::uint8_t> &bytes() { return store; }
    const std::uint8_t *data() const { return store.data(); }

    /** Number of writes since construction (wear statistics). */
    std::uint64_t writeCount() const { return writes; }

    /** Snapshot fields, both directions (see sim/snapshot.hh):
     *  contents + wear counter (sizes must match). */
    void state(sim::StateIo &io);

  private:
    std::vector<std::uint8_t> store;
    std::uint64_t writes = 0;
};

/**
 * Memory-mapped I/O region: 32-bit registers at word-aligned
 * addresses, each with read/write handlers installed by peripherals.
 */
class MmioRegion : public Region
{
  public:
    using ReadFn = std::function<std::uint32_t()>;
    using WriteFn = std::function<void(std::uint32_t)>;

    MmioRegion(std::string region_name, Addr base_addr, Addr size_bytes);

    /**
     * Install a register. Either handler may be null (reads of a
     * write-only register return 0; writes to a read-only register
     * are ignored).
     */
    void addRegister(Addr addr, std::string reg_name, ReadFn read_fn,
                     WriteFn write_fn);

    /** True when a register exists at `addr`. */
    bool hasRegister(Addr addr) const;

    std::uint8_t read8(Addr addr) override;
    void write8(Addr addr, std::uint8_t value) override;
    std::uint32_t read32(Addr addr) override;
    void write32(Addr addr, std::uint32_t value) override;

  private:
    struct Reg
    {
        std::string name;
        ReadFn read;
        WriteFn write;
    };

    std::map<Addr, Reg> regs;
};

/** Outcome of a routed access. */
enum class AccessResult : std::uint8_t
{
    Ok,
    Unmapped,    ///< No region claims the address.
    Misaligned,  ///< Word access not 4-byte aligned.
};

/**
 * Routes target addresses to regions. Faulting accesses are reported
 * to the caller (the MCU raises a fault, modelling the "undefined
 * behavior" of a wild pointer write in paper Fig 3).
 */
class MemoryMap
{
  public:
    /** Attach a region (non-owning); regions must not overlap. */
    void addRegion(Region *region);

    /** Region containing `addr`, or nullptr. */
    Region *find(Addr addr) const;

    /// @name Routed accesses
    /// @{
    AccessResult read8(Addr addr, std::uint8_t &value) const;
    AccessResult write8(Addr addr, std::uint8_t value) const;
    AccessResult read32(Addr addr, std::uint32_t &value) const;
    AccessResult write32(Addr addr, std::uint32_t value) const;
    /// @}

    /** All attached regions. */
    const std::vector<Region *> &regions() const { return list; }

    /**
     * Enable/disable the last-hit region cache consulted by find().
     * Purely a lookup accelerator: the region returned is identical
     * either way (regions never overlap).
     */
    void
    setFindCacheEnabled(bool on)
    {
        findCacheEnabled = on;
        hot = nullptr;
    }

    /**
     * Watch routed writes into [lo, hi): each one clears the byte
     * `valid[(addr - lo) / 4]` in the caller-owned array, which must
     * cover `(hi - lo) / 4` entries and outlive the watch. At most
     * one watch exists; the MCU uses it to invalidate predecoded
     * instructions when anything stores into the code address range.
     * The raw-pointer protocol (rather than a callback) keeps the
     * per-store cost to one compare — the watch sits on the
     * interpreter's store path. Writes that bypass the map
     * (Ram::load, Ram::powerLoss, direct backing-store access) are
     * NOT observed — callers of those invalidate explicitly.
     */
    void setWriteWatch(Addr lo, Addr hi, std::uint8_t *valid);
    void clearWriteWatch();

    /**
     * Observer of every *routed* write (program stores, checkpoint
     * unit, debugger pokes), called after the write commits with the
     * address and width in bytes. One observer at most; used by the
     * non-volatile consistency auditor. A plain function pointer +
     * context keeps the disabled case to one null check on the store
     * path. Writes that bypass the map (Ram::load, Ram::powerLoss)
     * are NOT observed, mirroring the write watch above.
     */
    using WriteHookFn = void (*)(void *ctx, Addr addr, unsigned width);
    void
    setWriteHook(WriteHookFn fn, void *ctx)
    {
        writeHookFn = fn;
        writeHookCtx = ctx;
    }
    void clearWriteHook() { writeHookFn = nullptr; }

    /**
     * Sticky flag: set whenever a routed access lands in an MMIO
     * region (the only accesses that can schedule simulator events
     * or change power loads). The MCU's batched slice loop clears it
     * per segment and resynchronizes with the event queue when set.
     */
    bool mmioTouched() const { return mmioHit; }
    void clearMmioTouched() { mmioHit = false; }

  private:
    void
    noteWrite(Addr addr, unsigned width) const
    {
        // Single unsigned compare: watchSpan is 0 when no watch is
        // installed, so the branch is never taken then.
        if (addr - watchLo < watchSpan)
            watchValid[(addr - watchLo) >> 2] = 0;
        if (writeHookFn)
            writeHookFn(writeHookCtx, addr, width);
    }

    std::vector<Region *> list;
    /** Last region hit by find(); a 1-entry cache. */
    mutable Region *hot = nullptr;
    bool findCacheEnabled = true;
    mutable bool mmioHit = false;
    Addr watchLo = 0;
    Addr watchSpan = 0;
    std::uint8_t *watchValid = nullptr;
    WriteHookFn writeHookFn = nullptr;
    void *writeHookCtx = nullptr;
};

} // namespace edb::mem

#endif // EDB_MEM_MEMORY_HH
