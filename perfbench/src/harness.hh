/**
 * @file
 * Measurement plumbing shared by every workload: clocks, the digest
 * of exact simulated statistics, named metrics, and the in-memory
 * span recorder behind the traced run.
 *
 * Spans are recorded from outside the simulator, around each call a
 * workload makes into a module's public API. Nothing here reaches
 * into the program's internals, so the benchmark keeps measuring the
 * same calls while the code behind them changes.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// @name Clocks (nanoseconds)
/// @{
/** Monotonic wall clock. */
std::int64_t wallNs();
/** CPU time of the calling thread: immune to being descheduled. */
std::int64_t threadCpuNs();
/** CPU time of the whole process, all threads together. */
std::int64_t processCpuNs();
/// @}

/** Resident-set figures from /proc/self/status, in kB (0 when the
 *  file is unreadable). VmHWM is the peak of this process image
 *  only: unlike getrusage's ru_maxrss it does not inherit the peak of
 *  a parent across fork+exec. */
long vmHwmKb();
long vmRssKb();

/** FNV-1a over exact simulated statistics (never over host times). */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    }
    /** Doubles fold as their exact bit pattern. */
    void
    addDouble(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void
    add(std::string_view s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001B3ULL;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 0xCBF29CE484222325ULL;
};

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric list; `set` replaces an existing name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return items; }
    const Metric *find(const std::string &name) const;

  private:
    std::vector<Metric> items;
};

/**
 * In-memory span recorder. Each span holds its name, start, end,
 * parent and op id; spans are kept until the run ends and only then
 * aggregated or written out. A disabled tracer records nothing and
 * costs one branch per call site.
 */
class Tracer
{
  public:
    struct SpanRec
    {
        /** Name with static storage duration: the tracer reads it
         *  after the workload that opened the span is destroyed. */
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int32_t parent;
        std::uint32_t op;
    };
    /** A per-op value that is not a duration (simulated ms spent in
     *  a call, a utilisation ratio); summed per op. */
    struct SampleRec
    {
        const char *name;
        const char *unit;
        std::uint32_t op;
        double value;
    };

    /** `clock` stamps each span's start and end; a test can script
     *  it to build a span tree with known times. */
    explicit Tracer(bool enabled, std::int64_t (*clock)() = wallNs)
        : on_(enabled), clock_(clock)
    {}

    bool on() const { return on_; }
    /** Set the op id stamped on the spans that follow. */
    void setOp(std::uint32_t op) { op_ = op; }

    std::int32_t open(const char *name);
    void close(std::int32_t id);
    void sample(const char *name, double value, const char *unit);

    const std::vector<SpanRec> &spans() const { return spans_; }

    /**
     * Per-layer figures: for each span name, the median over ops of
     * that op's summed self time (a span's duration minus the parts
     * its children cover), as `<name>_us`; for each sample name, the
     * median over ops of the op's summed value. `ops` counts ops with
     * no such span or sample as zero. The root span of each op is
     * named `op` and is not reported.
     */
    void aggregate(std::uint32_t ops, Metrics &out) const;

    /** Write the spans as Chrome trace-event JSON (chrome://tracing,
     *  Perfetto). @return false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool on_;
    std::int64_t (*clock_)();
    std::uint32_t op_ = 0;
    std::int32_t current = -1;
    std::vector<SpanRec> spans_;
    std::vector<SampleRec> samples_;
};

/** RAII span around one call; inert when the tracer is off. */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : t(tracer), id(tracer.on() ? tracer.open(name) : -1)
    {}
    ~Span()
    {
        if (id >= 0)
            t.close(id);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t;
    std::int32_t id;
};

/** Nearest-rank percentile of an unsorted sample (q in (0, 1]). */
double percentile(std::vector<double> values, double q);

/**
 * Log-bucketed latency histogram (0.05% bucket width, 10 ns to
 * 1000 s). Its memory is fixed when it is built, so a run's peak RSS
 * does not grow with the number of ops it times.
 */
class Histogram
{
  public:
    Histogram();
    void add(double us);
    std::uint64_t count() const { return n; }
    /** Nearest-rank percentile: the geometric middle of the bucket
     *  holding the rank (q in (0, 1]). */
    double percentile(double q) const;

  private:
    std::vector<std::uint32_t> counts;
    std::uint64_t n = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
