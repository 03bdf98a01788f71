#include "harness.hh"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

constexpr double histMinUs = 0.01;
constexpr double histMaxUs = 1e9;
constexpr double histRatio = 1.0005;

std::int64_t
clockNs(clockid_t id)
{
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

long
statusKb(const char *key)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t n = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, n, key) == 0 && line.size() > n &&
            line[n] == ':')
            return std::atol(line.c_str() + n + 1);
    }
    return 0;
}

} // namespace

std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

long
vmHwmKb()
{
    return statusKb("VmHWM");
}

long
vmRssKb()
{
    return statusKb("VmRSS");
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    for (Metric &m : items) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    items.push_back(Metric{name, value, unit});
}

const Metric *
Metrics::find(const std::string &name) const
{
    for (const Metric &m : items) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

std::int32_t
Tracer::open(const char *name)
{
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(SpanRec{name, clock_(), 0, current, op_});
    current = id;
    return id;
}

void
Tracer::close(std::int32_t id)
{
    spans_[static_cast<std::size_t>(id)].end = clock_();
    current = spans_[static_cast<std::size_t>(id)].parent;
}

void
Tracer::sample(const char *name, double value, const char *unit)
{
    if (on_)
        samples_.push_back(SampleRec{name, unit, op_, value});
}

void
Tracer::aggregate(std::uint32_t ops, Metrics &out) const
{
    // name -> per-op sums. Keyed by string so two call sites passing
    // equal names from different literals still aggregate together.
    std::map<std::string, std::vector<double>> self;
    std::map<std::string, std::vector<double>> sampled;
    std::map<std::string, const char *> sampleUnit;
    std::vector<std::int64_t> childNs(spans_.size(), 0);
    for (const SpanRec &s : spans_) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.end - s.start;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        if (std::strcmp(s.name, "op") == 0 || s.op >= ops)
            continue;
        auto &perOp = self[s.name];
        perOp.resize(ops, 0.0);
        perOp[s.op] +=
            static_cast<double>(s.end - s.start - childNs[i]) / 1e3;
    }
    for (const SampleRec &s : samples_) {
        if (s.op >= ops)
            continue;
        auto &perOp = sampled[s.name];
        perOp.resize(ops, 0.0);
        perOp[s.op] += s.value;
        sampleUnit[s.name] = s.unit;
    }
    for (auto &[name, perOp] : self)
        out.set(name + "_us", percentile(perOp, 0.5), "us");
    for (auto &[name, perOp] : sampled)
        out.set(name, percentile(perOp, 0.5), sampleUnit[name]);
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%zu,\"parent\":%d,\"op\":%u}}",
                     i ? "," : "", s.name,
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     s.parent, s.op);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

Histogram::Histogram()
    : counts(static_cast<std::size_t>(
                 std::log(histMaxUs / histMinUs) / std::log(histRatio)) +
             1)
{}

void
Histogram::add(double us)
{
    const double x = std::clamp(us, histMinUs, histMaxUs);
    const auto i = static_cast<std::size_t>(std::log(x / histMinUs) /
                                            std::log(histRatio));
    ++counts[std::min(i, counts.size() - 1)];
    ++n;
}

double
Histogram::percentile(double q) const
{
    if (n == 0)
        return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))),
        1, n);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while (seen + counts[i] < rank)
        seen += counts[i++];
    return histMinUs * std::pow(histRatio, static_cast<double>(i) + 0.5);
}

} // namespace perfbench
