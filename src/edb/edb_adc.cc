#include "edb/edb_adc.hh"

#include <cmath>

namespace edb::edbdbg {

EdbAdc::EdbAdc(sim::Rng &rng_in, EdbAdcConfig config)
    : rng(rng_in), cfg(config)
{}

double
EdbAdc::lsbVolts() const
{
    return vrefVolts / static_cast<double>((1u << cfg.bits) - 1);
}

std::uint32_t
EdbAdc::codeFor(double volts) const
{
    if (volts <= 0.0)
        return 0;
    auto full = (1u << cfg.bits) - 1;
    auto code = static_cast<std::uint32_t>(
        std::lround(volts / vrefVolts * full));
    return code > full ? full : code;
}

double
EdbAdc::voltsFor(std::uint32_t code) const
{
    return static_cast<double>(code) * lsbVolts();
}

std::uint32_t
EdbAdc::sampleCode(double volts)
{
    if (faultHook)
        volts = faultHook(volts);
    return codeFor(volts + rng.gaussian(cfg.noiseSigmaVolts));
}

double
EdbAdc::sampleVolts(double volts)
{
    return voltsFor(sampleCode(volts));
}

} // namespace edb::edbdbg
