/**
 * @file
 * EDB's on-board 12-bit ADC.
 *
 * Digitizes the buffered Vcap / Vreg senses (paper Section 4.1).
 * "A 12-bit ADC with effective resolution of approximately 1 mV
 * imposes a theoretical lower bound on dE of 0.08%" — the
 * quantization and input-referred noise modelled here are exactly
 * what the `ablation_adc_resolution` bench sweeps.
 */

#ifndef EDB_EDB_EDB_ADC_HH
#define EDB_EDB_EDB_ADC_HH

#include <cstdint>
#include <functional>

#include "sim/rng.hh"

namespace edb::edbdbg {

/** ADC configuration. */
struct EdbAdcConfig
{
    unsigned bits = 12;
    /** Input-referred gaussian noise sigma. */
    double noiseSigmaVolts = 1.5e-3;
};

/** Sampling ADC with quantization and input noise. */
class EdbAdc
{
  public:
    /** Full-scale reference (4.096 V gives ~1 mV codes). */
    static constexpr double vrefVolts = 4.096;

    EdbAdc(sim::Rng &rng, EdbAdcConfig config = {});

    /** Digitize a voltage: returns the code. */
    std::uint32_t sampleCode(double volts);

    /** Digitize and convert back to volts (code * LSB). */
    double sampleVolts(double volts);

    /** Volts per code. */
    double lsbVolts() const;

    /** Code for a voltage without noise (threshold computations). */
    std::uint32_t codeFor(double volts) const;

    /** Voltage for a code. */
    double voltsFor(std::uint32_t code) const;

    const EdbAdcConfig &config() const { return cfg; }

    /**
     * Install a fault hook applied to the analog input before
     * noise/quantization (fault injection: supply glitches, sense
     * line disturbance). Pass nullptr to remove.
     */
    void setFaultHook(std::function<double(double)> hook)
    {
        faultHook = std::move(hook);
    }

  private:
    sim::Rng &rng;
    EdbAdcConfig cfg;
    std::function<double(double)> faultHook;
};

} // namespace edb::edbdbg

#endif // EDB_EDB_EDB_ADC_HH
