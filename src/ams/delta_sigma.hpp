// DeltaSigmaVmac: quantization-error recycling (paper Sec. 4, method 2).
//
// "Subtract the quantization error incurred by the ADC in one cycle from
// the partial dot product computed in the next cycle. This can be shown
// to be equivalent to using a first-order delta-sigma modulator in place
// of an ADC." Successive outputs of one VMAC must be destined for the
// same accumulator (output stationarity), and the final conversion is
// performed at a higher resolution than the rest.
#pragma once

#include <span>

#include "ams/vmac_cell.hpp"

namespace ams::vmac {

/// A VMAC whose ADC is replaced by a first-order delta-sigma modulator.
///
/// Usage: feed successive operand chunks of one long dot product through
/// accumulate(); then call finalize() to flush the residual with the
/// high-resolution final conversion. The digital partial outputs sum to
/// the dot product with only the *final* quantization error plus thermal
/// noise — the per-cycle quantization errors cancel telescopically.
class DeltaSigmaVmac {
public:
    /// `final_enob` is the resolution of the last conversion; it must be
    /// >= config.enob (the per-cycle resolution). Throws otherwise.
    DeltaSigmaVmac(const VmacConfig& config, double final_enob,
                   const AnalogOptions& analog = {});

    /// Converts one chunk (<= Nmult pairs); returns the digital output of
    /// this cycle and carries the quantization residual into the next.
    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng);

    /// Flushes the carried residual through the high-resolution final
    /// conversion and resets the modulator. Returns the final digital term
    /// to add to the accumulated sum.
    double finalize(Rng& rng);

    // ----- the datapath's pieces (VmacConv2d runs them stage by stage) -----

    /// One modulator cycle on a chunk of `len` operand pairs whose ideal
    /// analog sum (encoded operands, analog_sum without noise)
    /// is `ideal_sum`: adds the carried `residual` and the cycle's thermal
    /// noise, converts, and carries the new quantization error back into
    /// `residual`. Returns the cycle's digital output.
    [[nodiscard]] double cycle(double ideal_sum, std::size_t len, double& residual,
                               Rng& rng) const {
        // Thermal noise enters each cycle and is NOT recycled (the paper:
        // "reduces the total incurred quantization error, but does not
        // change the impact of thermal noise").
        double analog = ideal_sum + residual;
        if (cell_.analog().multiplier_noise_sigma > 0.0) {
            for (std::size_t i = 0; i < len; ++i) {
                analog += rng.normal(0.0, cell_.analog().multiplier_noise_sigma);
            }
        }
        if (cell_.analog().adc_noise_sigma > 0.0) {
            analog += rng.normal(0.0, cell_.analog().adc_noise_sigma);
        }
        const double digital = cell_.convert(analog);
        residual = analog - digital;
        return digital;
    }

    /// The high-resolution final conversion of a carried residual.
    [[nodiscard]] double final_conversion(double residual, Rng& rng) const {
        if (final_cell_.analog().adc_noise_sigma > 0.0) {
            residual += rng.normal(0.0, final_cell_.analog().adc_noise_sigma);
        }
        return final_cell_.convert(residual);
    }

    /// Convenience: full pipeline over an arbitrary-length dot product.
    [[nodiscard]] double dot(std::span<const double> weights,
                             std::span<const double> activations, Rng& rng);

    /// Carried residual (the integrator state); exposed for tests.
    [[nodiscard]] double residual() const { return residual_; }

    [[nodiscard]] const VmacCell& cell() const { return cell_; }
    [[nodiscard]] double final_enob() const { return final_enob_; }

private:
    VmacCell cell_;
    VmacCell final_cell_;
    double final_enob_;
    double residual_ = 0.0;
};

}  // namespace ams::vmac
