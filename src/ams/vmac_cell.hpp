// VmacCell: bit-exact behavioural simulation of the AMS VMAC of Fig. 1.
//
// Where ErrorInjector applies the paper's *statistical* model (Eq. 2) at
// the network level, VmacCell simulates one physical cell sample by
// sample: sign-magnitude operand encoding, error-free D-to-A multipliers
// (optionally with thermal noise), analog summation or averaging, ADC
// thermal noise, clipping, and mid-tread quantization. The tests and the
// vmac microbench use it to validate that the lumped statistical model
// matches what the hardware-level cell actually produces.
#pragma once

#include <span>
#include <vector>

#include "ams/adc_quantizer.hpp"
#include "ams/vmac_config.hpp"
#include "quant/fixed_point.hpp"
#include "tensor/rng.hpp"

namespace ams::vmac {

/// Analog non-idealities of the cell, expressed at the ADC input in
/// dot-product units (one ideal product spans [-1, 1]).
struct AnalogOptions {
    /// Std-dev of additive thermal noise per D-to-A multiplier output.
    double multiplier_noise_sigma = 0.0;
    /// Std-dev of additive thermal noise at the ADC input.
    double adc_noise_sigma = 0.0;
    /// ADC reference scale relative to the natural full scale (Sec. 4,
    /// method 3): the converter spans [-ref, +ref] with
    /// ref = reference_scale * full_scale; inputs beyond it clip.
    double reference_scale = 1.0;
};

/// Analog sum of `len` multiplier outputs: the products
/// `weight(i) * activation(i)` of encoded operands, added in ascending i
/// starting from 0, each with the multiplier's thermal noise of std-dev
/// `noise_sigma` when it is positive (drawn in that order). Shared by the
/// cell and the partitioned datapath's partial VMACs.
template <typename Weight, typename Activation>
[[nodiscard]] double analog_sum(std::size_t len, Weight&& weight, Activation&& activation,
                                double noise_sigma, Rng& rng) {
    double sum = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
        double product = weight(i) * activation(i);
        if (noise_sigma > 0.0) product += rng.normal(0.0, noise_sigma);
        sum += product;
    }
    return sum;
}

/// The conversion that ends a chunk of every single-ADC datapath (the
/// cell, block floating point): the averaging division, ADC thermal
/// noise, clip + quantize on `adc`, and the digital rescale of averaging
/// hardware (Sec. 2).
[[nodiscard]] inline double convert_chunk_sum(double analog_sum, const AdcQuantizer& adc,
                                              const VmacConfig& config,
                                              const AnalogOptions& analog, Rng& rng) {
    const bool averaging = config.accumulation == Accumulation::kAverage;
    if (averaging) analog_sum /= static_cast<double>(config.nmult);
    if (analog.adc_noise_sigma > 0.0) {
        analog_sum += rng.normal(0.0, analog.adc_noise_sigma);
    }
    const double digital = adc.convert(analog_sum);
    return averaging ? digital * static_cast<double>(config.nmult) : digital;
}

/// One AMS vector multiply-accumulate cell.
class VmacCell {
public:
    /// The cell's ADC uses `config.enob` as its *quantizer* resolution;
    /// thermal noise from `analog` adds on top, so the composite effective
    /// ENOB (effective_enob()) is <= config.enob.
    /// Throws std::invalid_argument on invalid config or reference_scale <= 0.
    VmacCell(const VmacConfig& config, const AnalogOptions& analog = {});

    /// Digital full scale of the analog dot product: Nmult for summation,
    /// 1 for averaging.
    [[nodiscard]] double full_scale() const;

    /// ADC step: 2 * reference_scale * full_scale / 2^enob.
    [[nodiscard]] double adc_lsb() const;

    /// Composite effective ENOB accounting for quantization plus thermal
    /// noise (variance sum), per the standard ENOB definition.
    [[nodiscard]] double effective_enob() const;

    // ----- the datapath's pieces: the scalar form of VmacConv2d's stages,
    // which its lane kernels (ams/vmac_lanes.inc) repeat bit for bit -----

    /// Stage-1 operand encodings: the BW-bit (weights) or BX-bit
    /// (activations) sign-magnitude value nearest to a real operand.
    [[nodiscard]] double encode_weight(double w) const { return weight_codec_.quantize(w); }
    [[nodiscard]] double encode_activation(double x) const { return act_codec_.quantize(x); }

    /// Stage 3: digital output for one chunk's analog sum
    /// (convert_chunk_sum on the cell's converter).
    [[nodiscard]] double convert_sum(double analog_sum, Rng& rng) const {
        return convert_chunk_sum(analog_sum, quantizer_, config_, analog_, rng);
    }

    /// Computes the cell's digital output for `nmult` (or fewer) operand
    /// pairs. Values are encoded to BW / BX-bit sign-magnitude first, so
    /// the caller may pass unquantized reals. For averaging hardware the
    /// returned value is already rescaled by Nmult (Sec. 2: averaging just
    /// moves the binary point; the digital interpretation restores it).
    /// Throws std::invalid_argument if sizes mismatch or exceed nmult.
    [[nodiscard]] double dot(std::span<const double> weights,
                             std::span<const double> activations, Rng& rng) const;

    /// The ideal (infinite-precision analog) dot product of the *encoded*
    /// operands — i.e. after operand quantization but before any analog
    /// error. dot() - dot_ideal() is exactly the AMS error E_VMAC.
    [[nodiscard]] double dot_ideal(std::span<const double> weights,
                                   std::span<const double> activations) const;

    /// Computes a long dot product by tiling across ceil(n/Nmult) cells
    /// and accumulating the digital outputs (paper Sec. 2: partial sums
    /// add digitally with no further precision loss).
    [[nodiscard]] double dot_tiled(std::span<const double> weights,
                                   std::span<const double> activations, Rng& rng) const;

    [[nodiscard]] const VmacConfig& config() const { return config_; }
    [[nodiscard]] const AnalogOptions& analog() const { return analog_; }

    /// Mid-tread quantization of `v` to the cell's ADC grid, with clipping
    /// at +/- reference_scale * full_scale. Exposed for the extension
    /// methods (delta-sigma, partitioning) that reuse the converter.
    [[nodiscard]] double convert(double v) const { return quantizer_.convert(v); }

    /// The cell's converter (the shared quantizer model).
    [[nodiscard]] const AdcQuantizer& quantizer() const { return quantizer_; }

    /// The operand codecs behind encode_weight()/encode_activation().
    [[nodiscard]] const quant::SignMagCodec& weight_codec() const { return weight_codec_; }
    [[nodiscard]] const quant::SignMagCodec& act_codec() const { return act_codec_; }

private:
    VmacConfig config_;
    AnalogOptions analog_;
    quant::SignMagCodec weight_codec_;
    quant::SignMagCodec act_codec_;
    AdcQuantizer quantizer_;
};

}  // namespace ams::vmac
