#include "ams/vmac_cell.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ams::vmac {

VmacCell::VmacCell(const VmacConfig& config, const AnalogOptions& analog)
    : config_(config),
      analog_(analog),
      weight_codec_(config.bits_w),
      act_codec_(config.bits_x) {
    config_.validate();
    if (analog.reference_scale <= 0.0) {
        throw std::invalid_argument("VmacCell: reference_scale must be positive");
    }
    if (analog.multiplier_noise_sigma < 0.0 || analog.adc_noise_sigma < 0.0) {
        throw std::invalid_argument("VmacCell: noise sigmas must be non-negative");
    }
    quantizer_ = AdcQuantizer(config_.enob, full_scale(), analog_.reference_scale);
}

double VmacCell::full_scale() const {
    return config_.accumulation == Accumulation::kSum
               ? static_cast<double>(config_.nmult)
               : 1.0;
}

double VmacCell::adc_lsb() const {
    return quantizer_.lsb();
}

double VmacCell::effective_enob() const {
    const double lsb = adc_lsb();
    const double quant_var = lsb * lsb / 12.0;
    // Thermal contributions, referred to the ADC input. Multiplier noise
    // adds per product before the analog accumulation.
    const double avg_div = config_.accumulation == Accumulation::kAverage
                               ? static_cast<double>(config_.nmult)
                               : 1.0;
    const double mult_var = static_cast<double>(config_.nmult) *
                            analog_.multiplier_noise_sigma * analog_.multiplier_noise_sigma /
                            (avg_div * avg_div);
    const double adc_var = analog_.adc_noise_sigma * analog_.adc_noise_sigma;
    const double total_var = quant_var + mult_var + adc_var;
    // ENOB from LSB: range 2*FS divided into 2^ENOB steps.
    return effective_enob_from_rms(std::sqrt(total_var), full_scale());
}

namespace {
void check_operands(std::span<const double> w, std::span<const double> x, std::size_t nmult) {
    if (w.size() != x.size()) {
        throw std::invalid_argument("VmacCell: weight/activation count mismatch");
    }
    if (w.size() > nmult) {
        throw std::invalid_argument("VmacCell: more operand pairs than nmult");
    }
}
}  // namespace

double VmacCell::dot_ideal(std::span<const double> weights,
                           std::span<const double> activations) const {
    check_operands(weights, activations, config_.nmult);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += encode_weight(weights[i]) * encode_activation(activations[i]);
    }
    return acc;
}

double VmacCell::dot(std::span<const double> weights, std::span<const double> activations,
                     Rng& rng) const {
    check_operands(weights, activations, config_.nmult);
    const double sum = analog_sum(
        weights.size(), [&](std::size_t i) { return encode_weight(weights[i]); },
        [&](std::size_t i) { return encode_activation(activations[i]); },
        analog_.multiplier_noise_sigma, rng);
    return convert_sum(sum, rng);
}

double VmacCell::dot_tiled(std::span<const double> weights,
                           std::span<const double> activations, Rng& rng) const {
    if (weights.size() != activations.size()) {
        throw std::invalid_argument("VmacCell::dot_tiled: size mismatch");
    }
    double acc = 0.0;
    for (std::size_t start = 0; start < weights.size(); start += config_.nmult) {
        const std::size_t len = std::min(config_.nmult, weights.size() - start);
        acc += dot(weights.subspan(start, len), activations.subspan(start, len), rng);
    }
    return acc;
}

}  // namespace ams::vmac
