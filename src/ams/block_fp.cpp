#include "ams/block_fp.hpp"

#include <cmath>
#include <stdexcept>

namespace ams::vmac {

BlockFpVmac::BlockFpVmac(const VmacConfig& config, std::size_t mantissa_bits_w,
                         std::size_t mantissa_bits_x, const AnalogOptions& analog)
    : config_(config), analog_(analog), mw_(mantissa_bits_w), mx_(mantissa_bits_x) {
    config_.validate();
    if (mw_ < 2 || mw_ > 30 || mx_ < 2 || mx_ > 30) {
        throw std::invalid_argument("BlockFpVmac: mantissa bits must be in [2, 30]");
    }
    if (analog_.reference_scale <= 0.0) {
        throw std::invalid_argument("BlockFpVmac: reference_scale must be positive");
    }
    if (analog_.multiplier_noise_sigma < 0.0 || analog_.adc_noise_sigma < 0.0) {
        throw std::invalid_argument("BlockFpVmac: noise sigmas must be non-negative");
    }
    quantizer_ = AdcQuantizer(config_.enob, full_scale(), analog_.reference_scale);
}

double BlockFpVmac::full_scale() const {
    return config_.accumulation == Accumulation::kSum ? static_cast<double>(config_.nmult)
                                                      : 1.0;
}

double BlockFpVmac::dot(std::span<const double> weights, std::span<const double> activations,
                        Rng& rng) const {
    if (weights.size() != activations.size()) {
        throw std::invalid_argument("BlockFpVmac: weight/activation count mismatch");
    }
    if (weights.size() > config_.nmult) {
        throw std::invalid_argument("BlockFpVmac: more operand pairs than nmult");
    }
    const std::size_t n = weights.size();
    const double qw = weight_quantum(weights.data(), n, 1);
    const double qx = activation_quantum(activations.data(), n, 1);
    // q = qw * qx is a product of powers of two: the mantissa dot scales
    // back to the value domain exactly (no rounding in the multiply).
    const double sum = analog_sum(
        n, [&](std::size_t i) { return mantissa(weights[i], qw); },
        [&](std::size_t i) { return mantissa(activations[i], qx); }, qw * qx, rng);
    return convert_sum(sum, rng);
}

double BlockFpVmac::effective_enob() const {
    const double lsb = quantizer_.lsb();
    const double quant_var = lsb * lsb / 12.0;
    const double avg_div = config_.accumulation == Accumulation::kAverage
                               ? static_cast<double>(config_.nmult)
                               : 1.0;
    // Worst-case mantissa quanta: operands at full scale (|v| <= 1) give
    // block exponent 1, quantum 2^(1 - m). Per product the mantissa
    // rounding contributes ~ (qw^2 E[x^2] + qx^2 E[w^2]) / 12, bounded
    // with E[.^2] <= 1; nmult products accumulate before the (optional)
    // averaging division.
    const double qw = std::exp2(1.0 - static_cast<double>(mw_));
    const double qx = std::exp2(1.0 - static_cast<double>(mx_));
    const double mant_var = static_cast<double>(config_.nmult) * (qw * qw + qx * qx) / 12.0 /
                            (avg_div * avg_div);
    const double mult_var = static_cast<double>(config_.nmult) *
                            analog_.multiplier_noise_sigma * analog_.multiplier_noise_sigma /
                            (avg_div * avg_div);
    const double adc_var = analog_.adc_noise_sigma * analog_.adc_noise_sigma;
    const double total = quant_var + mant_var + mult_var + adc_var;
    return effective_enob_from_rms(std::sqrt(total), full_scale());
}

}  // namespace ams::vmac
