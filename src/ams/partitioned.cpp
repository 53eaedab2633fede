#include "ams/partitioned.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ams/adc_quantizer.hpp"

namespace ams::vmac {

PartitionedVmac::PartitionedVmac(const VmacConfig& base, const PartitionOptions& options)
    : base_(base),
      options_(options),
      mag_bits_w_(base.bits_w - 1),
      mag_bits_x_(base.bits_x - 1),
      weight_codec_(base.bits_w),
      act_codec_(base.bits_x) {
    base_.validate();
    if (options.nw == 0 || options.nx == 0) {
        throw std::invalid_argument("PartitionedVmac: chunk counts must be > 0");
    }
    if (mag_bits_w_ % options.nw != 0 || mag_bits_x_ % options.nx != 0) {
        throw std::invalid_argument(
            "PartitionedVmac: magnitude bits must divide evenly into chunks");
    }
    if (options.enob_partial <= 0.0) {
        throw std::invalid_argument("PartitionedVmac: enob_partial must be positive");
    }
    chunk_bits_w_ = mag_bits_w_ / options.nw;
    chunk_bits_x_ = mag_bits_x_ / options.nx;
    if (chunk_bits_w_ == 0 || chunk_bits_x_ == 0) {
        throw std::invalid_argument("PartitionedVmac: empty chunks");
    }
    const auto slices = [](const quant::SignMagCodec& codec, std::size_t count,
                           std::size_t bits) {
        return lanes::SliceCodec{codec.full_scale(), count, bits,
                                 lanes::exact_reciprocal((1u << bits) - 1u)};
    };
    weight_slices_ = slices(weight_codec_, options_.nw, chunk_bits_w_);
    activation_slices_ = slices(act_codec_, options_.nx, chunk_bits_x_);
    for (std::size_t p = 0; p < options_.nw; ++p) {
        for (std::size_t q = 0; q < options_.nx; ++q) {
            // Partial ADC: full scale Nmult, resolution discounted with depth.
            partial_adcs_.emplace_back(partial_enob(p, q), static_cast<double>(base_.nmult),
                                       options_.analog.reference_scale);
            partial_weights_.push_back(partial_weight(p, q));
        }
    }
}

double PartitionedVmac::partial_enob(std::size_t p, std::size_t q) const {
    const double depth = static_cast<double>(p + q);
    return std::max(options_.min_enob,
                    options_.enob_partial - options_.significance_drop * depth);
}

double PartitionedVmac::partial_weight(std::size_t p, std::size_t q) const {
    const double fs_w = static_cast<double>(weight_codec_.full_scale());
    const double fs_x = static_cast<double>(act_codec_.full_scale());
    const std::uint32_t chunk_max_w = (1u << chunk_bits_w_) - 1u;
    const std::uint32_t chunk_max_x = (1u << chunk_bits_x_) - 1u;
    const std::size_t shift_w = chunk_bits_w_ * (options_.nw - 1 - p);
    const std::size_t shift_x = chunk_bits_x_ * (options_.nx - 1 - q);
    return static_cast<double>(chunk_max_w) * std::exp2(static_cast<double>(shift_w)) / fs_w *
           static_cast<double>(chunk_max_x) * std::exp2(static_cast<double>(shift_x)) / fs_x;
}

double PartitionedVmac::quantization_error_stddev() const {
    double var = 0.0;
    for (std::size_t p = 0; p < options_.nw; ++p) {
        for (std::size_t q = 0; q < options_.nx; ++q) {
            const double lsb = partial_adcs_[p * options_.nx + q].lsb();
            const double w = partial_weight(p, q);
            var += w * w * lsb * lsb / 12.0;
        }
    }
    return std::sqrt(var);
}

double PartitionedVmac::effective_enob() const {
    return effective_enob_from_rms(quantization_error_stddev(),
                                   static_cast<double>(base_.nmult));
}

double PartitionedVmac::dot_ideal(std::span<const double> weights,
                                  std::span<const double> activations) const {
    if (weights.size() != activations.size() || weights.size() > base_.nmult) {
        throw std::invalid_argument("PartitionedVmac::dot_ideal: bad operand count");
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weight_codec_.quantize(weights[i]) * act_codec_.quantize(activations[i]);
    }
    return acc;
}

double PartitionedVmac::dot(std::span<const double> weights,
                            std::span<const double> activations, Rng& rng) const {
    if (weights.size() != activations.size() || weights.size() > base_.nmult) {
        throw std::invalid_argument("PartitionedVmac::dot: bad operand count");
    }
    const std::size_t n = weights.size();
    // Slice planes [slice][i], encoded once per call into per-thread
    // buffers that only grow.
    thread_local std::vector<double> ws, xs;
    ws.resize(options_.nw * n);
    xs.resize(options_.nx * n);
    for (std::size_t i = 0; i < n; ++i) {
        encode_weight(weights[i], ws.data() + i, n);
        encode_activation(activations[i], xs.data() + i, n);
    }
    return convert_partials(
        [&](std::size_t p, std::size_t q, std::size_t /*pq*/) {
            return analog_sum(
                n, [&](std::size_t i) { return ws[p * n + i]; },
                [&](std::size_t i) { return xs[q * n + i]; },
                options_.analog.multiplier_noise_sigma, rng);
        },
        rng);
}

}  // namespace ams::vmac
