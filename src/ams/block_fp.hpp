// BlockFpVmac: adaptive block floating-point VMAC datapath.
//
// Instead of the cell's fixed sign-magnitude operand grids, each chunk's
// operand vector shares one block exponent (the max exponent over the
// chunk, "adaptive" because it follows the data): every value becomes an
// integer mantissa times a power-of-two quantum, the dot product is an
// exact integer multiply-accumulate, and the result returns to the
// analog value domain through two power-of-two scales (exact in IEEE
// arithmetic). The ADC then converts the analog accumulation exactly as
// in VmacCell — one conversion per chunk — so the datapath slots into
// the VmacBackend cost contract with conversions_per_vmac() == 1.
//
// Compared to the fixed-grid cell, small-magnitude chunks keep far more
// relative precision (their block exponent shrinks the quantum), while
// worst-case full-scale chunks match a (mantissa_bits)-bit fixed grid.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "ams/adc_quantizer.hpp"
#include "ams/vmac_cell.hpp"
#include "ams/vmac_config.hpp"
#include "tensor/rng.hpp"

namespace ams::vmac {

/// One block-floating-point VMAC. Stateless across chunks (clone-safe).
class BlockFpVmac {
public:
    /// `mantissa_bits_*` are the magnitude bits per operand mantissa
    /// (sign carried separately, like the cell's sign-magnitude codecs).
    /// Throws std::invalid_argument on invalid config/analog or mantissa
    /// bits outside [2, 30].
    BlockFpVmac(const VmacConfig& config, std::size_t mantissa_bits_w,
                std::size_t mantissa_bits_x, const AnalogOptions& analog);

    // ----- the datapath's pieces: VmacConv2d's stage 1 runs the encodings;
    // its lane kernels (ams/vmac_lanes.inc) repeat the sum and conversion -----

    /// Block quantum 2^(e_max - mantissa_bits) of `len` values
    /// `values[i * stride]`, where e_max is their shared (maximum) frexp
    /// exponent; 1 for an all-zero block. Every |v| of the block then
    /// encodes as a mantissa of magnitude <= 2^mantissa_bits.
    template <typename T>
    [[nodiscard]] static double block_quantum(const T* values, std::size_t len,
                                              std::size_t stride, std::size_t mantissa_bits) {
        double max_abs = 0.0;
        for (std::size_t i = 0; i < len; ++i) {
            max_abs = std::max(max_abs, std::fabs(static_cast<double>(values[i * stride])));
        }
        if (max_abs == 0.0) return 1.0;
        int e = 0;
        (void)std::frexp(max_abs, &e);  // max_abs = m * 2^e, m in [0.5, 1)
        return std::ldexp(1.0, e - static_cast<int>(mantissa_bits));
    }

    /// Stage-1 operand encodings: the block quantum of a chunk's weights
    /// (activations) and one operand's integer mantissa on it.
    template <typename T>
    [[nodiscard]] double weight_quantum(const T* w, std::size_t len, std::size_t stride) const {
        return block_quantum(w, len, stride, mw_);
    }
    template <typename T>
    [[nodiscard]] double activation_quantum(const T* x, std::size_t len,
                                            std::size_t stride) const {
        return block_quantum(x, len, stride, mx_);
    }
    [[nodiscard]] static std::int32_t mantissa(double v, double quantum) {
        return static_cast<std::int32_t>(quant::round_half_away(v / quantum));
    }

    /// Analog sum of `len` mantissa pairs `weight(i)`, `activation(i)` on
    /// quanta whose product is `quantum`: the exact int64 mantissa dot,
    /// scaled back to the value domain (q is a power of two, so the scale
    /// is exact). With multiplier noise each product instead enters a
    /// double sum with its own noise draw, in ascending i.
    template <typename Weight, typename Activation>
    [[nodiscard]] double analog_sum(std::size_t len, Weight&& weight, Activation&& activation,
                                    double quantum, Rng& rng) const {
        if (analog_.multiplier_noise_sigma > 0.0) {
            // Thermal noise per D-to-A multiplier output, as in VmacCell.
            double sum = 0.0;
            for (std::size_t i = 0; i < len; ++i) {
                sum += static_cast<double>(std::int64_t{weight(i)} * activation(i)) * quantum +
                       rng.normal(0.0, analog_.multiplier_noise_sigma);
            }
            return sum;
        }
        // Exact integer accumulation: |mantissa product| <= 2^(mw+mx)
        // <= 2^60, and nmult products stay far below the int64 range for
        // any realistic vector length.
        std::int64_t acc = 0;
        for (std::size_t i = 0; i < len; ++i) acc += std::int64_t{weight(i)} * activation(i);
        return static_cast<double>(acc) * quantum;
    }

    /// Stage 3: digital output for one chunk's analog sum (the cell's
    /// averaging, ADC noise, conversion and rescale).
    [[nodiscard]] double convert_sum(double analog_sum, Rng& rng) const {
        return convert_chunk_sum(analog_sum, quantizer_, config_, analog_, rng);
    }

    /// Digital output for one chunk (<= nmult operand pairs): block
    /// encode, exact integer dot, optional analog noise, one ADC
    /// conversion. Mirrors VmacCell::dot's averaging and noise flow.
    /// Deterministic when both noise sigmas are zero (no rng draws).
    [[nodiscard]] double dot(std::span<const double> weights,
                             std::span<const double> activations, Rng& rng) const;

    /// Digital full scale of the analog dot product (as VmacCell).
    [[nodiscard]] double full_scale() const;

    /// Analytic composite ENOB: ADC quantization + thermal noise +
    /// worst-case (full-scale block) mantissa quantization variance.
    /// Adaptive-exponent gains on small-magnitude data are what the
    /// empirical sweeps measure; this is the conservative floor.
    [[nodiscard]] double effective_enob() const;

    [[nodiscard]] const VmacConfig& config() const { return config_; }
    [[nodiscard]] const AnalogOptions& analog() const { return analog_; }
    [[nodiscard]] std::size_t mantissa_bits_w() const { return mw_; }
    [[nodiscard]] std::size_t mantissa_bits_x() const { return mx_; }
    /// The datapath's converter.
    [[nodiscard]] const AdcQuantizer& quantizer() const { return quantizer_; }

private:
    VmacConfig config_;
    AnalogOptions analog_;
    std::size_t mw_;
    std::size_t mx_;
    AdcQuantizer quantizer_;
};

}  // namespace ams::vmac
