// PartitionedVmac: multiplication partitioning (paper Sec. 4, method 1).
//
// "Based on long multiplication ... splitting the weight into NW parts
// and the activation into NX parts would require NW*NX multiplications of
// BW/NW-bit and BX/NX-bit numbers. Because the full precision of any
// partial product is smaller than that of the whole product, a
// lower-resolution ADC could be used than in the unpartitioned case while
// still incurring less injected error overall."
//
// Each (p, q) chunk pair forms its own analog VMAC over the Nmult operand
// pairs; its digital output is shifted by the chunk significances and the
// NW*NX partial results are added digitally.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ams/adc_quantizer.hpp"
#include "ams/vmac_cell.hpp"
#include "ams/vmac_lanes.hpp"

namespace ams::vmac {

/// Partitioning parameters.
struct PartitionOptions {
    std::size_t nw = 2;          ///< weight chunks
    std::size_t nx = 2;          ///< activation chunks
    double enob_partial = 8.0;   ///< ADC resolution for each partial conversion
    /// ENOB reduction per unit of chunk-significance depth (p + q): the
    /// paper notes low-significance partial products can be converted at
    /// lower precision. 0 disables the discount.
    double significance_drop = 0.0;
    /// Floor for the discounted resolution.
    double min_enob = 4.0;
    AnalogOptions analog;
};

/// AMS VMAC computed via partitioned long multiplication.
class PartitionedVmac {
public:
    /// `base.bits_w - 1` must be divisible by nw and `base.bits_x - 1` by
    /// nx (sign-magnitude: the sign bit is shared by all chunks). Throws
    /// std::invalid_argument otherwise.
    PartitionedVmac(const VmacConfig& base, const PartitionOptions& options);

    // ----- the datapath's pieces: the scalar form of VmacConv2d's stages,
    // which its lane kernels (ams/vmac_lanes.inc) repeat bit for bit -----

    /// Stage-1 operand encodings: the sign-magnitude code's NW weight (NX
    /// activation) slices, slice p = 0 most significant, each normalized
    /// to [0, 1] and carrying the operand's sign. Writes slice p to
    /// `slices[p * stride]`.
    void encode_weight(double w, double* slices, std::size_t stride) const {
        encode_slices(weight_codec_.encode(w), options_.nw, chunk_bits_w_, slices, stride);
    }
    void encode_activation(double x, double* slices, std::size_t stride) const {
        encode_slices(act_codec_.encode(x), options_.nx, chunk_bits_x_, slices, stride);
    }

    /// Stage 3: the chunk's digital output. For each partial (p, q) in
    /// order — pair index pq = p * nx + q — it takes the analog sum
    /// `analog(p, q, pq)`, adds ADC thermal noise, converts at the
    /// partial's resolution, and shift-adds.
    template <typename Analog>
    [[nodiscard]] double convert_partials(Analog&& analog, Rng& rng) const {
        const std::size_t nw = options_.nw;
        const std::size_t nx = options_.nx;
        const double sigma = options_.analog.adc_noise_sigma;
        const AdcQuantizer* adcs = partial_adcs_.data();
        const double* weights = partial_weights_.data();
        double result = 0.0;
        for (std::size_t p = 0, pq = 0; p < nw; ++p) {
            for (std::size_t q = 0; q < nx; ++q, ++pq) {
                double sum = analog(p, q, pq);
                if (sigma > 0.0) sum += rng.normal(0.0, sigma);
                result += adcs[pq].convert(sum) * weights[pq];
            }
        }
        return result;
    }

    /// Digital dot product of up to Nmult operand pairs through the
    /// partitioned datapath.
    [[nodiscard]] double dot(std::span<const double> weights,
                             std::span<const double> activations, Rng& rng) const;

    /// Operand-quantized exact dot product (no conversion error), for
    /// measuring the partitioned datapath's injected error.
    [[nodiscard]] double dot_ideal(std::span<const double> weights,
                                   std::span<const double> activations) const;

    /// ADC conversions needed per VMAC (= nw * nx).
    [[nodiscard]] std::size_t conversions_per_vmac() const {
        return options_.nw * options_.nx;
    }

    /// ADC resolution used for chunk pair (p, q); p = q = 0 is most
    /// significant.
    [[nodiscard]] double partial_enob(std::size_t p, std::size_t q) const;

    /// Analytic std-dev of the injected quantization error: the partial
    /// conversions' uniform errors (LSB^2/12 each) scaled by their digital
    /// shift-and-add weights, summed in variance. Thermal noise excluded.
    [[nodiscard]] double quantization_error_stddev() const;

    /// Equivalent monolithic-converter ENOB implied by
    /// quantization_error_stddev() at the cell's natural full scale — the
    /// number the paper compares against the unpartitioned datapath.
    [[nodiscard]] double effective_enob() const;

    /// Digital shift-and-add weight of partial (p, q): undoes the chunk
    /// normalizations and applies the binary-weighted significance.
    [[nodiscard]] double partial_weight(std::size_t p, std::size_t q) const;

    [[nodiscard]] const VmacConfig& base_config() const { return base_; }
    [[nodiscard]] const PartitionOptions& options() const { return options_; }

    /// The slicing encode_weight()/encode_activation() apply, as plain data.
    [[nodiscard]] const lanes::SliceCodec& weight_slices() const { return weight_slices_; }
    [[nodiscard]] const lanes::SliceCodec& activation_slices() const {
        return activation_slices_;
    }

    /// The partial converters and shift-add weights, by pair index p * nx + q.
    [[nodiscard]] const std::vector<AdcQuantizer>& partial_adcs() const { return partial_adcs_; }
    [[nodiscard]] const std::vector<double>& partial_weights() const { return partial_weights_; }

private:
    /// Slices of a sign-magnitude code: `count` chunks of `bits` bits,
    /// chunk 0 most significant, each normalized by its full scale and
    /// carrying the code's sign.
    static void encode_slices(const quant::SignMagCode& code, std::size_t count,
                              std::size_t bits, double* slices, std::size_t stride) {
        const std::uint32_t chunk_max = (1u << bits) - 1u;
        for (std::size_t p = 0; p < count; ++p) {
            const std::uint32_t chunk = (code.magnitude >> (bits * (count - 1 - p))) & chunk_max;
            const double v = static_cast<double>(chunk) / chunk_max;
            slices[p * stride] = code.negative ? -v : v;
        }
    }

    VmacConfig base_;
    PartitionOptions options_;
    std::size_t mag_bits_w_;    ///< BW - 1
    std::size_t mag_bits_x_;    ///< BX - 1
    std::size_t chunk_bits_w_;  ///< mag_bits_w / nw
    std::size_t chunk_bits_x_;  ///< mag_bits_x / nx
    quant::SignMagCodec weight_codec_;
    quant::SignMagCodec act_codec_;
    std::vector<AdcQuantizer> partial_adcs_;  ///< [p * nx + q]: partial_enob(p, q) converters
    std::vector<double> partial_weights_;     ///< [p * nx + q]: partial_weight(p, q)
    lanes::SliceCodec weight_slices_;
    lanes::SliceCodec activation_slices_;
};

}  // namespace ams::vmac
