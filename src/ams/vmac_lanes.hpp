// The staged VMAC engine's data views and its lane kernels.
//
// VmacConv2d runs every chunk in three stages (DESIGN.md §9): encode the
// operands once, sum each chunk for a block of output pixels, then convert
// each pixel's chunks. This header holds the plain-data views those stages
// pass between the engine and a VmacBackend (OperandLayout, OperandPlanes,
// TileSums, DrawPlan) and the loops that do the arithmetic in vector
// lanes, one lane per pixel (or per operand in stage 1).
//
// The kernels live in one plain-C++ source, vmac_lanes.inc, compiled twice:
// at the build's baseline ISA (vmac_lanes.cpp) and with -mavx2
// (vmac_lanes_avx2.cpp). Each call below runs the arm simd::active_level()
// selects. Every lane repeats the datapath's scalar operations in the
// scalar order, and ams_vmac compiles with -ffp-contract=off, so both arms
// return the scalar code's bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "ams/adc_quantizer.hpp"

namespace ams::vmac {

/// Stage 3's noise draws for one output pixel, in the order the per-chunk
/// accumulate() stream draws them: for each chunk and each of its analog
/// sums (OperandLayout::pairs()), one multiplier draw per operand pair
/// (product_sigma > 0) and then one ADC draw (adc != kNone); after the
/// last chunk, one final draw (final_sigma > 0). The draws never depend on
/// the data.
struct DrawPlan {
    enum class Adc { kNone, kNormal, kUniform };

    double product_sigma = 0.0;  ///< normal(0, product_sigma) per operand pair
    Adc adc = Adc::kNone;        ///< normal(adc_a, adc_b) or uniform(adc_a, adc_b)
    double adc_a = 0.0;
    double adc_b = 0.0;
    double final_sigma = 0.0;  ///< normal(0, final_sigma) per output
};

/// How a backend's stage 1 lays out its encoded operands, and what its
/// stage 3 draws.
struct OperandLayout {
    std::size_t weight_planes = 1;  ///< value planes per weight (NW slices when partitioned)
    std::size_t act_planes = 1;     ///< value planes per activation (NX slices when partitioned)
    /// Block floating point: int32 mantissas plus one quantum per (chunk,
    /// column) in place of value planes.
    bool mantissas = false;
    /// Multiplier noise enters inside each analog sum, so stage 2 cannot
    /// precompute it: stage 3 forms every chunk's sum from the operands,
    /// with its draws.
    bool sums_per_chunk = false;
    DrawPlan draws;

    /// Analog partial sums per chunk: one per (weight plane, activation plane).
    [[nodiscard]] std::size_t pairs() const { return weight_planes * act_planes; }

    /// Stage-3 draws per output pixel of a `rows`-long dot product in
    /// `chunks` chunks.
    [[nodiscard]] std::size_t draws_per_output(std::size_t rows, std::size_t chunks) const {
        return (draws.product_sigma > 0.0 ? pairs() * rows : 0) +
               (draws.adc != DrawPlan::Adc::kNone ? pairs() * chunks : 0) +
               (draws.final_sigma > 0.0 ? 1 : 0);
    }
};

/// Encoded operands of a rows x cols block. Rows run along the dot product
/// (chunk c holds rows [c * Nmult, min((c + 1) * Nmult, rows))); columns
/// are output pixels (one for an out-channel's weights).
struct OperandPlanes {
    double* values = nullptr;           ///< [plane][row][col]
    std::int32_t* mantissas = nullptr;  ///< [row][col] (OperandLayout::mantissas)
    double* quanta = nullptr;           ///< [chunk][col] (OperandLayout::mantissas)
    std::size_t rows = 0;
    std::size_t cols = 0;
};

/// Stage 3's input for one tile: the output pixels (activation columns)
/// of one (image, out-channel) pair, their encoded operands and, unless
/// OperandLayout::sums_per_chunk, their stage-2 analog sums.
struct TileSums {
    const double* sums = nullptr;     ///< [chunk][pair][pixel], pair = p * act_planes + q
    OperandPlanes w;                  ///< the out-channel's weights (cols = 1)
    OperandPlanes x;                  ///< the pixels' activations (cols = pixels)
    const double* offsets = nullptr;  ///< per-cell output offsets [chunk], or null
    std::size_t nmult = 0;
    std::size_t chunks = 0;
    std::size_t pairs = 1;
    /// Scratch of one lane group: lanes::kLanes *
    /// OperandLayout::draws_per_output() doubles for its draws and, when
    /// sums_per_chunk, lanes::kLanes * chunks * pairs doubles for its
    /// analog sums.
    double* draws = nullptr;
    double* group_sums = nullptr;

    [[nodiscard]] std::size_t pixels() const { return x.cols; }
    [[nodiscard]] std::size_t chunk_start(std::size_t c) const { return c * nmult; }
    [[nodiscard]] std::size_t chunk_len(std::size_t c) const {
        return std::min(nmult, w.rows - c * nmult);
    }
};

namespace lanes {

/// Pixel lanes per group in stages 2 and 3; stage 1 encodes this many
/// operands per step. Narrower tails run the same loops one lane wide.
inline constexpr std::size_t kLanes = 8;

/// One lane group of a tile in stage 3: `width` <= kLanes pixels. Lane j's
/// analog sum of chunk c, pair pq is sums[(c * pairs + pq) * stride + j];
/// its draws (DrawPlan order, stored [slot][lane]) are
/// product_draws[(pq * rows + k) * width + j] for operand row k,
/// adc_draws[(c * pairs + pq) * width + j] and final_draws[j], each null
/// when the plan has none.
struct Group {
    const double* sums = nullptr;
    std::size_t stride = 0;
    std::size_t width = 0;
    std::size_t chunks = 0;
    std::size_t pairs = 1;
    std::size_t rows = 0;
    std::size_t nmult = 0;
    const double* offsets = nullptr;  ///< per-cell output offsets [chunk], or null
    const double* product_draws = nullptr;
    const double* adc_draws = nullptr;
    const double* final_draws = nullptr;
};

/// The single-ADC datapaths (cell, block floating point):
/// convert_chunk_sum on one converter.
struct CellParams {
    AdcStep adc;
    double nmult = 1.0;
    bool averaging = false;
};

/// Partitioned long multiplication: one converter and one shift-add
/// weight per pair.
struct PartitionParams {
    const AdcStep* adcs = nullptr;
    const double* weights = nullptr;
};

/// Delta-sigma: the per-cycle converter and the final one.
struct DeltaSigmaParams {
    AdcStep cycle;
    AdcStep final;
};

/// A sign-magnitude codec's partitioned slices (PartitionedVmac).
struct SliceCodec {
    std::uint32_t full_scale = 1;  ///< magnitude codes 0..full_scale
    std::size_t count = 1;         ///< slices, slice 0 most significant
    std::size_t bits = 1;          ///< bits per slice
    /// exact_reciprocal(2^bits - 1): each slice normalizes by a product
    /// instead of a division when it is nonzero.
    double inv_max = 0.0;
};

/// 1 / d if m * (1 / d) rounds to the same double as m / d for every
/// integer m in [0, d] (checked, for d up to 2^16), else 0.
[[nodiscard]] double exact_reciprocal(std::uint32_t d);

/// quant::round_half_away over n values (in == out allowed).
void round_half_away(const double* in, double* out, std::size_t n);

/// AdcQuantizer::convert over n values (in == out allowed).
void convert(const AdcStep& adc, const double* in, double* out, std::size_t n);

/// Stage 1: dst[r * cols + c] = SignMagCodec(full_scale).quantize of
/// src[r * stride + c].
void quantize_sign_magnitude(const float* src, std::size_t stride, std::size_t rows,
                             std::size_t cols, std::uint32_t full_scale, double* dst);
void quantize_sign_magnitude(const double* src, std::size_t stride, std::size_t rows,
                             std::size_t cols, std::uint32_t full_scale, double* dst);

/// Stage 1: slice p of src[r * stride + c] (PartitionedVmac::encode_*) at
/// dst[(p * rows + r) * cols + c].
void encode_slices(const float* src, std::size_t stride, std::size_t rows, std::size_t cols,
                   const SliceCodec& codec, double* dst);
void encode_slices(const double* src, std::size_t stride, std::size_t rows, std::size_t cols,
                   const SliceCodec& codec, double* dst);

/// Stage 2 (no RNG): every chunk's analog partial sums for all pixels of a
/// tile, into t.sums's layout (`sums`); `mantissa_acc` holds t.pixels()
/// int64 lanes for the block floating-point layout.
void chunk_sums(const TileSums& t, const OperandLayout& layout, double* sums,
                std::int64_t* mantissa_acc);

/// Stage 3, OperandLayout::sums_per_chunk: the noisy analog sums of the
/// pixels [l0, l0 + g.width) of `t`, with g's product draws, into
/// dst[(c * pairs + pq) * g.width + j].
void noisy_sums(const TileSums& t, const OperandLayout& layout, std::size_t l0, const Group& g,
                double* dst);

/// Stage 3: converts a group and writes out[j] for j < g.width.
void convert_cell(const CellParams& p, const Group& g, float* out);
void convert_partitioned(const PartitionParams& p, const Group& g, float* out);
void convert_delta_sigma(const DeltaSigmaParams& p, const Group& g, float* out);
/// Per-VMAC noise: each chunk's exact sum plus its (uniform) ADC draw.
void add_draws(const Group& g, float* out);

}  // namespace lanes
}  // namespace ams::vmac
