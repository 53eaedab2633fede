// The baseline arm of the lane kernels and the dispatch between the arms.
#define AMSNET_LANES_ARM base
#include "ams/vmac_lanes.inc"

#include "runtime/simd.hpp"

namespace ams::vmac::lanes {

#if defined(AMSNET_HAVE_AVX2)
namespace avx2 {
extern const detail::Kernels kKernels;  // vmac_lanes_avx2.cpp
}  // namespace avx2
#endif

namespace {

/// The active SIMD arm's kernels.
const detail::Kernels& kernels() {
#if defined(AMSNET_HAVE_AVX2)
    if (simd::active_level() == simd::Level::kAvx2) return avx2::kKernels;
#endif
    return base::kKernels;
}

}  // namespace

double exact_reciprocal(std::uint32_t d) {
    if (d == 0 || d > (1u << 16)) return 0.0;
    const double divisor = static_cast<double>(d);
    const double inv = 1.0 / divisor;
    for (std::uint32_t m = 0; m <= d; ++m) {
        const double code = static_cast<double>(m);
        if (code * inv != code / divisor) return 0.0;
    }
    return inv;
}

void round_half_away(const double* in, double* out, std::size_t n) {
    kernels().round_half_away(in, out, n);
}

void convert(const AdcStep& adc, const double* in, double* out, std::size_t n) {
    kernels().convert(adc, in, out, n);
}

void quantize_sign_magnitude(const float* src, std::size_t stride, std::size_t rows,
                             std::size_t cols, std::uint32_t full_scale, double* dst) {
    kernels().quantize_float(src, stride, rows, cols, full_scale, dst);
}

void quantize_sign_magnitude(const double* src, std::size_t stride, std::size_t rows,
                             std::size_t cols, std::uint32_t full_scale, double* dst) {
    kernels().quantize_double(src, stride, rows, cols, full_scale, dst);
}

void encode_slices(const float* src, std::size_t stride, std::size_t rows, std::size_t cols,
                   const SliceCodec& codec, double* dst) {
    kernels().slices_float(src, stride, rows, cols, codec, dst);
}

void encode_slices(const double* src, std::size_t stride, std::size_t rows, std::size_t cols,
                   const SliceCodec& codec, double* dst) {
    kernels().slices_double(src, stride, rows, cols, codec, dst);
}

void chunk_sums(const TileSums& t, const OperandLayout& layout, double* sums,
                std::int64_t* mantissa_acc) {
    kernels().chunk_sums(t, layout, sums, mantissa_acc);
}

void noisy_sums(const TileSums& t, const OperandLayout& layout, std::size_t l0, const Group& g,
                double* dst) {
    kernels().noisy_sums(t, layout, l0, g, dst);
}

void convert_cell(const CellParams& p, const Group& g, float* out) {
    kernels().convert_cell(p, g, out);
}

void convert_partitioned(const PartitionParams& p, const Group& g, float* out) {
    kernels().convert_partitioned(p, g, out);
}

void convert_delta_sigma(const DeltaSigmaParams& p, const Group& g, float* out) {
    kernels().convert_delta_sigma(p, g, out);
}

void add_draws(const Group& g, float* out) { kernels().add_draws(g, out); }

}  // namespace ams::vmac::lanes

namespace ams::vmac {

void AdcQuantizer::convert(const double* in, double* out, std::size_t n) const {
    lanes::convert(step_, in, out, n);
}

}  // namespace ams::vmac
