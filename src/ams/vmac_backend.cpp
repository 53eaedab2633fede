#include "ams/vmac_backend.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ams/adc_quantizer.hpp"
#include "ams/block_fp.hpp"
#include "ams/device_variation.hpp"
#include "runtime/metrics.hpp"

namespace ams::vmac {

namespace {

/// Conversion ledger: every chunk records itself plus its ADC conversions
/// under the backend's own counter, per accumulate() call or in bulk per
/// layer (count_conversions). These counters are the source of truth the
/// energy model's ConversionProfile-derived counts are cross-checked
/// against (tests/trace_test.cpp asserts exact agreement for all kinds).
void count_chunks(runtime::metrics::Counter counter, std::uint64_t chunks,
                  std::uint64_t conversions) {
    runtime::metrics::add(runtime::metrics::Counter::kVmacChunks, chunks);
    runtime::metrics::add(counter, conversions);
}

/// Stage 1 for datapaths that keep their operands as they are.
template <typename T>
void copy_operands(const T* src, std::size_t stride, const OperandPlanes& dst) {
    for (std::size_t r = 0; r < dst.rows; ++r) {
        for (std::size_t c = 0; c < dst.cols; ++c) {
            dst.values[r * dst.cols + c] = static_cast<double>(src[r * stride + c]);
        }
    }
}

/// Stage 3's draws of thermal noise: one multiplier draw per operand pair
/// and one ADC draw per analog sum.
DrawPlan analog_draws(const AnalogOptions& analog) {
    DrawPlan plan;
    plan.product_sigma = analog.multiplier_noise_sigma;
    if (analog.adc_noise_sigma > 0.0) {
        plan.adc = DrawPlan::Adc::kNormal;
        plan.adc_b = analog.adc_noise_sigma;
    }
    return plan;
}

/// convert_chunk_sum's parameters for the lane kernels.
lanes::CellParams cell_params(const AdcQuantizer& adc, const VmacConfig& config) {
    return {adc.step(), static_cast<double>(config.nmult),
            config.accumulation == Accumulation::kAverage};
}

/// Takes one lane group's draws from `rng`, pixel by pixel and, within a
/// pixel, in DrawPlan order, into the slots lanes::Group names (each null
/// when the plan has none of its kind).
void take_draws(const TileSums& t, const OperandLayout& layout, Rng& rng, lanes::Group& g) {
    const DrawPlan& plan = layout.draws;
    const std::size_t pairs = layout.pairs();
    const std::size_t w = g.width;
    double* next = t.draws;
    double* products = nullptr;
    double* adc = nullptr;
    double* final = nullptr;
    if (plan.product_sigma > 0.0) {
        products = next;
        next += pairs * t.w.rows * w;
    }
    if (plan.adc != DrawPlan::Adc::kNone) {
        adc = next;
        next += pairs * t.chunks * w;
    }
    if (plan.final_sigma > 0.0) final = next;
    g.product_draws = products;
    g.adc_draws = adc;
    g.final_draws = final;
    if (next == t.draws && final == nullptr) return;  // a draw-free datapath
    if (products == nullptr && final == nullptr) {
        // ADC draws only (per-VMAC noise, ADC noise): the common case, kept
        // to one call and one store per draw.
        const bool normal = plan.adc == DrawPlan::Adc::kNormal;
        const double a = plan.adc_a;
        const double b = plan.adc_b;
        const std::size_t slots = t.chunks * pairs;
        for (std::size_t j = 0; j < w; ++j) {
            double* slot = adc + j;
            for (std::size_t s = 0; s < slots; ++s, slot += w) {
                *slot = normal ? rng.normal(a, b) : rng.uniform(a, b);
            }
        }
        return;
    }
    for (std::size_t j = 0; j < w; ++j) {
        for (std::size_t c = 0; c < t.chunks; ++c) {
            const std::size_t k0 = t.chunk_start(c);
            for (std::size_t pq = 0; pq < pairs; ++pq) {
                if (products != nullptr) {
                    for (std::size_t k = k0; k < k0 + t.chunk_len(c); ++k) {
                        products[(pq * t.w.rows + k) * w + j] = rng.normal(0.0, plan.product_sigma);
                    }
                }
                if (adc != nullptr) {
                    adc[(c * pairs + pq) * w + j] = plan.adc == DrawPlan::Adc::kNormal
                                                        ? rng.normal(plan.adc_a, plan.adc_b)
                                                        : rng.uniform(plan.adc_a, plan.adc_b);
                }
            }
        }
        if (final != nullptr) final[j] = rng.normal(0.0, plan.final_sigma);
    }
}

/// Stage 3's one loop: the tile's pixels in lane groups of at most
/// lanes::kLanes. Each group takes its draws, forms its noisy chunk sums
/// where stage 2 left none (OperandLayout::sums_per_chunk), and then
/// `convert(group, out)` runs the datapath's lane kernel, which converts
/// chunk by chunk across the group's lanes.
template <typename Convert>
void convert_groups(const TileSums& t, const OperandLayout& layout, Rng& rng, float* out,
                    Convert&& convert) {
    const std::size_t pixels = t.pixels();
    for (std::size_t l0 = 0; l0 < pixels; l0 += lanes::kLanes) {
        lanes::Group g;
        g.width = std::min(lanes::kLanes, pixels - l0);
        g.chunks = t.chunks;
        g.pairs = t.pairs;
        g.rows = t.w.rows;
        g.nmult = t.nmult;
        g.offsets = t.offsets;
        take_draws(t, layout, rng, g);
        if (t.sums != nullptr) {
            g.sums = t.sums + l0;
            g.stride = pixels;
        } else {
            lanes::noisy_sums(t, layout, l0, g, t.group_sums);
            g.sums = t.group_sums;
            g.stride = g.width;
        }
        convert(g, out + l0);
    }
}

}  // namespace

const char* backend_kind_name(BackendKind kind) {
    switch (kind) {
        case BackendKind::kBitExact: return "bit_exact";
        case BackendKind::kPerVmacNoise: return "per_vmac_noise";
        case BackendKind::kPartitioned: return "partitioned";
        case BackendKind::kDeltaSigma: return "delta_sigma";
        case BackendKind::kReferenceScaled: return "reference_scaled";
        case BackendKind::kBlockFp: return "block_fp";
    }
    throw std::invalid_argument("backend_kind_name: unknown BackendKind");
}

BackendKind parse_backend_kind(std::string_view name) {
    for (BackendKind kind : all_backend_kinds()) {
        if (name == backend_kind_name(kind)) return kind;
    }
    std::string valid;
    for (BackendKind kind : all_backend_kinds()) {
        if (!valid.empty()) valid += ", ";
        valid += backend_kind_name(kind);
    }
    throw std::invalid_argument("parse_backend_kind: unknown backend '" + std::string(name) +
                                "' (valid: " + valid + ")");
}

const std::vector<BackendKind>& all_backend_kinds() {
    static const std::vector<BackendKind> kinds{
        BackendKind::kBitExact,    BackendKind::kPerVmacNoise,
        BackendKind::kPartitioned, BackendKind::kDeltaSigma,
        BackendKind::kReferenceScaled, BackendKind::kBlockFp};
    return kinds;
}

std::string BackendOptions::str() const {
    std::ostringstream os;
    os << backend_kind_name(kind);
    switch (kind) {
        case BackendKind::kPartitioned:
            os << "_nw" << partition.nw << "_nx" << partition.nx << "_p"
               << partition.enob_partial;
            if (partition.significance_drop > 0.0) os << "_d" << partition.significance_drop;
            break;
        case BackendKind::kDeltaSigma:
            // <= 0 means "derive from the per-cycle ENOB" (see make_backend).
            if (delta_sigma_final_enob > 0.0) {
                os << "_f" << delta_sigma_final_enob;
            } else {
                os << "_fauto";
            }
            break;
        case BackendKind::kReferenceScaled:
            os << "_s" << reference_scale;
            break;
        case BackendKind::kBlockFp:
            // 0 means "derive from the operand widths" (see make_backend).
            if (block_fp_mantissa_bits > 0) {
                os << "_m" << block_fp_mantissa_bits;
            } else {
                os << "_mauto";
            }
            break;
        default:
            break;
    }
    if (variation.active()) os << "_" << variation.str();
    return os.str();
}

namespace {

/// The VmacCell datapath: sign-magnitude operand codecs, analog sum, one
/// ADC conversion per chunk. Serves bit_exact (reference scale 1) and
/// reference_scaled (Sec. 4 method 3: ADC reference shrunk below the
/// natural full scale — finer LSBs, MSBs clip).
class CellBackend final : public VmacBackend {
public:
    CellBackend(BackendKind kind, const VmacConfig& config, const AnalogOptions& analog,
                double reference_scale)
        : kind_(kind),
          cell_(config, scaled(analog, reference_scale)),
          base_analog_(analog),
          scale_(reference_scale) {}

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override {
        count_conversions(1, 0);
        return cell_.dot(weights, activations, rng);
    }

    [[nodiscard]] OperandLayout operand_layout() const override {
        return {1, 1, false, cell_.analog().multiplier_noise_sigma > 0.0,
                analog_draws(cell_.analog())};
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        lanes::quantize_sign_magnitude(weights, 0, 1, dst.rows, cell_.weight_codec().full_scale(),
                                       dst.values);
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        lanes::quantize_sign_magnitude(activations, stride, dst.rows, dst.cols,
                                       cell_.act_codec().full_scale(), dst.values);
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        const lanes::CellParams params = cell_params(cell_.quantizer(), cell_.config());
        convert_groups(t, operand_layout(), rng, out, [&](const lanes::Group& g, float* o) {
            lanes::convert_cell(params, g, o);
        });
    }
    void count_conversions(std::uint64_t chunks, std::uint64_t /*outputs*/) const override {
        count_chunks(kind_ == BackendKind::kBitExact
                         ? runtime::metrics::Counter::kAdcConversionsBitExact
                         : runtime::metrics::Counter::kAdcConversionsReferenceScaled,
                     chunks, chunks);
    }

    [[nodiscard]] BackendKind kind() const override { return kind_; }
    [[nodiscard]] std::size_t conversions_per_vmac() const override { return 1; }
    [[nodiscard]] ConversionProfile conversion_profile() const override {
        return {{cell_.config().enob, 1.0, 0.0}};
    }
    /// Composite cell ENOB: quantization plus thermal noise. A reference
    /// scale s < 1 raises it by -log2(s): the clip-free optimum. The
    /// data-dependent clipping penalty is what sweep_reference_scales /
    /// bench_ext_reference_scaling measure empirically.
    [[nodiscard]] double effective_enob(std::size_t /*chunks_per_output*/) const override {
        return cell_.effective_enob();
    }
    [[nodiscard]] std::unique_ptr<VmacBackend> clone() const override {
        return std::make_unique<CellBackend>(kind_, cell_.config(), base_analog_, scale_);
    }
    [[nodiscard]] const VmacConfig& config() const override { return cell_.config(); }

private:
    static AnalogOptions scaled(AnalogOptions analog, double reference_scale) {
        analog.reference_scale *= reference_scale;
        return analog;
    }

    BackendKind kind_;
    VmacCell cell_;
    AnalogOptions base_analog_;  ///< pre-scaling options, for clone()
    double scale_;
};

/// Exact digital partial sums + one uniform(-LSB/2, LSB/2) draw per chunk:
/// per-VMAC granularity without operand re-quantization.
class PerVmacNoiseBackend final : public VmacBackend {
public:
    PerVmacNoiseBackend(const VmacConfig& config, const AnalogOptions& analog)
        : cell_(config, analog) {}

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override {
        if (weights.size() != activations.size() || weights.size() > cell_.config().nmult) {
            throw std::invalid_argument("PerVmacNoiseBackend: bad operand count");
        }
        count_conversions(1, 0);
        const double partial = analog_sum(
            weights.size(), [&](std::size_t i) { return weights[i]; },
            [&](std::size_t i) { return activations[i]; }, /*noise_sigma=*/0.0, rng);
        return convert(partial, rng);
    }

    /// Operands stay unquantized; exact sums, so stage 2 always applies.
    [[nodiscard]] OperandLayout operand_layout() const override {
        OperandLayout layout;
        layout.draws.adc = DrawPlan::Adc::kUniform;
        layout.draws.adc_a = -0.5 * cell_.adc_lsb();
        layout.draws.adc_b = 0.5 * cell_.adc_lsb();
        return layout;
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        copy_operands(weights, 1, dst);
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        copy_operands(activations, stride, dst);
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        convert_groups(t, operand_layout(), rng, out,
                       [](const lanes::Group& g, float* o) { lanes::add_draws(g, o); });
    }
    void count_conversions(std::uint64_t chunks, std::uint64_t /*outputs*/) const override {
        count_chunks(runtime::metrics::Counter::kAdcConversionsPerVmacNoise, chunks, chunks);
    }

    [[nodiscard]] BackendKind kind() const override { return BackendKind::kPerVmacNoise; }
    [[nodiscard]] std::size_t conversions_per_vmac() const override { return 1; }
    [[nodiscard]] ConversionProfile conversion_profile() const override {
        return {{cell_.config().enob, 1.0, 0.0}};
    }
    /// Pure quantization-error model: the nominal resolution.
    [[nodiscard]] double effective_enob(std::size_t /*chunks_per_output*/) const override {
        return cell_.config().enob;
    }
    [[nodiscard]] std::unique_ptr<VmacBackend> clone() const override {
        return std::make_unique<PerVmacNoiseBackend>(cell_.config(), cell_.analog());
    }
    [[nodiscard]] const VmacConfig& config() const override { return cell_.config(); }

private:
    /// The chunk's digital term: its exact partial sum plus the draw.
    double convert(double partial, Rng& rng) const {
        const double lsb = cell_.adc_lsb();
        return partial + rng.uniform(-0.5 * lsb, 0.5 * lsb);
    }

    VmacCell cell_;  ///< supplies the validated config and the ADC LSB
};

/// Sec. 4 method 1: NW x NX partial conversions at lower resolution.
class PartitionedBackend final : public VmacBackend {
public:
    PartitionedBackend(const VmacConfig& config, PartitionOptions options)
        : vmac_(config, options) {
        for (const AdcQuantizer& adc : vmac_.partial_adcs()) steps_.push_back(adc.step());
    }

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override {
        count_conversions(1, 0);
        return vmac_.dot(weights, activations, rng);
    }

    [[nodiscard]] OperandLayout operand_layout() const override {
        return {vmac_.options().nw, vmac_.options().nx, false,
                vmac_.options().analog.multiplier_noise_sigma > 0.0,
                analog_draws(vmac_.options().analog)};
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        lanes::encode_slices(weights, 0, 1, dst.rows, vmac_.weight_slices(), dst.values);
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        lanes::encode_slices(activations, stride, dst.rows, dst.cols, vmac_.activation_slices(),
                             dst.values);
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        const lanes::PartitionParams params{steps_.data(), vmac_.partial_weights().data()};
        convert_groups(t, operand_layout(), rng, out, [&](const lanes::Group& g, float* o) {
            lanes::convert_partitioned(params, g, o);
        });
    }
    void count_conversions(std::uint64_t chunks, std::uint64_t /*outputs*/) const override {
        count_chunks(runtime::metrics::Counter::kAdcConversionsPartitioned, chunks,
                     chunks * vmac_.conversions_per_vmac());
    }

    [[nodiscard]] BackendKind kind() const override { return BackendKind::kPartitioned; }
    [[nodiscard]] std::size_t conversions_per_vmac() const override {
        return vmac_.conversions_per_vmac();
    }
    [[nodiscard]] ConversionProfile conversion_profile() const override {
        ConversionProfile profile;
        for (std::size_t p = 0; p < vmac_.options().nw; ++p) {
            for (std::size_t q = 0; q < vmac_.options().nx; ++q) {
                profile.push_back({vmac_.partial_enob(p, q), 1.0, 0.0});
            }
        }
        return profile;
    }
    /// Analytic (thermal noise excluded): the shift-and-add weighted sum
    /// of the partial converters' quantization variances.
    [[nodiscard]] double effective_enob(std::size_t /*chunks_per_output*/) const override {
        return vmac_.effective_enob();
    }
    [[nodiscard]] std::unique_ptr<VmacBackend> clone() const override {
        return std::make_unique<PartitionedBackend>(vmac_.base_config(), vmac_.options());
    }
    [[nodiscard]] const VmacConfig& config() const override { return vmac_.base_config(); }

private:
    PartitionedVmac vmac_;
    std::vector<AdcStep> steps_;  ///< the partial converters' constants, by pair
};

/// Sec. 4 method 2: first-order delta-sigma modulator in place of the
/// ADC. Stateful across the chunks of one output accumulator; the final
/// high-resolution conversion happens in finish_output().
class DeltaSigmaBackend final : public VmacBackend {
public:
    DeltaSigmaBackend(const VmacConfig& config, double final_enob, const AnalogOptions& analog)
        : vmac_(config, final_enob, analog), analog_(analog) {}

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override {
        count_conversions(1, 0);
        return vmac_.accumulate(weights, activations, rng);
    }
    double finish_output(Rng& rng) override {
        // The one extra high-resolution conversion per output accumulator.
        count_conversions(0, 1);
        return vmac_.finalize(rng);
    }

    /// Multiplier noise enters after the ideal sum, so stage 2 always applies.
    [[nodiscard]] OperandLayout operand_layout() const override {
        OperandLayout layout;
        layout.draws = analog_draws(analog_);
        layout.draws.final_sigma = vmac_.final_cell().analog().adc_noise_sigma;
        return layout;
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        lanes::quantize_sign_magnitude(weights, 0, 1, dst.rows,
                                       vmac_.cell().weight_codec().full_scale(), dst.values);
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        lanes::quantize_sign_magnitude(activations, stride, dst.rows, dst.cols,
                                       vmac_.cell().act_codec().full_scale(), dst.values);
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        const lanes::DeltaSigmaParams params{vmac_.cell().quantizer().step(),
                                             vmac_.final_cell().quantizer().step()};
        convert_groups(t, operand_layout(), rng, out, [&](const lanes::Group& g, float* o) {
            lanes::convert_delta_sigma(params, g, o);
        });
    }
    void count_conversions(std::uint64_t chunks, std::uint64_t outputs) const override {
        count_chunks(runtime::metrics::Counter::kAdcConversionsDeltaSigma, chunks,
                     chunks + outputs);
    }

    [[nodiscard]] BackendKind kind() const override { return BackendKind::kDeltaSigma; }
    [[nodiscard]] std::size_t conversions_per_vmac() const override { return 1; }
    [[nodiscard]] ConversionProfile conversion_profile() const override {
        return {{vmac_.cell().config().enob, 1.0, 0.0}, {vmac_.final_enob(), 0.0, 1.0}};
    }
    /// Telescoping: only the final conversion's error survives, so the
    /// per-conversion equivalent improves by 0.5 bit per doubling of the
    /// chunk stream (chunks * LSB(e_eq)^2 = LSB(final)^2).
    [[nodiscard]] double effective_enob(std::size_t chunks_per_output) const override {
        const double chunks = static_cast<double>(chunks_per_output == 0 ? 1 : chunks_per_output);
        return vmac_.final_enob() + 0.5 * std::log2(chunks);
    }
    [[nodiscard]] std::unique_ptr<VmacBackend> clone() const override {
        return std::make_unique<DeltaSigmaBackend>(vmac_.cell().config(), vmac_.final_enob(),
                                                   analog_);
    }
    [[nodiscard]] const VmacConfig& config() const override { return vmac_.cell().config(); }

private:
    DeltaSigmaVmac vmac_;
    AnalogOptions analog_;  ///< kept for clone(); DeltaSigmaVmac doesn't expose it
};

/// Adaptive block floating-point datapath: shared per-chunk exponents,
/// exact integer mantissa dot, one ADC conversion per chunk.
class BlockFpBackend final : public VmacBackend {
public:
    BlockFpBackend(const VmacConfig& config, std::size_t mantissa_bits_w,
                   std::size_t mantissa_bits_x, const AnalogOptions& analog)
        : vmac_(config, mantissa_bits_w, mantissa_bits_x, analog) {}

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override {
        count_conversions(1, 0);
        return vmac_.dot(weights, activations, rng);
    }

    [[nodiscard]] OperandLayout operand_layout() const override {
        return {1, 1, true, vmac_.analog().multiplier_noise_sigma > 0.0,
                analog_draws(vmac_.analog())};
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        encode_blocks(weights, 1, dst, [&](const double* w, std::size_t len, std::size_t s) {
            return vmac_.weight_quantum(w, len, s);
        });
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        encode_blocks(activations, stride, dst,
                      [&](const float* x, std::size_t len, std::size_t s) {
                          return vmac_.activation_quantum(x, len, s);
                      });
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        const lanes::CellParams params = cell_params(vmac_.quantizer(), vmac_.config());
        convert_groups(t, operand_layout(), rng, out, [&](const lanes::Group& g, float* o) {
            lanes::convert_cell(params, g, o);
        });
    }
    void count_conversions(std::uint64_t chunks, std::uint64_t /*outputs*/) const override {
        count_chunks(runtime::metrics::Counter::kAdcConversionsBlockFp, chunks, chunks);
    }

    [[nodiscard]] BackendKind kind() const override { return BackendKind::kBlockFp; }
    [[nodiscard]] std::size_t conversions_per_vmac() const override { return 1; }
    [[nodiscard]] ConversionProfile conversion_profile() const override {
        return {{vmac_.config().enob, 1.0, 0.0}};
    }
    /// Analytic worst-case (full-scale block) equivalent; the adaptive
    /// exponent's data-dependent gains are measured empirically.
    [[nodiscard]] double effective_enob(std::size_t /*chunks_per_output*/) const override {
        return vmac_.effective_enob();
    }
    [[nodiscard]] std::unique_ptr<VmacBackend> clone() const override {
        return std::make_unique<BlockFpBackend>(vmac_.config(), vmac_.mantissa_bits_w(),
                                                vmac_.mantissa_bits_x(), vmac_.analog());
    }
    [[nodiscard]] const VmacConfig& config() const override { return vmac_.config(); }

private:
    /// Stage 1: per chunk and column, the block quantum over the chunk's
    /// rows, then every operand's mantissa on it.
    template <typename T, typename Quantum>
    void encode_blocks(const T* src, std::size_t stride, const OperandPlanes& dst,
                       Quantum&& quantum) const {
        const std::size_t nmult = vmac_.config().nmult;
        for (std::size_t k0 = 0, c = 0; k0 < dst.rows; k0 += nmult, ++c) {
            const std::size_t len = std::min(nmult, dst.rows - k0);
            for (std::size_t col = 0; col < dst.cols; ++col) {
                const T* first = src + k0 * stride + col;
                const double q = quantum(first, len, stride);
                dst.quanta[c * dst.cols + col] = q;
                for (std::size_t i = 0; i < len; ++i) {
                    dst.mantissas[(k0 + i) * dst.cols + col] =
                        BlockFpVmac::mantissa(static_cast<double>(first[i * stride]), q);
                }
            }
        }
    }

    BlockFpVmac vmac_;
};

}  // namespace

namespace {

std::unique_ptr<VmacBackend> make_bare_backend(const VmacConfig& config,
                                               const AnalogOptions& analog,
                                               const BackendOptions& options) {
    switch (options.kind) {
        case BackendKind::kBitExact:
            return std::make_unique<CellBackend>(BackendKind::kBitExact, config, analog, 1.0);
        case BackendKind::kPerVmacNoise:
            return std::make_unique<PerVmacNoiseBackend>(config, analog);
        case BackendKind::kPartitioned: {
            PartitionOptions part = options.partition;
            part.analog = analog;
            return std::make_unique<PartitionedBackend>(config, part);
        }
        case BackendKind::kDeltaSigma: {
            const double final_enob = options.delta_sigma_final_enob > 0.0
                                          ? options.delta_sigma_final_enob
                                          : config.enob + 4.0;
            return std::make_unique<DeltaSigmaBackend>(config, final_enob, analog);
        }
        case BackendKind::kReferenceScaled:
            if (options.reference_scale <= 0.0) {
                throw std::invalid_argument(
                    "make_backend: reference_scale must be positive");
            }
            return std::make_unique<CellBackend>(BackendKind::kReferenceScaled, config, analog,
                                                 options.reference_scale);
        case BackendKind::kBlockFp: {
            // Default mantissa budget: the cell's sign-magnitude codecs
            // spend bits - 1 on magnitude; match that per operand.
            const std::size_t mw = options.block_fp_mantissa_bits > 0
                                       ? options.block_fp_mantissa_bits
                                       : config.bits_w - 1;
            const std::size_t mx = options.block_fp_mantissa_bits > 0
                                       ? options.block_fp_mantissa_bits
                                       : config.bits_x - 1;
            return std::make_unique<BlockFpBackend>(config, mw, mx, analog);
        }
    }
    throw std::invalid_argument("make_backend: unknown BackendKind");
}

}  // namespace

std::unique_ptr<VmacBackend> make_backend(const VmacConfig& config, const AnalogOptions& analog,
                                          const BackendOptions& options) {
    // An active device profile decorates the datapath; an inactive one is
    // a structural no-op (with_variation returns the bare backend), so the
    // default path is bit-identical to — in fact is — the historical one.
    std::unique_ptr<VmacBackend> backend =
        with_variation(make_bare_backend(config, analog, options), options.variation);
    // Debug builds re-check the clone() isolation contract on every
    // factory call: the decorator amplifies any latent state aliasing.
    assert(verify_clone_isolation(*backend));
    return backend;
}

std::unique_ptr<VmacBackend> make_backend(const VmacConfig& config,
                                          const AnalogOptions& analog) {
    return make_backend(config, analog, BackendOptions{});
}

bool verify_clone_isolation(const VmacBackend& backend) {
    // Probe chunks must not leak into the process-wide conversion ledger
    // (trace_test cross-checks those counters exactly).
    const runtime::metrics::Level saved = runtime::metrics::level();
    runtime::metrics::set_level(runtime::metrics::Level::kOff);

    const std::size_t n = std::min<std::size_t>(backend.config().nmult, 4);
    const std::vector<double> w(n, 0.5);
    const std::vector<double> x(n, 0.25);
    const auto run = [&](VmacBackend& b, std::uint64_t seed, std::size_t chunks) {
        Rng rng(seed);
        double acc = 0.0;
        for (std::size_t i = 0; i < chunks; ++i) acc += b.accumulate(w, x, rng);
        acc += b.finish_output(rng);
        return acc;
    };

    const auto active = backend.clone();   // the clone being perturbed
    const auto observed = backend.clone(); // must not notice
    (void)run(*active, 0xA11CEu, 3);
    const double with_sibling_activity = run(*observed, 0xB0B5EEDu, 2);
    const double fresh = run(*backend.clone(), 0xB0B5EEDu, 2);

    runtime::metrics::set_level(saved);
    // Bit-identical or the clones shared mutable state.
    return with_sibling_activity == fresh;
}

}  // namespace ams::vmac
