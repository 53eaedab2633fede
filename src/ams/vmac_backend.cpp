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

/// Stage 1 for element-wise encodings: `encode(v, planes, plane_stride)`
/// writes the value planes of one operand.
template <typename T, typename Encode>
void encode_elementwise(const T* src, std::size_t stride, const OperandPlanes& dst,
                        Encode&& encode) {
    const std::size_t plane_stride = dst.rows * dst.cols;
    for (std::size_t r = 0; r < dst.rows; ++r) {
        for (std::size_t c = 0; c < dst.cols; ++c) {
            encode(static_cast<double>(src[r * stride + c]), dst.values + r * dst.cols + c,
                   plane_stride);
        }
    }
}

/// Stage 3's one loop: converts a tile pixel by pixel and, within a pixel,
/// chunk by chunk — the order accumulate() streams an output's chunks.
/// `chunk(c, pixel, residual)` returns chunk c's digital term, and
/// `finish(residual)` the output's final term; `residual` is the output's
/// carried state (delta-sigma), reset per pixel.
template <typename Chunk, typename Finish>
void convert_stream(const TileSums& t, float* out, Chunk&& chunk, Finish&& finish) {
    for (std::size_t pixel = 0; pixel < t.pixels(); ++pixel) {
        double acc = 0.0;
        double residual = 0.0;
        for (std::size_t c = 0; c < t.chunks; ++c) {
            double term = chunk(c, pixel, residual);
            if (t.offsets != nullptr) term += t.offsets[c];
            acc += term;
        }
        acc += finish(residual);
        out[pixel] = static_cast<float>(acc);
    }
}

/// The final term of a stateless datapath's output.
double no_final_term(double /*residual*/) { return 0.0; }

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
        return {1, 1, false, cell_.analog().multiplier_noise_sigma > 0.0};
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        encode_elementwise(weights, 1, dst, [&](double v, double* out, std::size_t) {
            *out = cell_.encode_weight(v);
        });
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        encode_elementwise(activations, stride, dst, [&](double v, double* out, std::size_t) {
            *out = cell_.encode_activation(v);
        });
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        convert_stream(
            t, out,
            [&](std::size_t c, std::size_t pixel, double&) {
                if (t.sums != nullptr) return cell_.convert_sum(t.sum(c, 0, pixel), rng);
                const std::size_t k0 = t.chunk_start(c);
                const double sum = analog_sum(
                    t.chunk_len(c), [&](std::size_t i) { return t.w.value(0, k0 + i, 0); },
                    [&](std::size_t i) { return t.x.value(0, k0 + i, pixel); },
                    cell_.analog().multiplier_noise_sigma, rng);
                return cell_.convert_sum(sum, rng);
            },
            no_final_term);
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
    [[nodiscard]] OperandLayout operand_layout() const override { return {}; }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        encode_elementwise(weights, 1, dst,
                           [](double v, double* out, std::size_t) { *out = v; });
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        encode_elementwise(activations, stride, dst,
                           [](double v, double* out, std::size_t) { *out = v; });
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        convert_stream(
            t, out,
            [&](std::size_t c, std::size_t pixel, double&) {
                return convert(t.sum(c, 0, pixel), rng);
            },
            no_final_term);
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
        : vmac_(config, options) {}

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override {
        count_conversions(1, 0);
        return vmac_.dot(weights, activations, rng);
    }

    [[nodiscard]] OperandLayout operand_layout() const override {
        return {vmac_.options().nw, vmac_.options().nx, false,
                vmac_.options().analog.multiplier_noise_sigma > 0.0};
    }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        encode_elementwise(weights, 1, dst, [&](double v, double* out, std::size_t stride) {
            vmac_.encode_weight(v, out, stride);
        });
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        encode_elementwise(activations, stride, dst,
                           [&](double v, double* out, std::size_t plane_stride) {
                               vmac_.encode_activation(v, out, plane_stride);
                           });
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        const std::size_t pixels = t.pixels();
        convert_stream(
            t, out,
            [&](std::size_t c, std::size_t pixel, double&) {
                if (t.sums != nullptr) {
                    const double* sums = &t.sums[c * t.pairs * pixels + pixel];
                    return vmac_.convert_partials(
                        [&](std::size_t, std::size_t, std::size_t pq) { return sums[pq * pixels]; },
                        rng);
                }
                const std::size_t k0 = t.chunk_start(c);
                return vmac_.convert_partials(
                    [&](std::size_t p, std::size_t q, std::size_t) {
                        return analog_sum(
                            t.chunk_len(c), [&](std::size_t i) { return t.w.value(p, k0 + i, 0); },
                            [&](std::size_t i) { return t.x.value(q, k0 + i, pixel); },
                            vmac_.options().analog.multiplier_noise_sigma, rng);
                    },
                    rng);
            },
            no_final_term);
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
    [[nodiscard]] OperandLayout operand_layout() const override { return {}; }
    void encode_weights(const double* weights, const OperandPlanes& dst) override {
        encode_elementwise(weights, 1, dst, [&](double v, double* out, std::size_t) {
            *out = vmac_.cell().encode_weight(v);
        });
    }
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        encode_elementwise(activations, stride, dst, [&](double v, double* out, std::size_t) {
            *out = vmac_.cell().encode_activation(v);
        });
    }
    void convert_tile(const TileSums& t, Rng& rng, float* out) const override {
        convert_stream(
            t, out,
            [&](std::size_t c, std::size_t pixel, double& residual) {
                return vmac_.cycle(t.sum(c, 0, pixel), t.chunk_len(c), residual, rng);
            },
            [&](double residual) { return vmac_.final_conversion(residual, rng); });
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
        return {1, 1, true, vmac_.analog().multiplier_noise_sigma > 0.0};
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
        convert_stream(
            t, out,
            [&](std::size_t c, std::size_t pixel, double&) {
                if (t.sums != nullptr) return vmac_.convert_sum(t.sum(c, 0, pixel), rng);
                const std::size_t k0 = t.chunk_start(c);
                const double sum = vmac_.analog_sum(
                    t.chunk_len(c), [&](std::size_t i) { return t.w.mantissa(k0 + i, 0); },
                    [&](std::size_t i) { return t.x.mantissa(k0 + i, pixel); },
                    t.w.quantum(c, 0) * t.x.quantum(c, pixel), rng);
                return vmac_.convert_sum(sum, rng);
            },
            no_final_term);
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
