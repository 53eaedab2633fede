// Backend-generic VmacConv2d engine: the refactor's no-numerics-change
// guarantee (bit-exact backend reproduces the pre-refactor engine
// bit-for-bit at any thread count), the staged engine's differential
// check against the per-chunk accumulate() stream for every backend, plus
// conv-level behaviour of the Section-4 extension backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "ams/device_profile.hpp"
#include "ams/vmac_conv.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/im2col.hpp"

namespace ams::vmac {
namespace {

VmacConfig cfg(double enob, std::size_t nmult = 8, std::size_t bits = 16) {
    VmacConfig c;
    c.enob = enob;
    c.nmult = nmult;
    c.bits_w = bits;
    c.bits_x = bits;
    return c;
}

template <typename Fn>
auto with_thread_count(std::size_t threads, Fn&& fn) {
    runtime::ThreadPool::set_global_threads(threads);
    auto result = fn();
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
    return result;
}

template <typename Fn>
std::vector<float> with_threads(std::size_t threads, Fn&& make_output) {
    return with_thread_count(threads, [&] {
        const Tensor out = make_output();
        return std::vector<float>(out.data(), out.data() + out.size());
    });
}

void expect_bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

/// Serial replica of the pre-refactor VmacConv2d engine (the exact loop
/// the backend seam replaced): im2col lowering, per-tile RngStream, and
/// either the bit-exact VmacCell or the per-VMAC uniform-noise model.
Tensor pre_refactor_reference(const Tensor& weight, std::size_t stride, std::size_t padding,
                              const VmacConfig& config, const AnalogOptions& analog,
                              bool bit_exact, std::uint64_t seed, const Tensor& input) {
    VmacCell cell(config, analog);
    runtime::RngStream streams = runtime::RngStream::from(Rng(seed));
    const std::size_t kernel = weight.dim(2);
    const ConvLowering low(ConvGeometry{weight.dim(1), input.dim(2), input.dim(3), kernel,
                                        kernel, stride, stride, padding, padding});
    const std::size_t batch = input.dim(0);
    const std::size_t cout = weight.dim(0);
    const std::size_t nmult = config.nmult;
    const std::size_t out_spatial = low.out_spatial();
    const std::size_t patch = low.patch_size();
    const double lsb = cell.adc_lsb();

    Tensor output(Shape{batch, cout, low.out_h(), low.out_w()});
    std::vector<float> columns(batch * low.columns_floats());
    low.lower_batch(input.data(), batch, columns.data());
    const runtime::RngStream pass_streams = streams.substream(0);
    std::vector<double> w_chunk(nmult), x_chunk(nmult);
    for (std::size_t t = 0; t < batch * cout; ++t) {
        const std::size_t b = t / cout;
        const std::size_t oc = t % cout;
        Rng tile_rng = pass_streams.stream(t);
        const float* cols = columns.data() + b * patch * out_spatial;
        const float* wrow = weight.data() + oc * patch;
        for (std::size_t pix = 0; pix < out_spatial; ++pix) {
            double acc = 0.0;
            for (std::size_t start = 0; start < patch; start += nmult) {
                const std::size_t len = std::min(nmult, patch - start);
                if (bit_exact) {
                    for (std::size_t i = 0; i < len; ++i) {
                        w_chunk[i] = wrow[start + i];
                        x_chunk[i] = cols[(start + i) * out_spatial + pix];
                    }
                    acc += cell.dot(std::span(w_chunk.data(), len),
                                    std::span(x_chunk.data(), len), tile_rng);
                } else {
                    double partial = 0.0;
                    for (std::size_t i = 0; i < len; ++i) {
                        partial += static_cast<double>(wrow[start + i]) *
                                   cols[(start + i) * out_spatial + pix];
                    }
                    acc += partial + tile_rng.uniform(-0.5 * lsb, 0.5 * lsb);
                }
            }
            output.data()[(b * cout + oc) * out_spatial + pix] = static_cast<float>(acc);
        }
    }
    return output;
}

/// Serial per-chunk reference for any backend: the engine before it was
/// staged. Every output's chunks are gathered from the lowered operands
/// and streamed, in (pixel, chunk) order with the tile's generator,
/// through one backend's accumulate() and finish_output(). Returns the
/// outputs of `passes` consecutive forward passes, concatenated.
std::vector<float> per_chunk_reference(const Tensor& weight, std::size_t stride,
                                       std::size_t padding, const VmacConfig& config,
                                       const AnalogOptions& analog,
                                       const BackendOptions& options, std::uint64_t seed,
                                       const Tensor& input, std::size_t passes) {
    const auto backend = make_backend(config, analog, options);
    const runtime::RngStream streams = runtime::RngStream::from(Rng(seed));
    const std::size_t kernel = weight.dim(2);
    const ConvLowering low(ConvGeometry{weight.dim(1), input.dim(2), input.dim(3), kernel,
                                        kernel, stride, stride, padding, padding});
    const std::size_t batch = input.dim(0);
    const std::size_t cout = weight.dim(0);
    const std::size_t out_spatial = low.out_spatial();
    const std::size_t patch = low.patch_size();
    std::vector<float> columns(batch * low.columns_floats());
    low.lower_batch(input.data(), batch, columns.data());
    std::vector<double> w_chunk(config.nmult), x_chunk(config.nmult);
    std::vector<float> out;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        const runtime::RngStream pass_streams = streams.substream(pass);
        for (std::size_t t = 0; t < batch * cout; ++t) {
            Rng tile_rng = pass_streams.stream(t);
            const float* cols = columns.data() + (t / cout) * patch * out_spatial;
            const float* wrow = weight.data() + (t % cout) * patch;
            for (std::size_t pix = 0; pix < out_spatial; ++pix) {
                double acc = 0.0;
                for (std::size_t start = 0; start < patch; start += config.nmult) {
                    const std::size_t len = std::min(config.nmult, patch - start);
                    for (std::size_t i = 0; i < len; ++i) {
                        w_chunk[i] = wrow[start + i];
                        x_chunk[i] = cols[(start + i) * out_spatial + pix];
                    }
                    acc += backend->accumulate(std::span(w_chunk.data(), len),
                                               std::span(x_chunk.data(), len), tile_rng);
                }
                acc += backend->finish_output(tile_rng);
                out.push_back(static_cast<float>(acc));
            }
        }
    }
    return out;
}

/// The engine's outputs over `passes` passes of one fresh module, through
/// forward() or forward_planned() (one EvalContext reused across passes).
std::vector<float> engine_passes(const Tensor& weight, std::size_t stride, std::size_t padding,
                                 const VmacConfig& config, const AnalogOptions& analog,
                                 const BackendOptions& options, std::uint64_t seed,
                                 const Tensor& input, std::size_t passes, bool planned) {
    VmacConv2d conv(weight, stride, padding, config, analog, options, Rng(seed));
    runtime::EvalContext ctx;
    std::vector<float> out;
    for (std::size_t pass = 0; pass < passes; ++pass) {
        Tensor y(conv.output_shape(input.shape()));
        if (planned) {
            conv.forward_planned(input.data(), input.shape(), y.data(), ctx);
        } else {
            y = conv.forward(input);
        }
        out.insert(out.end(), y.data(), y.data() + y.size());
    }
    return out;
}

/// One differential case: a datapath configuration and its operands.
struct EngineCase {
    const char* name;
    VmacConfig config;
    AnalogOptions analog;
    BackendOptions options;  ///< kind and variation are set per run
    Shape weight_shape;
    Shape input_shape;
    bool zero_chunks = false;  ///< all-zero weight and activation chunks
};

std::vector<EngineCase> engine_cases() {
    // 9-bit operands: 8 magnitude bits split evenly for the partitioned
    // datapath's default 2 x 2. Patch 7 * 3 * 3 = 63 leaves a 7-wide tail
    // chunk; 2 images of 12 x 12 make the 2 x 2 slice planes outgrow one
    // pixel block.
    const Shape w_shape{3, 7, 3, 3};
    const Shape x_shape{2, 7, 12, 12};
    std::vector<EngineCase> cases;
    cases.push_back({"tail_chunks", cfg(8.0, 8, 9), {}, {}, w_shape, x_shape});
    cases.push_back({"fractional_enob", cfg(12.5, 8, 9), {}, {}, w_shape, x_shape});
    EngineCase average{"average", cfg(6.0, 8, 9), {}, {}, w_shape, x_shape};
    average.config.accumulation = Accumulation::kAverage;
    cases.push_back(average);
    EngineCase adc_noise{"adc_noise", cfg(8.0, 8, 9), {}, {}, w_shape, x_shape};
    adc_noise.analog.adc_noise_sigma = 0.05;
    cases.push_back(adc_noise);
    EngineCase mult_noise{"multiplier_noise", cfg(8.0, 8, 9), {}, {}, w_shape, x_shape};
    mult_noise.analog.multiplier_noise_sigma = 0.01;
    mult_noise.analog.adc_noise_sigma = 0.02;
    cases.push_back(mult_noise);
    EngineCase drop{"partitioned_significance_drop", cfg(10.0, 8, 9), {}, {}, w_shape, x_shape};
    drop.options.partition.nw = 2;
    drop.options.partition.nx = 2;
    drop.options.partition.enob_partial = 7.0;
    drop.options.partition.significance_drop = 1.0;
    cases.push_back(drop);
    EngineCase zeros{"zero_chunks", cfg(8.0, 8, 9), {}, {}, w_shape, x_shape};
    zeros.zero_chunks = true;
    cases.push_back(zeros);
    return cases;
}

/// A chip with every static error family on: offsets, drift with a
/// per-cell exponent spread, and IR drop that deepens across the cells.
DeviceProfile engine_chip() {
    DeviceProfile chip;
    chip.chip_seed = 7;
    chip.cell_offset_sigma = 0.02;
    chip.drift_nu = 0.05;
    chip.drift_time = 10.0;
    chip.drift_nu_sigma = 0.01;
    chip.ir_drop_alpha = 0.05;
    chip.ir_drop_ref_cells = 4;
    return chip;
}

TEST(VmacConvBackendTest, EngineMatchesPerChunkStreamForEveryBackend) {
    for (const EngineCase& c : engine_cases()) {
        Rng rng(61);
        Tensor w(c.weight_shape);
        w.fill_uniform(rng, -1.0f, 1.0f);
        Tensor x(c.input_shape);
        x.fill_uniform(rng, -1.0f, 1.0f);
        if (c.zero_chunks) {
            // Out-channel 0's first chunk of weights, and input channel 0
            // (so the first chunk of every pixel's activations), are zero.
            std::fill_n(w.data(), c.config.nmult, 0.0f);
            std::fill_n(x.data(), x.dim(2) * x.dim(3), 0.0f);
            std::fill_n(x.data() + x.dim(1) * x.dim(2) * x.dim(3), x.dim(2) * x.dim(3), 0.0f);
        }
        for (BackendKind kind : all_backend_kinds()) {
            for (const bool varied : {false, true}) {
                BackendOptions options = c.options;
                options.kind = kind;
                if (varied) options.variation = engine_chip();
                SCOPED_TRACE(std::string(c.name) + " " + options.str());
                const std::vector<float> reference =
                    per_chunk_reference(w, 1, 1, c.config, c.analog, options, 67, x, 2);
                for (const std::size_t threads : {1u, 4u}) {
                    for (const bool planned : {false, true}) {
                        SCOPED_TRACE(std::to_string(threads) + (planned ? " threads, planned"
                                                                        : " threads, forward"));
                        const std::vector<float> engine = with_thread_count(threads, [&] {
                            return engine_passes(w, 1, 1, c.config, c.analog, options, 67, x, 2,
                                                 planned);
                        });
                        expect_bit_identical(reference, engine);
                    }
                }
            }
        }
    }
}

TEST(VmacConvBackendTest, BitExactBackendReproducesPreRefactorEngine) {
    Rng rng(11);
    Tensor w(Shape{4, 3, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    const VmacConfig c = cfg(8.0);
    Tensor x(Shape{3, 3, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);

    const Tensor reference =
        pre_refactor_reference(w, 1, 1, c, {}, /*bit_exact=*/true, /*seed=*/12, x);
    const std::vector<float> ref_bits(reference.data(), reference.data() + reference.size());

    auto run = [&] {
        VmacConv2d vconv(w, 1, 1, c, {}, BackendOptions{BackendKind::kBitExact}, Rng(12));
        return vconv.forward(x);
    };
    expect_bit_identical(ref_bits, with_threads(1, run));
    expect_bit_identical(ref_bits, with_threads(4, run));
}

TEST(VmacConvBackendTest, PerVmacNoiseBackendReproducesPreRefactorEngine) {
    Rng rng(13);
    Tensor w(Shape{3, 4, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    const VmacConfig c = cfg(6.0);
    Tensor x(Shape{2, 4, 7, 7});
    x.fill_uniform(rng, 0.0f, 1.0f);

    const Tensor reference =
        pre_refactor_reference(w, 1, 1, c, {}, /*bit_exact=*/false, /*seed=*/14, x);
    const std::vector<float> ref_bits(reference.data(), reference.data() + reference.size());

    auto run = [&] {
        VmacConv2d vconv(w, 1, 1, c, {}, BackendOptions{BackendKind::kPerVmacNoise}, Rng(14));
        return vconv.forward(x);
    };
    expect_bit_identical(ref_bits, with_threads(1, run));
    expect_bit_identical(ref_bits, with_threads(4, run));
}

TEST(VmacConvBackendTest, DeltaSigmaConvErrorTelescopesToFinalConversion) {
    // n_tot = 8 * 3 * 3 = 72 -> 9 chunks per output at Nmult = 8. A plain
    // ENOB-5 datapath accumulates 9 conversions' errors; the delta-sigma
    // backend leaves only the final (ENOB-14) conversion's error.
    Rng rng(17);
    Tensor w(Shape{2, 8, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    Tensor x(Shape{2, 8, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);
    const VmacConfig coarse = cfg(5.0);

    // Operand-quantized exact reference: same codecs, ENOB high enough
    // that conversion error is negligible at this scale.
    VmacConv2d exact_conv(w, 1, 1, cfg(26.0), {}, BackendOptions{BackendKind::kBitExact}, Rng(18));
    const Tensor exact = exact_conv.forward(x);

    BackendOptions ds;
    ds.kind = BackendKind::kDeltaSigma;
    ds.delta_sigma_final_enob = 14.0;
    VmacConv2d ds_conv(w, 1, 1, coarse, {}, ds, Rng(19));
    const Tensor ds_out = ds_conv.forward(x);

    VmacConv2d plain_conv(w, 1, 1, coarse, {}, BackendOptions{BackendKind::kBitExact}, Rng(19));
    const Tensor plain_out = plain_conv.forward(x);

    const double final_lsb = 2.0 * 8.0 * std::exp2(-14.0);
    double ds_max = 0.0, plain_max = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        ds_max = std::max(ds_max, std::abs(static_cast<double>(ds_out[i]) - exact[i]));
        plain_max = std::max(plain_max, std::abs(static_cast<double>(plain_out[i]) - exact[i]));
    }
    // Final conversion bound plus fp32 rounding of outputs up to ~8.
    EXPECT_LE(ds_max, 0.5 * final_lsb + 1e-5);
    // The plain coarse datapath is at least an order of magnitude worse.
    EXPECT_GT(plain_max, 10.0 * ds_max);
}

TEST(VmacConvBackendTest, AllBackendsRunThroughTheSameEngine) {
    Rng rng(23);
    Tensor w(Shape{3, 2, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    Tensor x(Shape{2, 2, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);
    // 9-bit operands: 8 magnitude bits chunk evenly for partitioning.
    const VmacConfig c = cfg(10.0, 8, 9);

    for (BackendKind kind : all_backend_kinds()) {
        BackendOptions opts;
        opts.kind = kind;
        VmacConv2d allocating(w, 1, 1, c, {}, opts, Rng(24));
        const Tensor out = allocating.forward(x);
        ASSERT_EQ(out.shape(), (Shape{2, 3, 6, 6})) << backend_kind_name(kind);
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_TRUE(std::isfinite(out[i])) << backend_kind_name(kind);
        }

        // forward_planned (the compiled plan's entry point) must match
        // the allocating path for every backend (same streams, same
        // staging arithmetic).
        VmacConv2d planned(w, 1, 1, c, {}, opts, Rng(24));
        runtime::EvalContext ctx;
        Tensor arena_out(out.shape());
        planned.forward_planned(x.data(), x.shape(), arena_out.data(), ctx);
        ASSERT_EQ(arena_out.size(), out.size());
        EXPECT_EQ(std::memcmp(arena_out.data(), out.data(), out.size() * sizeof(float)), 0)
            << backend_kind_name(kind);
    }
}

TEST(VmacConvBackendTest, BackwardNamesModuleAndBackend) {
    Rng rng(29);
    Tensor w(Shape{1, 1, 1, 1});
    w.fill_uniform(rng, -1.0f, 1.0f);
    BackendOptions opts;
    opts.kind = BackendKind::kDeltaSigma;
    VmacConv2d vconv(w, 1, 0, cfg(8.0), {}, opts, Rng(30));
    Tensor g(Shape{1, 1, 2, 2});

    // Backward must throw *before* touching the datapath: with counters
    // on, no conversion ledger entry may be reachable from the failed
    // call (a conversion recorded here would corrupt energy cross-checks).
    namespace metrics = runtime::metrics;
    metrics::reset();
    metrics::set_level(metrics::Level::kCounters);
    try {
        (void)vconv.backward(g);
        metrics::set_level(metrics::Level::kOff);
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("VmacConv2d"), std::string::npos);
        EXPECT_NE(what.find("delta_sigma"), std::string::npos);
        EXPECT_NE(what.find("evaluation-only"), std::string::npos);
    }
    metrics::set_level(metrics::Level::kOff);
    for (metrics::Counter c :
         {metrics::Counter::kAdcConversionsBitExact, metrics::Counter::kAdcConversionsPerVmacNoise,
          metrics::Counter::kAdcConversionsPartitioned, metrics::Counter::kAdcConversionsDeltaSigma,
          metrics::Counter::kAdcConversionsReferenceScaled, metrics::Counter::kVmacChunks,
          metrics::Counter::kVmacOutputs}) {
        EXPECT_EQ(metrics::value(c), 0u) << "backward reached the conversion ledger";
    }
    metrics::reset();
}

TEST(VmacConvBackendTest, BackendAccessorExposesSelectedDatapath) {
    Rng rng(31);
    Tensor w(Shape{1, 1, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    BackendOptions opts;
    opts.kind = BackendKind::kPartitioned;
    VmacConv2d vconv(w, 1, 1, cfg(8.0, 8, 9), {}, opts, Rng(32));
    EXPECT_EQ(vconv.backend().kind(), BackendKind::kPartitioned);
    EXPECT_EQ(vconv.backend().conversions_per_vmac(), 4u);
    EXPECT_EQ(vconv.config().nmult, 8u);
}

}  // namespace
}  // namespace ams::vmac
