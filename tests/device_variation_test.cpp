// Statistical and determinism acceptance for the device-variability
// layer (DESIGN.md §16): per-chip static offsets must realize the
// distribution the profile specifies (chi-square GOF with a powered
// negative control), drift must follow its power law deterministically,
// different chips must be statistically independent, and the whole
// composition must be bit-identical across thread counts, clones, and
// (at zero amplitude) to the bare datapath. All seeds are fixed — these
// are regression tests, not flaky Monte-Carlo experiments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "ams/device_variation.hpp"
#include "ams/error_injector.hpp"
#include "ams/error_model.hpp"
#include "ams/vmac_backend.hpp"
#include "ams/vmac_conv.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "stat_test_utils.hpp"
#include "tensor/tensor.hpp"

namespace ams::vmac {
namespace {

constexpr std::size_t kCells = 20000;

VmacConfig cfg(double enob, std::size_t nmult = 8, std::size_t bits = 16) {
    VmacConfig c;
    c.enob = enob;
    c.nmult = nmult;
    c.bits_w = bits;
    c.bits_x = bits;
    return c;
}

DeviceVariation decorated(const DeviceProfile& profile, double enob = 6.0,
                          BackendKind kind = BackendKind::kBitExact) {
    BackendOptions opts;
    opts.kind = kind;
    return DeviceVariation(make_backend(cfg(enob), {}, opts), profile);
}

/// The frozen offset realization of one chip, in offset units.
std::vector<double> chip_offsets(std::uint64_t chip, double sigma, std::size_t n = kCells) {
    DeviceProfile profile;
    profile.chip_seed = chip;
    profile.cell_offset_sigma = sigma;
    const DeviceVariation dv = decorated(profile);
    std::vector<double> offsets(n);
    for (std::size_t c = 0; c < n; ++c) offsets[c] = dv.cell_offset(c);
    return offsets;
}

// ----- distribution of the frozen realization ------------------------

TEST(DeviceVariationTest, OffsetRealizationMatchesSpecifiedDistribution) {
    const double sigma = 0.02;
    const auto offsets = chip_offsets(/*chip=*/7, sigma);
    // 99.9th percentile of chi2 with 17 dof is 40.8; fixed chip seed
    // makes the statistic deterministic, the percentile documents margin.
    EXPECT_LT(stattest::chi_square_vs_normal(offsets, sigma), 40.8);
    EXPECT_LT(stattest::ks_statistic_normal(offsets, sigma) *
                  std::sqrt(static_cast<double>(offsets.size())),
              1.95);
    const double rel_tol = 4.0 * std::sqrt(2.0 / static_cast<double>(kCells - 1));
    EXPECT_NEAR(stattest::sample_variance(offsets) / (sigma * sigma), 1.0, rel_tol);
    EXPECT_NEAR(stattest::sample_mean(offsets), 0.0,
                4.0 * sigma / std::sqrt(static_cast<double>(kCells)));
}

TEST(DeviceVariationTest, GofRejectsMisSpecifiedOffsetVariance) {
    // Powered negative control: the same GOF statistic must loudly
    // reject a 15% mis-specified sigma — otherwise the passing test
    // above proves nothing about the realized distribution.
    const double sigma = 0.02;
    const auto offsets = chip_offsets(/*chip=*/7, sigma);
    EXPECT_GT(stattest::chi_square_vs_normal(offsets, sigma * 1.15), 100.0);
    EXPECT_GT(stattest::chi_square_vs_normal(offsets, sigma * 0.85), 100.0);
}

TEST(DeviceVariationTest, DistinctChipsAreStatisticallyIndependent) {
    const double sigma = 1.0;
    const auto a = chip_offsets(/*chip=*/1, sigma, 2000);
    const auto b = chip_offsets(/*chip=*/2, sigma, 2000);
    ASSERT_NE(a, b);
    // Both chips realize the same marginal...
    EXPECT_LT(stattest::ks_statistic_normal(a, sigma) * std::sqrt(2000.0), 1.95);
    EXPECT_LT(stattest::ks_statistic_normal(b, sigma) * std::sqrt(2000.0), 1.95);
    // ...but their realizations are uncorrelated (4-sigma band).
    EXPECT_LT(std::fabs(stattest::pearson_correlation(a, b)), 4.0 / std::sqrt(2000.0));
}

TEST(DeviceVariationTest, CellNormalIsAPureFunctionOfCoordinates) {
    DeviceProfile p;
    p.chip_seed = 42;
    // Same coordinates, any call order: identical deviates.
    const double first = p.cell_normal(kFamilyCellOffset, 3, 1234);
    (void)p.cell_normal(kFamilyDriftNu, 9, 5678);
    EXPECT_EQ(p.cell_normal(kFamilyCellOffset, 3, 1234), first);
    // Distinct family / stream / cell coordinates: distinct deviates.
    EXPECT_NE(p.cell_normal(kFamilyDriftNu, 3, 1234), first);
    EXPECT_NE(p.cell_normal(kFamilyCellOffset, 4, 1234), first);
    EXPECT_NE(p.cell_normal(kFamilyCellOffset, 3, 1235), first);
}

// ----- drift and IR-drop gain families -------------------------------

TEST(DeviceVariationTest, DriftGainFollowsPowerLawDeterministically) {
    DeviceProfile p;
    p.drift_nu = 0.1;
    p.drift_t0 = 2.0;
    p.drift_time = 0.0;
    EXPECT_EQ(p.drift_gain(), 1.0);  // not yet drifting
    double prev = 2.0;
    for (double t : {2.0, 8.0, 64.0, 512.0}) {
        p.drift_time = t;
        EXPECT_DOUBLE_EQ(p.drift_gain(), std::pow(t / p.drift_t0, -p.drift_nu)) << "t=" << t;
        EXPECT_LT(p.drift_gain(), prev) << "gain must decay monotonically, t=" << t;
        prev = p.drift_gain();
    }
    p.drift_time = p.drift_t0;
    EXPECT_DOUBLE_EQ(p.drift_gain(), 1.0);  // normalized at t = t0
}

TEST(DeviceVariationTest, PerCellDriftSpreadIsFrozenPerChip) {
    DeviceProfile p;
    p.chip_seed = 5;
    p.drift_nu = 0.2;
    p.drift_nu_sigma = 0.05;
    p.drift_time = 16.0;
    const DeviceVariation a = decorated(p);
    const DeviceVariation b = decorated(p);
    // Same chip: identical frozen gains on independently built backends.
    for (std::size_t c = 0; c < 64; ++c) {
        ASSERT_EQ(a.cell_gain(c), b.cell_gain(c)) << "cell " << c;
    }
    // The spread actually spreads: not all cells share one gain.
    EXPECT_NE(a.cell_gain(0), a.cell_gain(1));
    DeviceProfile other = p;
    other.chip_seed = 6;
    EXPECT_NE(decorated(other).cell_gain(0), a.cell_gain(0));
}

TEST(DeviceVariationTest, IrDropGainMonotoneUntilReferenceDepth) {
    DeviceProfile p;
    p.ir_drop_alpha = 0.1;
    p.ir_drop_ref_cells = 16;
    const DeviceVariation dv = decorated(p);
    EXPECT_DOUBLE_EQ(dv.cell_gain(0), 1.0);  // at the driver: no sag
    for (std::size_t c = 1; c <= 16; ++c) {
        EXPECT_LT(dv.cell_gain(c), dv.cell_gain(c - 1)) << "cell " << c;
    }
    // Beyond the reference depth the sag saturates at 1 - alpha.
    EXPECT_DOUBLE_EQ(dv.cell_gain(16), 1.0 - p.ir_drop_alpha);
    EXPECT_DOUBLE_EQ(dv.cell_gain(64), 1.0 - p.ir_drop_alpha);
}

// ----- composition determinism ---------------------------------------

/// Drives `chunks` fixed chunks through `backend` with a fresh
/// fixed-seed Rng and returns every digital term (finish_output last).
std::vector<double> drive_chunks(VmacBackend& backend, std::size_t chunks,
                                 std::uint64_t seed = 0xD15EA5Eull) {
    const std::size_t n = backend.config().nmult;
    Rng op_rng(99);
    Rng rng(seed);
    std::vector<double> terms;
    for (std::size_t k = 0; k < chunks; ++k) {
        std::vector<double> w(n), x(n);
        for (double& v : w) v = op_rng.uniform(-1.0, 1.0);
        for (double& v : x) v = op_rng.uniform(0.0, 1.0);
        terms.push_back(backend.accumulate(w, x, rng));
        if ((k + 1) % 4 == 0) terms.push_back(backend.finish_output(rng));
    }
    terms.push_back(backend.finish_output(rng));
    return terms;
}

TEST(DeviceVariationTest, SameChipIsBitIdenticalAcrossClones) {
    DeviceProfile p;
    p.chip_seed = 7;
    p.cell_offset_sigma = 0.02;
    p.drift_nu = 0.1;
    p.drift_time = 8.0;
    for (BackendKind kind : all_backend_kinds()) {
        BackendOptions opts;
        opts.kind = kind;
        opts.variation = p;
        // 8 magnitude bits so the partitioned datapath's default 2x2
        // chunking divides evenly.
        const auto original = make_backend(cfg(6.0, 8, 9), {}, opts);
        const auto clone = original->clone();
        EXPECT_EQ(drive_chunks(*original, 12), drive_chunks(*clone, 12))
            << backend_kind_name(kind);
        EXPECT_TRUE(verify_clone_isolation(*original)) << backend_kind_name(kind);
    }
}

TEST(DeviceVariationTest, ZeroAmplitudeCompositionPreservesBitExactPath) {
    // Structural pass-through: an inactive profile never wraps at all.
    for (BackendKind kind : {BackendKind::kPerVmacNoise, BackendKind::kBlockFp}) {
        BackendOptions opts;
        opts.kind = kind;
        auto bare = make_backend(cfg(6.0), {}, opts);
        EXPECT_EQ(dynamic_cast<DeviceVariation*>(bare.get()), nullptr)
            << backend_kind_name(kind) << ": inactive profile must not decorate";

        // Arithmetic pass-through: even an explicit zero-amplitude
        // decorator adds offset 0 at gain 1 — bit-identical terms.
        DeviceVariation zero(make_backend(cfg(6.0), {}, opts), DeviceProfile{});
        const auto bare_terms = drive_chunks(*bare, 12);
        const auto zero_terms = drive_chunks(zero, 12);
        ASSERT_EQ(bare_terms.size(), zero_terms.size());
        EXPECT_EQ(0, std::memcmp(bare_terms.data(), zero_terms.data(),
                                 bare_terms.size() * sizeof(double)))
            << backend_kind_name(kind);
    }
}

TEST(DeviceVariationTest, ConvWithVariationIsThreadCountInvariant) {
    Rng rng(31);
    Tensor w(Shape{4, 3, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    Tensor x(Shape{2, 3, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);

    BackendOptions opts;
    opts.kind = BackendKind::kPerVmacNoise;
    opts.variation.chip_seed = 7;
    opts.variation.cell_offset_sigma = 0.03;
    opts.variation.drift_nu = 0.1;
    opts.variation.drift_time = 10.0;

    const auto run = [&](std::size_t threads, std::uint64_t chip) {
        runtime::ThreadPool::set_global_threads(threads);
        BackendOptions o = opts;
        o.variation.chip_seed = chip;
        VmacConv2d vconv(w, 1, 1, cfg(6.0), {}, o, Rng(32));
        Tensor out = vconv.forward(x);
        runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
        return std::vector<float>(out.data(), out.data() + out.size());
    };
    const auto serial = run(1, 7);
    const auto parallel = run(4, 7);
    ASSERT_EQ(serial.size(), parallel.size());
    // Same chip: the engine's per-worker clones share the frozen
    // realization, so scheduling cannot perturb a single output bit.
    EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(), serial.size() * sizeof(float)));
    // Different chip: a genuinely different frozen realization.
    EXPECT_NE(serial, run(1, 8));
}

// ----- cost and composition contracts --------------------------------

TEST(DeviceVariationTest, DecorationAddsNoConversionsAndDelegatesIdentity) {
    DeviceProfile p;
    p.chip_seed = 3;
    p.cell_offset_sigma = 0.05;
    BackendOptions opts;
    opts.kind = BackendKind::kDeltaSigma;
    const auto bare = make_backend(cfg(6.0), {}, opts);
    opts.variation = p;
    const auto dev = make_backend(cfg(6.0), {}, opts);
    EXPECT_EQ(dev->kind(), bare->kind());
    EXPECT_EQ(dev->conversions_per_vmac(), bare->conversions_per_vmac());
    const ConversionProfile a = dev->conversion_profile();
    const ConversionProfile b = bare->conversion_profile();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].enob, b[i].enob);
        EXPECT_EQ(a[i].per_chunk, b[i].per_chunk);
        EXPECT_EQ(a[i].per_output, b[i].per_output);
    }
}

TEST(DeviceVariationTest, EffectiveEnobFoldsOffsetVarianceOnly) {
    DeviceProfile p;
    p.chip_seed = 3;
    p.cell_offset_sigma = 0.05;
    BackendOptions opts;
    opts.kind = BackendKind::kPerVmacNoise;
    const auto bare = make_backend(cfg(6.0), {}, opts);
    opts.variation = p;
    const auto dev = make_backend(cfg(6.0), {}, opts);

    const double e_bare = bare->effective_enob(8);
    VmacConfig at_e = cfg(6.0);
    at_e.enob = e_bare;
    const double var_inner = vmac_error_variance(at_e);
    const double var_offset = p.cell_offset_sigma * p.cell_offset_sigma;
    const double expected = e_bare - 0.5 * std::log2((var_inner + var_offset) / var_inner);
    EXPECT_DOUBLE_EQ(dev->effective_enob(8), expected);
    EXPECT_LT(dev->effective_enob(8), e_bare);

    // Multiplicative families are excluded (signal-proportional, like
    // reference scaling's clipping): drift-only composition keeps the
    // wrapped datapath's equivalent resolution.
    DeviceProfile drift_only;
    drift_only.drift_nu = 0.2;
    drift_only.drift_time = 64.0;
    opts.variation = drift_only;
    EXPECT_DOUBLE_EQ(make_backend(cfg(6.0), {}, opts)->effective_enob(8), e_bare);
}

TEST(DeviceVariationTest, OptionsStrAppendsVariationTag) {
    BackendOptions opts;
    opts.kind = BackendKind::kPerVmacNoise;
    const std::string bare_tag = opts.str();
    opts.variation.chip_seed = 7;
    EXPECT_EQ(opts.str(), bare_tag);  // inactive profile: untagged
    opts.variation.cell_offset_sigma = 0.02;
    opts.variation.drift_nu = 0.2;
    opts.variation.drift_time = 64.0;
    const std::string tag = opts.str();
    EXPECT_NE(tag.find(bare_tag), std::string::npos);
    EXPECT_NE(tag.find("chip7"), std::string::npos);
    EXPECT_NE(tag.find("off0.02"), std::string::npos);
    EXPECT_NE(tag.find("t64nu0.2"), std::string::npos);
}

TEST(DeviceVariationTest, ValidateRejectsNonPhysicalProfiles) {
    const auto expect_throw = [](auto mutate) {
        DeviceProfile p;
        mutate(p);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    };
    expect_throw([](DeviceProfile& p) { p.cell_offset_sigma = -0.1; });
    expect_throw([](DeviceProfile& p) { p.drift_time = -1.0; });
    expect_throw([](DeviceProfile& p) { p.drift_t0 = 0.0; });
    expect_throw([](DeviceProfile& p) { p.drift_nu_sigma = -0.5; });
    expect_throw([](DeviceProfile& p) { p.ir_drop_alpha = 1.0; });
    expect_throw([](DeviceProfile& p) {
        p.ir_drop_alpha = 0.5;
        p.ir_drop_ref_cells = 0;
    });
    EXPECT_THROW(DeviceVariation(nullptr, DeviceProfile{}), std::invalid_argument);
    // One chip per datapath: decorating a decorated backend is rejected.
    DeviceProfile chip;
    chip.cell_offset_sigma = 0.01;
    BackendOptions varied;
    varied.variation = chip;
    EXPECT_THROW(DeviceVariation(make_backend(cfg(6.0), {}, varied), chip),
                 std::invalid_argument);
}

// ----- network-level injector field ----------------------------------

TEST(DeviceVariationTest, InjectorDeviceFieldIsDeterministicPerChannelAffine) {
    // High-ENOB config: stochastic noise is ~1e-5 while the chip field
    // is O(0.1), so the affine structure is resolvable against noise.
    const VmacConfig c = cfg(20.0);
    const std::size_t n_tot = 512;
    DeviceProfile device;
    device.chip_seed = 9;
    device.cell_offset_sigma = 0.05;
    device.drift_nu = 0.1;
    device.drift_time = 16.0;

    Rng rng(77);
    Tensor in(Shape{2, 3, 4, 4});
    in.fill_uniform(rng, -1.0f, 1.0f);
    ErrorInjector injector(c, n_tot, Rng(41), InjectionMode::kLumpedGaussian, device);
    const Tensor out = injector.forward(in);

    const double gain = device.drift_gain();
    const double sigma_out =
        std::sqrt(static_cast<double>(vmacs_per_output(c, n_tot))) * device.cell_offset_sigma;
    const double tol = 16.0 * total_error_stddev(c, n_tot) + 1e-5;
    const std::size_t spatial = 16;
    std::vector<double> channel_offsets(3);
    for (std::size_t b = 0; b < 2; ++b) {
        for (std::size_t ch = 0; ch < 3; ++ch) {
            const float* xin = in.data() + (b * 3 + ch) * spatial;
            const float* xout = out.data() + (b * 3 + ch) * spatial;
            // Within one channel: constant additive offset on gain-scaled
            // data, identical across batch rows (channel-keyed field).
            const double offset0 = xout[0] - gain * xin[0];
            for (std::size_t i = 0; i < spatial; ++i) {
                EXPECT_NEAR(xout[i] - gain * xin[i], offset0, tol)
                    << "b=" << b << " ch=" << ch << " i=" << i;
            }
            if (b == 0) {
                channel_offsets[ch] = offset0;
            } else {
                EXPECT_NEAR(offset0, channel_offsets[ch], tol) << "ch=" << ch;
            }
            // The offset scale matches sqrt(vmacs_per_output) * sigma: a
            // unit-normal field sample, well within 5 sigma.
            EXPECT_LT(std::fabs(offset0), 5.0 * sigma_out) << "ch=" << ch;
        }
    }
    // Channels carry distinct field samples (keyed independently).
    EXPECT_GT(std::fabs(channel_offsets[0] - channel_offsets[1]), tol);

    // Bit-determinism: an identically constructed injector reproduces
    // the exact same bytes, device field included.
    ErrorInjector again(c, n_tot, Rng(41), InjectionMode::kLumpedGaussian, device);
    const Tensor out2 = again.forward(in);
    EXPECT_EQ(0, std::memcmp(out.data(), out2.data(), out.size() * sizeof(float)));
}

TEST(DeviceVariationTest, InjectorForwardMatchesExplicitInjectInplace) {
    const VmacConfig c = cfg(6.0);
    DeviceProfile device;
    device.chip_seed = 4;
    device.cell_offset_sigma = 0.02;

    Rng rng(88);
    Tensor in(Shape{3, 2, 5, 5});
    in.fill_uniform(rng, -1.0f, 1.0f);
    ErrorInjector a(c, 256, Rng(51), InjectionMode::kLumpedGaussian, device);
    const Tensor out = a.forward(in);

    // The compiled-plan executor path: same data via inject_inplace with
    // the tensor's (batch, channels) — must be bit-identical.
    std::vector<float> flat(in.data(), in.data() + in.size());
    ErrorInjector b(c, 256, Rng(51), InjectionMode::kLumpedGaussian, device);
    b.inject_inplace(flat.data(), flat.size(), /*batch=*/3, /*channels=*/2);
    EXPECT_EQ(0, std::memcmp(out.data(), flat.data(), flat.size() * sizeof(float)));
}

TEST(DeviceVariationTest, VariationCountersObserveTheChunkStream) {
    using runtime::metrics::Counter;
    runtime::metrics::set_level(runtime::metrics::Level::kCounters);
    runtime::metrics::reset();
    DeviceProfile p;
    p.chip_seed = 2;
    p.cell_offset_sigma = 0.01;
    DeviceVariation dv = decorated(p);
    (void)drive_chunks(dv, 12);
    EXPECT_EQ(runtime::metrics::value(Counter::kVariationChunks), 12u);

    const VmacConfig c = cfg(6.0);
    ErrorInjector injector(c, 64, Rng(61), InjectionMode::kLumpedGaussian, p);
    Tensor in(Shape{2, 8});
    Rng rng(62);
    in.fill_uniform(rng, -1.0f, 1.0f);
    (void)injector.forward(in);
    EXPECT_EQ(runtime::metrics::value(Counter::kVariationFieldSamples), 16u);
    runtime::metrics::set_level(runtime::metrics::Level::kOff);
    runtime::metrics::reset();
}

}  // namespace
}  // namespace ams::vmac
