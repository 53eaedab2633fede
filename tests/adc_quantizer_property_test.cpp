// Randomized property sweeps over AdcQuantizer, the one mid-tread
// converter model every datapath shares, plus bit-exact agreement checks
// that the backends really do route their conversions through it (the
// point of hoisting the quantizer into one header: the converters cannot
// drift apart, and these tests are the tripwire).
//
// All sweeps are driven by a fixed-seed Rng, so every case is
// deterministic and a failure log pinpoints the offending (enob, scale,
// input) triple.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "ams/adc_quantizer.hpp"
#include "ams/partitioned.hpp"
#include "ams/vmac_cell.hpp"
#include "simd_arms.hpp"

namespace ams {
namespace {

using testing_support::on_each_arm;

struct QuantizerCase {
    double enob;
    double full_scale;
    double reference_scale;
};

/// Randomized converter configurations: fractional and integral ENOBs,
/// scales spread over a few orders of magnitude, shrunk and stretched
/// references.
std::vector<QuantizerCase> random_cases(int n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<QuantizerCase> cases;
    cases.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        double enob = rng.uniform(1.0, 16.0);
        if (i % 3 == 0) enob = std::floor(enob);  // integral ENOBs are the common case
        const double full_scale = std::exp2(rng.uniform(-3.0, 5.0));
        const double reference_scale = rng.uniform(0.25, 2.0);
        cases.push_back({enob, full_scale, reference_scale});
    }
    return cases;
}

TEST(AdcQuantizerPropertyTest, ConvertIsMonotone) {
    Rng rng(21);
    for (const QuantizerCase& c : random_cases(200, 22)) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        double prev_in = -2.0 * q.reference();
        double prev_out = q.convert(prev_in);
        for (int i = 0; i < 50; ++i) {
            const double in = prev_in + rng.uniform(0.0, 0.2 * q.reference());
            const double out = q.convert(in);
            ASSERT_GE(out, prev_out) << "enob=" << c.enob << " fs=" << c.full_scale
                                     << " rs=" << c.reference_scale << " at v=" << in;
            prev_in = in;
            prev_out = out;
        }
    }
}

TEST(AdcQuantizerPropertyTest, ConvertIsIdempotent) {
    Rng rng(31);
    for (const QuantizerCase& c : random_cases(300, 32)) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        for (int i = 0; i < 20; ++i) {
            const double v = rng.uniform(-1.5 * q.reference(), 1.5 * q.reference());
            const double once = q.convert(v);
            ASSERT_EQ(q.convert(once), once)
                << "enob=" << c.enob << " fs=" << c.full_scale << " v=" << v;
        }
    }
}

TEST(AdcQuantizerPropertyTest, ConvertIsOddSymmetric) {
    // Mid-tread with round-half-away-from-zero is an odd function; the
    // converter must not bias positive and negative inputs differently.
    Rng rng(41);
    for (const QuantizerCase& c : random_cases(300, 42)) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        for (int i = 0; i < 20; ++i) {
            const double v = rng.uniform(0.0, 1.5 * q.reference());
            ASSERT_EQ(q.convert(-v), -q.convert(v))
                << "enob=" << c.enob << " fs=" << c.full_scale << " v=" << v;
        }
    }
}

TEST(AdcQuantizerPropertyTest, OutputStaysOnGridAndInRange) {
    Rng rng(51);
    for (const QuantizerCase& c : random_cases(300, 52)) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        for (int i = 0; i < 20; ++i) {
            const double v = rng.uniform(-3.0 * q.reference(), 3.0 * q.reference());
            const double out = q.convert(v);
            // Grid membership, stated FP-safely: re-snapping the output
            // to the nearest grid point reproduces it bit for bit
            // (out / lsb itself may sit half an ulp off an integer).
            const double steps = std::round(out / q.lsb());
            ASSERT_EQ(steps * q.lsb(), out) << "off-grid output " << out;
            // Range: the clipped-then-rounded output cannot exceed the
            // reference by more than half a step.
            ASSERT_LE(std::fabs(out), q.reference() + 0.5 * q.lsb());
        }
    }
}

TEST(AdcQuantizerPropertyTest, QuantizationErrorBoundedByHalfLsb) {
    Rng rng(61);
    for (const QuantizerCase& c : random_cases(300, 62)) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        for (int i = 0; i < 20; ++i) {
            // In-range inputs only: clipping error is unbounded by design.
            const double v = rng.uniform(-q.reference(), q.reference());
            const double err = std::fabs(q.convert(v) - v);
            ASSERT_LE(err, 0.5 * q.lsb() * (1.0 + 1e-12))
                << "enob=" << c.enob << " fs=" << c.full_scale << " v=" << v;
        }
    }
}

TEST(AdcQuantizerPropertyTest, ExactInverseOnlyForPowerOfTwoSteps) {
    // The engine's step sizes: 2^-4 (bit exact), 2^-5 (reference scale
    // 0.5) and 2^-8 (the delta-sigma final conversion) multiply by their
    // inverse; any other step divides.
    EXPECT_EQ(vmac::AdcQuantizer(8.0, 8.0).step().inv_lsb, 16.0);
    EXPECT_EQ(vmac::AdcQuantizer(8.0, 8.0, 0.5).step().inv_lsb, 32.0);
    EXPECT_EQ(vmac::AdcQuantizer(12.0, 8.0).step().inv_lsb, 256.0);
    EXPECT_EQ(vmac::AdcQuantizer(12.5, 8.0).step().inv_lsb, 0.0);
    EXPECT_EQ(vmac::AdcQuantizer(8.0, 8.0, 0.3).step().inv_lsb, 0.0);
}

TEST(AdcQuantizerPropertyTest, LaneConvertMatchesScalarBitForBitOnBothArms) {
    // The lane convert (exact inverse for power-of-two steps, division
    // otherwise) must return convert()'s bits on every input: random
    // values, exact ties of the grid, the clip boundaries and their
    // neighbours, signed zeros, subnormals, infinities and NaN.
    std::vector<QuantizerCase> cases{{8.0, 8.0, 1.0},  {8.0, 8.0, 0.5}, {12.0, 8.0, 1.0},
                                     {12.5, 8.0, 1.0}, {8.0, 8.0, 0.3}, {6.0, 1.0, 1.0}};
    for (const QuantizerCase& c : random_cases(40, 23)) cases.push_back(c);
    const double inf = std::numeric_limits<double>::infinity();
    Rng rng(24);
    for (const QuantizerCase& c : cases) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        const double ref = q.reference();
        std::vector<double> xs{0.0,
                               -0.0,
                               ref,
                               -ref,
                               std::nextafter(ref, inf),
                               std::nextafter(-ref, -inf),
                               std::nextafter(ref, 0.0),
                               2.0 * ref,
                               -3.0 * ref,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::denorm_min(),
                               inf,
                               -inf,
                               std::numeric_limits<double>::quiet_NaN()};
        for (int i = 0; i < 500; ++i) {
            xs.push_back(rng.uniform(-1.5 * ref, 1.5 * ref));
            const double tie = (std::floor(rng.uniform(-ref, ref) / q.lsb()) + 0.5) * q.lsb();
            xs.push_back(tie);
            xs.push_back(std::nextafter(tie, inf));
        }
        on_each_arm([&] {
            std::vector<double> got(xs.size());
            q.convert(xs.data(), got.data(), xs.size());
            for (std::size_t i = 0; i < xs.size(); ++i) {
                const double want = q.convert(xs[i]);
                ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
                    << "enob=" << c.enob << " fs=" << c.full_scale << " rs=" << c.reference_scale
                    << " x=" << xs[i];
            }
        });
    }
}

TEST(AdcQuantizerPropertyTest, ReferenceScaleFoldsIntoFullScale) {
    // (enob, fs, rs) and (enob, fs * rs, 1) describe the same converter;
    // the two parameterizations must agree bit for bit.
    Rng rng(71);
    for (const QuantizerCase& c : random_cases(200, 72)) {
        const vmac::AdcQuantizer split(c.enob, c.full_scale, c.reference_scale);
        const vmac::AdcQuantizer folded(c.enob, c.full_scale * c.reference_scale, 1.0);
        ASSERT_EQ(split.lsb(), folded.lsb());
        ASSERT_EQ(split.reference(), folded.reference());
        for (int i = 0; i < 10; ++i) {
            const double v = rng.uniform(-2.0 * split.reference(), 2.0 * split.reference());
            ASSERT_EQ(split.convert(v), folded.convert(v));
        }
    }
}

TEST(AdcQuantizerPropertyTest, EffectiveEnobInvertsLsb) {
    // effective_enob_from_rms is the inverse of the LSB formula: feeding
    // it the quantizer's own lsb / sqrt(12) as an RMS must return enob.
    for (const QuantizerCase& c : random_cases(100, 82)) {
        const vmac::AdcQuantizer q(c.enob, c.full_scale, c.reference_scale);
        const double rms = q.lsb() / std::sqrt(12.0);
        const double enob =
            vmac::effective_enob_from_rms(rms, c.full_scale * c.reference_scale);
        EXPECT_NEAR(enob, c.enob, 1e-9);
    }
}

TEST(AdcQuantizerPropertyTest, RejectsInvalidConfigurations) {
    EXPECT_THROW(vmac::AdcQuantizer(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(vmac::AdcQuantizer(-2.0, 1.0), std::invalid_argument);
    EXPECT_THROW(vmac::AdcQuantizer(33.0, 1.0), std::invalid_argument);
    EXPECT_THROW(vmac::AdcQuantizer(8.0, 0.0), std::invalid_argument);
    EXPECT_THROW(vmac::AdcQuantizer(8.0, 1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(vmac::AdcQuantizer(8.0, -1.0), std::invalid_argument);
}

/// Random operand pairs in the DoReFa ranges the cell is specified for.
void random_operands(Rng& rng, std::size_t n, std::vector<double>& w,
                     std::vector<double>& x) {
    w.resize(n);
    x.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        w[i] = rng.uniform(-1.0, 1.0);
        x[i] = rng.uniform(0.0, 1.0);
    }
}

TEST(AdcQuantizerPropertyTest, VmacCellRoutesThroughSharedQuantizer) {
    // With zero analog noise the cell's dot() is, definitionally,
    // quantizer().convert() of the encoded ideal dot product — exact
    // agreement, same floating-point order. This pins the bit_exact and
    // per_vmac_noise backends (which wrap VmacCell) to the shared model.
    Rng operand_rng(91);
    Rng noise_rng(92);
    for (double enob : {4.0, 6.5, 9.0}) {
        vmac::VmacConfig cfg;
        cfg.enob = enob;
        cfg.nmult = 8;
        const vmac::VmacCell cell(cfg);
        std::vector<double> w, x;
        for (int i = 0; i < 200; ++i) {
            random_operands(operand_rng, cfg.nmult, w, x);
            const double ideal = cell.dot_ideal(w, x);
            ASSERT_EQ(cell.dot(w, x, noise_rng), cell.quantizer().convert(ideal))
                << "enob=" << enob << " case " << i;
        }
    }
}

TEST(AdcQuantizerPropertyTest, ReferenceScaledCellAgreesIncludingClipping) {
    // Sec. 4 method 3 shrinks the reference: inputs beyond it must clip
    // exactly as the shared quantizer clips, not saturate some other way.
    Rng operand_rng(101);
    Rng noise_rng(102);
    vmac::VmacConfig cfg;
    cfg.enob = 6.0;
    cfg.nmult = 8;
    vmac::AnalogOptions analog;
    analog.reference_scale = 0.25;  // aggressive: most full dots clip
    const vmac::VmacCell cell(cfg, analog);
    std::vector<double> w, x;
    std::size_t clipped = 0;
    for (int i = 0; i < 300; ++i) {
        random_operands(operand_rng, cfg.nmult, w, x);
        const double ideal = cell.dot_ideal(w, x);
        if (cell.quantizer().clips(ideal)) ++clipped;
        ASSERT_EQ(cell.dot(w, x, noise_rng), cell.quantizer().convert(ideal)) << "case " << i;
    }
    EXPECT_GT(clipped, 0u) << "sweep never exercised the clipping region";
}

TEST(AdcQuantizerPropertyTest, TrivialPartitionReducesToSharedQuantizer) {
    // nw = nx = 1 with the partial converter at the cell's resolution is
    // no partition at all: one conversion of the full dot product through
    // the same shared quantizer. The partitioned datapath must then match
    // the plain cell exactly.
    vmac::VmacConfig cfg;
    cfg.enob = 6.0;
    cfg.nmult = 8;
    cfg.bits_w = 9;
    cfg.bits_x = 9;
    vmac::PartitionOptions popts;
    popts.nw = 1;
    popts.nx = 1;
    popts.enob_partial = cfg.enob;
    const vmac::PartitionedVmac partitioned(cfg, popts);
    ASSERT_EQ(partitioned.conversions_per_vmac(), 1u);
    const vmac::VmacCell cell(cfg);

    Rng operand_rng(111);
    Rng noise_rng(112);
    std::vector<double> w, x;
    for (int i = 0; i < 200; ++i) {
        random_operands(operand_rng, cfg.nmult, w, x);
        ASSERT_EQ(partitioned.dot_ideal(w, x), cell.dot_ideal(w, x)) << "case " << i;
        ASSERT_EQ(partitioned.dot(w, x, noise_rng), cell.dot(w, x, noise_rng))
            << "case " << i;
    }
}

}  // namespace
}  // namespace ams
