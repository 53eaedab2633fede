#include "quant/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "ams/vmac_lanes.hpp"
#include "tensor/rng.hpp"
#include "simd_arms.hpp"

namespace ams::quant {
namespace {

using testing_support::on_each_arm;

/// Inputs that probe a rounding: signed zeros, exact ties at many
/// magnitudes, their neighbours, the 2^52 boundary, subnormals,
/// infinities, NaNs (quiet, signaling, negative) and random values.
std::vector<double> rounding_inputs() {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> xs{0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                           0.49999999999999994, -0.49999999999999994, 0x1p52 - 0.5,
                           -(0x1p52 - 0.5), 0x1p52, -0x1p52, 0x1p52 - 1.0, 0x1p53 + 2.0,
                           1e300, -1e300, inf, -inf,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min() / 3.0,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN()};
    Rng rng(7);
    for (int i = 0; i < 4000; ++i) {
        const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform_index(60)) - 8);
        xs.push_back(rng.uniform(-1.0, 1.0) * scale);
        const double tie = static_cast<double>(rng.uniform_index(1u << 20)) + 0.5;
        xs.push_back(rng.uniform() < 0.5 ? -tie : tie);
        xs.push_back(std::nextafter(tie, 0.0));
        xs.push_back(std::nextafter(-tie, inf));
    }
    return xs;
}

TEST(RoundHalfAwayTest, MatchesStdRoundBitForBit) {
    // The inlined rounding behind the codecs and the ADC model must return
    // exactly what std::round returns, signed zeros and specials included.
    const auto expect_same = [](double x) {
        const double got = round_half_away(x);
        const double want = std::round(x);
        if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(got));
            return;
        }
        EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << "x = " << x;
    };
    for (const double x : {0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                           0.49999999999999994, -0.49999999999999994, 0x1p52 - 0.5,
                           -(0x1p52 - 0.5), 0x1p52, 0x1p53 + 2.0, 1e300, -1e300,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min()}) {
        expect_same(x);
    }
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform_index(60)) - 8);
        expect_same(rng.uniform(-1.0, 1.0) * scale);
        // Exact halves at every magnitude.
        expect_same((static_cast<double>(rng.uniform_index(1u << 20)) + 0.5) *
                    (rng.uniform() < 0.5 ? -1.0 : 1.0));
    }
}

TEST(RoundHalfAwayTest, LaneFormMatchesScalarBitForBitOnBothArms) {
    // The engine's lane kernels round through a branch-free form; it must
    // return the scalar form's bits on every input, NaN payloads included.
    // Odd lengths and offsets run both the vector steps and the tails.
    const std::vector<double> xs = rounding_inputs();
    on_each_arm([&] {
        for (const std::size_t offset : {0u, 3u}) {
            const std::size_t n = xs.size() - offset;
            std::vector<double> got(n);
            vmac::lanes::round_half_away(xs.data() + offset, got.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                const double want = round_half_away(xs[offset + i]);
                ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
                    << "x = " << xs[offset + i];
            }
        }
    });
}

TEST(SignMagCodecTest, LaneQuantizeMatchesCodecBitForBitOnBothArms) {
    // Stage 1 of the VMAC engine encodes operands in lanes; every code,
    // and the sign of every zero, must be the codec's.
    for (const std::size_t bits : {2u, 8u, 9u, 16u}) {
        const SignMagCodec codec(bits);
        const double fs = static_cast<double>(codec.full_scale());
        std::vector<double> xs{0.0, -0.0, 1.0, -1.0, 1.5, -7.0, 0.4 / fs, -0.4 / fs,
                               std::numeric_limits<double>::denorm_min(),
                               -std::numeric_limits<double>::infinity()};
        Rng rng(bits);
        for (int i = 0; i < 2000; ++i) {
            xs.push_back(rng.uniform(-1.2, 1.2));
            // Exact and near ties of the magnitude grid.
            const double tie =
                (static_cast<double>(rng.uniform_index(codec.full_scale())) + 0.5) / fs;
            xs.push_back(rng.uniform() < 0.5 ? -tie : tie);
        }
        std::vector<float> fs_in(xs.begin(), xs.end());
        on_each_arm([&] {
            std::vector<double> got(xs.size()), got_f(xs.size());
            vmac::lanes::quantize_sign_magnitude(xs.data(), 0, 1, xs.size(), codec.full_scale(),
                                                 got.data());
            vmac::lanes::quantize_sign_magnitude(fs_in.data(), 0, 1, fs_in.size(),
                                                 codec.full_scale(), got_f.data());
            for (std::size_t i = 0; i < xs.size(); ++i) {
                const double want = codec.quantize(xs[i]);
                const double want_f = codec.quantize(static_cast<double>(fs_in[i]));
                ASSERT_EQ(std::memcmp(&got[i], &want, sizeof(double)), 0)
                    << "bits " << bits << " x = " << xs[i];
                ASSERT_EQ(std::memcmp(&got_f[i], &want_f, sizeof(double)), 0)
                    << "bits " << bits << " x = " << fs_in[i];
            }
        });
    }
}

TEST(SignMagCodecTest, FullScaleAndLsb) {
    SignMagCodec codec(8);
    EXPECT_EQ(codec.full_scale(), 127u);
    EXPECT_NEAR(codec.lsb(), 1.0 / 127.0, 1e-12);
}

TEST(SignMagCodecTest, EncodesExtremes) {
    SignMagCodec codec(4);
    EXPECT_EQ(codec.encode(1.0).magnitude, 7u);
    EXPECT_FALSE(codec.encode(1.0).negative);
    EXPECT_EQ(codec.encode(-1.0).magnitude, 7u);
    EXPECT_TRUE(codec.encode(-1.0).negative);
    EXPECT_EQ(codec.encode(0.0).magnitude, 0u);
}

TEST(SignMagCodecTest, ClampsOutOfRange) {
    SignMagCodec codec(4);
    EXPECT_DOUBLE_EQ(codec.decode(codec.encode(5.0)), 1.0);
    EXPECT_DOUBLE_EQ(codec.decode(codec.encode(-5.0)), -1.0);
}

TEST(SignMagCodecTest, NegativeZeroIsNonNegative) {
    SignMagCodec codec(6);
    const SignMagCode z = codec.encode(-0.0);
    EXPECT_FALSE(z.negative);
    EXPECT_EQ(z.magnitude, 0u);
    // Tiny negative values also round to clean zero.
    EXPECT_FALSE(codec.encode(-1e-9).negative);
}

TEST(SignMagCodecTest, DecodeValidatesMagnitude) {
    SignMagCodec codec(4);
    EXPECT_THROW((void)codec.decode({false, 8}), std::invalid_argument);
}

TEST(SignMagCodecTest, ConstructionBounds) {
    EXPECT_THROW(SignMagCodec(1), std::invalid_argument);
    EXPECT_THROW(SignMagCodec(25), std::invalid_argument);
    EXPECT_NO_THROW(SignMagCodec(2));
    EXPECT_NO_THROW(SignMagCodec(24));
}

class CodecRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CodecRoundTrip, QuantizationErrorBoundedByHalfLsb) {
    const std::size_t bits = GetParam();
    SignMagCodec codec(bits);
    Rng rng(bits * 131);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        const double q = codec.quantize(x);
        EXPECT_LE(std::fabs(q - x), 0.5 * codec.lsb() + 1e-12);
        // Idempotence: representable values survive re-encoding exactly.
        EXPECT_DOUBLE_EQ(codec.quantize(q), q);
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, CodecRoundTrip, ::testing::Values(2u, 4u, 6u, 8u, 12u, 16u));

TEST(SignMagCodecTest, SignSymmetry) {
    SignMagCodec codec(8);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        EXPECT_DOUBLE_EQ(codec.quantize(x), -codec.quantize(-x));
    }
}

TEST(SignMagCodecTest, EncodeAllMatchesEncode) {
    SignMagCodec codec(6);
    const std::vector<double> xs{-1.0, -0.3, 0.0, 0.77, 1.0};
    const auto codes = codec.encode_all(xs);
    ASSERT_EQ(codes.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(codes[i].magnitude, codec.encode(xs[i]).magnitude);
        EXPECT_EQ(codes[i].negative, codec.encode(xs[i]).negative);
    }
}

}  // namespace
}  // namespace ams::quant
