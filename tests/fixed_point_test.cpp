#include "quant/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/rng.hpp"

namespace ams::quant {
namespace {

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
