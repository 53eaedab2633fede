// Packed integer GEMM property tests: every dispatch arm (scalar,
// SSE4.1, AVX2) must produce the *same bits* as the naive integer
// reference at any thread count — integer accumulation is exact and
// associative, so unlike the fp32 kernels there is no toleranced arm.
// Shapes sweep the microkernel remainder tails: partial 4-row A tiles,
// masked B column groups, k not divisible by the 4-wide (int8) and
// 2-wide (int16) k-blocks.
#include "tensor/gemm_int.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"

namespace ams {
namespace {

class LevelGuard {
public:
    LevelGuard() : saved_(simd::active_level()) {}
    ~LevelGuard() { simd::set_level(saved_); }

private:
    simd::Level saved_;
};

struct ShapeCase {
    std::size_t m, k, n;
};

// Remainder coverage: m % 4, n % 8, k % 4 (and % 2) all nonzero
// somewhere, plus degenerate single-row/column cases and one size large
// enough to cross the parallel-dispatch threshold.
constexpr ShapeCase kShapes[] = {
    {1, 1, 1},   {1, 9, 8},   {4, 27, 49},  {5, 27, 49},  {3, 7, 5},
    {6, 13, 17}, {8, 32, 64}, {17, 51, 33}, {64, 36, 81},
};

/// Exact reference: int64 accumulation cannot overflow at these sizes.
template <typename A, typename B>
std::vector<std::int64_t> naive_exact(const std::vector<A>& a, const std::vector<B>& b,
                                      std::size_t m, std::size_t k, std::size_t n) {
    std::vector<std::int64_t> c(m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            for (std::size_t j = 0; j < n; ++j) {
                c[i * n + j] += static_cast<std::int64_t>(a[i * k + kk]) * b[kk * n + j];
            }
        }
    }
    return c;
}

/// The low 32 bits of each exact sum, as two's complement: what every
/// arm's int32 accumulator holds (modulo-2^32 wrap, like paddd). Equal to
/// the exact sum whenever it fits int32.
std::vector<std::int32_t> wrap_i32(const std::vector<std::int64_t>& exact) {
    std::vector<std::int32_t> c(exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
        c[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(exact[i]));
    }
    return c;
}

std::vector<std::int32_t> naive_s8u8(const std::vector<std::int8_t>& a,
                                     const std::vector<std::uint8_t>& b, std::size_t m,
                                     std::size_t k, std::size_t n) {
    return wrap_i32(naive_exact(a, b, m, k, n));
}

std::vector<std::int32_t> naive_s16(const std::vector<std::int16_t>& a,
                                    const std::vector<std::int16_t>& b, std::size_t m,
                                    std::size_t k, std::size_t n) {
    return wrap_i32(naive_exact(a, b, m, k, n));
}

std::vector<simd::Level> testable_levels() {
    std::vector<simd::Level> levels{simd::Level::kScalar};
#if defined(AMSNET_HAVE_SSE41)
    if (simd::level_at_least(simd::detect_level(), simd::Level::kSse41)) {
        levels.push_back(simd::Level::kSse41);
    }
#endif
#if defined(AMSNET_HAVE_AVX2)
    if (simd::cpu_supports_avx2_fma()) levels.push_back(simd::Level::kAvx2);
#endif
    return levels;
}

TEST(GemmIntTest, S8U8AllArmsBitEqualToNaiveAtOneAndFourThreads) {
    LevelGuard guard;
    Rng rng(5);
    for (const ShapeCase s : kShapes) {
        std::vector<std::int8_t> a(s.m * s.k);
        for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform(-127.0, 127.0));
        std::vector<std::uint8_t> b(s.k * s.n);
        for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform(0.0, 127.0));
        const std::vector<std::int32_t> expected = naive_s8u8(a, b, s.m, s.k, s.n);

        for (const simd::Level level : testable_levels()) {
            simd::set_level(level);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                runtime::ThreadPool::set_global_threads(threads);
                std::vector<std::int32_t> c(s.m * s.n, -1);
                gemm_s8u8(a.data(), b.data(), c.data(), s.m, s.k, s.n);
                EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                                      c.size() * sizeof(std::int32_t)),
                          0)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n << " level="
                    << simd::level_name(level) << " threads=" << threads;
            }
        }
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
}

TEST(GemmIntTest, S16AllArmsBitEqualToNaiveAtOneAndFourThreads) {
    LevelGuard guard;
    Rng rng(6);
    for (const ShapeCase s : kShapes) {
        std::vector<std::int16_t> a(s.m * s.k);
        for (auto& v : a) v = static_cast<std::int16_t>(rng.uniform(-1023.0, 1023.0));
        std::vector<std::int16_t> b(s.k * s.n);
        for (auto& v : b) v = static_cast<std::int16_t>(rng.uniform(-1023.0, 1023.0));
        const std::vector<std::int32_t> expected = naive_s16(a, b, s.m, s.k, s.n);

        for (const simd::Level level : testable_levels()) {
            simd::set_level(level);
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                runtime::ThreadPool::set_global_threads(threads);
                std::vector<std::int32_t> c(s.m * s.n, -1);
                gemm_s16(a.data(), b.data(), c.data(), s.m, s.k, s.n);
                EXPECT_EQ(std::memcmp(c.data(), expected.data(),
                                      c.size() * sizeof(std::int32_t)),
                          0)
                    << "m=" << s.m << " k=" << s.k << " n=" << s.n << " level="
                    << simd::level_name(level) << " threads=" << threads;
            }
        }
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
}

TEST(GemmIntTest, ExtremeCodesCannotSaturateTheInnerProducts) {
    // The documented operand contracts at their limits: pmaddubsw's i16
    // intermediate holds 2 * 127 * 127, pmaddwd's i32 holds 2 * 32767^2.
    // Past the pairs, k = 9 breaks int_accumulator_safe for the int16
    // codes on purpose: the exact sum 9 * -32767^2 does not fit int32,
    // and every arm must wrap it modulo 2^32 identically.
    LevelGuard guard;
    const std::size_t m = 5, k = 9, n = 11;
    std::vector<std::int8_t> a8(m * k, -127);
    std::vector<std::uint8_t> b8(k * n, 127);
    const auto exact8 = naive_exact(a8, b8, m, k, n);
    ASSERT_EQ(exact8[0], -127 * 127 * 9);  // fits: no wrap
    const auto expected8 = wrap_i32(exact8);
    std::vector<std::int16_t> a16(m * k, -32767);
    std::vector<std::int16_t> b16(k * n, 32767);
    const auto exact16 = naive_exact(a16, b16, m, k, n);
    ASSERT_EQ(exact16[0], std::int64_t{-32767} * 32767 * 9);
    ASSERT_LT(exact16[0], std::int64_t{INT32_MIN});  // the wrap is exercised
    const auto expected16 = wrap_i32(exact16);
    EXPECT_EQ(expected16[0], -1073152009);  // -9663086601 + 2 * 2^32

    for (const simd::Level level : testable_levels()) {
        simd::set_level(level);
        std::vector<std::int32_t> c8(m * n);
        gemm_s8u8(a8.data(), b8.data(), c8.data(), m, k, n);
        EXPECT_EQ(std::memcmp(c8.data(), expected8.data(), c8.size() * sizeof(std::int32_t)),
                  0)
            << simd::level_name(level);
        std::vector<std::int32_t> c16(m * n);
        gemm_s16(a16.data(), b16.data(), c16.data(), m, k, n);
        EXPECT_EQ(
            std::memcmp(c16.data(), expected16.data(), c16.size() * sizeof(std::int32_t)), 0)
            << simd::level_name(level);
    }
}

TEST(GemmIntTest, AccumulatorSafetyBound) {
    // 127 * 127 * k <= 2^30 up to k = 66572.
    EXPECT_TRUE(int_accumulator_safe(127, 127, 66572));
    EXPECT_FALSE(int_accumulator_safe(127, 127, 66573));
    EXPECT_TRUE(int_accumulator_safe(32767, 32767, 1));
    EXPECT_FALSE(int_accumulator_safe(32767, 32767, 2));
    EXPECT_TRUE(int_accumulator_safe(0, 0, 1u << 31));
}

TEST(GemmIntTest, ModeNamesParseAndRoundTrip) {
    for (const GemmIntMode mode : {GemmIntMode::kOff, GemmIntMode::kInt8, GemmIntMode::kInt16,
                                   GemmIntMode::kAuto}) {
        EXPECT_EQ(parse_gemm_int_mode(gemm_int_mode_name(mode)), mode);
    }
    EXPECT_EQ(parse_gemm_int_mode(nullptr), GemmIntMode::kOff);
    EXPECT_EQ(parse_gemm_int_mode(""), GemmIntMode::kOff);
    EXPECT_EQ(parse_gemm_int_mode("bogus"), GemmIntMode::kOff);

    ::setenv("AMSNET_GEMM_INT", "auto", 1);
    EXPECT_EQ(env_gemm_int_mode(), GemmIntMode::kAuto);
    ::unsetenv("AMSNET_GEMM_INT");
    EXPECT_EQ(env_gemm_int_mode(), GemmIntMode::kOff);
}

TEST(GemmIntTest, CodeIm2colMatchesFloatIm2colAddressing) {
    // im2col_u8 / im2col_i16 must place code[p] exactly where the float
    // lowering places float(code[p]), with padding encoded as code 0.
    ConvGeometry g;
    g.in_channels = 3;
    g.in_h = 7;
    g.in_w = 6;
    g.kernel_h = 3;
    g.kernel_w = 3;
    g.stride_h = 2;
    g.stride_w = 1;
    g.pad_h = 1;
    g.pad_w = 1;
    const std::size_t image = g.in_channels * g.in_h * g.in_w;
    const std::size_t cols = g.patch_size() * g.out_h() * g.out_w();

    Rng rng(9);
    std::vector<std::uint8_t> codes_u8(image);
    for (auto& c : codes_u8) c = static_cast<std::uint8_t>(rng.uniform(0.0, 127.0));
    std::vector<float> as_float(image);
    for (std::size_t i = 0; i < image; ++i) as_float[i] = static_cast<float>(codes_u8[i]);

    std::vector<float> float_cols(cols);
    im2col(as_float.data(), g, float_cols.data());
    std::vector<std::uint8_t> u8_cols(cols, 255);
    im2col_u8(codes_u8.data(), g, u8_cols.data());
    std::vector<std::int16_t> i16_codes(image);
    for (std::size_t i = 0; i < image; ++i) i16_codes[i] = codes_u8[i];
    std::vector<std::int16_t> i16_cols(cols, -1);
    im2col_i16(i16_codes.data(), g, i16_cols.data());

    for (std::size_t i = 0; i < cols; ++i) {
        EXPECT_EQ(static_cast<float>(u8_cols[i]), float_cols[i]) << "col " << i;
        EXPECT_EQ(static_cast<float>(i16_cols[i]), float_cols[i]) << "col " << i;
    }
}

}  // namespace
}  // namespace ams
