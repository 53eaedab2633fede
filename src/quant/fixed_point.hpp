// Sign-magnitude fixed-point codec.
//
// The paper's VMAC cell consumes BW-bit weights and BX-bit activations in
// sign-magnitude representation (one sign bit + B-1 magnitude bits
// spanning [0, 1]). This codec converts between that digital encoding and
// the real values the rest of the library works with; the bit-exact VMAC
// simulator (ams::vmac::VmacCell) operates on these codes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ams::quant {

/// std::round (halves away from zero, signed zeros kept), inlined and
/// branch-free on the rounding direction: the operand encoders and ADC
/// models round on every value, where the libm call and a mispredicted
/// branch per random fraction dominated. |x| < 2^52 truncates exactly
/// through int64, and |x| - trunc(|x|) is exact; larger magnitudes,
/// infinities and NaN are returned unchanged, as std::round returns them.
[[nodiscard]] inline double round_half_away(double x) {
    const double a = std::fabs(x);
    if (!(a < 0x1p52)) return x;
    const double t = static_cast<double>(static_cast<std::int64_t>(a));
    return std::copysign(t + (a - t >= 0.5 ? 1.0 : 0.0), x);
}

/// A sign-magnitude code word: value = (negative ? -1 : +1) * magnitude / full_scale.
struct SignMagCode {
    bool negative = false;
    std::uint32_t magnitude = 0;
};

/// Sign-magnitude codec with B-1 magnitude bits.
class SignMagCodec {
public:
    /// Throws std::invalid_argument unless 2 <= bits <= 24.
    explicit SignMagCodec(std::size_t bits);

    [[nodiscard]] std::size_t bits() const { return bits_; }
    /// Largest representable magnitude code: 2^(bits-1) - 1.
    [[nodiscard]] std::uint32_t full_scale() const { return full_scale_; }
    /// Quantization step: 1 / full_scale().
    [[nodiscard]] double lsb() const { return 1.0 / static_cast<double>(full_scale_); }

    /// Encodes x (clamped to [-1, 1]) to the nearest representable code.
    /// -0.0 encodes as non-negative zero.
    [[nodiscard]] SignMagCode encode(double x) const {
        const double clamped = std::clamp(x, -1.0, 1.0);
        const double scaled = std::fabs(clamped) * static_cast<double>(full_scale_);
        const auto mag = static_cast<std::uint32_t>(round_half_away(scaled));
        SignMagCode code;
        code.magnitude = std::min(mag, full_scale_);
        code.negative = (clamped < 0.0) && code.magnitude != 0;
        return code;
    }

    /// Decodes a code to its real value in [-1, 1].
    /// Throws std::invalid_argument if magnitude exceeds full_scale().
    [[nodiscard]] double decode(const SignMagCode& code) const {
        if (code.magnitude > full_scale_) {
            throw std::invalid_argument("SignMagCodec::decode: magnitude exceeds full scale");
        }
        const double v =
            static_cast<double>(code.magnitude) / static_cast<double>(full_scale_);
        return code.negative ? -v : v;
    }

    /// Round-trip: the representable value nearest to x.
    [[nodiscard]] double quantize(double x) const { return decode(encode(x)); }

    /// Encodes a span of values.
    [[nodiscard]] std::vector<SignMagCode> encode_all(const std::vector<double>& xs) const;

private:
    std::size_t bits_;
    std::uint32_t full_scale_;
};

}  // namespace ams::quant
