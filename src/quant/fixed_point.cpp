#include "quant/fixed_point.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ams::quant {

SignMagCodec::SignMagCodec(std::size_t bits) : bits_(bits) {
    if (bits < 2 || bits > 24) {
        throw std::invalid_argument("SignMagCodec: bits must be in [2, 24]");
    }
    full_scale_ = (std::uint32_t{1} << (bits - 1)) - 1;
}

std::vector<SignMagCode> SignMagCodec::encode_all(const std::vector<double>& xs) const {
    std::vector<SignMagCode> out;
    out.reserve(xs.size());
    for (double x : xs) out.push_back(encode(x));
    return out;
}

}  // namespace ams::quant
