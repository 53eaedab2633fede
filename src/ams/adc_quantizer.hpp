// AdcQuantizer: the one mid-tread ADC converter model shared by every
// datapath simulator.
//
// VmacCell, PartitionedVmac, and the reference-scaling analysis all
// digitize an analog value the same way — clip to +/- reference, round to
// the nearest of 2^ENOB uniform steps spanning the clipped range — and
// each used to carry its own copy of that arithmetic. This header is the
// single definition, so the converters cannot drift apart.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "quant/fixed_point.hpp"

namespace ams::vmac {

/// Mid-tread quantizer with clipping at +/- (reference_scale * full_scale).
class AdcQuantizer {
public:
    /// Placeholder state (1-bit, unit range); assign a configured instance
    /// before converting.
    AdcQuantizer() : AdcQuantizer(1.0, 1.0, 1.0) {}

    /// `full_scale` is the natural range of the analog value (Nmult in
    /// dot-product units for summation hardware, 1 for averaging);
    /// `reference_scale` shrinks or stretches the converter span relative
    /// to it (Sec. 4, method 3). Throws std::invalid_argument if either is
    /// non-positive or enob is outside (0, 32].
    AdcQuantizer(double enob, double full_scale, double reference_scale = 1.0)
        : reference_(reference_scale * full_scale),
          // Keep the historical evaluation order (2 * scale * range * step)
          // so refactored call sites stay bit-identical.
          lsb_(2.0 * reference_scale * full_scale * std::exp2(-enob)) {
        if (enob <= 0.0 || enob > 32.0) {
            throw std::invalid_argument("AdcQuantizer: enob must be in (0, 32]");
        }
        if (full_scale <= 0.0 || reference_scale <= 0.0) {
            throw std::invalid_argument("AdcQuantizer: scales must be positive");
        }
    }

    /// Clip range: the converter spans [-reference(), +reference()].
    [[nodiscard]] double reference() const { return reference_; }

    /// Step size: 2 * reference / 2^enob.
    [[nodiscard]] double lsb() const { return lsb_; }

    /// Whether `v` lies outside the converter span (would clip).
    [[nodiscard]] bool clips(double v) const { return v < -reference_ || v > reference_; }

    /// Digital output for analog input `v`: clip, then round to the grid.
    [[nodiscard]] double convert(double v) const {
        const double clipped = std::clamp(v, -reference_, reference_);
        return quant::round_half_away(clipped / lsb_) * lsb_;
    }

private:
    double reference_;
    double lsb_;
};

/// ENOB implied by a measured RMS conversion error over a range of
/// +/- full_scale, per the LSB <-> variance convention used throughout
/// (LSB_eff = sqrt(12) * rms). The inverse of lsb() above.
[[nodiscard]] inline double effective_enob_from_rms(double rms_error, double full_scale) {
    const double lsb_eff = std::sqrt(12.0) * std::max(rms_error, 1e-300);
    return std::log2(2.0 * full_scale / lsb_eff);
}

}  // namespace ams::vmac
