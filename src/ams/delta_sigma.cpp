#include "ams/delta_sigma.hpp"

#include <algorithm>
#include <stdexcept>

namespace ams::vmac {

namespace {
VmacConfig with_enob(VmacConfig c, double enob) {
    c.enob = enob;
    return c;
}
}  // namespace

DeltaSigmaVmac::DeltaSigmaVmac(const VmacConfig& config, double final_enob,
                               const AnalogOptions& analog)
    : cell_(config, analog),
      final_cell_(with_enob(config, final_enob), analog),
      final_enob_(final_enob) {
    if (final_enob < config.enob) {
        throw std::invalid_argument(
            "DeltaSigmaVmac: final conversion must be at least as fine as the per-cycle one");
    }
}

double DeltaSigmaVmac::accumulate(std::span<const double> weights,
                                  std::span<const double> activations, Rng& rng) {
    return cycle(cell_.dot_ideal(weights, activations), weights.size(), residual_, rng);
}

double DeltaSigmaVmac::finalize(Rng& rng) {
    const double digital = final_conversion(residual_, rng);
    residual_ = 0.0;
    return digital;
}

double DeltaSigmaVmac::dot(std::span<const double> weights,
                           std::span<const double> activations, Rng& rng) {
    if (weights.size() != activations.size()) {
        throw std::invalid_argument("DeltaSigmaVmac::dot: size mismatch");
    }
    const std::size_t nmult = cell_.config().nmult;
    double acc = 0.0;
    for (std::size_t start = 0; start < weights.size(); start += nmult) {
        const std::size_t len = std::min(nmult, weights.size() - start);
        acc += accumulate(weights.subspan(start, len), activations.subspan(start, len), rng);
    }
    acc += finalize(rng);
    return acc;
}

}  // namespace ams::vmac
