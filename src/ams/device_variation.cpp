#include "ams/device_variation.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "ams/error_model.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rng_stream.hpp"

namespace ams::vmac {

// ----- DeviceProfile --------------------------------------------------

bool DeviceProfile::active() const {
    return cell_offset_sigma > 0.0 || has_drift() || ir_drop_alpha > 0.0;
}

bool DeviceProfile::has_drift() const {
    return drift_time > 0.0 && (drift_nu != 0.0 || drift_nu_sigma > 0.0);
}

double DeviceProfile::drift_gain() const { return drift_gain_for(drift_nu); }

double DeviceProfile::drift_gain_for(double nu) const {
    if (!has_drift()) return 1.0;
    return std::pow(drift_time / drift_t0, -nu);
}

double DeviceProfile::cell_normal(std::uint64_t family, std::uint64_t stream,
                                  std::uint64_t cell) const {
    // Pure counter-based derivation: (chip, family, stream, cell) names
    // the deviate, no mutable state is read or advanced. The same scheme
    // (and code) as the injector's per-tile noise streams.
    Rng rng = runtime::RngStream(chip_seed).substream(family).substream(stream).stream(cell);
    return rng.normal(0.0, 1.0);
}

std::string DeviceProfile::str() const {
    std::ostringstream os;
    os << "chip" << chip_seed;
    if (cell_offset_sigma > 0.0) os << "_off" << cell_offset_sigma;
    if (has_drift()) {
        os << "_t" << drift_time << "nu" << drift_nu;
        if (drift_t0 != 1.0) os << "t0" << drift_t0;
        if (drift_nu_sigma > 0.0) os << "ns" << drift_nu_sigma;
    }
    if (ir_drop_alpha > 0.0) os << "_ir" << ir_drop_alpha << "r" << ir_drop_ref_cells;
    return os.str();
}

void DeviceProfile::validate() const {
    if (cell_offset_sigma < 0.0) {
        throw std::invalid_argument("DeviceProfile: cell_offset_sigma must be >= 0");
    }
    if (drift_time < 0.0) {
        throw std::invalid_argument("DeviceProfile: drift_time must be >= 0");
    }
    if (drift_t0 <= 0.0) {
        throw std::invalid_argument("DeviceProfile: drift_t0 must be > 0");
    }
    if (drift_nu_sigma < 0.0) {
        throw std::invalid_argument("DeviceProfile: drift_nu_sigma must be >= 0");
    }
    if (ir_drop_alpha < 0.0 || ir_drop_alpha >= 1.0) {
        throw std::invalid_argument("DeviceProfile: ir_drop_alpha must be in [0, 1)");
    }
    if (ir_drop_alpha > 0.0 && ir_drop_ref_cells == 0) {
        throw std::invalid_argument("DeviceProfile: ir_drop_ref_cells must be > 0");
    }
}

DeviceProfile device_profile_from_env() {
    DeviceProfile p;
    const auto read_u64 = [](const char* name, std::uint64_t fallback) {
        const char* v = std::getenv(name);
        return v != nullptr && *v != '\0' ? std::strtoull(v, nullptr, 10) : fallback;
    };
    const auto read_double = [](const char* name, double fallback) {
        const char* v = std::getenv(name);
        return v != nullptr && *v != '\0' ? std::strtod(v, nullptr) : fallback;
    };
    p.chip_seed = read_u64("AMSNET_CHIP", p.chip_seed);
    p.cell_offset_sigma = read_double("AMSNET_OFFSET_SIGMA", p.cell_offset_sigma);
    p.drift_nu = read_double("AMSNET_DRIFT_NU", p.drift_nu);
    p.drift_time = read_double("AMSNET_DRIFT_T", p.drift_time);
    p.drift_t0 = read_double("AMSNET_DRIFT_T0", p.drift_t0);
    p.drift_nu_sigma = read_double("AMSNET_DRIFT_NU_SIGMA", p.drift_nu_sigma);
    p.ir_drop_alpha = read_double("AMSNET_IR_ALPHA", p.ir_drop_alpha);
    p.validate();
    return p;
}

// ----- DeviceVariation ------------------------------------------------

DeviceVariation::DeviceVariation(std::unique_ptr<VmacBackend> inner,
                                 const DeviceProfile& profile)
    : inner_(std::move(inner)), profile_(profile) {
    if (inner_ == nullptr) {
        throw std::invalid_argument("DeviceVariation: null inner backend");
    }
    // convert_tile hands the wrapped datapath one per-cell offset table.
    if (dynamic_cast<const DeviceVariation*>(inner_.get()) != nullptr) {
        throw std::invalid_argument("DeviceVariation: the inner backend already carries a chip");
    }
    profile_.validate();
}

const DeviceVariation::CellState& DeviceVariation::cell_state(std::size_t cell) const {
    while (cells_.size() <= cell) {
        const std::uint64_t c = cells_.size();
        CellState s;
        if (profile_.cell_offset_sigma > 0.0) {
            s.offset = profile_.cell_offset_sigma *
                       profile_.cell_normal(kFamilyCellOffset, 0, c);
        }
        if (profile_.has_drift()) {
            double nu = profile_.drift_nu;
            if (profile_.drift_nu_sigma > 0.0) {
                nu += profile_.drift_nu_sigma * profile_.cell_normal(kFamilyDriftNu, 0, c);
            }
            s.gain *= profile_.drift_gain_for(nu);
        }
        if (profile_.ir_drop_alpha > 0.0) {
            const double depth = std::min(
                1.0, static_cast<double>(c) / static_cast<double>(profile_.ir_drop_ref_cells));
            s.gain *= 1.0 - profile_.ir_drop_alpha * depth;
        }
        cells_.push_back(s);
    }
    return cells_[cell];
}

double DeviceVariation::cell_offset(std::size_t cell) const { return cell_state(cell).offset; }

double DeviceVariation::cell_gain(std::size_t cell) const { return cell_state(cell).gain; }

double DeviceVariation::accumulate(std::span<const double> weights,
                                   std::span<const double> activations, Rng& rng) {
    const CellState& cs = cell_state(cell_++);
    runtime::metrics::add(runtime::metrics::Counter::kVariationChunks);
    if (cs.gain == 1.0) {
        return inner_->accumulate(weights, activations, rng) + cs.offset;
    }
    // Drift/IR act on the stored conductances: scale the weights before
    // the wrapped datapath re-quantizes and converts them.
    scaled_.assign(weights.begin(), weights.end());
    for (double& w : scaled_) w *= cs.gain;
    return inner_->accumulate({scaled_.data(), scaled_.size()}, activations, rng) + cs.offset;
}

void DeviceVariation::encode_weights(const double* weights, const OperandPlanes& dst) {
    const std::size_t nmult = config().nmult;
    const std::size_t chunks = (dst.rows + nmult - 1) / nmult;
    while (offsets_.size() < chunks) offsets_.push_back(cell_state(offsets_.size()).offset);
    // Drift/IR act on the stored conductances, as in accumulate().
    scaled_.resize(dst.rows);
    for (std::size_t k = 0; k < dst.rows; ++k) {
        scaled_[k] = weights[k] * cell_state(k / nmult).gain;
    }
    inner_->encode_weights(scaled_.data(), dst);
}

void DeviceVariation::convert_tile(const TileSums& tile, Rng& rng, float* out) const {
    if (profile_.cell_offset_sigma <= 0.0) {
        inner_->convert_tile(tile, rng, out);
        return;
    }
    TileSums offset = tile;
    offset.offsets = offsets_.data();
    inner_->convert_tile(offset, rng, out);
}

void DeviceVariation::count_conversions(std::uint64_t chunks, std::uint64_t outputs) const {
    runtime::metrics::add(runtime::metrics::Counter::kVariationChunks, chunks);
    inner_->count_conversions(chunks, outputs);
}

double DeviceVariation::finish_output(Rng& rng) {
    cell_ = 0;  // next output re-uses the same physical column of cells
    return inner_->finish_output(rng);
}

double DeviceVariation::effective_enob(std::size_t chunks_per_output) const {
    const double e = inner_->effective_enob(chunks_per_output);
    if (profile_.cell_offset_sigma <= 0.0) return e;
    // Eq. 2 equivalence: fold the static per-conversion offset variance
    // into the wrapped backend's conversion-error variance and solve for
    // the monolithic ENOB with the combined variance. Multiplicative
    // drift/IR families are signal-proportional and excluded (like
    // reference-scaling's clipping penalty — measured, not folded).
    VmacConfig at_e = inner_->config();
    at_e.enob = e;
    const double var_inner = vmac_error_variance(at_e);
    const double var_offset = profile_.cell_offset_sigma * profile_.cell_offset_sigma;
    return e - 0.5 * std::log2((var_inner + var_offset) / var_inner);
}

std::unique_ptr<VmacBackend> DeviceVariation::clone() const {
    return std::make_unique<DeviceVariation>(inner_->clone(), profile_);
}

std::unique_ptr<VmacBackend> with_variation(std::unique_ptr<VmacBackend> inner,
                                            const DeviceProfile& profile) {
    if (!profile.active()) return inner;
    return std::make_unique<DeviceVariation>(std::move(inner), profile);
}

}  // namespace ams::vmac
