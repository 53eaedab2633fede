// DeviceVariation: per-chip static non-idealities as a VmacBackend
// decorator, composable with any of the six datapaths.
//
// Real AMS silicon is not i.i.d. across inferences: every fabricated
// chip carries a frozen realization of programming offsets, its
// conductances drift with time since programming, and array positions
// far from the drivers see correlated IR-drop gain loss ("On the
// Accuracy of Analog Neural Network Inference Accelerators"). This
// decorator layers those *static* error families on top of the wrapped
// backend's *stochastic* conversion error:
//
//   family            applied as                        drawn from
//   ----------------  --------------------------------  -----------------
//   static offset     + offset(c) after conversion      N(0, sigma) per (chip, cell)
//   conductance drift * (t/t0)^-nu_c on the weights     nu_c = nu + nu_sigma*z(chip, cell)
//   IR drop           * 1 - alpha*min(1, c/ref) on w    position-keyed (no RNG)
//
// The cell index c is the chunk's position within the current output
// accumulator (reset by finish_output; in the engine's stages, the chunk
// index of the dot product), matching a weight-stationary
// mapping where one output column's chunks are time-multiplexed onto the
// same physical VMAC column. It is a pure function of the chunk stream —
// never of scheduling — so a chip's realization is bit-identical at any
// thread count and across clone()d per-worker backends.
//
// Cost contract: the decorator adds no ADC conversions — offsets and
// gains are analog perturbations of conversions the wrapped backend
// already performs — so conversions_per_vmac()/conversion_profile()
// delegate unchanged. effective_enob() folds the static offset variance
// into the wrapped backend's error variance (Eq. 2 equivalence); the
// multiplicative drift/IR families are signal-proportional and excluded,
// like reference-scaling's data-dependent clipping.
#pragma once

#include <memory>
#include <vector>

#include "ams/vmac_backend.hpp"

namespace ams::vmac {

/// Decorates `inner` with a DeviceProfile's static error families.
class DeviceVariation final : public VmacBackend {
public:
    /// Throws std::invalid_argument on an invalid profile, a null inner,
    /// or an inner that is itself a DeviceVariation (one chip per datapath).
    DeviceVariation(std::unique_ptr<VmacBackend> inner, const DeviceProfile& profile);

    double accumulate(std::span<const double> weights, std::span<const double> activations,
                      Rng& rng) override;
    double finish_output(Rng& rng) override;

    [[nodiscard]] OperandLayout operand_layout() const override {
        return inner_->operand_layout();
    }
    /// Scales each chunk's weights by its cell's gain before the wrapped
    /// datapath encodes them, and freezes the cells' offsets for
    /// convert_tile.
    void encode_weights(const double* weights, const OperandPlanes& dst) override;
    void encode_activations(const float* activations, std::size_t stride,
                            const OperandPlanes& dst) const override {
        inner_->encode_activations(activations, stride, dst);
    }
    /// The wrapped conversion, plus each chunk's cell offset.
    void convert_tile(const TileSums& tile, Rng& rng, float* out) const override;
    void count_conversions(std::uint64_t chunks, std::uint64_t outputs) const override;

    /// Transparent decoration: reports the wrapped datapath's kind, so
    /// series labels and conversion ledgers stay per-datapath.
    [[nodiscard]] BackendKind kind() const override { return inner_->kind(); }
    [[nodiscard]] std::size_t conversions_per_vmac() const override {
        return inner_->conversions_per_vmac();
    }
    [[nodiscard]] ConversionProfile conversion_profile() const override {
        return inner_->conversion_profile();
    }
    [[nodiscard]] double effective_enob(std::size_t chunks_per_output) const override;
    [[nodiscard]] bool trainable() const override { return inner_->trainable(); }
    [[nodiscard]] std::unique_ptr<VmacBackend> clone() const override;
    [[nodiscard]] const VmacConfig& config() const override { return inner_->config(); }

    [[nodiscard]] const DeviceProfile& profile() const { return profile_; }
    [[nodiscard]] const VmacBackend& inner() const { return *inner_; }

    /// Frozen per-cell realization (tests validate these distributions).
    [[nodiscard]] double cell_offset(std::size_t cell) const;
    [[nodiscard]] double cell_gain(std::size_t cell) const;

private:
    struct CellState {
        double offset = 0.0;  ///< additive, output-referred
        double gain = 1.0;    ///< multiplicative on the weights
    };
    [[nodiscard]] const CellState& cell_state(std::size_t cell) const;

    std::unique_ptr<VmacBackend> inner_;
    DeviceProfile profile_;
    std::size_t cell_ = 0;  ///< chunk position within the current output
    mutable std::vector<CellState> cells_;  ///< lazily materialized realization
    std::vector<double> scaled_;            ///< weight-scaling scratch
    std::vector<double> offsets_;           ///< cells' offsets, by chunk (encode_weights)
};

/// Wraps `inner` when the profile is active; returns it unchanged when
/// not — an inactive profile is bit-identical to the bare backend by
/// construction, not by arithmetic.
[[nodiscard]] std::unique_ptr<VmacBackend> with_variation(std::unique_ptr<VmacBackend> inner,
                                                          const DeviceProfile& profile);

}  // namespace ams::vmac
