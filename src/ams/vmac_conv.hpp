// VmacConv2d: convolution computed through explicit AMS VMAC cells.
//
// Section 4, "improving our error models": "One method that would be
// closer to a hardware implementation would be to split up the
// convolution into VMAC-sized units and inject error at the output of
// each VMAC separately. This avoids assuming that these additive errors
// from separate VMACs are uncorrelated, but at the cost of slowing down
// the computation of each convolution. ... this modeling can be performed
// for evaluation only."
//
// This module does exactly that: it lowers the convolution with im2col,
// slices each output activation's N_tot products into ceil(N_tot/Nmult)
// VMAC-sized chunks, pushes every chunk through a pluggable VmacBackend
// datapath (bit-exact cell, per-VMAC noise, partitioned, delta-sigma,
// reference-scaled or block floating point — see ams/vmac_backend.hpp),
// and sums the digital outputs. It is evaluation-only, as the paper
// suggests.
//
// A pass runs each chunk in three stages (DESIGN.md §9):
//  1. encode (no RNG): the backend encodes every weight once per
//     (out-channel, k) and every lowered activation once per (k, pixel)
//     into operand planes;
//  2. sum (no RNG): per (image, out-channel) tile, every chunk's analog
//     partial sum for a block of output pixels at once, one lane per
//     pixel, each lane in the datapath's scalar order;
//  3. convert: per tile, in (pixel, chunk) order with the tile's Rng, the
//     backend's conversions — the draws, in the order, of streaming each
//     output's chunks through accumulate(), so stateful backends
//     (delta-sigma) see the output stationarity they require.
#pragma once

#include <memory>

#include "ams/vmac_backend.hpp"
#include "nn/module.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/rng_stream.hpp"
#include "tensor/im2col.hpp"

namespace ams::vmac {

/// Evaluation-only convolution through explicit VMAC hardware.
class VmacConv2d : public nn::Module {
public:
    /// `weight` layout {out_channels, in_channels, k, k}; values are used
    /// as-is (pass DoReFa-quantized weights for a faithful pipeline).
    /// Every VMAC-sized chunk is routed through the datapath selected by
    /// `backend` (see ams/vmac_backend.hpp). `rng` seeds the per-tile
    /// noise streams: every (image, out-channel) tile of every forward
    /// pass draws from its own derived generator, so outputs are
    /// bit-identical at any AMSNET_THREADS. Throws std::invalid_argument
    /// on shape/config mismatch. Operands are encoded inside each pass,
    /// not here.
    VmacConv2d(Tensor weight, std::size_t stride, std::size_t padding,
               const VmacConfig& config, const AnalogOptions& analog,
               const BackendOptions& backend, Rng rng);

    Tensor forward(const Tensor& input) override;

    /// Evaluation-only: backward is not implemented (the paper's proposal
    /// applies this model at evaluation time). Throws std::logic_error
    /// naming the module and the selected backend.
    Tensor backward(const Tensor& grad_output) override;

    [[nodiscard]] std::string name() const override { return "VmacConv2d"; }

    [[nodiscard]] std::size_t n_tot() const;
    [[nodiscard]] const VmacConfig& config() const { return backend_->config(); }
    /// The datapath every chunk is routed through.
    [[nodiscard]] const VmacBackend& backend() const { return *backend_; }

    /// Output shape for a given input shape (validates like forward).
    [[nodiscard]] Shape output_shape(const Shape& in) const;

    /// The compiled plan's eval entry point: runs one forward pass over
    /// `input` (laid out as `in_shape`) into the caller-provided `out`
    /// buffer, with all of its scratch reserved from `ctx` (per region
    /// executor where it is per worker), so a steady-state pass allocates
    /// nothing. Consumes one noise epoch. forward(input) runs this same
    /// body on a pass-local context, so plan logits are bit-identical to it.
    void forward_planned(const float* input, const Shape& in_shape, float* out,
                         runtime::EvalContext& ctx);

private:
    /// Validates the input shape and builds the shared lowering for it.
    [[nodiscard]] ConvLowering make_lowering(const Shape& in) const;

    Tensor weight_;
    std::size_t stride_;
    std::size_t padding_;
    std::unique_ptr<VmacBackend> backend_;
    runtime::RngStream streams_;       ///< root of the per-tile noise streams
    std::uint64_t forward_count_ = 0;  ///< distinct streams per forward pass
};

}  // namespace ams::vmac
