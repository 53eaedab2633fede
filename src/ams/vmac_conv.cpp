#include "ams/vmac_conv.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "runtime/metrics.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"

namespace ams::vmac {

namespace {

/// Span tag "backend=<kind> in=BxCxHxW" — only formatted when spans are
/// actually recording, so the snprintf stays off the off/counters paths.
void format_forward_tag(char* tag, std::size_t capacity, BackendKind kind, const Shape& in) {
    tag[0] = '\0';
    if (!runtime::metrics::spans_enabled()) return;
    std::snprintf(tag, capacity, "backend=%s in=%zux%zux%zux%zu", backend_kind_name(kind),
                  in.dim(0), in.dim(1), in.dim(2), in.dim(3));
}

/// Scratch slots of one pass in the EvalContext registry; per-executor
/// stage-2 sums and stage-3 draw buffers follow kWorkerSlot, one per
/// region executor.
enum Slot : int {
    kColumnsSlot = 0,
    kWeightsSlot,
    kWeightRowSlot,
    kActivationsSlot,
    kRngSlot,
    kWorkerSlot,
};

/// Activation planes (the whole batch's) one pixel block may hold when
/// they outgrow twice the column matrix: multi-plane layouts (partitioned
/// slices) are then encoded and consumed a block of pixels at a time.
constexpr std::size_t kActivationBlockBytes = 256 * 1024;

using lanes::kLanes;

static_assert(std::is_trivially_copyable_v<Rng>, "tile generators are parked as bytes");

/// Floats an encoded rows x cols operand block occupies: double value
/// planes, or int32 mantissas followed by double quanta. Every piece
/// starts 8-byte aligned.
std::size_t operand_floats(const OperandLayout& layout, std::size_t planes, std::size_t rows,
                           std::size_t cols, std::size_t chunks) {
    if (!layout.mantissas) return 2 * planes * rows * cols;
    return 2 * ((rows * cols + 1) / 2) + 2 * chunks * cols;
}

/// The operand block at `base`, laid out as operand_floats() counts it.
OperandPlanes operand_planes(float* base, const OperandLayout& layout, std::size_t rows,
                             std::size_t cols) {
    OperandPlanes p;
    p.rows = rows;
    p.cols = cols;
    if (!layout.mantissas) {
        p.values = reinterpret_cast<double*>(base);
    } else {
        p.mantissas = reinterpret_cast<std::int32_t*>(base);
        p.quanta = reinterpret_cast<double*>(base + 2 * ((rows * cols + 1) / 2));
    }
    return p;
}

/// Geometry and scratch sizes of one forward pass.
struct Workspace {
    std::size_t batch = 0, cout = 0, patch = 0, out_spatial = 0, nmult = 0, chunks = 0;
    OperandLayout layout;
    std::size_t block = 0;          ///< pixels per stage-1 activation block
    std::size_t grain = 0;          ///< tiles per parallel_for chunk
    std::size_t executors = 0;      ///< region executors of the tile loop
    std::size_t columns = 0;        ///< floats: the batch's column matrices
    std::size_t weight_stride = 0;  ///< floats: one out-channel's weight planes
    std::size_t act_stride = 0;     ///< floats: one image's activation block
    std::size_t rngs = 0;           ///< floats: parked tile generators
    std::size_t sums = 0;           ///< floats: one executor's stage-2 sums
    std::size_t draws = 0;          ///< floats: one lane group's stage-3 draws
    std::size_t worker = 0;         ///< floats: one executor's scratch: sums, draws and,
                                    ///< with sums_per_chunk, a lane group's noisy sums

    [[nodiscard]] std::size_t tiles() const { return batch * cout; }
};

/// The pass over `batch` images of a `cout`-channel layer lowered as
/// `low` through `backend`.
Workspace workspace(const ConvLowering& low, std::size_t batch, std::size_t cout,
                    const VmacBackend& backend) {
    Workspace ws;
    ws.batch = batch;
    ws.cout = cout;
    ws.patch = low.patch_size();
    ws.out_spatial = low.out_spatial();
    ws.nmult = backend.config().nmult;
    ws.chunks = (ws.patch + ws.nmult - 1) / ws.nmult;
    ws.layout = backend.operand_layout();
    ws.columns = batch * low.columns_floats();
    ws.weight_stride = operand_floats(ws.layout, ws.layout.weight_planes, ws.patch, 1, ws.chunks);

    const std::size_t pixel_bytes =
        sizeof(float) * batch *
        operand_floats(ws.layout, ws.layout.act_planes, ws.patch, 1, ws.chunks);
    const std::size_t budget = std::max(kActivationBlockBytes, 2 * sizeof(float) * ws.columns);
    ws.block = std::clamp<std::size_t>(budget / std::max<std::size_t>(pixel_bytes, 1), 1,
                                       std::max<std::size_t>(ws.out_spatial, 1));
    if (ws.block < ws.out_spatial && ws.block > kLanes) ws.block -= ws.block % kLanes;
    ws.act_stride = operand_floats(ws.layout, ws.layout.act_planes, ws.patch, ws.block, ws.chunks);

    ws.grain = runtime::suggest_grain(ws.tiles(), 1);
    ws.executors = runtime::region_executors((ws.tiles() + ws.grain - 1) / ws.grain);
    ws.rngs = (ws.tiles() * sizeof(Rng) + sizeof(float) - 1) / sizeof(float);
    if (!ws.layout.sums_per_chunk) {
        ws.sums = 2 * ws.chunks * ws.layout.pairs() * ws.block;
        if (ws.layout.mantissas) ws.sums += 2 * ws.block;  // int64 lane accumulators
    }
    ws.draws = 2 * kLanes * ws.layout.draws_per_output(ws.patch, ws.chunks);
    ws.worker = ws.sums + ws.draws;
    if (ws.layout.sums_per_chunk) ws.worker += 2 * kLanes * ws.chunks * ws.layout.pairs();
    return ws;
}

}  // namespace

VmacConv2d::VmacConv2d(Tensor weight, std::size_t stride, std::size_t padding,
                       const VmacConfig& config, const AnalogOptions& analog,
                       const BackendOptions& backend, Rng rng)
    : weight_(std::move(weight)),
      stride_(stride),
      padding_(padding),
      backend_(make_backend(config, analog, backend)),
      streams_(runtime::RngStream::from(rng)) {
    if (weight_.rank() != 4) {
        throw std::invalid_argument("VmacConv2d: weight must be {Cout, Cin, K, K}, got " +
                                    weight_.shape().str());
    }
    if (weight_.dim(2) != weight_.dim(3)) {
        throw std::invalid_argument("VmacConv2d: only square kernels supported");
    }
    if (stride == 0) throw std::invalid_argument("VmacConv2d: stride must be nonzero");
}

std::size_t VmacConv2d::n_tot() const {
    return weight_.dim(1) * weight_.dim(2) * weight_.dim(3);
}

ConvLowering VmacConv2d::make_lowering(const Shape& in) const {
    if (in.rank() != 4 || in.dim(1) != weight_.dim(1)) {
        throw std::invalid_argument("VmacConv2d::forward: bad input " + in.str());
    }
    const std::size_t kernel = weight_.dim(2);
    return ConvLowering(ConvGeometry{weight_.dim(1), in.dim(2), in.dim(3), kernel, kernel,
                                     stride_,        stride_,   padding_, padding_});
}

Tensor VmacConv2d::forward(const Tensor& input) {
    Tensor output(output_shape(input.shape()));
    // A pass-local context: the plan's body, scratch layout and
    // arithmetic, so the two entry points cannot diverge.
    runtime::EvalContext ctx;
    forward_planned(input.data(), input.shape(), output.data(), ctx);
    return output;
}

Shape VmacConv2d::output_shape(const Shape& in) const {
    const ConvLowering low = make_lowering(in);
    return Shape{in.dim(0), weight_.dim(0), low.out_h(), low.out_w()};
}

void VmacConv2d::forward_planned(const float* input, const Shape& in_shape, float* out,
                                 runtime::EvalContext& ctx) {
    char tag[runtime::trace::Event::kTagCapacity + 1];
    format_forward_tag(tag, sizeof(tag), backend_->kind(), in_shape);
    runtime::trace::Span span("VmacConv2d.forward", tag);
    const ConvLowering low = make_lowering(in_shape);
    const Workspace ws = workspace(low, in_shape.dim(0), weight_.dim(0), *backend_);
    const OperandLayout& layout = ws.layout;

    // Every reservation is serial, before any parallel region; inside the
    // regions reserve_scratch is a pure lookup.
    float* columns = ctx.reserve_scratch(this, kColumnsSlot, ws.columns);
    low.lower_batch(input, ws.batch, columns);
    float* weights = ctx.reserve_scratch(this, kWeightsSlot, ws.cout * ws.weight_stride);
    auto* row = reinterpret_cast<double*>(ctx.reserve_scratch(this, kWeightRowSlot, 2 * ws.patch));
    float* activations = ctx.reserve_scratch(this, kActivationsSlot, ws.batch * ws.act_stride);
    auto* parked = reinterpret_cast<unsigned char*>(ctx.reserve_scratch(this, kRngSlot, ws.rngs));
    for (std::size_t e = 0; e < ws.executors; ++e) {
        (void)ctx.reserve_scratch(this, static_cast<int>(kWorkerSlot + e), ws.worker);
    }
    const auto weight_planes = [&](std::size_t oc) {
        return operand_planes(weights + oc * ws.weight_stride, layout, ws.patch, 1);
    };
    const auto activation_planes = [&](std::size_t b, std::size_t pixels) {
        return operand_planes(activations + b * ws.act_stride, layout, ws.patch, pixels);
    };

    // Stage 1, weights: once per (out-channel, k), in the pass itself.
    for (std::size_t oc = 0; oc < ws.cout; ++oc) {
        std::copy_n(weight_.data() + oc * ws.patch, ws.patch, row);
        backend_->encode_weights(row, weight_planes(oc));
    }

    // Each (image, out-channel) tile owns a noise stream keyed by (forward
    // pass, tile index), so the injected AMS error is independent of how
    // the pool schedules the tiles. Pixels run in blocks; a tile's
    // generator is parked between blocks, so its draws follow the
    // per-chunk stream's (pixel, chunk) order whatever the block size.
    const runtime::RngStream pass_streams = streams_.substream(forward_count_++);
    for (std::size_t p0 = 0; p0 < ws.out_spatial; p0 += ws.block) {
        const std::size_t pixels = std::min(ws.block, ws.out_spatial - p0);
        const bool last_block = p0 + pixels == ws.out_spatial;

        // Stage 1, activations: once per (k, pixel).
        runtime::parallel_for(
            0, ws.batch, runtime::suggest_grain(ws.batch, 1), [&](std::size_t b0, std::size_t b1) {
                for (std::size_t b = b0; b < b1; ++b) {
                    backend_->encode_activations(columns + b * low.columns_floats() + p0,
                                                 ws.out_spatial, activation_planes(b, pixels));
                }
            });

        // Stages 2 and 3, tile by tile.
        runtime::parallel_for(0, ws.tiles(), ws.grain, [&](std::size_t t0, std::size_t t1) {
            float* scratch = ctx.reserve_scratch(
                this, static_cast<int>(kWorkerSlot + runtime::executor_index()), ws.worker);
            auto* sums = reinterpret_cast<double*>(scratch);
            auto* mantissa_acc = layout.mantissas
                                     ? reinterpret_cast<std::int64_t*>(
                                           scratch + 2 * ws.chunks * layout.pairs() * ws.block)
                                     : nullptr;
            auto* draws = reinterpret_cast<double*>(scratch + ws.sums);
            auto* group_sums = reinterpret_cast<double*>(scratch + ws.sums + ws.draws);
            for (std::size_t t = t0; t < t1; ++t) {
                Rng rng;
                if (p0 == 0) {
                    rng = pass_streams.stream(t);
                } else {
                    std::memcpy(&rng, parked + t * sizeof(Rng), sizeof(Rng));
                }
                TileSums tile;
                tile.w = weight_planes(t % ws.cout);
                tile.x = activation_planes(t / ws.cout, pixels);
                tile.nmult = ws.nmult;
                tile.chunks = ws.chunks;
                tile.pairs = layout.pairs();
                tile.draws = draws;
                tile.group_sums = group_sums;
                if (!layout.sums_per_chunk) {
                    lanes::chunk_sums(tile, layout, sums, mantissa_acc);
                    tile.sums = sums;
                }
                backend_->convert_tile(tile, rng, out + t * ws.out_spatial + p0);
                if (!last_block) std::memcpy(parked + t * sizeof(Rng), &rng, sizeof(Rng));
            }
        });
    }

    // The conversion ledger, in bulk: the per-chunk stream's totals.
    const std::uint64_t outputs = ws.tiles() * ws.out_spatial;
    runtime::metrics::add(runtime::metrics::Counter::kVmacOutputs, outputs);
    backend_->count_conversions(outputs * ws.chunks, outputs);
}

Tensor VmacConv2d::backward(const Tensor& /*grad_output*/) {
    throw std::logic_error(
        "VmacConv2d[" + backend_->name() +
        "] is evaluation-only (paper Sec. 4: per-VMAC modeling is applied at evaluation "
        "time); use QuantConv2d + ErrorInjector for training");
}

}  // namespace ams::vmac
