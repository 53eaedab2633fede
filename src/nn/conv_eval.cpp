#include "nn/conv_eval.hpp"

#include "runtime/parallel_for.hpp"
#include "runtime/trace.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_kernels.hpp"

namespace ams::nn {

namespace {

/// Reserves the eval scratch (im2col columns + GEMM pack buffers) of
/// `executors` region executors in the context registry, keyed by
/// `scratch_owner`. Slot layout per executor, base = 4 * executor: the
/// GemmPackBuffers slots (kPackB = 1, kTranspose = 2) plus the column
/// buffer at base + 3; kPackA deliberately stays thread-local inside the
/// kernels. Serial — call before the parallel region; at steady state
/// every reservation is a pure lookup.
void conv_eval_reserve(runtime::EvalContext& ctx, const void* scratch_owner,
                       std::size_t executors, std::size_t patch, std::size_t out_spatial) {
    for (std::size_t e = 0; e < executors; ++e) {
        const int base = static_cast<int>(4 * e);
        (void)ctx.reserve_scratch(scratch_owner, base + 3, patch * out_spatial);
        (void)ctx.reserve_scratch(scratch_owner, base + GemmPackBuffers::kPackB,
                                  packed_b_floats(patch, out_spatial));
    }
}

}  // namespace

void conv_eval_run(const float* input, std::size_t batch, const ConvLowering& low,
                   const float* weight, std::size_t out_channels, float* out,
                   runtime::EvalContext& ctx, const void* scratch_owner, ConvEpilogueFn epilogue,
                   void* epilogue_ctx) {
    runtime::trace::Span span("Conv2d.forward");
    const std::size_t out_spatial = low.out_spatial();
    const std::size_t patch = low.patch_size();
    const std::size_t out_image = out_channels * out_spatial;

    // Reservations run serially before the region (re-planning on a shape
    // change, e.g. the last partial batch); inside the region
    // reserve_scratch is a pure lookup, safe from concurrent executors.
    // Scratch is per executor, not per chunk: suggest_grain cuts 4 chunks
    // per executor, and each executor reuses its buffers across them.
    const std::size_t grain = runtime::suggest_grain(batch, 1);
    conv_eval_reserve(ctx, scratch_owner, runtime::region_executors((batch + grain - 1) / grain),
                      patch, out_spatial);
    runtime::parallel_for(0, batch, grain, [&](std::size_t b_begin, std::size_t b_end) {
        const int base = static_cast<int>(4 * runtime::executor_index());
        float* columns = ctx.reserve_scratch(scratch_owner, base + 3, patch * out_spatial);
        EvalContextPackBuffers pack(ctx, scratch_owner, base);
        for (std::size_t b = b_begin; b < b_end; ++b) {
            low.lower_image(input, b, columns);
            gemm(weight, columns, out + b * out_image, out_channels, patch, out_spatial, &pack);
            if (epilogue) epilogue(epilogue_ctx, out + b * out_image, b);
        }
    });
}

}  // namespace ams::nn
