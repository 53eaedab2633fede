// Shared eval-mode convolution executor: im2col + packed GEMM over
// per-executor EvalContext scratch. One implementation serves the
// folded-conv path (models/fold.cpp) and the compiled-plan executor
// (src/compile). It runs the same per-image lowering and GEMM as the
// eval-mode Conv2d::forward(input), only with its pack buffers in
// EvalContext scratch, so the two are bit-identical.
#pragma once

#include <cstddef>

#include "runtime/eval_context.hpp"
#include "tensor/im2col.hpp"

namespace ams::nn {

/// Per-image epilogue hook for conv_eval_run: invoked inside the batch
/// parallel region, right after the image's GEMM, with the image's output
/// base pointer. Plain function pointer + context (no std::function): the
/// eval hot path must not touch the heap.
using ConvEpilogueFn = void (*)(void* epilogue_ctx, float* out_image, std::size_t image_index);

/// Runs one eval-mode convolution: for each image, im2col into the
/// executor's column scratch, then out (Cout x OHW) = weight (Cout x patch)
/// * columns (patch x OHW) via the packed GEMM, then the optional
/// epilogue. Column and pack scratch is reserved per region executor
/// (runtime::executor_index), so its size follows the thread count, not
/// the batch. Chunking depends only on (batch, suggest_grain), and the
/// GEMM is row-partition invariant, so results are bit-identical at any
/// thread count. `out` must hold batch * out_channels * out_spatial
/// floats and be disjoint from `input`.
void conv_eval_run(const float* input, std::size_t batch, const ConvLowering& low,
                   const float* weight, std::size_t out_channels, float* out,
                   runtime::EvalContext& ctx, const void* scratch_owner,
                   ConvEpilogueFn epilogue = nullptr, void* epilogue_ctx = nullptr);

}  // namespace ams::nn
