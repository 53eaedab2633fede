// The zero-allocation acceptance test: after compiling and a warm-up
// pass, a steady-state ExecutionPlan::run of the full quantized+AMS model
// (the eval path) must perform ZERO heap allocations. Global operator new is overridden in
// this binary to count every allocation, so any regression — a stray
// Tensor copy, a std::function capture, a vector resize on the hot path —
// fails this test by name.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "ams/vmac_conv.hpp"
#include "compile/plan.hpp"
#include "models/resnet.hpp"
#include "nn/activations.hpp"
#include "nn/sequential.hpp"
#include "runtime/eval_context.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (align < sizeof(void*)) align = sizeof(void*);
    if (posix_memalign(&p, align, size ? size : 1) != 0) return nullptr;
    return p;
}
}  // namespace

void* operator new(std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    if (void* p = counted_alloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
    if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace ams {
namespace {

models::LayerCommon quant_ams_common() {
    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;
    common.ams_enabled = true;  // injectors on: the full eval pipeline
    common.vmac.enob = 5.0;
    common.vmac.nmult = 8;
    return common;
}

TEST(AllocCountTest, SteadyStateEvalForwardIsAllocationFree) {
    // Serial execution: the parallel dispatch path intentionally shares
    // work through heap-backed queues, but the single-thread fast path —
    // the one inside every sweep worker — must be allocation-free.
    runtime::ThreadPool::set_global_threads(1);

    models::ResNet model(models::tiny_resnet_config(quant_ams_common()));
    model.set_training(false);
    Rng rng(3);
    Tensor x(Shape{4, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);

    runtime::EvalContext ctx;
    compile::ExecutionPlan plan = compile::compile(model, x.shape());
    // Warm-up: grows the arenas to their steady footprint and populates
    // the scratch registry.
    for (int i = 0; i < 2; ++i) {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        (void)plan.run(x, ctx);
        ctx.rewind(cp);
    }

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) {
        const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
        Tensor out = plan.run(x, ctx);
        ctx.rewind(cp);
    }
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(allocs, 0u) << "steady-state ExecutionPlan::run must not touch the heap";
}

TEST(AllocCountTest, SteadyStateVmacConvPlanIsAllocationFree) {
    // The kVmacConv step: VmacConv2d::forward_planned takes its columns,
    // operand planes, parked tile generators and stage-2 sums from the
    // EvalContext, so after warm-up every datapath (bare, and under a
    // chip's device variation) runs without touching the heap.
    runtime::ThreadPool::set_global_threads(1);
    vmac::VmacConfig cfg;
    cfg.enob = 6.0;
    cfg.nmult = 8;
    cfg.bits_w = 9;  // 8 magnitude bits split evenly for partitioning
    cfg.bits_x = 9;
    Rng rng(5);
    Tensor w(Shape{4, 3, 3, 3});
    w.fill_uniform(rng, -1.0f, 1.0f);
    Tensor x(Shape{2, 3, 6, 6});
    x.fill_uniform(rng, 0.0f, 1.0f);
    vmac::DeviceProfile chip;
    chip.chip_seed = 3;
    chip.cell_offset_sigma = 0.02;
    chip.drift_nu = 0.05;
    chip.drift_time = 10.0;
    chip.ir_drop_alpha = 0.05;

    for (vmac::BackendKind kind : vmac::all_backend_kinds()) {
        for (const bool varied : {false, true}) {
            vmac::BackendOptions bopts;
            bopts.kind = kind;
            if (varied) bopts.variation = chip;
            SCOPED_TRACE(bopts.str());
            nn::Sequential seq;
            seq.emplace<vmac::VmacConv2d>(Tensor(w), 1, 1, cfg, vmac::AnalogOptions{}, bopts,
                                          Rng(6));
            seq.emplace<nn::ReLU>();
            seq.set_training(false);
            runtime::EvalContext ctx;
            compile::ExecutionPlan plan = compile::compile(seq, x.shape());
            for (int i = 0; i < 2; ++i) {
                const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
                (void)plan.run(x, ctx);
                ctx.rewind(cp);
            }

            const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
            for (int i = 0; i < 3; ++i) {
                const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
                Tensor out = plan.run(x, ctx);
                ctx.rewind(cp);
            }
            const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
            EXPECT_EQ(allocs, 0u) << "steady-state kVmacConv step must not touch the heap";
        }
    }
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());
}

TEST(AllocCountTest, SteadyStateGemmAtIsAllocationFree) {
    // gemm_at used to build its transpose scratch in a per-call
    // std::vector; it now draws from reusable pack buffers (thread-local
    // here, EvalContext scratch in the compiled plan), so repeated calls —
    // e.g. the backward pass, once per image — must not touch the heap.
    runtime::ThreadPool::set_global_threads(1);
    const std::size_t m = 33, k = 17, n = 65;
    std::vector<float> a(k * m), b(k * n), c(m * n);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i % 7) - 3.0f;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 5) - 2.0f;

    // Warm-up grows the thread-local buffers (transpose scratch on the
    // scalar arm, pack panels on the vector arm) to this shape's footprint.
    gemm_at(a.data(), b.data(), c.data(), m, k, n);

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 3; ++i) gemm_at(a.data(), b.data(), c.data(), m, k, n);
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_EQ(allocs, 0u) << "steady-state gemm_at must reuse its scratch";
}

TEST(AllocCountTest, LegacyForwardStillAllocates) {
    // Sanity check that the counter actually observes the model: the
    // allocating forward(x) must register heap traffic, otherwise a broken
    // operator-new override would make the zero-allocation test pass
    // vacuously.
    runtime::ThreadPool::set_global_threads(1);
    models::ResNet model(models::tiny_resnet_config(quant_ams_common()));
    model.set_training(false);
    Rng rng(3);
    Tensor x(Shape{4, 3, 8, 8});
    x.fill_uniform(rng, -1.0f, 1.0f);
    (void)model.forward(x);  // warm-up

    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    (void)model.forward(x);
    const std::size_t allocs = g_alloc_count.load(std::memory_order_relaxed) - before;
    runtime::ThreadPool::set_global_threads(runtime::ThreadPool::threads_from_env());

    EXPECT_GT(allocs, 0u);
}

}  // namespace
}  // namespace ams
