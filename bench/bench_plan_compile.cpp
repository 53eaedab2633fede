// Graph-compiler bench: what does compiling a mini-ResNet buy?
//
// Rows of BENCH_plan.json, all over the same quantized (8b, AMS off =
// deterministic per-image work) mini-ResNet at batch 16:
//
//   * dispatch=forward       — the allocating model.forward(x): the
//                              training path and the plan's bit-identity
//                              reference (one heap tensor per layer);
//   * dispatch=plan_unfused  — ExecutionPlan with fuse=off: flat
//                              dispatch, but every elementwise layer is
//                              a standalone buffered step;
//   * dispatch=plan_fused    — the default plan (the eval path): epilogue
//                              fusion + in-place elementwise +
//                              liveness-packed arena.
//
// Plus compile-time statistics (mean/min ms over repeated compiles) and
// the arena high-water-mark comparison (per-layer floats of a
// module-by-module forward vs the fused plan's single block). The
// headline acceptance figures are `fused_vs_forward_speedup` (target
// >= 1.2x end-to-end eval images/s) and `arena_saved_ratio` (> 0).
// AMSNET_BENCH_QUICK=1 shrinks repetition counts for CI smoke runs.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "core/bench_json.hpp"
#include "core/report.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "runtime/eval_context.hpp"
#include "train/evaluate.hpp"

using namespace ams;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Times `reps` forwards of `batch` through `forward_once` (after
/// `warmup` unmeasured calls) and returns images/s.
template <typename Fn>
double throughput_images_per_s(std::size_t reps, std::size_t warmup, std::size_t batch,
                               Fn&& forward_once) {
    for (std::size_t i = 0; i < warmup; ++i) forward_once();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) forward_once();
    const double elapsed = seconds_since(start);
    return static_cast<double>(reps * batch) / elapsed;
}

}  // namespace

int main() {
    core::print_banner(std::cout, "Graph compiler: fused ExecutionPlan vs allocating forward",
                       "infrastructure (no paper figure)");

    const bool quick = [] {
        const char* env = std::getenv("AMSNET_BENCH_QUICK");
        return env != nullptr && *env != '\0' && *env != '0';
    }();
    const std::size_t batch = 16;
    const std::size_t reps = quick ? 12 : 60;
    const std::size_t warmup = quick ? 2 : 5;
    const std::size_t compile_reps = quick ? 5 : 25;

    models::LayerCommon common;
    common.bits_w = 8;
    common.bits_x = 8;  // quantized, AMS noise off: deterministic work
    models::ResNet model(models::mini_resnet_config(common));
    model.set_training(false);

    data::DatasetOptions data_options;
    data_options.classes = 10;
    data_options.train_per_class = 1;
    data_options.val_per_class = 4;
    data_options.image_size = 16;
    data_options.seed = 21;
    data::SyntheticImageNet dataset(data_options);
    const Tensor& images = dataset.val_images();
    const Shape in_shape{batch, images.dim(1), images.dim(2), images.dim(3)};

    runtime::EvalContext ctx;
    // One steady-state batch, assembled once (the bench times the model,
    // not the gather).
    Tensor x(in_shape);
    for (std::size_t i = 0; i < batch; ++i) {
        const std::size_t src = i % images.dim(0);
        const std::size_t image = images.size() / images.dim(0);
        std::copy(images.data() + src * image, images.data() + (src + 1) * image,
                  x.data() + i * image);
    }

    // ----- compile time -----
    double compile_total_ms = 0.0;
    double compile_min_ms = 1e30;
    for (std::size_t i = 0; i < compile_reps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        compile::ExecutionPlan p = compile::compile(model, in_shape);
        const double ms = seconds_since(start) * 1e3;
        compile_total_ms += ms;
        compile_min_ms = std::min(compile_min_ms, ms);
        (void)p;
    }
    const double compile_mean_ms = compile_total_ms / static_cast<double>(compile_reps);

    compile::CompileOptions unfused_options;
    unfused_options.fuse = false;
    compile::ExecutionPlan fused = compile::compile(model, in_shape);
    compile::ExecutionPlan unfused = compile::compile(model, in_shape, unfused_options);

    // ----- throughput -----
    auto timed_forward = [&](auto&& produce) {
        return throughput_images_per_s(reps, warmup, batch, [&] {
            const runtime::TensorArena::Checkpoint cp = ctx.checkpoint();
            (void)produce();
            ctx.rewind(cp);
        });
    };
    const double forward_ips = timed_forward([&] { return model.forward(x); });
    const double unfused_ips = timed_forward([&] { return unfused.run(x, ctx); });
    const double fused_ips = timed_forward([&] { return fused.run(x, ctx); });

    const double fused_vs_forward = fused_ips / forward_ips;
    const double fused_vs_unfused = fused_ips / unfused_ips;
    const compile::Stats& stats = fused.stats();
    const double arena_saved_ratio =
        stats.module_walk_floats == 0
            ? 0.0
            : 1.0 - static_cast<double>(stats.plan_floats) /
                        static_cast<double>(stats.module_walk_floats);

    // ----- report -----
    core::BenchReport bench("plan");
    bench.record_runtime_env();
    bench.config().set("model", "mini_resnet_8b");
    bench.config().set("image_size", static_cast<std::uint64_t>(data_options.image_size));
    bench.config().set("batch", static_cast<std::uint64_t>(batch));
    bench.config().set("reps", static_cast<std::uint64_t>(reps));
    bench.config().set("compile_reps", static_cast<std::uint64_t>(compile_reps));
    bench.config().set("quick", quick);
    bench.config().set("compile_mean_ms", compile_mean_ms);
    bench.config().set("compile_min_ms", compile_min_ms);
    bench.config().set("plan_steps", static_cast<std::uint64_t>(stats.steps));
    bench.config().set("layers_fused", static_cast<std::uint64_t>(stats.layers_fused));
    bench.config().set("intermediates_eliminated",
                       static_cast<std::uint64_t>(stats.intermediates_eliminated));
    bench.config().set("arena_floats_module_walk",
                       static_cast<std::uint64_t>(stats.module_walk_floats));
    bench.config().set("arena_floats_plan_unfused",
                       static_cast<std::uint64_t>(unfused.arena_floats()));
    bench.config().set("arena_floats_plan_fused", static_cast<std::uint64_t>(stats.plan_floats));
    bench.config().set("arena_saved_ratio", arena_saved_ratio);
    bench.config().set("fused_vs_forward_speedup", fused_vs_forward);
    bench.config().set("fused_vs_unfused_speedup", fused_vs_unfused);

    struct Row {
        const char* dispatch;
        double images_per_s;
        std::uint64_t arena_floats;
    };
    const std::vector<Row> rows = {
        {"forward", forward_ips, stats.module_walk_floats},
        {"plan_unfused", unfused_ips, unfused.arena_floats()},
        {"plan_fused", fused_ips, stats.plan_floats},
    };
    core::Table table({"dispatch", "images/s", "vs forward", "arena floats"});
    for (const Row& row : rows) {
        core::BenchFields& out = bench.add_row();
        out.set("dispatch", row.dispatch);
        out.set("images_per_s", row.images_per_s);
        out.set("speedup_vs_forward", row.images_per_s / forward_ips);
        out.set("arena_floats", row.arena_floats);
        table.add_row({row.dispatch, core::fmt_fixed(row.images_per_s, 1),
                       core::fmt_fixed(row.images_per_s / forward_ips, 2),
                       std::to_string(row.arena_floats)});
    }
    table.print(std::cout);
    std::cout << "\ncompile: mean " << core::fmt_fixed(compile_mean_ms, 2) << " ms, min "
              << core::fmt_fixed(compile_min_ms, 2) << " ms over " << compile_reps
              << " compiles\n";
    std::cout << "arena HWM: " << stats.module_walk_floats << " -> " << stats.plan_floats
              << " floats (" << core::fmt_fixed(100.0 * arena_saved_ratio, 1) << "% saved)\n";

    const bool speedup_ok = fused_vs_forward >= 1.2;
    const bool arena_ok = stats.plan_floats < stats.module_walk_floats;
    std::cout << "fused plan speedup vs allocating forward: "
              << core::fmt_fixed(fused_vs_forward, 2) << "x (target >= 1.2x): "
              << (speedup_ok ? "yes" : "NO") << "\n";
    std::cout << "arena high-water mark reduced: " << (arena_ok ? "yes" : "NO") << "\n";

    bench.capture_runtime_metrics();
    std::cout << "Artifact written to " << bench.write_artifact() << "\n";
    return speedup_ok && arena_ok ? 0 : 1;
}
