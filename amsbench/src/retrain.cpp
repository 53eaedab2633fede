// Workload `retrain`: the STE noise-injected retraining and multi-pass
// evaluation that every Fig. 4/5/8 and chip-fleet point pays — lumped
// Eq. 2 injection at a lossy ENOB, Nmult 8, on MiniResNet 8b. It is the
// only workload that runs nn backward and SGD; it never touches the VMAC
// backends, the int GEMM or serve.
//
// A round times one train::fit (fixed epoch count: patience 0, so the
// work per round never depends on the accuracy history) and one
// ExperimentEnv::compute_enob_point (retrain + eval-only + retrained
// two-pass evaluation), alternating their order. Each run starts from a
// fresh, empty cache directory seeded only with the quantized
// prerequisite, and every point's checkpoint is removed after the round,
// so every point pays the same retrain.
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <set>
#include <unistd.h>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "nn/loss.hpp"
#include "nn/sgd.hpp"
#include "plan_probe.hpp"
#include "tensor/gemm.hpp"
#include "tensor/rng.hpp"
#include "train/checkpoint_cache.hpp"
#include "train/trainer.hpp"

namespace amsbench {

namespace fs = std::filesystem;
using namespace ams;

namespace {

constexpr std::size_t kBits = 8;
constexpr double kLossyEnob = 5.0;  // below the 8b knee of Fig. 4 at Nmult 8
constexpr std::size_t kBatch = 64;

core::ExperimentOptions options_for(const RunConfig& cfg, const std::string& cache_dir) {
    const bool tiny = cfg.size == Size::kTiny;
    core::ExperimentOptions o;
    // Full size: one epoch of 64 training images (one whole batch) and
    // 32 validation images, so a round is short enough to repeat about
    // thirty times in a 30 s window: the fastest of many short calls
    // moves less between runs than the fastest of a few long ones.
    o.dataset.classes = tiny ? 4 : 8;
    o.dataset.train_per_class = 8;
    o.dataset.val_per_class = 4;
    o.dataset.image_size = 16;
    o.dataset.channels = 3;
    o.dataset.noise_sigma = 0.4f;
    o.dataset.seed = 0x5EED0000ULL ^ cfg.seed;
    o.eval_passes = 2;
    o.batch_size = kBatch;
    o.retrain.epochs = 1;
    o.retrain.batch_size = kBatch;
    o.retrain.patience = 0;
    o.retrain.sgd = {/*lr=*/0.01f, /*momentum=*/0.9f, /*weight_decay=*/0.0f};
    o.retrain.shuffle_seed = 177 + cfg.seed;
    o.fp32_train = o.retrain;
    o.cache_dir = cache_dir;
    return o;
}

vmac::VmacConfig lossy_config() {
    vmac::VmacConfig c;
    c.enob = kLossyEnob;
    c.nmult = 8;
    return c;
}

/// The state of one run: the experiment, its quantized prerequisite
/// (published in the run's cache directory), and the cache's seeded files.
struct Prepared {
    std::unique_ptr<core::ExperimentEnv> env;
    TensorMap quant;
    std::string cache_dir;
    std::set<std::string> seeded;
};

Prepared prepare(const RunConfig& cfg, const std::string& tag) {
    Prepared p;
    p.cache_dir = cfg.work_dir + "/retrain-cache-" + tag + "-" + std::to_string(getpid());
    fs::remove_all(p.cache_dir);
    fs::create_directories(p.cache_dir);
    p.env = std::make_unique<core::ExperimentEnv>(options_for(cfg, p.cache_dir));
    // The prerequisite is the seeded initial quantized network: retrain
    // cost does not depend on the starting weights, and publishing it
    // keeps the fp32 and quantized phases out of every run.
    auto model = p.env->make_model(p.env->quant_common(kBits, kBits));
    model->collect_state("", p.quant);
    (void)train::cached_state(p.cache_dir, p.env->quantized_cache_key(kBits, kBits),
                              [&] { return p.quant; });
    for (const auto& e : fs::directory_iterator(p.cache_dir)) {
        p.seeded.insert(e.path().filename().string());
    }
    return p;
}

/// Removes every checkpoint the last sweep point published, so the next
/// point misses the cache exactly like the first.
void forget_points(const Prepared& p) {
    for (const auto& e : fs::directory_iterator(p.cache_dir)) {
        if (p.seeded.count(e.path().filename().string()) == 0) fs::remove_all(e.path());
    }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> history_of(const train::TrainResult& r) {
    std::vector<double> v;
    for (const train::EpochStats& e : r.history) {
        v.push_back(e.train_loss);
        v.push_back(e.val_top1);
    }
    return v;
}

std::vector<double> passes_of(const core::ExperimentEnv::EnobSweepPoint& p) {
    std::vector<double> v = p.eval_only.passes;
    v.insert(v.end(), p.retrained.passes.begin(), p.retrained.passes.end());
    return v;
}

/// Per-layer probes of the traced run: a replay of fit's batch step
/// through the public nn API, the injectors of one training batch, and
/// the training GEMM shapes.
void trace_probes(const RunConfig& cfg, Prepared& p, SpanLog& spans, Result& out) {
    core::ExperimentEnv& env = *p.env;
    const auto& data = env.dataset();
    const auto ams_common = env.ams_common(kBits, kBits, lossy_config());
    const std::size_t epochs = env.options().retrain.epochs;

    {  // train::evaluate_top1 at the sweep's pass count
        auto model = env.make_model(ams_common);
        model->load_state("", p.quant);
        runtime::EvalContext ctx;
        const std::size_t passes = env.options().eval_passes;
        for (int rep = 0; rep < 3; ++rep) {
            SpanLog::Scope s(spans, "train.evaluate");
            (void)train::evaluate_top1(*model, data.val_images(), data.val_labels(), kBatch,
                                       passes, &ctx);
        }
        out.add("train.evaluate_s_per_pass",
                spans.mean_s("train.evaluate") / static_cast<double>(passes), "s");
    }

    {  // fit's batch step, one phase per span
        auto model = env.make_model(ams_common);
        model->load_state("", p.quant);
        model->set_training(true);
        data::DataLoader loader(data.train_images(), data.train_labels(), kBatch,
                                Rng(env.options().retrain.shuffle_seed), /*shuffle=*/true);
        nn::Sgd sgd(model->parameters(), env.options().retrain.sgd);
        nn::SoftmaxCrossEntropy loss;
        const std::size_t steps = loader.batches_per_epoch() * epochs;
        for (std::size_t b = 0; b < steps; ++b) {
            data::Batch batch = loader.next();
            sgd.zero_grad();
            Tensor logits;
            {
                SpanLog::Scope s(spans, "nn.forward");
                logits = model->forward(batch.images);
            }
            (void)loss.forward(logits, batch.labels);
            {
                SpanLog::Scope s(spans, "nn.backward");
                model->backward(loss.backward());
            }
            {
                SpanLog::Scope s(spans, "nn.sgd_step");
                sgd.step();
            }
        }
        out.add("nn.forward_ms_per_batch", spans.mean_s("nn.forward") * 1e3, "ms");
        out.add("nn.backward_ms_per_batch", spans.mean_s("nn.backward") * 1e3, "ms");
        out.add("nn.sgd_step_ms", spans.mean_s("nn.sgd_step") * 1e3, "ms");
    }

    // The training forward injects at every conv unit (the FC injector is
    // off while training, paper Sec. 2); the plan lists those tensors.
    auto model = env.make_model(ams_common);
    model->load_state("", p.quant);
    model->set_training(false);
    const Shape batch_shape{kBatch, 3, data.options().image_size, data.options().image_size};
    const compile::ExecutionPlan plan = compile::compile(*model, batch_shape);
    {
        const auto targets = inject_targets(plan, kBatch, &model->fc_injector());
        std::size_t largest = 0;
        for (const auto& t : targets) largest = std::max(largest, t.numel);
        std::vector<float> buf(largest);
        Rng rng(cfg.seed);
        for (float& v : buf) v = static_cast<float>(rng.uniform());
        for (int rep = 0; rep < 10; ++rep) {
            SpanLog::Scope s(spans, "ams.inject_train");
            for (const auto& t : targets) {
                t.injector->inject_inplace(buf.data(), t.numel, t.batch, t.channels);
            }
        }
        out.add("ams.inject_train_ms_per_batch", spans.mean_s("ams.inject_train") * 1e3, "ms");
    }

    {  // forward gemm, dW gemm_bt and dColumns gemm_at of every conv, per image
        double flops = 0.0;
        Rng rng(cfg.seed + 1);
        for (const GemmStep& g : gemm_steps(plan, kBatch)) {
            if (g.linear) continue;
            std::vector<float> cols(g.k * g.n), gout(g.m * g.n), w(g.m * g.k), dcols(g.k * g.n);
            for (float& v : cols) v = static_cast<float>(rng.uniform());
            for (float& v : gout) v = static_cast<float>(rng.uniform(-1.0, 1.0));
            SpanLog::Scope s(spans, "tensor.gemm_train");
            for (std::size_t i = 0; i < g.calls; ++i) {
                gemm(g.weight, cols.data(), gout.data(), g.m, g.k, g.n);
                gemm_bt(gout.data(), cols.data(), w.data(), g.m, g.n, g.k);
                gemm_at(g.weight, gout.data(), dcols.data(), g.k, g.m, g.n);
            }
            flops += 3.0 * g.flops_per_run();
        }
        out.add("tensor.gemm_gflops.train", flops / spans.total_s("tensor.gemm_train") / 1e9,
                "GFLOP/s");
    }
}

}  // namespace

void run_retrain(const RunConfig& cfg, Result& out) {
    SetupTimer setup;
    Prepared p;
    setup.time([&] { p = prepare(cfg, "run"); });
    core::ExperimentEnv& env = *p.env;
    const auto& data = env.dataset();
    const auto ams_common = env.ams_common(kBits, kBits, lossy_config());
    const std::size_t train_images = data.train_images().dim(0);

    core::ExperimentEnv::EnobSweepOptions sweep;
    sweep.nmult = 8;
    runtime::EvalContext ctx;

    // Warm-up outside every window: one fit and one evaluation.
    {
        auto model = env.make_model(ams_common);
        model->load_state("", p.quant);
        (void)train::fit(*model, data.train_images(), data.train_labels(), data.val_images(),
                         data.val_labels(), env.options().retrain);
        (void)env.evaluate_state(p.quant, ams_common, &ctx);
    }

    SpanLog spans(false);
    std::vector<double> fit_rates, point_rates, fit_s[2];
    std::size_t epochs_run = 0;
    std::vector<double> ref_history, ref_point;
    // A traced run needs at least one round of each kind.
    const std::size_t min_rounds = (cfg.size == Size::kTiny ? 2 : 3) + (cfg.trace ? 1 : 0);
    const CpuPins cores;
    cores.pin(0);
    const auto window = Clock::now();
    for (std::size_t round = 0;; ++round) {
        // Traced runs alternate span-on and span-off rounds: the
        // difference between the two is the tracing overhead. Each pair
        // shares an order.
        const bool traced = cfg.trace && round % 2 == 1;
        spans.set_enabled(traced);
        auto do_fit = [&] {
            auto model = env.make_model(ams_common);
            model->load_state("", p.quant);
            const auto t0 = Clock::now();
            train::TrainResult r;
            {
                SpanLog::Scope s(spans, "train.fit");
                r = train::fit(*model, data.train_images(), data.train_labels(),
                               data.val_images(), data.val_labels(), env.options().retrain);
            }
            const double dt = seconds_since(t0);
            epochs_run = r.history.size();
            fit_rates.push_back(static_cast<double>(epochs_run * train_images) / dt);
            fit_s[traced ? 1 : 0].push_back(dt);
            const std::vector<double> h = history_of(r);
            if (ref_history.empty()) ref_history = h;
            out.check(same_bits(h, ref_history), "fit accuracy history replay");
        };
        auto do_point = [&] {
            forget_points(p);
            const auto t0 = Clock::now();
            core::ExperimentEnv::EnobSweepPoint pt;
            {
                SpanLog::Scope s(spans, "sweep.point");
                pt = env.compute_enob_point(kBits, kBits, kLossyEnob, sweep, p.quant, &ctx);
            }
            point_rates.push_back(1.0 / seconds_since(t0));
            const std::vector<double> v = passes_of(pt);
            if (ref_point.empty()) ref_point = v;
            out.check(same_bits(v, ref_point), "sweep point replay");
        };
        if ((round / 2) % 2 == 0) {
            do_fit();
            do_point();
        } else {
            do_point();
            do_fit();
        }
        for (std::size_t i = 0; i < kSetupRepsPerRound; ++i) {
            Prepared extra;
            setup.time([&] { extra = prepare(cfg, "setup"); });
            fs::remove_all(extra.cache_dir);
        }
        if (round == kRssRound && !cfg.trace) out.add("peak_rss_mb", peak_rss_mb(), "MiB");
        if (round + 1 >= min_rounds && seconds_since(window) >= cfg.seconds) break;
    }
    cores.release();
    spans.set_enabled(cfg.trace);
    log_samples("retrain fit images/s", fit_rates);
    log_samples("retrain sweep points/s", point_rates);

    if (!cfg.trace) {
        // Throughput: training images per second of fit. Latency: one
        // sweep point, the unit a Fig. 4/5/8 study waits for.
        out.add("setup_s", setup.median_s(), "s");
        out.add("throughput_per_s", best_rate(fit_rates), "1/s");
        out.add("latency_ms", 1e3 / best_rate(point_rates), "ms");
    } else {
        out.add("train.fit_s_per_epoch", median(fit_s[1]) / static_cast<double>(epochs_run),
                "s");
        out.add("train.epochs_run", static_cast<double>(epochs_run), "count");
        out.add("train.images_trained", static_cast<double>(epochs_run * train_images),
                "count");
        out.add("trace.overhead_pct.retrain",
                (median(fit_s[1]) / median(fit_s[0]) - 1.0) * 100.0, "%");
        trace_probes(cfg, p, spans, out);
        spans.write_chrome_trace(cfg.work_dir + "/trace_retrain.json");
    }
    fs::remove_all(p.cache_dir);
}

}  // namespace amsbench
