// Workload `inference`: compiled-plan evaluation of MiniResNet 8b and the
// in-process InferenceServer, forward-only. It uses the tensor GEMMs and
// the ams injectors without backward, and never touches SGD or the VMAC
// backends.
//
// Every round has two phases. The first runs three blocks of each
// ExecutionPlan::run mode — fp32, int8 (GemmIntMode::kInt8) and
// AMS-injected — in a rotated order, so a slow phase of the host hits all
// of them alike. The second drives InferenceServer::submit from the
// benchmark's own open-loop generator: Poisson arrivals at a fixed
// absolute rate, each request timed from when it was due, so generator
// stalls count against latency instead of hiding before the enqueue.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "compile/plan.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "plan_probe.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"

namespace amsbench {

using namespace ams;

namespace {

constexpr std::size_t kBits = 8;
constexpr double kEnob = 6.0;
constexpr std::size_t kEvalBatch = 16;

/// int8 logits against the fp32 plan: the compiler documents the integer
/// domain as a toleranced realization of the fp32 quantized path.
constexpr float kInt8Tolerance = 1e-4f;

// Serving. The server runs with ServerOptions' defaults (one instance,
// batches of up to 8, 1 ms batching delay), compiled. The rate is
// absolute, so a slower build shows up as added latency instead of being
// calibrated away. It is a fifth of the ~2000 requests/s the server
// sustained in the tuning host's slow phases and an eighth of the
// ~2900-3300/s it sustained in its fast ones, so batches stay partial
// (mean 1.4 images) and per-step overhead counts.
constexpr double kNamedQps = 400.0;

// CpuPins indices. Eval blocks and the server's worker share CPU 0 (they
// never run at once); the load generator owns CPU 1 while serving, so
// neither the worker nor the generator waits for the other.
constexpr std::size_t kWorkerCpu = 0;
constexpr std::size_t kGeneratorCpu = 1;

enum Mode { kFp32 = 0, kInt8 = 1, kAms = 2 };
constexpr const char* kModeName[] = {"fp32", "int8", "ams"};

models::LayerCommon common_for(bool ams) {
    models::LayerCommon c;
    c.bits_w = kBits;
    c.bits_x = kBits;
    c.ams_enabled = ams;
    c.vmac.enob = kEnob;
    c.vmac.nmult = 8;
    return c;
}

/// Everything set-up builds: data, the two networks, the three plans, the
/// reference logits and the server.
struct Prepared {
    std::unique_ptr<data::SyntheticImageNet> data;
    std::unique_ptr<models::ResNet> quant, ams;
    std::vector<compile::ExecutionPlan> plans;  // indexed by Mode
    double compile_ms = 0.0;                    // the fp32 plan
    Tensor batch;                               // [kEvalBatch, C, H, W]
    Tensor reference;                           // quant.forward(batch), allocating walk
    std::vector<std::vector<float>> image_logits;  // offline fp32-plan logits per image
    std::unique_ptr<serve::InferenceServer> server;
};

std::unique_ptr<models::ResNet> make_net(bool ams, float max_abs, std::uint64_t seed) {
    auto m = std::make_unique<models::ResNet>(
        models::mini_resnet_config(common_for(ams), 10, max_abs, seed));
    m->set_training(false);
    return m;
}

Prepared prepare(const RunConfig& cfg, const CpuPins& pins) {
    const bool tiny = cfg.size == Size::kTiny;
    Prepared p;
    data::DatasetOptions d;
    d.classes = 10;
    d.train_per_class = 1;
    d.val_per_class = tiny ? 2 : 8;
    d.image_size = 16;
    d.seed = 0x1FE4E0000ULL ^ cfg.seed;
    p.data = std::make_unique<data::SyntheticImageNet>(d);
    const Tensor& images = p.data->val_images();
    const std::size_t image = images.size() / images.dim(0);

    const std::uint64_t model_seed = 42 + cfg.seed;
    p.quant = make_net(false, p.data->max_abs_value(), model_seed);
    p.ams = make_net(true, p.data->max_abs_value(), model_seed);

    const Shape shape{kEvalBatch, images.dim(1), images.dim(2), images.dim(3)};
    p.batch = Tensor(shape);
    for (std::size_t i = 0; i < kEvalBatch; ++i) {
        const std::size_t src = i % images.dim(0);
        std::copy(images.data() + src * image, images.data() + (src + 1) * image,
                  p.batch.data() + i * image);
    }

    compile::CompileOptions opts;
    const auto t0 = Clock::now();
    p.plans.push_back(compile::compile(*p.quant, shape, opts));
    p.compile_ms = seconds_since(t0) * 1e3;
    opts.gemm_int = GemmIntMode::kInt8;
    p.plans.push_back(compile::compile(*p.quant, shape, opts));
    p.plans.push_back(compile::compile(*p.ams, shape, {}));

    p.reference = p.quant->forward(p.batch);

    // Offline logits of every image the server will see, through the same
    // fp32 plan, one batch-of-one run each (per-image results are
    // batch-independent in the deterministic configuration).
    runtime::EvalContext ctx;
    const std::size_t classes = p.reference.dim(1);
    for (std::size_t i = 0; i < images.dim(0); ++i) {
        const auto cp = ctx.checkpoint();
        const Tensor one = Tensor::borrowed(Shape{1, images.dim(1), images.dim(2), images.dim(3)},
                                            const_cast<float*>(images.data() + i * image));
        const Tensor out = p.plans[kFp32].run(one, ctx);
        p.image_logits.emplace_back(out.data(), out.data() + classes);
        ctx.rewind(cp);
    }

    serve::ServerOptions so;
    so.compile_mode = serve::CompileMode::kOn;  // the default compiles only on request
    pins.pin(kWorkerCpu);  // the worker thread inherits this pin
    p.server = std::make_unique<serve::InferenceServer>(
        *p.quant, Shape{images.dim(1), images.dim(2), images.dim(3)}, so);
    pins.release();
    return p;
}

float max_abs_diff(const float* a, const float* b, std::size_t n) {
    float m = 0.0f;
    for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

bool all_finite(const Tensor& t) {
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!std::isfinite(t.data()[i])) return false;
    }
    return true;
}

/// What the named rate accumulates over the serve rounds.
struct RateLog {
    explicit RateLog(double rate) : qps(rate) {}
    double qps;
    std::vector<double> latency_ms, queue_wait_ms, late_ms;
    std::size_t issued = 0, completed = 0;
    std::uint64_t batches = 0, batched_images = 0;
};

/// One open-loop step: Poisson arrivals at `log.qps` for `duration_s`,
/// every request timed from its due time on the server's clock. With
/// `spin` the generator busy-waits for each due time on its own CPU; a
/// sleeping thread wakes too late and too irregularly for a schedule.
/// Returns the step's p99 latency (ms).
double serve_step(Prepared& p, RateLog& log, double duration_s, std::uint64_t seed, bool spin,
                  Result& out) {
    serve::InferenceServer& server = *p.server;
    const Tensor& images = p.data->val_images();
    const std::size_t image = images.size() / images.dim(0);
    Rng rng(seed);
    std::vector<std::uint64_t> due;
    std::vector<std::size_t> pick;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform()) / log.qps;
        if (t >= duration_s) break;
        due.push_back(static_cast<std::uint64_t>(t * 1e9));
        pick.push_back(static_cast<std::size_t>(rng.uniform_index(images.dim(0))));
    }
    const serve::ServerStats before = server.stats();
    // Map the schedule onto the server clock (RequestTiming's timebase).
    const auto t_ref = Clock::now();
    const std::uint64_t start_ns = server.now_ns() + 1'000'000;
    const std::uint64_t ref_ns = server.now_ns();
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
        due[i] += start_ns;
        const auto due_tp = t_ref + std::chrono::nanoseconds(due[i] - ref_ns);
        if (!spin) std::this_thread::sleep_until(due_tp);
        while (Clock::now() < due_tp) {
        }
        futures.push_back(server.submit(images.data() + pick[i] * image));
    }
    const std::size_t classes = p.image_logits[0].size();
    const std::size_t first = log.latency_ms.size();
    for (std::size_t i = 0; i < futures.size(); ++i) {
        ++log.issued;
        try {
            const serve::InferenceResult r = futures[i].get();
            const serve::RequestTiming& tm = r.timing;
            ++log.completed;
            log.latency_ms.push_back(static_cast<double>(tm.complete_ns - due[i]) * 1e-6);
            log.queue_wait_ms.push_back(static_cast<double>(tm.queue_wait_ns()) * 1e-6);
            log.late_ms.push_back(
                static_cast<double>(tm.enqueue_ns > due[i] ? tm.enqueue_ns - due[i] : 0) * 1e-6);
            out.check(r.logits.size() == classes &&
                          std::memcmp(r.logits.data(), p.image_logits[pick[i]].data(),
                                      classes * sizeof(float)) == 0,
                      "served logits equal offline plan logits");
        } catch (const std::exception& e) {
            out.check(false, std::string("served request failed: ") + e.what());
        }
    }
    const serve::ServerStats after = server.stats();
    log.batches += after.batches - before.batches;
    log.batched_images += after.batched_images - before.batched_images;

    const std::vector<double> step(log.latency_ms.begin() + static_cast<long>(first),
                                   log.latency_ms.end());
    return step.empty() ? 0.0 : percentile(step, 99);
}

void print_layer_table(const std::vector<GemmStep>& steps, const std::vector<double>& ms,
                       double ceiling, const char* mode) {
    std::cout << "layer table (" << mode << ", batch " << kEvalBatch << ", ceiling " << ceiling
              << " GFLOP/s)\n  step  numeric      m      k      n  calls      MFLOP       ms"
                 "   GFLOP/s  %ceiling\n";
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const GemmStep& g = steps[i];
        const double gf = g.flops_per_run() / (ms[i] * 1e-3) / 1e9;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %-5s %-7s %6zu %6zu %6zu %6zu %10.3f %8.4f %9.2f %8.1f\n", g.name.c_str(),
                      compile::numeric_mode_name(g.numeric), g.m, g.k, g.n, g.calls,
                      g.flops_per_run() / 1e6, ms[i], gf, 100.0 * gf / ceiling);
        std::cout << line;
    }
}

}  // namespace

void run_inference(const RunConfig& cfg, Result& out) {
    const bool tiny = cfg.size == Size::kTiny;
    const CpuPins pins;
    SetupTimer setup;
    Prepared p;
    setup.time([&] { p = prepare(cfg, pins); });
    std::vector<double> compile_ms{p.compile_ms};

    // fp32 plan vs the allocating module walk: the compiler's bit-identity
    // contract, checked before anything is timed.
    runtime::EvalContext ctx;
    const std::size_t n_logits = p.reference.size();
    {
        const auto cp = ctx.checkpoint();
        const Tensor y = p.plans[kFp32].run(p.batch, ctx);
        out.check(y.size() == n_logits &&
                      std::memcmp(y.data(), p.reference.data(), n_logits * sizeof(float)) == 0,
                  "fp32 plan logits equal model.forward(x)");
        ctx.rewind(cp);
    }

    // ----- measured window: rounds of eval blocks, then serve steps -----
    // Both phases share every round, so each metric samples the whole
    // window. Eval blocks run on the round's CPU; serving runs the worker
    // and the generator on CPUs of their own.
    SpanLog spans(false);
    // Runs per block: about 0.1 s per mode on the tuning host. A round
    // runs kEvalSubRounds blocks of each mode, interleaved.
    constexpr std::size_t kEvalSubRounds = 3;
    const std::size_t block_runs[3] = {tiny ? 2u : 16u, tiny ? 2u : 21u, tiny ? 1u : 4u};
    std::vector<double> rate[3], block_s[3][2];
    // Fastest single ExecutionPlan::run call of each mode in timed blocks.
    double call_min_s[3] = {INFINITY, INFINITY, INFINITY};
    // Every AMS run, warm-up and timed, feeds the replay hash.
    std::uint64_t ams_hash = 0xcbf29ce484222325ULL;
    std::size_t ams_runs = 0;
    auto run_block = [&](int mode, bool timed) {
        compile::ExecutionPlan& plan = p.plans[static_cast<std::size_t>(mode)];
        const std::size_t runs = block_runs[mode];
        const auto t0 = Clock::now();
        for (std::size_t r = 0; r < runs; ++r) {
            const auto cp = ctx.checkpoint();
            Tensor y;
            const auto tc = Clock::now();
            {
                SpanLog::Scope s(spans, "plan.run");
                y = plan.run(p.batch, ctx);
            }
            if (timed) call_min_s[mode] = std::min(call_min_s[mode], seconds_since(tc));
            if (mode == kFp32) {
                out.check(std::memcmp(y.data(), p.reference.data(), n_logits * sizeof(float)) == 0,
                          "fp32 plan logits equal model.forward(x)");
            } else if (mode == kInt8) {
                const float d = max_abs_diff(y.data(), p.reference.data(), n_logits);
                out.check(d <= kInt8Tolerance,
                          "int8 plan logits within " + std::to_string(kInt8Tolerance) +
                              " of fp32 (max diff " + std::to_string(d) + ")");
            } else {
                out.check(all_finite(y), "ams plan logits finite");
                ams_hash = fnv1a(y.data(), n_logits * sizeof(float), ams_hash);
                ++ams_runs;
            }
            ctx.rewind(cp);
        }
        const double dt = seconds_since(t0);
        if (timed) rate[mode].push_back(static_cast<double>(runs * kEvalBatch) / dt);
        return dt;
    };

    RateLog named(kNamedQps);
    // 3 s at 400/s: 1200 requests a round, pooled over all rounds.
    const double named_s = tiny ? 0.1 : 3.0;
    std::vector<double> round_p99;
    const bool spin = pins.size() >= 2;

    for (int m = 0; m < 3; ++m) (void)run_block(m, /*timed=*/false);  // warm-up
    // A traced run needs rounds with spans on and off.
    const std::size_t min_rounds = tiny ? 2 : cfg.trace ? 4 : 5;
    const auto window = Clock::now();
    for (std::size_t round = 0;; ++round) {
        const bool traced = cfg.trace && round % 2 == 1;
        pins.pin(kWorkerCpu);
        spans.set_enabled(traced);
        for (std::size_t sub = 0; sub < kEvalSubRounds; ++sub) {
            for (std::size_t i = 0; i < 3; ++i) {
                const int mode = static_cast<int>((round + sub + i) % 3);
                block_s[mode][traced ? 1 : 0].push_back(run_block(mode, true));
            }
        }
        spans.set_enabled(false);

        pins.pin(kGeneratorCpu);
        {
            const CpuKeeper keeper(pins.cpu(kWorkerCpu));
            round_p99.push_back(serve_step(p, named, named_s,
                                           cfg.seed * 1000003ULL + round * 131, spin, out));
        }
        pins.release();
        for (std::size_t i = 0; i < kSetupRepsPerRound; ++i) {
            Prepared extra;
            setup.time([&] { extra = prepare(cfg, pins); });
            compile_ms.push_back(extra.compile_ms);
        }
        if (round == kRssRound && !cfg.trace) out.add("peak_rss_mb", peak_rss_mb(), "MiB");
        if (round + 1 >= min_rounds && seconds_since(window) >= cfg.seconds) break;
    }

    // AMS replay: a fresh network from the same seed, run as many times,
    // reproduces every AMS output of the run bit for bit.
    {
        auto replica = make_net(true, p.data->max_abs_value(), 42 + cfg.seed);
        compile::ExecutionPlan plan = compile::compile(*replica, p.batch.shape());
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::size_t r = 0; r < ams_runs; ++r) {
            const auto cp = ctx.checkpoint();
            const Tensor y = plan.run(p.batch, ctx);
            h = fnv1a(y.data(), n_logits * sizeof(float), h);
            ctx.rewind(cp);
        }
        out.check(h == ams_hash, "ams eval replays bit-identically");
    }

    p.server->shutdown();

    for (int m = 0; m < 3; ++m) {
        log_samples(std::string("inference eval images/s ") + kModeName[m], rate[m]);
    }
    log_samples("inference serve p99 ms", round_p99);

    if (!cfg.trace) {
        // Throughput: images per second of an eval that runs one batch in
        // each of the three modes, each at its fastest call. Latency: the
        // p50 served request at the named rate, over the requests of every
        // round together.
        const double batch_s = call_min_s[kFp32] + call_min_s[kInt8] + call_min_s[kAms];
        std::cerr << "amsbench: fastest call ms fp32/int8/ams " << call_min_s[kFp32] * 1e3 << " / "
                  << call_min_s[kInt8] * 1e3 << " / " << call_min_s[kAms] * 1e3 << "\n";
        out.add("setup_s", setup.median_s(), "s");
        out.add("throughput_per_s", 3.0 * static_cast<double>(kEvalBatch) / batch_s, "1/s");
        out.add("latency_ms", percentile(named.latency_ms, 50), "ms");
        return;
    }

    // ----- traced run: per-layer numbers -----
    out.add("trace.overhead_pct.inference",
            (median(block_s[kFp32][1]) / median(block_s[kFp32][0]) - 1.0) * 100.0, "%");
    out.add("compile.compile_ms", median(compile_ms), "ms");
    out.add("runtime.arena_hwm_bytes", static_cast<double>(ctx.high_water_mark()), "bytes");

    for (int mode : {kFp32, kInt8}) {
        const auto steps = gemm_steps(p.plans[static_cast<std::size_t>(mode)], kEvalBatch);
        const double ceiling = gemm_ceiling_gflops(
            mode == kInt8 ? compile::NumericMode::kInt8 : compile::NumericMode::kFp32, 9);
        std::vector<double> ms;
        double kernel_ms = 0.0;
        for (std::size_t i = 0; i < steps.size(); ++i) {
            ms.push_back(replay_gemm_s(steps[i], cfg.seed + i, tiny ? 1 : 7) * 1e3);
            kernel_ms += ms.back();
            out.add(std::string("tensor.gemm_ms.") + kModeName[mode] + "." + steps[i].name,
                    ms.back(), "ms");
        }
        const double run_ms =
            median(block_s[mode][0]) / static_cast<double>(block_runs[mode]) * 1e3;
        out.add(std::string("compile.kernel_share.") + kModeName[mode], kernel_ms / run_ms,
                "ratio");
        out.add(std::string("tensor.gemm_ceiling_gflops.") + kModeName[mode], ceiling,
                "GFLOP/s");
        print_layer_table(steps, ms, ceiling, kModeName[mode]);
    }

    {  // the AMS plan's injectors at the eval batch
        auto net = make_net(true, p.data->max_abs_value(), 42 + cfg.seed);
        const compile::ExecutionPlan plan = compile::compile(*net, p.batch.shape());
        const auto targets = inject_targets(plan, kEvalBatch, nullptr);
        std::size_t largest = 0;
        for (const auto& t : targets) largest = std::max(largest, t.numel);
        std::vector<float> buf(largest, 0.5f);
        spans.set_enabled(true);
        for (int rep = 0; rep < (tiny ? 2 : 20); ++rep) {
            SpanLog::Scope s(spans, "ams.inject");
            for (const auto& t : targets) {
                t.injector->inject_inplace(buf.data(), t.numel, t.batch, t.channels);
            }
        }
        out.add("ams.inject_ms_per_batch", spans.mean_s("ams.inject") * 1e3, "ms");
    }

    out.add("serve.p99_ms", percentile(named.latency_ms, 99), "ms");
    out.add("serve.queue_wait_p50_ms", percentile(named.queue_wait_ms, 50), "ms");
    out.add("serve.queue_wait_p99_ms", percentile(named.queue_wait_ms, 99), "ms");
    const auto batches = static_cast<double>(named.batches);
    const auto batched_images = static_cast<double>(named.batched_images);
    out.add("serve.mean_batch", batched_images / batches, "count");
    out.add("serve.batch_fill_ratio",
            batched_images / (batches * static_cast<double>(p.server->options().max_batch)),
            "ratio");
    out.add("serve.gen_late_ms_p99", percentile(named.late_ms, 99), "ms");
    out.add("serve.requests_failed", static_cast<double>(named.issued - named.completed),
            "count");
    spans.write_chrome_trace(cfg.work_dir + "/trace_inference.json");
}

}  // namespace amsbench
