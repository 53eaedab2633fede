#include "plan_probe.hpp"

#include <cstdio>

#include "bench.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int.hpp"
#include "tensor/rng.hpp"

namespace amsbench {

using ams::compile::NumericMode;
using ams::compile::StepKind;

std::vector<GemmStep> gemm_steps(const ams::compile::ExecutionPlan& plan, std::size_t batch) {
    std::vector<GemmStep> out;
    std::size_t conv_index = 0;
    for (const ams::compile::Step& s : plan.program().steps) {
        GemmStep g;
        if (s.kind == StepKind::kConv) {
            char name[16];
            std::snprintf(name, sizeof(name), "c%02zu", conv_index++);
            g.name = name;
            g.numeric = s.numeric;
            g.m = s.out_channels;
            g.k = s.lowering.patch_size();
            g.n = s.lowering.out_spatial();
            g.calls = batch;
            g.weight = s.weight;
            g.weight_i8 = s.weight_i8;
            g.act_levels = s.act_levels;
        } else if (s.kind == StepKind::kLinear) {
            g.name = "fc";
            g.linear = true;
            g.m = batch;
            g.k = s.linear->in_features();
            g.n = s.linear->out_features();
            g.calls = 1;
            g.weight = s.weight;
        } else {
            continue;
        }
        out.push_back(std::move(g));
    }
    return out;
}

namespace {

template <typename F>
double median_time_s(std::size_t reps, F&& fn) {
    fn();  // warm-up: pack scratch, page faults
    std::vector<double> t;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(seconds_since(t0));
    }
    return median(t);
}

}  // namespace

double replay_gemm_s(const GemmStep& step, std::uint64_t seed, std::size_t reps) {
    ams::Rng rng(seed);
    if (step.numeric == NumericMode::kInt8) {
        std::vector<std::uint8_t> cols(step.k * step.n);
        for (auto& v : cols) v = static_cast<std::uint8_t>(rng.uniform_index(step.act_levels + 1));
        std::vector<std::int32_t> acc(step.m * step.n);
        return median_time_s(reps, [&] {
            for (std::size_t c = 0; c < step.calls; ++c) {
                ams::gemm_s8u8(step.weight_i8, cols.data(), acc.data(), step.m, step.k, step.n);
            }
        });
    }
    std::vector<float> b(step.linear ? step.m * step.k : step.k * step.n);
    for (float& v : b) v = static_cast<float>(rng.uniform());
    std::vector<float> c(step.m * step.n);
    if (step.linear) {
        return median_time_s(reps, [&] {
            ams::gemm_bt(b.data(), step.weight, c.data(), step.m, step.k, step.n);
        });
    }
    return median_time_s(reps, [&] {
        for (std::size_t i = 0; i < step.calls; ++i) {
            ams::gemm(step.weight, b.data(), c.data(), step.m, step.k, step.n);
        }
    });
}

double gemm_ceiling_gflops(NumericMode mode, std::size_t reps) {
    constexpr std::size_t kDim = 256;
    ams::Rng rng(7);
    const double flops = 2.0 * kDim * kDim * kDim;
    if (mode == NumericMode::kInt8) {
        std::vector<std::int8_t> a(kDim * kDim);
        std::vector<std::uint8_t> b(kDim * kDim);
        for (auto& v : a) {
            v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_index(255)) - 127);
        }
        for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_index(128));
        std::vector<std::int32_t> c(kDim * kDim);
        return flops / median_time_s(reps, [&] {
                   ams::gemm_s8u8(a.data(), b.data(), c.data(), kDim, kDim, kDim);
               }) / 1e9;
    }
    std::vector<float> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform());
    return flops / median_time_s(reps, [&] {
               ams::gemm(a.data(), b.data(), c.data(), kDim, kDim, kDim);
           }) / 1e9;
}

std::vector<InjectTarget> inject_targets(const ams::compile::ExecutionPlan& plan,
                                         std::size_t batch,
                                         const ams::vmac::ErrorInjector* skip) {
    const ams::compile::Program& p = plan.program();
    std::vector<InjectTarget> out;
    auto take = [&](const ams::compile::EwOp& op, int value) {
        if (op.kind != ams::compile::EwOp::Kind::kInject || op.injector == skip ||
            !op.injector->enabled()) {
            return;
        }
        const ams::Shape& shape = p.values[static_cast<std::size_t>(value)].shape;
        InjectTarget t;
        t.injector = op.injector;
        t.batch = batch;
        t.channels = shape.rank() > 1 ? shape.dim(1) : 1;
        t.numel = shape.numel() / shape.dim(0) * batch;
        out.push_back(t);
    };
    for (const ams::compile::Step& s : p.steps) {
        if (s.kind == StepKind::kElementwise) take(s.ew, s.out);
        for (const ams::compile::EwOp& op : s.tail) take(op, s.out);
    }
    return out;
}

std::vector<std::string> conv_stage_labels(ams::models::ResNet& model) {
    std::vector<std::string> labels{"stem"};
    std::size_t block = 0;
    const auto& stages = model.config().stages;
    for (std::size_t st = 0; st < stages.size(); ++st) {
        for (std::size_t b = 0; b < stages[st].blocks; ++b, ++block) {
            const std::size_t convs = model.blocks()[block]->conv_units().size();
            labels.insert(labels.end(), convs, "stage" + std::to_string(st + 1));
        }
    }
    return labels;
}

}  // namespace amsbench
