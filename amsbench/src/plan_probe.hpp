// Plan-derived probes: the GEMM shapes and injector targets a compiled
// ExecutionPlan runs, read from ExecutionPlan::program().steps so the
// benchmark can replay them one at a time through the public kernel entry
// points, without tracing inside the plan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compile/plan.hpp"
#include "models/resnet.hpp"

namespace amsbench {

/// One GEMM step of a plan, as the executor calls it: `calls` GEMMs of
/// (m x k) * (k x n) per plan run.
struct GemmStep {
    std::string name;  ///< c00, c01, ... in forward order; "fc" for the head
    ams::compile::NumericMode numeric = ams::compile::NumericMode::kFp32;
    bool linear = false;  ///< gemm_bt (the FC head) instead of gemm / gemm_s8u8
    std::size_t m = 0, k = 0, n = 0, calls = 0;
    const float* weight = nullptr;          ///< fp32 steps
    const std::int8_t* weight_i8 = nullptr; ///< int8 steps
    std::size_t act_levels = 0;             ///< int8 steps: input code range

    [[nodiscard]] double flops_per_run() const {
        return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n) * static_cast<double>(calls);
    }
};

/// Conv and linear steps of `plan` at run-time batch `batch`.
[[nodiscard]] std::vector<GemmStep> gemm_steps(const ams::compile::ExecutionPlan& plan,
                                               std::size_t batch);

/// Times one plan run's worth of `step`'s GEMMs through the public entry
/// point of its numeric mode, on the step's real weights and seeded
/// operands; returns the median of `reps` timed repetitions (s) after one
/// warm-up.
[[nodiscard]] double replay_gemm_s(const GemmStep& step, std::uint64_t seed, std::size_t reps);

/// GFLOP/s ceiling of a numeric mode: a 256^3 GEMM through the same entry
/// point (gemm for fp32, gemm_s8u8 for int8), median of `reps`.
[[nodiscard]] double gemm_ceiling_gflops(ams::compile::NumericMode mode, std::size_t reps);

/// One enabled error injector of a plan with the tensor it perturbs.
struct InjectTarget {
    ams::vmac::ErrorInjector* injector = nullptr;
    std::size_t numel = 0, batch = 0, channels = 0;
};

/// Every enabled kInject op of `plan` at batch `batch`, except `skip`.
[[nodiscard]] std::vector<InjectTarget> inject_targets(const ams::compile::ExecutionPlan& plan,
                                                       std::size_t batch,
                                                       const ams::vmac::ErrorInjector* skip);

/// Stage label ("stem", "stage1", ...) of each conv step of a ResNet
/// plan, in plan order: the stem, then every block's convs in sequence.
[[nodiscard]] std::vector<std::string> conv_stage_labels(ams::models::ResNet& model);

}  // namespace amsbench
