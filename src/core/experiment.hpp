// ExperimentEnv: the paper's experimental pipeline, end to end.
//
// Owns the dataset and the three model phases:
//   1. pretrained FP32 network          (paper: pretrained ResNet-50)
//   2. DoReFa-quantized retrained nets  (Table 1 rows)
//   3. AMS-error retrained nets         (Figs. 4-6, Table 2)
// Each phase starts from the previous phase's weights, exactly as in the
// paper ("retraining refers to taking a pretrained FP32 network and
// continuing to train it after modifying the network to reflect the
// intended underlying hardware"). Trained states are cached on disk so
// every bench binary can run standalone without repeating training.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ams/vmac_backend.hpp"
#include "data/synthetic_imagenet.hpp"
#include "models/resnet.hpp"
#include "train/checkpoint_cache.hpp"
#include "train/trainer.hpp"

namespace ams::core {

/// Everything that parameterizes an experiment campaign.
struct ExperimentOptions {
    data::DatasetOptions dataset;
    std::size_t eval_passes = 5;  ///< paper: sample mean of five passes
    std::size_t batch_size = 64;
    train::TrainOptions fp32_train;
    train::TrainOptions retrain;
    std::string cache_dir;
    bool verbose = false;

    /// Standard configuration; honors two environment variables:
    ///   REPRO_FAST=1      shrink dataset/epochs for quick runs
    ///   AMSNET_VERBOSE=1  per-epoch progress logging
    [[nodiscard]] static ExperimentOptions standard();
};

/// The pipeline.
class ExperimentEnv {
public:
    explicit ExperimentEnv(ExperimentOptions options);

    [[nodiscard]] const data::SyntheticImageNet& dataset() const { return dataset_; }
    [[nodiscard]] const ExperimentOptions& options() const { return options_; }

    // ----- model variant factories -----
    [[nodiscard]] models::LayerCommon fp32_common() const;
    [[nodiscard]] models::LayerCommon quant_common(std::size_t bits_w, std::size_t bits_x) const;
    /// `device` layers a chip's static non-idealities (offsets/drift)
    /// into every injector; the inactive default preserves the
    /// historical pure-Gaussian model.
    [[nodiscard]] models::LayerCommon ams_common(
        std::size_t bits_w, std::size_t bits_x, const vmac::VmacConfig& vmac_cfg,
        vmac::InjectionMode mode = vmac::InjectionMode::kLumpedGaussian,
        const vmac::DeviceProfile& device = {}) const;
    [[nodiscard]] std::unique_ptr<models::ResNet> make_model(
        const models::LayerCommon& common) const;

    // ----- cached pipeline phases -----
    /// Trains (or loads) the FP32 baseline and returns its weights.
    [[nodiscard]] TensorMap fp32_state();

    /// Retrains (or loads) the DoReFa-quantized network at the given
    /// bitwidths, starting from the FP32 weights. No AMS error.
    [[nodiscard]] TensorMap quantized_state(std::size_t bits_w, std::size_t bits_x);

    /// Retrains (or loads) with AMS error injected in the loop, starting
    /// from the quantized weights. `frozen` lists parameter groups held
    /// fixed during retraining (Table 2); they still forward/backward.
    /// `key_tag` (e.g. vmac::BackendOptions::str()) distinguishes cache
    /// entries whose injected error was derived from a non-default
    /// hardware backend; empty keeps the historical key. `device` puts a
    /// chip's statics into the retraining loop (STE robust retraining) —
    /// pass a key_tag that encodes the profile (BackendOptions::str()
    /// does) so chips get distinct cache lineages chained off the same
    /// fp32/quantized parents.
    [[nodiscard]] TensorMap ams_retrained_state(
        std::size_t bits_w, std::size_t bits_x, const vmac::VmacConfig& vmac_cfg,
        const std::vector<models::LayerGroup>& frozen = {}, const std::string& key_tag = "",
        const vmac::DeviceProfile& device = {});

    // ----- evaluation -----
    /// Loads `state` into a fresh model of the given variant and runs the
    /// paper's multi-pass validation protocol. `ctx` selects the worker's
    /// evaluation context (arena reuse across sweep points); nullptr uses
    /// a context local to the call. Results are identical either way.
    [[nodiscard]] train::EvalResult evaluate_state(const TensorMap& state,
                                                   const models::LayerCommon& common,
                                                   runtime::EvalContext* ctx = nullptr);

    // ----- concurrent sweep driver -----
    /// One swept ENOB point of a Fig. 4/5/8-style campaign.
    struct EnobSweepPoint {
        double enob = 0.0;            ///< swept per-conversion (grid) resolution
        double effective_enob = 0.0;  ///< backend-equivalent monolithic ENOB injected
        train::EvalResult eval_only;  ///< AMS at evaluation only, quantized weights
        train::EvalResult retrained;  ///< AMS error also in the retraining loop
    };

    struct EnobSweepOptions {
        std::size_t nmult = 8;   ///< paper: Nmult = 8 for Figs. 4/5
        bool eval_only = true;   ///< measure injection on the quantized net
        bool retrain = true;     ///< retrain with error in the loop and measure

        /// Hardware datapath each swept point models. The grid ENOB drives
        /// the backend's converter resolution; the injected network-level
        /// error uses the backend's equivalent monolithic ENOB (Eq. 2
        /// equivalence via VmacBackend::effective_enob), and retrain cache
        /// keys gain a BackendOptions::str() tag. The default (bit-exact)
        /// reproduces the historical sweep bit-for-bit, keys included.
        /// backend.variation carries the per-point chip profile of a
        /// Monte-Carlo fleet: its statics are applied by the injectors'
        /// device pre-pass (and by the decorated backend at chunk level),
        /// while the stochastic Gaussian keeps the bare datapath's
        /// equivalent ENOB — see compute_enob_point.
        vmac::BackendOptions backend{};
        /// Chunks per output accumulator assumed when amortizing stateful
        /// backends' per-output conversions into the effective ENOB.
        std::size_t backend_ref_chunks = 8;
        /// Analog non-idealities for backend construction.
        vmac::AnalogOptions analog{};
    };

    /// Runs every ENOB point of a sweep concurrently on the runtime pool
    /// (each point is a self-contained retrain+evaluate with its own model
    /// and fixed seeds, so results are identical to the serial order).
    /// Shared fp32/quantized prerequisites are materialized once up front.
    [[nodiscard]] std::vector<EnobSweepPoint> ams_enob_sweep(
        std::size_t bits_w, std::size_t bits_x, const std::vector<double>& enobs,
        const EnobSweepOptions& sweep);
    [[nodiscard]] std::vector<EnobSweepPoint> ams_enob_sweep(
        std::size_t bits_w, std::size_t bits_x, const std::vector<double>& enobs) {
        return ams_enob_sweep(bits_w, bits_x, enobs, EnobSweepOptions{});
    }

    /// Computes one sweep point — the loop body of ams_enob_sweep,
    /// exposed so the multi-process sweep orchestrator (src/sweep) runs
    /// the exact same code per point. `quant` is the shared quantized
    /// prerequisite state (quantized_state(bits_w, bits_x)). Results are
    /// position-deterministic: independent of thread count, of which
    /// process computes the point, and of what ran before it.
    [[nodiscard]] EnobSweepPoint compute_enob_point(std::size_t bits_w, std::size_t bits_x,
                                                    double enob, const EnobSweepOptions& sweep,
                                                    const TensorMap& quant,
                                                    runtime::EvalContext* ctx = nullptr);

    /// Key prefix identifying the dataset + model architecture, used to
    /// build cache keys.
    [[nodiscard]] std::string base_key() const;

    // ----- content-addressed cache keys -----
    // Each key canonically serializes every input that affects the
    // trained state (dataset, architecture, quant bits, backend tag,
    // frozen groups, full training schedule) plus the parent phase's
    // hash, so any upstream config change re-keys the whole lineage.
    [[nodiscard]] train::CacheKey fp32_cache_key() const;
    [[nodiscard]] train::CacheKey quantized_cache_key(std::size_t bits_w,
                                                      std::size_t bits_x) const;
    [[nodiscard]] train::CacheKey ams_cache_key(
        std::size_t bits_w, std::size_t bits_x, const vmac::VmacConfig& vmac_cfg,
        const std::vector<models::LayerGroup>& frozen = {},
        const std::string& key_tag = "") const;

private:
    ExperimentOptions options_;
    data::SyntheticImageNet dataset_;

    [[nodiscard]] TensorMap train_from(const TensorMap* init_state,
                                       const models::LayerCommon& common,
                                       const train::TrainOptions& train_opts,
                                       const std::vector<models::LayerGroup>& frozen,
                                       const std::string& phase_name);
};

/// Reads a boolean environment flag ("1" = true).
[[nodiscard]] bool env_flag(const char* name);

}  // namespace ams::core
