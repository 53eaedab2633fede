// VmacBackend: one pluggable AMS datapath behind the network-level engine.
//
// The paper's Section-4 extension methods (multiplication partitioning,
// delta-sigma error recycling, ADC reference scaling) were implemented as
// standalone dot-product simulators measured only by microbenches, while
// the network-level pipeline (VmacConv2d -> ENOB sweeps -> Fig. 8 map)
// was hard-wired to the plain VmacCell. This interface closes that gap:
// every datapath computes VMAC-sized chunks of a dot product through the
// same seam and reports its conversion costs, so the conv engine, the
// experiment sweeps, and the energy accountant are all backend-generic.
//
// A backend offers its datapath twice over the same pieces:
//  - Per chunk: accumulate() consumes one chunk (<= Nmult operand pairs)
//    and returns the digital term to add to the output accumulator.
//    Stateful backends (delta-sigma) carry residual state between
//    successive chunks of the SAME output accumulator — callers must
//    stream one output's chunks contiguously (output stationarity, paper
//    Sec. 4). finish_output() flushes that state at the end of one
//    output's chunk stream and returns the final digital term (0 for
//    stateless backends, the high-resolution final conversion for
//    delta-sigma).
//  - Per layer, in the three stages VmacConv2d runs (DESIGN.md §9):
//    encode_weights()/encode_activations() encode every operand once
//    into operand planes (no RNG); the engine sums each chunk for a block
//    of output pixels at once (no RNG); convert_tile() then applies the
//    conversions in (pixel, chunk) order with the tile's Rng — the same
//    draws, in the same order, as the per-chunk stream. These calls keep
//    no per-output state in the backend, so one backend serves every
//    worker of a parallel forward pass.
//  - clone() yields a fresh-state copy for callers that drive
//    accumulate() from several threads.
#pragma once

#include <cstdint>
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ams/delta_sigma.hpp"
#include "ams/device_profile.hpp"
#include "ams/partitioned.hpp"
#include "ams/vmac_cell.hpp"

namespace ams::vmac {

/// The six hardware datapaths the library can evaluate at network level.
enum class BackendKind {
    kBitExact,         ///< plain VmacCell: operand codecs + one ADC per chunk
    kPerVmacNoise,     ///< exact partial sums + uniform(-LSB/2, LSB/2) per chunk
    kPartitioned,      ///< Sec. 4 method 1: NW x NX low-res partial conversions
    kDeltaSigma,       ///< Sec. 4 method 2: error recycling, high-res final conversion
    kReferenceScaled,  ///< Sec. 4 method 3: ADC reference shrunk below full scale
    kBlockFp,          ///< adaptive block floating-point operand encoding
};

/// Stable lower_snake_case label ("bit_exact", "delta_sigma", ...) used in
/// CSV series, cache keys, and CLI flags.
[[nodiscard]] const char* backend_kind_name(BackendKind kind);

/// Inverse of backend_kind_name; throws std::invalid_argument listing the
/// valid names on an unknown label.
[[nodiscard]] BackendKind parse_backend_kind(std::string_view name);

/// All kinds, in declaration order (bench sweeps iterate this).
[[nodiscard]] const std::vector<BackendKind>& all_backend_kinds();

/// One class of ADC conversions a backend performs, for energy pricing.
/// A backend's total conversion energy for an output accumulator computed
/// as `chunks` VMAC-sized chunks is
///   sum_i E_ADC(enob_i) * (per_chunk_i * chunks + per_output_i).
struct ConversionCost {
    double enob = 0.0;        ///< resolution of this conversion class
    double per_chunk = 0.0;   ///< conversions per VMAC-sized chunk
    double per_output = 0.0;  ///< conversions per output accumulator
};
using ConversionProfile = std::vector<ConversionCost>;

/// How a backend's stage 1 lays out its encoded operands.
struct OperandLayout {
    std::size_t weight_planes = 1;  ///< value planes per weight (NW slices when partitioned)
    std::size_t act_planes = 1;     ///< value planes per activation (NX slices when partitioned)
    /// Block floating point: int32 mantissas plus one quantum per (chunk,
    /// column) in place of value planes.
    bool mantissas = false;
    /// Multiplier noise enters inside each analog sum, so stage 2 cannot
    /// precompute it: stage 3 forms every chunk's sum from the operands,
    /// with its draws.
    bool sums_per_chunk = false;

    /// Analog partial sums per chunk: one per (weight plane, activation plane).
    [[nodiscard]] std::size_t pairs() const { return weight_planes * act_planes; }
};

/// Encoded operands of a rows x cols block. Rows run along the dot product
/// (chunk c holds rows [c * Nmult, min((c + 1) * Nmult, rows))); columns
/// are output pixels (one for an out-channel's weights).
struct OperandPlanes {
    double* values = nullptr;           ///< [plane][row][col]
    std::int32_t* mantissas = nullptr;  ///< [row][col] (OperandLayout::mantissas)
    double* quanta = nullptr;           ///< [chunk][col] (OperandLayout::mantissas)
    std::size_t rows = 0;
    std::size_t cols = 0;

    [[nodiscard]] double value(std::size_t plane, std::size_t row, std::size_t col) const {
        return values[(plane * rows + row) * cols + col];
    }
    [[nodiscard]] std::int32_t mantissa(std::size_t row, std::size_t col) const {
        return mantissas[row * cols + col];
    }
    [[nodiscard]] double quantum(std::size_t chunk, std::size_t col) const {
        return quanta[chunk * cols + col];
    }
};

/// Stage 3's input for one tile: the output pixels (activation columns)
/// of one (image, out-channel) pair, their encoded operands and, unless
/// OperandLayout::sums_per_chunk, their stage-2 analog sums.
struct TileSums {
    const double* sums = nullptr;     ///< [chunk][pair][pixel], pair = p * act_planes + q
    OperandPlanes w;                  ///< the out-channel's weights (cols = 1)
    OperandPlanes x;                  ///< the pixels' activations (cols = pixels)
    const double* offsets = nullptr;  ///< per-cell output offsets [chunk], or null
    std::size_t nmult = 0;
    std::size_t chunks = 0;
    std::size_t pairs = 1;

    [[nodiscard]] std::size_t pixels() const { return x.cols; }
    [[nodiscard]] std::size_t chunk_start(std::size_t c) const { return c * nmult; }
    [[nodiscard]] std::size_t chunk_len(std::size_t c) const {
        return std::min(nmult, w.rows - c * nmult);
    }
    [[nodiscard]] double sum(std::size_t c, std::size_t pair, std::size_t pixel) const {
        return sums[(c * pairs + pair) * x.cols + pixel];
    }
};

/// Abstract AMS datapath: computes chunk contributions and reports cost.
class VmacBackend {
public:
    virtual ~VmacBackend() = default;

    /// Digital contribution of one chunk (see class contract above).
    /// Throws std::invalid_argument on size mismatch or > Nmult pairs.
    virtual double accumulate(std::span<const double> weights,
                              std::span<const double> activations, Rng& rng) = 0;

    /// End of one output accumulator's chunk stream; returns the final
    /// digital term and resets per-output state. Stateless default: 0.
    virtual double finish_output(Rng& rng) {
        (void)rng;
        return 0.0;
    }

    // ----- the engine's stages -----

    /// Operand planes stage 1 writes and stage 2 sums.
    [[nodiscard]] virtual OperandLayout operand_layout() const = 0;

    /// Stage 1 (no RNG): encodes one out-channel's `dst.rows` weights
    /// (dst.cols == 1). Not const: a decorator may cache per-cell state
    /// here, serially, before the tiles run.
    virtual void encode_weights(const double* weights, const OperandPlanes& dst) = 0;

    /// Stage 1 (no RNG): encodes `dst.rows` x `dst.cols` lowered
    /// activations; row r starts at `activations + r * stride`.
    virtual void encode_activations(const float* activations, std::size_t stride,
                                    const OperandPlanes& dst) const = 0;

    /// Stage 3: converts every pixel of a tile, pixel by pixel and chunk by
    /// chunk, drawing from `rng` in that order; writes out[pixel]. Each
    /// pixel's value and draws equal the accumulate()/finish_output()
    /// stream over its chunks.
    virtual void convert_tile(const TileSums& tile, Rng& rng, float* out) const = 0;

    /// Adds `chunks` converted chunks and `outputs` finished output
    /// accumulators to the conversion ledger (runtime/metrics.hpp).
    virtual void count_conversions(std::uint64_t chunks, std::uint64_t outputs) const = 0;

    [[nodiscard]] virtual BackendKind kind() const = 0;
    [[nodiscard]] std::string name() const { return backend_kind_name(kind()); }

    /// ADC conversions issued per VMAC-sized chunk (the paper's
    /// speed/energy cost axis: NW*NX for partitioning, 1 otherwise).
    [[nodiscard]] virtual std::size_t conversions_per_vmac() const = 0;

    /// Per-conversion resolutions and counts for energy accounting.
    [[nodiscard]] virtual ConversionProfile conversion_profile() const = 0;

    /// Equivalent monolithic per-conversion ENOB of this datapath for an
    /// output computed as `chunks_per_output` chunks: the resolution at
    /// which the plain datapath would inject the same error variance
    /// (Eq. 2 equivalence). Data-dependent effects (reference-scaling
    /// clipping) are excluded — see each implementation's note.
    [[nodiscard]] virtual double effective_enob(std::size_t chunks_per_output) const = 0;

    /// Whether the datapath supports gradient propagation. All current
    /// backends are evaluation-only (paper Sec. 4: per-VMAC modeling "can
    /// be performed for evaluation only").
    [[nodiscard]] virtual bool trainable() const { return false; }

    /// Fresh copy with reset per-output state. Contract: the clone owns
    /// ALL of its mutable state — per-output residuals, scratch buffers,
    /// lazily materialized device realizations, and any RNG state. Two
    /// clones fed identical chunk streams (with independently seeded
    /// Rngs) must produce bit-identical outputs, and activity on one
    /// clone must never perturb another: callers that stream chunks from
    /// several threads clone one backend per thread and rely on this
    /// isolation. make_backend() asserts the property in debug builds via
    /// verify_clone_isolation().
    [[nodiscard]] virtual std::unique_ptr<VmacBackend> clone() const = 0;

    [[nodiscard]] virtual const VmacConfig& config() const = 0;
};

/// Everything that parameterizes backend construction beyond the shared
/// (VmacConfig, AnalogOptions) pair.
struct BackendOptions {
    BackendKind kind = BackendKind::kBitExact;

    /// kPartitioned: chunk counts and partial-ADC resolutions. The
    /// `analog` member inside is overwritten with the outer AnalogOptions.
    PartitionOptions partition{};

    /// kDeltaSigma: resolution of the final conversion; <= 0 selects
    /// config.enob + 4 (a comfortably finer converter, paper Sec. 4:
    /// "the final conversion is performed at a higher resolution").
    double delta_sigma_final_enob = 0.0;

    /// kReferenceScaled: ADC reference relative to the natural full scale.
    double reference_scale = 0.5;

    /// kBlockFp: mantissa magnitude bits per operand; 0 derives them from
    /// the config's operand widths (bits_w - 1 / bits_x - 1, the same
    /// magnitude budget as the cell's sign-magnitude codecs).
    std::size_t block_fp_mantissa_bits = 0;

    /// Per-chip device variability (static offsets, drift, IR drop)
    /// layered over the selected datapath by make_backend via the
    /// DeviceVariation decorator. The default (inactive) profile leaves
    /// the datapath untouched — and untagged, so historical cache keys
    /// and CSV labels are preserved.
    DeviceProfile variation{};

    /// Compact parameter tag ("partitioned_nw2_nx2_p8", "delta_sigma_f12",
    /// ...) for cache keys and CSV labels; an active variation profile
    /// appends its own tag ("..._chip7_off0.02_t64nu0.2").
    [[nodiscard]] std::string str() const;
};

/// Builds the requested backend. Throws std::invalid_argument on invalid
/// configuration (bad config/analog, non-divisible partition chunks, ...).
[[nodiscard]] std::unique_ptr<VmacBackend> make_backend(const VmacConfig& config,
                                                        const AnalogOptions& analog,
                                                        const BackendOptions& options);

/// Convenience: plain bit-exact backend (the pre-refactor datapath).
[[nodiscard]] std::unique_ptr<VmacBackend> make_backend(const VmacConfig& config,
                                                        const AnalogOptions& analog = {});

/// Checks the clone() isolation contract on a backend: clones twice,
/// drives chunks through one clone, and verifies a second clone still
/// reproduces a fresh clone's fixed-seed output bit-for-bit (shared
/// mutable RNG or residual state would diverge it). Pure apart from
/// temporarily forcing the metrics level off so probe chunks never touch
/// the conversion ledger — callers running concurrent *instrumented*
/// work should not interleave with it (debug-build factory asserts and
/// tests, in practice). Returns true iff the contract holds.
[[nodiscard]] bool verify_clone_isolation(const VmacBackend& backend);

}  // namespace ams::vmac
