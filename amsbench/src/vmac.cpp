// Workload `vmac`: Sec. 4's explicit per-VMAC simulation. Every conv
// shape of MiniResNet 8b runs through VmacConv2d once per hardware
// backend (all six) at Nmult 8, on the layer's DoReFa-quantized weights
// and seeded on-grid activations. It is dominated by the ams backends and
// vmac_conv; it never touches training, the GEMM kernels or serve.
//
// A round runs one whole-network pass per backend, in an order rotated
// every round, then one pass of the bit-exact datapath under a chip
// profile (device variation and drift). Modules are rebuilt before the
// round (outside the timed region) from fixed seeds, so every round must
// reproduce round 0's outputs bit for bit, which the replay check enforces.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>

#include "ams/vmac_backend.hpp"
#include "ams/vmac_conv.hpp"
#include "bench.hpp"
#include "compile/plan.hpp"
#include "energy/vmac_energy.hpp"
#include "models/resnet.hpp"
#include "plan_probe.hpp"
#include "tensor/rng.hpp"

namespace amsbench {

using namespace ams;

namespace {

constexpr std::size_t kBits = 8;
constexpr double kEnob = 8.0;
constexpr std::size_t kNmult = 8;
constexpr std::size_t kActLevels = (1u << (kBits - 1)) - 1;  // sign-magnitude 8b grid

vmac::VmacConfig vmac_config() {
    vmac::VmacConfig c;
    c.enob = kEnob;
    c.nmult = kNmult;
    c.bits_w = kBits;
    c.bits_x = kBits;
    return c;
}

/// Backend options for `kind`. 8-bit sign-magnitude operands carry 7
/// magnitude bits, which split only as 1 x 7: the default 2 x 2
/// partitioning throws "magnitude bits must divide evenly into chunks",
/// so the partitioned datapath is configured explicitly (bit-serial
/// activations, one weight chunk).
vmac::BackendOptions backend_options(vmac::BackendKind kind) {
    vmac::BackendOptions o;
    o.kind = kind;
    o.partition.nw = 1;
    o.partition.nx = 7;
    o.partition.enob_partial = kEnob;
    return o;
}

/// The chip of the chip-profile pass: per-cell offsets, power-law drift
/// and IR drop on the bit-exact datapath.
vmac::BackendOptions chip_options() {
    vmac::BackendOptions o = backend_options(vmac::BackendKind::kBitExact);
    o.variation.chip_seed = 7;
    o.variation.cell_offset_sigma = 0.02;
    o.variation.drift_nu = 0.05;
    o.variation.drift_time = 10.0;
    o.variation.ir_drop_alpha = 0.05;
    return o;
}

/// One conv layer of the network: its lowered geometry, DoReFa weights
/// and a seeded on-grid input image.
struct Layer {
    std::string stage;
    Tensor weight;  // {Cout, Cin, k, k}
    std::size_t stride = 1, padding = 0;
    Tensor input;  // {1, Cin, H, W}
    std::size_t n_tot = 0, outputs = 0;
    [[nodiscard]] double macs() const {
        return static_cast<double>(n_tot) * static_cast<double>(outputs);
    }
};

std::vector<Layer> network_layers(const RunConfig& cfg) {
    models::LayerCommon common;
    common.bits_w = kBits;
    common.bits_x = kBits;
    models::ResNet net(models::mini_resnet_config(common, 10, 1.0f, 42 + cfg.seed));
    net.set_training(false);
    const compile::ExecutionPlan plan = compile::compile(net, Shape{1, 3, 16, 16});
    const std::vector<std::string> stages = conv_stage_labels(net);
    Rng rng(cfg.seed);
    std::vector<Layer> layers;
    for (const compile::Step& s : plan.program().steps) {
        if (s.kind != compile::StepKind::kConv) continue;
        const ConvGeometry& g = s.lowering.geometry();
        Layer l;
        l.stage = stages.at(layers.size());
        l.weight = Tensor(Shape{s.out_channels, g.in_channels, g.kernel_h, g.kernel_w});
        std::copy(s.weight, s.weight + l.weight.size(), l.weight.data());
        l.stride = g.stride_h;
        l.padding = g.pad_h;
        l.input = Tensor(Shape{1, g.in_channels, g.in_h, g.in_w});
        // The stem sees the signed quantized image; later layers see
        // post-activation codes in [0, 1].
        const bool is_signed = layers.empty();
        for (std::size_t i = 0; i < l.input.size(); ++i) {
            const double code = static_cast<double>(rng.uniform_index(kActLevels + 1));
            const double sign = is_signed && rng.uniform() < 0.5 ? -1.0 : 1.0;
            l.input.data()[i] = static_cast<float>(sign * code / kActLevels);
        }
        l.n_tot = s.lowering.patch_size();
        l.outputs = s.out_channels * s.lowering.out_spatial();
        layers.push_back(std::move(l));
    }
    return layers;
}

using Modules = std::vector<std::unique_ptr<vmac::VmacConv2d>>;

Modules build_modules(const std::vector<Layer>& layers, const vmac::BackendOptions& opts,
                      std::uint64_t seed) {
    Modules m;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        m.push_back(std::make_unique<vmac::VmacConv2d>(layers[i].weight, layers[i].stride,
                                                       layers[i].padding, vmac_config(),
                                                       vmac::AnalogOptions{}, opts,
                                                       Rng(seed * 131 + i)));
    }
    return m;
}

/// Wall time (s) of one whole-network pass through `mods`.
double pass_s(Modules& mods, const std::vector<Layer>& layers) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < layers.size(); ++i) (void)mods[i]->forward(layers[i].input);
    return seconds_since(t0);
}

/// Simulated statistics of one backend over the network (Eqs. 3-4):
/// ADC conversions per MAC and conversion-priced energy per MAC.
struct SimStats {
    double conversions_per_mac = 0.0;
    double fj_per_mac = 0.0;
    bool operator==(const SimStats& o) const {
        return std::memcmp(this, &o, sizeof(SimStats)) == 0;
    }
};

SimStats sim_stats(const std::vector<Layer>& layers, const vmac::VmacBackend& backend) {
    double conversions = 0.0, macs = 0.0;
    std::vector<energy::LayerEnergy> shapes;
    for (const Layer& l : layers) {
        const double chunks = static_cast<double>((l.n_tot + kNmult - 1) / kNmult);
        for (const vmac::ConversionCost& c : backend.conversion_profile()) {
            conversions += static_cast<double>(l.outputs) * (c.per_chunk * chunks + c.per_output);
        }
        macs += l.macs();
        energy::LayerEnergy e;
        e.name = l.stage;
        e.n_tot = l.n_tot;
        e.outputs = l.outputs;
        shapes.push_back(e);
    }
    SimStats s;
    s.conversions_per_mac = conversions / macs;
    s.fj_per_mac =
        energy::account_network(shapes, energy::VmacEnergyModel{}, backend).mean_emac_fj();
    return s;
}

volatile double chunk_sink = 0.0;  // keeps the timed chunk sums observable

/// Mean time (ns) of one VmacBackend::accumulate call on seeded 8-wide
/// chunks, streaming 9 chunks (a 3x3x8 patch) per output accumulator.
/// The operands cycle through a small pool that stays in L1, as the
/// engine's per-chunk staging buffers do.
double chunk_ns(const vmac::VmacBackend& proto, std::size_t chunks, std::uint64_t seed) {
    constexpr std::size_t kPool = 64;
    constexpr std::size_t kChunksPerOutput = 9;
    const auto backend = proto.clone();
    Rng rng(seed);
    std::vector<double> w(kPool * kNmult), x(kPool * kNmult);
    for (double& v : w) {
        const auto code = static_cast<double>(rng.uniform_index(2 * kActLevels + 1));
        v = (code - static_cast<double>(kActLevels)) / kActLevels;
    }
    for (double& v : x) v = static_cast<double>(rng.uniform_index(kActLevels + 1)) / kActLevels;
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t slot = (c % kPool) * kNmult;
        sink += backend->accumulate(std::span<const double>(w.data() + slot, kNmult),
                                    std::span<const double>(x.data() + slot, kNmult), rng);
        if ((c + 1) % kChunksPerOutput == 0) sink += backend->finish_output(rng);
    }
    const double s = seconds_since(t0);
    chunk_sink = sink;
    return s * 1e9 / static_cast<double>(chunks);
}

}  // namespace

void run_vmac(const RunConfig& cfg, Result& out) {
    const bool tiny = cfg.size == Size::kTiny;
    const auto& kinds = vmac::all_backend_kinds();
    // Set-up: the network's layers and every backend's simulated statistics.
    auto set_up = [&](std::vector<Layer>& layers, std::vector<SimStats>& stats) {
        layers = network_layers(cfg);
        stats.clear();
        for (vmac::BackendKind k : kinds) {
            const auto backend = vmac::make_backend(vmac_config(), {}, backend_options(k));
            stats.push_back(sim_stats(layers, *backend));
        }
    };
    SetupTimer setup;
    std::vector<Layer> layers;
    std::vector<SimStats> stats;
    setup.time([&] { set_up(layers, stats); });
    double network_macs = 0.0;
    for (const Layer& l : layers) network_macs += l.macs();

    // Per-(backend, stage) span names; SpanLog stores the pointers.
    std::vector<std::map<std::string, std::string>> span_name(kinds.size());
    for (std::size_t b = 0; b < kinds.size(); ++b) {
        for (const Layer& l : layers) {
            span_name[b][l.stage] = std::string("ams.vmac_conv_ms.") +
                                    vmac::backend_kind_name(kinds[b]) + "." + l.stage;
        }
    }

    SpanLog spans(false);
    std::vector<std::vector<double>> rate(kinds.size());
    std::vector<std::vector<double>> traced_pass_s(kinds.size()), untraced_pass_s(kinds.size());
    std::vector<double> chip_pass_s;
    // Fastest VmacConv2d::forward call of every (backend or chip, layer).
    std::vector<std::vector<double>> call_min_s(kinds.size() + 1,
                                                std::vector<double>(layers.size(), INFINITY));
    // Reference outputs of round 0, per backend and then the chip profile.
    std::vector<std::vector<std::uint64_t>> ref_hash(kinds.size() + 1);
    const std::size_t chip = kinds.size();
    const std::size_t bit_exact = static_cast<std::size_t>(
        std::find(kinds.begin(), kinds.end(), vmac::BackendKind::kBitExact) - kinds.begin());
    // Backend `b`, or the chip profile when b == chip (never traced).
    auto network_pass = [&](std::size_t b, Modules& mods, bool timed, std::size_t round,
                            bool traced) {
        std::vector<std::uint64_t> hashes;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < layers.size(); ++i) {
            Tensor y;
            const auto tc = Clock::now();
            if (b == chip) {
                y = mods[i]->forward(layers[i].input);
            } else {
                SpanLog::Scope s(spans, span_name[b][layers[i].stage].c_str());
                y = mods[i]->forward(layers[i].input);
            }
            if (timed) call_min_s[b][i] = std::min(call_min_s[b][i], seconds_since(tc));
            hashes.push_back(fnv1a(y.data(), y.size() * sizeof(float)));
        }
        const double dt = seconds_since(t0);
        if (!timed) return;
        if (b == chip) {
            chip_pass_s.push_back(dt);
        } else {
            rate[b].push_back(network_macs / dt);
            (traced ? traced_pass_s : untraced_pass_s)[b].push_back(dt);
        }
        if (round == 0) ref_hash[b] = hashes;
        out.check(hashes == ref_hash[b],
                  std::string("vmac outputs replay: ") +
                      (b == chip ? "chip profile" : vmac::backend_kind_name(kinds[b])));
    };

    // Warm-up: one pass per backend and the chip on throwaway modules.
    for (std::size_t b = 0; b <= chip; ++b) {
        Modules mods = build_modules(
            layers, b == chip ? chip_options() : backend_options(kinds[b]), cfg.seed);
        network_pass(b, mods, false, 0, false);
    }

    const std::size_t min_rounds = (tiny ? 2 : 5) + (cfg.trace ? 1 : 0);
    const CpuPins cores;
    cores.pin(0);
    const auto window = Clock::now();
    for (std::size_t round = 0;; ++round) {
        const bool traced = cfg.trace && round % 2 == 1;
        std::vector<Modules> mods;
        for (vmac::BackendKind k : kinds) {
            mods.push_back(build_modules(layers, backend_options(k), cfg.seed));
        }
        spans.set_enabled(traced);
        for (std::size_t i = 0; i < kinds.size(); ++i) {
            const std::size_t b = (round + i) % kinds.size();
            network_pass(b, mods[b], true, round, traced);
        }
        spans.set_enabled(false);
        Modules chip_mods = build_modules(layers, chip_options(), cfg.seed);
        network_pass(chip, chip_mods, true, round, false);
        for (std::size_t i = 0; i < kSetupRepsPerRound; ++i) {
            std::vector<Layer> extra_layers;
            std::vector<SimStats> extra_stats;
            setup.time([&] { set_up(extra_layers, extra_stats); });
            // Simulated statistics are pure functions of the configuration.
            out.check(extra_stats == stats, "vmac simulated statistics repeat exactly");
        }
        if (round == kRssRound && !cfg.trace) out.add("peak_rss_mb", peak_rss_mb(), "MiB");
        if (round + 1 >= min_rounds && seconds_since(window) >= cfg.seconds) break;
    }
    cores.release();
    for (std::size_t b = 0; b < kinds.size(); ++b) {
        log_samples(std::string("vmac MAC/s ") + vmac::backend_kind_name(kinds[b]), rate[b]);
    }
    log_samples("vmac chip pass s", chip_pass_s);

    if (!cfg.trace) {
        // Throughput: MACs per second of one whole-network pass on each of
        // the six backends. Latency: one whole-network pass under the chip
        // profile, the unit a chip-fleet study repeats per chip. Both sum
        // every layer's fastest forward call.
        auto fastest_pass_s = [&](std::size_t b) {
            return std::accumulate(call_min_s[b].begin(), call_min_s[b].end(), 0.0);
        };
        double all_backends_s = 0.0;
        for (std::size_t b = 0; b < kinds.size(); ++b) all_backends_s += fastest_pass_s(b);
        out.add("setup_s", setup.median_s(), "s");
        out.add("throughput_per_s",
                static_cast<double>(kinds.size()) * network_macs / all_backends_s, "1/s");
        out.add("latency_ms", fastest_pass_s(chip) * 1e3, "ms");
        return;
    }

    // ----- traced run: per-layer numbers -----
    double traced_total = 0.0, untraced_total = 0.0;
    for (std::size_t b = 0; b < kinds.size(); ++b) {
        traced_total += median(traced_pass_s[b]);
        untraced_total += median(untraced_pass_s[b]);
    }
    out.add("trace.overhead_pct.vmac", (traced_total / untraced_total - 1.0) * 100.0, "%");

    double chunks_per_pass = 0.0;
    for (const Layer& l : layers) {
        chunks_per_pass += static_cast<double>(l.outputs * ((l.n_tot + kNmult - 1) / kNmult));
    }
    const std::size_t traced_rounds = traced_pass_s[0].size();
    for (std::size_t b = 0; b < kinds.size(); ++b) {
        const std::string name = vmac::backend_kind_name(kinds[b]);
        for (const auto& [stage, span] : span_name[b]) {
            out.add(span, spans.total_s(span) * 1e3 / static_cast<double>(traced_rounds), "ms");
        }
        // Chunk probes alternate with whole passes on one core, so the
        // share compares the two under the same host conditions.
        const auto backend = vmac::make_backend(vmac_config(), {}, backend_options(kinds[b]));
        const auto probe_chunks = static_cast<std::size_t>(chunks_per_pass / (tiny ? 64 : 2));
        std::vector<double> probe_ns, pass;
        cores.pin(0);
        for (int rep = 0; rep < 3; ++rep) {
            Modules mods = build_modules(layers, backend_options(kinds[b]), cfg.seed);
            pass.push_back(pass_s(mods, layers));
            probe_ns.push_back(chunk_ns(*backend, probe_chunks, cfg.seed + b));
        }
        cores.release();
        out.add("ams.chunk_ns." + name, median(probe_ns), "ns");
        out.add("ams.chunk_share." + name, chunks_per_pass * median(probe_ns) * 1e-9 / median(pass),
                "ratio");
        out.add("ams.conversions_per_mac." + name, stats[b].conversions_per_mac, "count");
        out.add("energy.fj_per_mac." + name, stats[b].fj_per_mac, "fJ");
    }

    // The chip profile against the bare bit-exact datapath, both untraced.
    out.add("ams.variation_overhead.bit_exact",
            median(chip_pass_s) / median(untraced_pass_s[bit_exact]), "ratio");
    spans.write_chrome_trace(cfg.work_dir + "/trace_vmac.json");
}

}  // namespace amsbench
