// Shared plumbing of the amsbench binary: timing, order statistics, the
// benchmark's own span recorder, and the result object every workload
// fills and main() prints as the final JSON line.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace amsbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a non-empty sample (mean of the middle pair when even).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 100], of a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// The rate a run reports from its timed calls: the fastest call. The
/// host's slow phases only ever slow a call down, so the fastest call is
/// the closest to the program's own speed. In five-seed trials at a busy
/// time on the tuning host, the fastest 0.1 s block spread 0.06-0.16
/// between runs (IQR/median) where the median block spread 0.12-0.36.
[[nodiscard]] double best_rate(const std::vector<double>& rates);

/// Prints a metric's raw samples to stderr, one line, for diagnosis.
void log_samples(const std::string& name, const std::vector<double>& v);

/// Workload size. kFull is what the benchmark measures; kTiny runs every
/// code path on minimal inputs for the smoke test.
enum class Size { kFull, kTiny };

/// What main() hands a workload.
struct RunConfig {
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< length of the measured window
    bool trace = false;     ///< per-layer run (spans) instead of end-to-end
    Size size = Size::kFull;
    std::string work_dir;   ///< where cache dirs and trace files go
};

/// One named number of the result line.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// The workload's output: metrics plus operations attempted/failed.
/// Every output check is one operation; a mismatch is a failure.
class Result {
public:
    void add(const std::string& name, double value, const std::string& unit);
    /// Records one checked operation; logs `what` to stderr on failure.
    void check(bool ok, const std::string& what);

    [[nodiscard]] std::string json() const;

private:
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// In-memory spans recorded by the benchmark around its calls into the
/// library (name, start, end, parent). Disabled recorders cost one branch.
class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    struct Record {
        const char* name;
        std::uint64_t start_ns;
        std::uint64_t end_ns;
        int parent;
    };

    /// RAII span; nests under the innermost open span of the log.
    class Scope {
    public:
        Scope(SpanLog& log, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanLog& log_;
        int index_ = -1;
    };

    void set_enabled(bool on) { enabled_ = on; }

    /// Summed duration (s) and count of the spans called `name`.
    [[nodiscard]] double total_s(const std::string& name) const;
    [[nodiscard]] std::size_t count(const std::string& name) const;
    /// Mean duration (s) of the spans called `name`; 0 when none.
    [[nodiscard]] double mean_s(const std::string& name) const;

    /// Writes the spans as a Chrome trace-event JSON file.
    void write_chrome_trace(const std::string& path) const;

private:
    [[nodiscard]] std::uint64_t now_ns() const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Record> records_;
    int open_ = -1;
};

/// The CPUs the process may use, and pins of the calling thread to one
/// of them. Workloads pin their single compute thread to CPU 0 of the set
/// for the whole window. The pool runs one thread, and with one thread the
/// library computes on the calling thread, so the pin holds the work.
/// Threads inherit their creator's pin.
class CpuPins {
public:
    CpuPins();

    [[nodiscard]] std::size_t size() const { return cpus_.size(); }
    /// CPU `i` of the set, cycling; -1 when the set is unknown.
    [[nodiscard]] int cpu(std::size_t i) const;
    /// Pins the calling thread to cpu(i).
    void pin(std::size_t i) const;
    /// Restores the calling thread's original CPU set.
    void release() const;

private:
    std::vector<int> cpus_;
};

/// Keeps one CPU busy while alive with a spinning thread of the idle
/// scheduling class, which yields the CPU the moment any normal thread
/// there wakes up. On the KVM host the benchmark was tuned on, a thread
/// woken by a timer on an idle virtual CPU ran 1.2-2.7 ms late at the
/// p99 (the host had descheduled the halted CPU) and 80 us late on a
/// busy one. The server's worker sleeps between batches, so without this
/// the serving tail measures the hypervisor, not the server.
class CpuKeeper {
public:
    explicit CpuKeeper(int cpu);
    ~CpuKeeper();
    CpuKeeper(const CpuKeeper&) = delete;
    CpuKeeper& operator=(const CpuKeeper&) = delete;

private:
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// `peak_rss_mb` is read at the end of this measured round, after a fixed
/// amount of work: the peak keeps creeping up with every round (heap
/// growth in the library), so reading it at the end of the window would
/// make it depend on how many rounds the host's speed let the window fit.
inline constexpr std::size_t kRssRound = 1;

/// 64-bit FNV-1a over raw bytes: the replay checks compare whole output
/// sequences through it.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL);

/// Set-up repetitions after every measured round, on a throwaway copy.
/// Set-up takes milliseconds, so one sample is mostly the host's state at
/// that instant; repetitions spread over the whole window sample it as
/// the timed calls do. Repeated at the start instead, the median of 15
/// spread 0.15-0.29 between runs (IQR/median, five seeds).
inline constexpr std::size_t kSetupRepsPerRound = 2;

/// The set-up time of a workload: the median of every timed set-up.
class SetupTimer {
public:
    /// Runs `body` once and records its wall time.
    template <typename F>
    void time(F&& body) {
        const auto t0 = Clock::now();
        body();
        samples_.push_back(seconds_since(t0));
    }
    [[nodiscard]] double median_s() const { return median(samples_); }

private:
    std::vector<double> samples_;
};

// The three workloads (retrain.cpp, inference.cpp, vmac.cpp).
void run_retrain(const RunConfig& cfg, Result& out);
void run_inference(const RunConfig& cfg, Result& out);
void run_vmac(const RunConfig& cfg, Result& out);

}  // namespace amsbench
