// amsbench: the repository's end-to-end benchmark program.
//
//   amsbench --workload <retrain|inference|vmac> --seed <n> --seconds <s>
//            --trace <0|1> [--size full|tiny] [--work-dir <dir>]
//
// The workload seed generates every input; the library only ever sees the
// generated data. With --trace 0 the last stdout line carries the
// workload's end-to-end metrics, under the same names on every workload.
// With --trace 1 it carries the per-layer metrics, measured by spans the
// benchmark records around its library calls. A traced run measures the
// layers of all three workloads, the named one first, so that every
// workload reports the same per-layer table.
// See amsbench/README.md for the workloads and the metric table.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "runtime/simd.hpp"
#include "runtime/thread_pool.hpp"

namespace amsbench {

namespace {

/// Every workload runs on one pinned pool thread. On the shared 4-core
/// host the benchmark was tuned on, one thread kept a retrain epoch
/// within +-2.5% while four threads let eval medians wander by 2.8x.
constexpr std::size_t kThreads = 1;

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

double best_rate(const std::vector<double>& rates) {
    return *std::max_element(rates.begin(), rates.end());
}

void log_samples(const std::string& name, const std::vector<double>& v) {
    std::cerr << "amsbench: samples " << name;
    for (double x : v) std::cerr << ' ' << x;
    std::cerr << '\n';
}

void Result::add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "amsbench: output check failed: " << what << "\n";
    }
}

std::string Result::json() const {
    std::string s = "{\"correct\": ";
    s += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0) s += ", ";
        s += quoted(metrics_[i].name) + ": {\"value\": " + number(metrics_[i].value) +
             ", \"unit\": " + quoted(metrics_[i].unit) + "}";
    }
    return s + "}}";
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) : log_(log) {
    if (!log_.enabled_) return;
    index_ = static_cast<int>(log_.records_.size());
    log_.records_.push_back({name, log_.now_ns(), 0, log_.open_});
    log_.open_ = index_;
}

SpanLog::Scope::~Scope() {
    if (index_ < 0) return;
    Record& r = log_.records_[static_cast<std::size_t>(index_)];
    r.end_ns = log_.now_ns();
    log_.open_ = r.parent;
}

std::uint64_t SpanLog::now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
}

double SpanLog::total_s(const std::string& name) const {
    double t = 0.0;
    for (const Record& r : records_) {
        if (name == r.name) t += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
    return t;
}

std::size_t SpanLog::count(const std::string& name) const {
    return static_cast<std::size_t>(std::count_if(
        records_.begin(), records_.end(), [&](const Record& r) { return name == r.name; }));
}

double SpanLog::mean_s(const std::string& name) const {
    const std::size_t n = count(name);
    return n == 0 ? 0.0 : total_s(name) / static_cast<double>(n);
}

void SpanLog::write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        if (i > 0) os << ",";
        os << "\n{\"name\": " << quoted(r.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
           << ", \"ts\": " << number(static_cast<double>(r.start_ns) * 1e-3)
           << ", \"dur\": " << number(static_cast<double>(r.end_ns - r.start_ns) * 1e-3)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent << "}}";
    }
    os << "\n]}\n";
}

CpuPins::CpuPins() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
}

int CpuPins::cpu(std::size_t i) const {
    return cpus_.empty() ? -1 : cpus_[i % cpus_.size()];
}

void CpuPins::pin(std::size_t i) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu(i), &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
}

void CpuPins::release() const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus_) CPU_SET(c, &set);
    (void)sched_setaffinity(0, sizeof(set), &set);
}

CpuKeeper::CpuKeeper(int cpu) {
    if (cpu < 0) return;
    thread_ = std::thread([this, cpu] {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        (void)sched_setaffinity(0, sizeof(set), &set);
        const sched_param idle{0};
        (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &idle);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
    });
}

CpuKeeper::~CpuKeeper() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

}  // namespace amsbench

namespace {

[[noreturn]] void usage(const char* why) {
    std::cerr << "amsbench: " << why
              << "\nusage: amsbench --workload <retrain|inference|vmac> --seed <n> "
                 "--seconds <s> --trace <0|1> [--size full|tiny] [--work-dir <dir>]\n";
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace amsbench;
    RunConfig cfg;
    std::string workload;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                workload = value;
            } else if (flag == "--seed") {
                cfg.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                cfg.seconds = std::stod(value);
                have_seconds = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                cfg.trace = value == "1";
                have_trace = true;
            } else if (flag == "--size") {
                if (value != "full" && value != "tiny") usage("--size takes full or tiny");
                cfg.size = value == "tiny" ? Size::kTiny : Size::kFull;
            } else if (flag == "--work-dir") {
                cfg.work_dir = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace || workload.empty()) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
    if (cfg.work_dir.empty()) cfg.work_dir = ".";

    ams::runtime::ThreadPool::set_global_threads(kThreads);
    std::cerr << "amsbench: workload=" << workload << " seed=" << cfg.seed
              << " seconds=" << cfg.seconds << " trace=" << (cfg.trace ? 1 : 0)
              << " threads=" << kThreads
              << " simd=" << ams::simd::level_name(ams::simd::detect_level()) << "\n";

    using Runner = void (*)(const RunConfig&, Result&);
    const std::vector<std::pair<std::string, Runner>> workloads = {
        {"retrain", run_retrain}, {"inference", run_inference}, {"vmac", run_vmac}};
    const auto named = std::find_if(workloads.begin(), workloads.end(),
                                    [&](const auto& w) { return w.first == workload; });
    if (named == workloads.end()) usage(("unknown workload " + workload).c_str());

    Result result;
    try {
        if (!cfg.trace) {
            named->second(cfg, result);
        } else {
            // Each workload's traced window gets an equal share of --seconds.
            RunConfig part = cfg;
            part.seconds = cfg.seconds / static_cast<double>(workloads.size());
            named->second(part, result);
            for (const auto& w : workloads) {
                if (w.first != workload) w.second(part, result);
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "amsbench: " << workload << " aborted: " << e.what() << "\n";
        return 1;
    }
    std::cout << result.json() << std::endl;
    return 0;
}
