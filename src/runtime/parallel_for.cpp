#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "runtime/metrics.hpp"
#include "runtime/trace.hpp"

namespace ams::runtime {

namespace {

/// This thread's executor index in the innermost region it runs chunks of.
thread_local std::size_t t_executor = 0;

/// Sets the calling thread's executor index for one region's duration.
class ExecutorScope {
public:
    explicit ExecutorScope(std::size_t index) : previous_(t_executor) { t_executor = index; }
    ~ExecutorScope() { t_executor = previous_; }
    ExecutorScope(const ExecutorScope&) = delete;
    ExecutorScope& operator=(const ExecutorScope&) = delete;

private:
    std::size_t previous_;
};

/// The one serial-or-parallel decision, shared by parallel_for and
/// region_executors so scratch sized by the latter always fits.
bool runs_serially(std::size_t n_chunks) {
    return n_chunks <= 1 || ThreadPool::global().parallelism() <= 1 ||
           ThreadPool::in_parallel_region();
}

struct RegionState {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t n_chunks = 0;
    void* ctx = nullptr;
    detail::ChunkFn fn = nullptr;

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> executors{0};  // hands out executor indices
    std::atomic<bool> has_error{false};
    std::exception_ptr error;  // guarded by mu
    std::mutex mu;
    std::condition_variable cv;
};

/// Claims chunks until the range is exhausted. Safe to run on any number
/// of threads concurrently; each chunk is executed exactly once. The
/// body context is only dereferenced for successfully claimed chunks,
/// all of which complete before the issuing parallel_for returns.
void run_chunks(const std::shared_ptr<RegionState>& state) {
    RegionGuard guard;
    const ExecutorScope executor(state->executors.fetch_add(1, std::memory_order_relaxed));
    for (;;) {
        const std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
        if (c >= state->n_chunks) return;
        if (!state->has_error.load(std::memory_order_acquire)) {
            const std::size_t lo = state->begin + c * state->grain;
            const std::size_t hi = std::min(lo + state->grain, state->end);
            metrics::add(metrics::Counter::kParallelChunks);
            try {
                // One span per claimed task: the trace shows which worker
                // track ran which chunk of the region.
                trace::Span span("parallel_for.chunk");
                state->fn(state->ctx, lo, hi);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state->mu);
                if (!state->error) state->error = std::current_exception();
                state->has_error.store(true, std::memory_order_release);
            }
        }
        if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->n_chunks) {
            // Lock pairs with the caller's predicate check so the final
            // notify cannot slip between its test and its wait.
            std::lock_guard<std::mutex> lock(state->mu);
            state->cv.notify_all();
        }
    }
}

}  // namespace

namespace detail {

void parallel_for_erased(std::size_t begin, std::size_t end, std::size_t grain, void* ctx,
                         ChunkFn fn) {
    if (end <= begin) return;
    if (grain == 0) grain = 1;
    const std::size_t total = end - begin;
    const std::size_t n_chunks = (total + grain - 1) / grain;

    ThreadPool& pool = ThreadPool::global();
    if (runs_serially(n_chunks)) {
        // Serial fallback: same chunk decomposition, same order, and no
        // heap traffic in off/counters mode (the zero-allocation eval
        // path relies on this; counter adds are lock- and alloc-free).
        // Its one executor is index 0, also when nested.
        const ExecutorScope executor(0);
        metrics::add(metrics::Counter::kParallelChunks, n_chunks);
        for (std::size_t c = 0; c < n_chunks; ++c) {
            const std::size_t lo = begin + c * grain;
            fn(ctx, lo, std::min(lo + grain, end));
        }
        return;
    }
    metrics::add(metrics::Counter::kParallelRegions);
    trace::Span region_span("parallel_for.region");

    auto state = std::make_shared<RegionState>();
    state->begin = begin;
    state->end = end;
    state->grain = grain;
    state->n_chunks = n_chunks;
    state->ctx = ctx;
    state->fn = fn;

    const std::size_t helpers = std::min(pool.worker_count(), n_chunks - 1);
    for (std::size_t i = 0; i < helpers; ++i) {
        pool.submit([state] { run_chunks(state); });
    }
    run_chunks(state);  // the caller is the Nth executor

    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&state] {
        return state->done.load(std::memory_order_acquire) == state->n_chunks;
    });
    if (state->error) std::rethrow_exception(state->error);
}

}  // namespace detail

std::size_t region_executors(std::size_t n_chunks) {
    if (runs_serially(n_chunks)) return 1;
    return std::min(ThreadPool::global().parallelism(), n_chunks);
}

std::size_t executor_index() { return t_executor; }

std::size_t suggest_grain(std::size_t total, std::size_t min_chunk) {
    if (total == 0) return 1;
    const std::size_t p = ThreadPool::global().parallelism();
    if (p <= 1) return total;
    const std::size_t target_chunks = 4 * p;
    const std::size_t grain = (total + target_chunks - 1) / target_chunks;
    return std::max(grain, std::max<std::size_t>(min_chunk, 1));
}

}  // namespace ams::runtime
