// parallel_for: the one loop-parallelism primitive of the library.
//
// Splits [begin, end) into chunks of at most `grain` indices and runs
// `body(chunk_begin, chunk_end)` across the global thread pool, with the
// calling thread participating. Guarantees:
//
//   * The chunk decomposition depends only on (begin, end, grain) — never
//     on the thread count — and the serial fallback executes the exact
//     same chunks in order, so a body that is deterministic per chunk
//     yields bit-identical results at any AMSNET_THREADS.
//   * Exceptions thrown by the body are captured (first one wins),
//     remaining chunks are skipped, and the exception is rethrown on the
//     calling thread after the region drains.
//   * Nested calls (a body that itself calls parallel_for) fall back to
//     serial execution instead of deadlocking or oversubscribing.
//   * The serial path performs zero heap allocations: the body is passed
//     as a (context, function-pointer) pair rather than a std::function,
//     so hot loops inside the arena-backed eval path stay allocation-free
//     when the pool is serial or the region is nested.
//   * Every executor of a region (the caller and each helper) holds one
//     dense index in [0, region_executors(n_chunks)) for the whole region
//     (executor_index()). Per-executor scratch keyed by it is never used
//     by two threads at once, and its count follows the executors, not
//     the chunks.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>

#include "runtime/thread_pool.hpp"

namespace ams::runtime {

namespace detail {

/// Type-erased body: `fn(ctx, chunk_begin, chunk_end)`.
using ChunkFn = void (*)(void*, std::size_t, std::size_t);

void parallel_for_erased(std::size_t begin, std::size_t end, std::size_t grain, void* ctx,
                         ChunkFn fn);

}  // namespace detail

/// Runs `body(chunk_begin, chunk_end)` over [begin, end) in chunks of at
/// most `grain` (0 is treated as 1). Blocks until every chunk finished;
/// rethrows the first exception any chunk threw.
template <typename Body>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    detail::parallel_for_erased(
        begin, end, grain,
        const_cast<void*>(static_cast<const void*>(std::addressof(body))),
        [](void* ctx, std::size_t lo, std::size_t hi) { (*static_cast<Fn*>(ctx))(lo, hi); });
}

/// Executors a parallel_for over `n_chunks` chunks runs on: 1 when it
/// runs serially (one chunk, a serial pool, or nested inside another
/// region), else min(pool parallelism, n_chunks). Sizes per-executor
/// scratch; call it on the thread that will call parallel_for.
[[nodiscard]] std::size_t region_executors(std::size_t n_chunks);

/// Index, in [0, region_executors(n_chunks)), of the executor running the
/// calling chunk of the innermost region; 0 outside any region. Constant
/// for every chunk one executor runs, so it keys per-executor scratch.
[[nodiscard]] std::size_t executor_index();

/// Grain that yields ~4 chunks per executor (enough slack for stealing to
/// balance uneven chunks), floored at `min_chunk` so tiny ranges are not
/// shredded into per-index tasks. Returns `total` (one chunk) when the
/// pool is serial.
[[nodiscard]] std::size_t suggest_grain(std::size_t total, std::size_t min_chunk = 1);

}  // namespace ams::runtime
