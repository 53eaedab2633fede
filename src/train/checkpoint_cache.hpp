// Disk cache for trained model states.
//
// The experiment benches share expensive artifacts (the pretrained FP32
// network, the 8b/6b quantized retrained networks) through this cache so
// each is trained exactly once per workspace regardless of which bench
// runs first.
//
// Two key schemes coexist:
//  * content-addressed (preferred): a train::CacheKey hashing a canonical
//    serialization of every input that affects the state — model config,
//    quant bits, backend options, seeds, training schedule, and the
//    parent phase's hash. Distinct configs can never alias one file.
//  * plain strings: the historical ad-hoc concatenation
//    ("mini_c10_..._enob4.5_nm8"). Kept for tests and one-off callers.
//    Entries a directory holds under such names are not adopted by
//    content-addressed lookups; they are recomputed (the directory is
//    only a cache).
//
// Durability contract: every write goes to a per-process temporary file
// in the cache directory and is published with an atomic rename, so
// concurrent writer processes and SIGKILLed training runs can never
// leave a torn entry under a final name. A truncated or corrupt entry
// (e.g. one written by a pre-atomic-rename build) is logged to stderr,
// counted (checkpoint_corrupt_recovered), and recomputed rather than
// failing the caller.
#pragma once

#include <functional>
#include <string>

#include "tensor/serialize.hpp"
#include "train/cache_key.hpp"

namespace ams::train {

/// Filesystem-safe encoding of a cache key.
[[nodiscard]] std::string sanitize_cache_key(const std::string& key);

/// Returns the state for `key`, producing and persisting it with
/// `produce` on a miss. `cache_dir` is created if absent. A corrupt cache
/// file is regenerated rather than propagated. Set the environment
/// variable AMSNET_NO_CACHE=1 to bypass reads (writes still happen).
[[nodiscard]] TensorMap cached_state(const std::string& cache_dir, const std::string& key,
                                     const std::function<TensorMap()>& produce);

/// Content-addressed variant. Lookup order: the content-hash file, then
/// `produce`. AMSNET_NO_CACHE=1 bypasses the disk read but keeps the
/// in-process memo, which is keyed by the content hash — so unlike the
/// string scheme, a config change always re-produces.
[[nodiscard]] TensorMap cached_state(const std::string& cache_dir, const CacheKey& key,
                                     const std::function<TensorMap()>& produce);

/// Publishes `state` at `path` via temp-file + atomic rename. Exposed for
/// the sweep orchestrator's prerequisite seeding; throws
/// std::runtime_error on I/O failure (the temp file is removed).
void save_state_atomic(const std::string& path, const TensorMap& state);

/// Default cache directory: $AMSNET_CACHE_DIR or "amsnet_cache".
[[nodiscard]] std::string default_cache_dir();

}  // namespace ams::train
