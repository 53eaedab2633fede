// Child process of MetricsEnvTest.CountersFromEnvironmentCountFromTheFirstCall.
// Runs one small GEMM without touching the metrics API first, then, like
// a bench's closing report, reads the level and prints it. Under
// AMSNET_TRACE=counters AMSNET_METRICS_DUMP=<path> the exit snapshot
// must count that GEMM.
#include <cstdio>
#include <vector>

#include "runtime/metrics.hpp"
#include "tensor/gemm.hpp"

int main() {
    const std::size_t n = 8;
    std::vector<float> a(n * n, 1.0f), b(n * n, 0.5f), c(n * n);
    ams::gemm(a.data(), b.data(), c.data(), n, n, n);
    namespace metrics = ams::runtime::metrics;
    std::printf("level=%s c[0]=%g\n", metrics::level_name(metrics::level()),
                static_cast<double>(c[0]));
    return 0;
}
