// AMSNET_TRACE=counters must switch counting on for a fresh process from
// its first instrumented call, not only once something asks for
// metrics::level(). The check needs a process whose environment is set
// before it starts, so it runs tests/metrics_env_probe as a child.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "temp_path.hpp"

namespace ams {
namespace {

TEST(MetricsEnvTest, CountersFromEnvironmentCountFromTheFirstCall) {
    // The probe runs a GEMM before it reads the level, as a bench does
    // before its closing report; its exit snapshot (AMSNET_METRICS_DUMP)
    // must count that GEMM.
    namespace fs = std::filesystem;
    const fs::path dir = testing_support::unique_temp_path("amsnet_metrics_env");
    const fs::path dump = dir / "metrics.json";
    fs::remove_all(dir);
    const std::string command = "AMSNET_TRACE=counters AMSNET_METRICS_DUMP='" + dump.string() +
                                "' '" AMSNET_METRICS_ENV_PROBE "' > /dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    std::ifstream in(dump);
    ASSERT_TRUE(in.good()) << "no metrics dump at " << dump;
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    const std::string key = "\"gemm_calls\": ";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << json;
    EXPECT_GT(std::stoull(json.substr(at + key.size())), 0u) << json;
    fs::remove_all(dir);
}

}  // namespace
}  // namespace ams
