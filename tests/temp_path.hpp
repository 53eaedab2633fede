// Per-test scratch paths. gtest_discover_tests runs every TEST in its
// own process and `ctest -j` runs those processes concurrently, so two
// tests sharing one fixed /tmp path would remove or overwrite each
// other's files mid-run. A path from unique_temp_path carries the
// running test's name and the process id, so no two live tests share it.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace ams::testing_support {

/// temp_directory_path() / "<stem>_<Suite>.<Test>_<pid>".
inline std::filesystem::path unique_temp_path(const std::string& stem) {
    std::string name = stem;
    if (const ::testing::TestInfo* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
        name += std::string("_") + info->test_suite_name() + "." + info->name();
    }
    name += "_" + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');  // parameterized test names
    return std::filesystem::temp_directory_path() / name;
}

}  // namespace ams::testing_support
