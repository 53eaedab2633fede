// Runs a check once per SIMD arm. Kernels dispatched through
// simd::active_level() must return the same bits on every arm, so the
// tests that pin bit identity run their body on each arm the CPU has.
#pragma once

#include <gtest/gtest.h>

#include "runtime/simd.hpp"

namespace ams::testing_support {

/// Runs fn() on the scalar arm and, where the CPU has it, the AVX2 arm,
/// then restores the active arm.
template <typename Fn>
void on_each_arm(Fn&& fn) {
    const simd::Level saved = simd::active_level();
    for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
        if (level == simd::Level::kAvx2 && !simd::cpu_supports_avx2_fma()) continue;
        simd::set_level(level);
        SCOPED_TRACE(simd::level_name(level));
        fn();
    }
    simd::set_level(saved);
}

}  // namespace ams::testing_support
