// The AVX2 arm of the lane kernels: vmac_lanes.inc compiled with -mavx2
// (src/ams/CMakeLists.txt; no -mfma, and -ffp-contract=off as all of
// ams_vmac). Reached only through the dispatch in vmac_lanes.cpp, after
// the cpuid check behind simd::active_level().
#if defined(AMSNET_HAVE_AVX2)
#define AMSNET_LANES_ARM avx2
#include "ams/vmac_lanes.inc"
#endif
