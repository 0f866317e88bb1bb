// Internal: per-backend dispatch tables. Each TU defines exactly one;
// the set that exists depends on the target architecture (see
// CMakeLists.txt, which adds the ISA flags per file).
#pragma once

#include <cstdint>

#include "ros/simd/simd.hpp"

namespace ros::simd::detail {

// --- gauss_acc stream (shared by every backend) ----------------------
//
// Counter c of key `key` is common::splitmix64(key + c*gamma), i.e. the
// standard SplitMix64 sequence: the finalizer applied to the state
// after c+1 gamma increments.

/// SplitMix64 increment (the golden-ratio gamma).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;
inline constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Top 53 bits of `x` as a uniform in (0, 1]: ((x>>11) + 0.5) * 2^-53.
/// Never 0, so ln u is always finite.
inline double unit_open(std::uint64_t x) {
  return (static_cast<double>(x >> 11) + 0.5) * 0x1p-53;
}

const Ops& scalar_ops();

#if defined(__x86_64__) || defined(_M_X64)
#define ROS_SIMD_HAVE_SSE2 1
#define ROS_SIMD_HAVE_AVX2 1
const Ops& sse2_ops();
const Ops& avx2_ops();
#endif

#if defined(__aarch64__)
#define ROS_SIMD_HAVE_NEON 1
const Ops& neon_ops();
#endif

}  // namespace ros::simd::detail
