// ros::simd -- portable data-parallel kernels for the EM/DSP hot paths.
//
// One small fixed vocabulary of vector operations (batched sincos,
// complex exponentials, fused complex multiply-accumulate over
// structure-of-arrays spans, horizontal reductions, the radix-2 FFT
// butterfly, and counter-keyed complex Gaussian noise) behind a single
// dispatch table. Backends:
//
//   scalar  the bit-exact reference: strict index-order loops over libm
//           (std::sin/std::cos). Always compiled, always available.
//   sse2    2-lane double kernels (x86-64 baseline).
//   avx2    4-lane double kernels (requires AVX2+FMA at runtime).
//   neon    2-lane double kernels on AArch64.
//
// The vector backends share one kernel source written with GCC vector
// extensions; each ISA gets its own translation unit compiled with the
// matching -m flags, so every backend present in the binary was
// generated for an ISA the dispatcher can check at runtime.
//
// Dispatch: the active backend is chosen once, on first use, from the
// ROS_SIMD environment variable ("scalar", "sse2", "avx2", "neon", or
// "native" = best runtime-supported backend; unset means "native") and
// cached. Benches and tests may override it with set_backend().
//
// Determinism and accuracy contract (see DESIGN.md, "ros::simd"):
//   * For a fixed backend, every op is a pure function of its inputs --
//     no thread-count, allocation, or call-history dependence. Parallel
//     runs therefore stay bit-identical to serial runs, per backend.
//   * The scalar backend is the reference. Vector backends must agree
//     with it within the documented bounds, enforced by the conformance
//     suite (tests/simd):
//       - sincos/cexp and derived elementwise ops: absolute error
//         <= kSinCosAbsTol per element (|outputs| <= 1);
//       - linear_phase, scale, axpby: bit-identical (same two-rounding
//         formula per element in every backend);
//       - reductions (sum/dot/csum/phase_mac/cexp_sum): vector lanes
//         re-associate the sum, so |vec - scalar| <=
//         kReduceRelTol * (n * sum_i |term_i|) + n * kSinCosAbsTol *
//         (amplitude scale) -- see conformance tests for the exact
//         oracle per op;
//       - fft_butterfly: each output within kButterflyRelTol relative
//         of the scalar result (FMA contraction reorders roundings);
//       - tone_fan_acc: the tone within kSinCosAbsTol * amp of libm's;
//         the per-channel complex multiply rounds like the scalar one;
//       - gauss_acc: each added sample within kGaussRelTol of the
//         scalar sample's magnitude (vector log + sincos polynomials).
//   * Rounding-level differences must never change a rosbench fidelity
//     scorecard: the CI dispatch matrix runs the full suite and
//     rosbench under ROS_SIMD=scalar and native and diffs the
//     scorecards.
//
// Range contract: phases with |x| > kMaxVectorPhase fall back to libm
// lane-wise inside the vector backends (argument reduction beyond that
// range would lose accuracy), so callers never need to pre-reduce.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace ros::simd {

using cplx = std::complex<double>;

/// Absolute per-element tolerance for vector sincos/cexp vs libm.
inline constexpr double kSinCosAbsTol = 1e-15;

/// Relative re-association tolerance for horizontal reductions, applied
/// per accumulated term (multiply by n * sum|term| for the bound).
inline constexpr double kReduceRelTol = 1e-16;

/// Relative tolerance for fft_butterfly outputs vs scalar.
inline constexpr double kButterflyRelTol = 1e-14;

/// Per-quadrature tolerance of a vector gauss_acc sample vs the scalar
/// one, relative to the scalar sample's magnitude sqrt(-power*ln u1).
/// Budget: kSinCosAbsTol on the unit phasor, plus the vector log's
/// ~1 ulp against libm (halved by the sqrt) and the final multiply's
/// rounding. Measured worst case over 2^20 samples: 4.4e-16.
inline constexpr double kGaussRelTol = 2e-15;

/// Largest |phase| the vector argument reduction handles; beyond it the
/// vector backends compute the affected lanes with libm.
inline constexpr double kMaxVectorPhase = 6.7e7;  // ~2^26

enum class Backend { scalar = 0, sse2 = 1, avx2 = 2, neon = 3 };

/// Dispatch table: one function pointer per op. All pointers are
/// non-null in every table. Pointer arguments must not alias unless a
/// parameter is documented in-out.
struct Ops {
  const char* name;  ///< "scalar", "sse2", "avx2", "neon"
  Backend backend;

  /// s[i] = sin(a[i]), c[i] = cos(a[i]).
  void (*sincos)(const double* a, double* s, double* c, std::size_t n);

  /// re[i] = cos(phase[i]), im[i] = sin(phase[i])  (e^{j*phase}).
  void (*cexp)(const double* phase, double* re, double* im,
               std::size_t n);

  /// out[i] = base + step * i. Bit-identical across backends.
  void (*linear_phase)(double base, double step, double* out,
                       std::size_t n);

  /// out[i] = a * x[i]. Bit-identical across backends.
  void (*scale)(double a, const double* x, double* out, std::size_t n);

  /// out[i] = a * x[i] + b * y[i]. Bit-identical across backends
  /// (fma contraction disabled for this op).
  void (*axpby)(double a, const double* x, double b, const double* y,
                double* out, std::size_t n);

  /// acc_re[i] += cr*cos(p[i]) - ci*sin(p[i]);
  /// acc_im[i] += cr*sin(p[i]) + ci*cos(p[i]).
  /// One unit's complex response (cr + j*ci) spread over a phase sweep.
  void (*cexp_madd)(double cr, double ci, const double* phase,
                    double* acc_re, double* acc_im, std::size_t n);

  /// acc[i] += (are[i] + j*aim[i]) * (bre[i] + j*bim[i]) elementwise
  /// over SoA spans (fused complex multiply-accumulate).
  void (*cmul_acc)(const double* are, const double* aim,
                   const double* bre, const double* bim, double* acc_re,
                   double* acc_im, std::size_t n);

  /// sum_i (are[i] + j*aim[i]) * e^{j*phase[i]}  (phase accumulation).
  cplx (*phase_mac)(const double* are, const double* aim,
                    const double* phase, std::size_t n);

  /// sum_i e^{j*phase[i]}.
  cplx (*cexp_sum)(const double* phase, std::size_t n);

  /// acc[k][i] += rot[k] * amp * e^{j*(phase0 + dphase*i)} for every
  /// channel k < n_ch, over interleaved complex (the FMCW tone-synthesis
  /// kernel). The tone is evaluated once per sample and fanned into
  /// every channel through that channel's constant factor, so a
  /// return's Rx channels share one sincos. With rot[k] == 1 channel k
  /// receives the tone's own bits. Channels must not overlap each other
  /// or `rot`.
  void (*tone_fan_acc)(cplx* const* acc, const cplx* rot,
                       std::size_t n_ch, double amp, double phase0,
                       double dphase, std::size_t n);

  /// acc[i] += sqrt(-power*ln u1) * e^{j*2*pi*u2}: circularly symmetric
  /// complex Gaussian noise of total power `power` (variance power/2
  /// per quadrature), by Box-Muller with both quadratures used. The
  /// uniforms of sample i come from the counter-based SplitMix64 stream
  /// `key`: x_c = splitmix64(key + (c+1)*0x9E3779B97F4A7C15) at
  /// c = first+2i (u1) and c = first+2i+1 (u2), mapped to
  /// u = ((x>>11) + 0.5) * 2^-53. A sample is a pure function of
  /// (power, key, counter): the same bits at any n, offset or lane.
  void (*gauss_acc)(cplx* acc, double power, std::uint64_t key,
                    std::uint64_t first, std::size_t n);

  /// sum_i x[i].
  double (*sum)(const double* x, std::size_t n);

  /// sum_i x[i] * y[i].
  double (*dot)(const double* x, const double* y, std::size_t n);

  /// sum_i (re[i] + j*im[i]).
  cplx (*csum)(const double* re, const double* im, std::size_t n);

  /// Radix-2 decimation-in-time butterfly over one contiguous block:
  /// for k < n: u = a[k]; v = b[k]*w[k]; a[k] = u+v; b[k] = u-v.
  void (*fft_butterfly)(cplx* a, cplx* b, const cplx* w, std::size_t n);
};

/// The active dispatch table (ROS_SIMD / cpuid, resolved once).
const Ops& ops();

/// A specific backend's table. Throws std::invalid_argument if the
/// backend is not compiled into this binary or not supported by the
/// host CPU.
const Ops& backend_ops(Backend b);

/// Active backend identity (forces dispatch on first call).
Backend active_backend();
const char* backend_name();

/// True if the backend was compiled into this binary.
bool backend_compiled(Backend b);

/// True if the host CPU can execute the backend (scalar: always).
bool backend_runtime_supported(Backend b);

/// Backends that are both compiled and runtime-supported, scalar first.
std::vector<Backend> available_backends();

/// Override dispatch (benches, conformance tests, the CI matrix).
/// Throws std::invalid_argument if unavailable. Not thread-safe against
/// concurrent ops() users; call between parallel regions only.
void set_backend(Backend b);

/// Drop any override and re-dispatch from ROS_SIMD / cpuid.
void reset_backend();

const char* to_string(Backend b);

/// Parse "scalar"/"sse2"/"avx2"/"neon"/"native"; throws
/// std::invalid_argument on anything else. "native" returns the best
/// available backend.
Backend parse_backend(std::string_view name);

}  // namespace ros::simd
