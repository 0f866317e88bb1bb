// Conformance suite for ros::simd (DESIGN.md "ros::simd" contract):
// every vector backend available on this host is checked against the
// scalar reference over testkit-generated inputs -- random phases,
// denormals, near-pi/2 multiples, values straddling the argument-
// reduction limit, and sizes chosen to exercise both the vector body
// and the scalar tail.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "ros/common/random.hpp"
#include "ros/simd/simd.hpp"
#include "ros/testkit/gen.hpp"

namespace rs = ros::simd;
namespace tk = ros::testkit;
using ros::common::Rng;
using rs::cplx;

namespace {

// Sizes cover n = 0/1, sub-vector-width, width boundaries for both
// 2- and 4-lane backends, and tails of every residue.
const std::vector<std::size_t> kSizes = {0, 1, 2, 3, 4, 5,  7,  8,
                                         9, 15, 16, 17, 33, 100, 257};

/// Phase generator: bulk values in a few decades, salted with the
/// hostile cases (denormals, +/-0, near k*pi/2, the kMaxVectorPhase
/// fence, and far-beyond-fence values that must take the libm path).
std::vector<double> gen_phases(Rng& rng, std::size_t n) {
  const auto bulk = tk::one_of(std::vector<tk::Gen<double>>{
      tk::uniform(-10.0, 10.0), tk::uniform(-1e4, 1e4),
      tk::uniform(-1e7, 1e7)});
  std::vector<double> out(n);
  for (auto& v : out) v = bulk(rng);
  const double specials[] = {0.0,
                             -0.0,
                             5e-324,
                             -5e-324,
                             1e-310,
                             ros::common::kPi / 2.0,
                             -ros::common::kPi,
                             3.0 * ros::common::kPi / 2.0,
                             1e6 * ros::common::kPi,
                             rs::kMaxVectorPhase - 1.0,
                             -rs::kMaxVectorPhase - 1.0,
                             6.8e7,
                             1e12,
                             -1e18};
  for (std::size_t k = 0; k < std::size(specials) && k < n; ++k) {
    out[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n) - 1))] = specials[k];
  }
  return out;
}

std::vector<double> gen_values(Rng& rng, std::size_t n, double scale) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-scale, scale);
  return out;
}

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Backends to test against the reference.
std::vector<rs::Backend> vector_backends() {
  std::vector<rs::Backend> out;
  for (rs::Backend b : rs::available_backends()) {
    if (b != rs::Backend::scalar) out.push_back(b);
  }
  return out;
}

const rs::Ops& ref() { return rs::backend_ops(rs::Backend::scalar); }

}  // namespace

TEST(SimdConformance, AtLeastScalarIsAvailable) {
  const auto avail = rs::available_backends();
  ASSERT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), rs::Backend::scalar);
#if defined(__x86_64__)
  // SSE2 is architecturally guaranteed on x86-64; the suite must never
  // silently degrade to scalar-only coverage there.
  EXPECT_TRUE(rs::backend_runtime_supported(rs::Backend::sse2));
#endif
}

TEST(SimdConformance, SinCosWithinAbsTol) {
  Rng rng(101);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto x = gen_phases(rng, n);
      std::vector<double> s0(n), c0(n), s1(n), c1(n);
      ref().sincos(x.data(), s0.data(), c0.data(), n);
      ops.sincos(x.data(), s1.data(), c1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(s1[i], s0[i], rs::kSinCosAbsTol)
            << ops.name << " sin(" << x[i] << ") n=" << n;
        EXPECT_NEAR(c1[i], c0[i], rs::kSinCosAbsTol)
            << ops.name << " cos(" << x[i] << ") n=" << n;
      }
    }
  }
}

TEST(SimdConformance, ElementwiseOpsAreLanePositionIndependent) {
  // A value must produce the same bits whatever its lane position or
  // the call's length (tails run through the padded polynomial chunk,
  // not libm). PsvaaStack::elevation_pattern leans on this: the
  // single-angle call must reproduce one lane of the swept call.
  Rng rng(707);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    const std::size_t n = 37;
    const auto x = gen_phases(rng, n);
    std::vector<double> s(n), c(n);
    ops.sincos(x.data(), s.data(), c.data(), n);
    std::vector<double> ar(n, 0.0), ai(n, 0.0);
    ops.cexp_madd(0.3, -0.7, x.data(), ar.data(), ai.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      double s1 = 0.0;
      double c1 = 0.0;
      ops.sincos(&x[i], &s1, &c1, 1);
      EXPECT_TRUE(bit_equal(s1, s[i]))
          << ops.name << " sin(" << x[i] << ") depends on position " << i;
      EXPECT_TRUE(bit_equal(c1, c[i]))
          << ops.name << " cos(" << x[i] << ") depends on position " << i;
      double ar1 = 0.0;
      double ai1 = 0.0;
      ops.cexp_madd(0.3, -0.7, &x[i], &ar1, &ai1, 1);
      EXPECT_TRUE(bit_equal(ar1, ar[i]) && bit_equal(ai1, ai[i]))
          << ops.name << " cexp_madd(" << x[i] << ") depends on position "
          << i;
    }
  }
}

TEST(SimdConformance, SinCosNonFiniteMatchesLibm) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    std::vector<double> s(3), c(3);
    ops.sincos(bad, s.data(), c.data(), 3);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(std::isnan(s[i])) << ops.name << " index " << i;
      EXPECT_TRUE(std::isnan(c[i])) << ops.name << " index " << i;
    }
  }
}

TEST(SimdConformance, CexpWithinAbsTol) {
  Rng rng(102);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto x = gen_phases(rng, n);
      std::vector<double> re0(n), im0(n), re1(n), im1(n);
      ref().cexp(x.data(), re0.data(), im0.data(), n);
      ops.cexp(x.data(), re1.data(), im1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(re1[i], re0[i], rs::kSinCosAbsTol) << ops.name;
        EXPECT_NEAR(im1[i], im0[i], rs::kSinCosAbsTol) << ops.name;
      }
    }
  }
}

TEST(SimdConformance, LinearPhaseScaleAxpbyBitIdentical) {
  Rng rng(103);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const double base = rng.uniform(-1e3, 1e3);
      const double step = rng.uniform(-1.0, 1.0);
      std::vector<double> p0(n), p1(n);
      ref().linear_phase(base, step, p0.data(), n);
      ops.linear_phase(base, step, p1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(p0[i], p1[i]))
            << ops.name << " linear_phase i=" << i << " n=" << n;
      }

      const auto x = gen_values(rng, n, 1e3);
      const auto y = gen_values(rng, n, 1e3);
      const double a = rng.uniform(-2.0, 2.0);
      const double c = rng.uniform(-2.0, 2.0);
      std::vector<double> s0(n), s1(n);
      ref().scale(a, x.data(), s0.data(), n);
      ops.scale(a, x.data(), s1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(s0[i], s1[i]))
            << ops.name << " scale i=" << i;
      }
      std::vector<double> z0(n), z1(n);
      ref().axpby(a, x.data(), c, y.data(), z0.data(), n);
      ops.axpby(a, x.data(), c, y.data(), z1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(z0[i], z1[i]))
            << ops.name << " axpby i=" << i;
      }
    }
  }
}

TEST(SimdConformance, CexpMaddWithinElementTol) {
  Rng rng(104);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto p = gen_phases(rng, n);
      const double cr = rng.uniform(-2.0, 2.0);
      const double ci = rng.uniform(-2.0, 2.0);
      auto ar0 = gen_values(rng, n, 1.0);
      auto ai0 = gen_values(rng, n, 1.0);
      auto ar1 = ar0;
      auto ai1 = ai0;
      ref().cexp_madd(cr, ci, p.data(), ar0.data(), ai0.data(), n);
      ops.cexp_madd(cr, ci, p.data(), ar1.data(), ai1.data(), n);
      // Oracle: each element sees the sincos error scaled by the
      // coefficient magnitude plus a few roundings of the madd chain.
      const double tol = (std::abs(cr) + std::abs(ci)) *
                             (rs::kSinCosAbsTol + 8e-16) +
                         1e-15;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ar1[i], ar0[i], tol) << ops.name << " i=" << i;
        EXPECT_NEAR(ai1[i], ai0[i], tol) << ops.name << " i=" << i;
      }
    }
  }
}

TEST(SimdConformance, CmulAccWithinElementTol) {
  Rng rng(105);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto ar = gen_values(rng, n, 2.0);
      const auto ai = gen_values(rng, n, 2.0);
      const auto br = gen_values(rng, n, 2.0);
      const auto bi = gen_values(rng, n, 2.0);
      auto r0 = gen_values(rng, n, 1.0);
      auto i0 = gen_values(rng, n, 1.0);
      auto r1 = r0;
      auto i1 = i0;
      ref().cmul_acc(ar.data(), ai.data(), br.data(), bi.data(),
                     r0.data(), i0.data(), n);
      ops.cmul_acc(ar.data(), ai.data(), br.data(), bi.data(), r1.data(),
                   i1.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        // Pure arithmetic: only FMA-contraction reorderings possible.
        const double mag = std::abs(ar[i] * br[i]) +
                           std::abs(ai[i] * bi[i]) +
                           std::abs(ar[i] * bi[i]) +
                           std::abs(ai[i] * br[i]);
        const double tol = mag * 4e-16 + 1e-15;
        EXPECT_NEAR(r1[i], r0[i], tol) << ops.name << " i=" << i;
        EXPECT_NEAR(i1[i], i0[i], tol) << ops.name << " i=" << i;
      }
    }
  }
}

namespace {

/// n_ch unit-or-smaller channel factors, rot[0] == 1 as the
/// synthesizer passes it for Rx 0.
std::vector<cplx> gen_rotations(Rng& rng, std::size_t n_ch) {
  std::vector<cplx> rot(n_ch, cplx{1.0, 0.0});
  for (std::size_t k = 1; k < n_ch; ++k) {
    rot[k] = std::polar(rng.uniform(0.0, 1.5),
                        rng.uniform(-ros::common::kPi, ros::common::kPi));
  }
  return rot;
}

std::vector<cplx*> channel_ptrs(std::vector<std::vector<cplx>>& chans) {
  std::vector<cplx*> out;
  for (auto& c : chans) out.push_back(c.data());
  return out;
}

}  // namespace

TEST(SimdConformance, ToneFanAccWithinElementTol) {
  Rng rng(106);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n_ch : {std::size_t{1}, std::size_t{3},
                             std::size_t{8}}) {
      for (std::size_t n : kSizes) {
        const double amp = rng.uniform(0.0, 3.0);
        const double phase0 = rng.uniform(-1e3, 1e3);
        const double dphase = rng.uniform(-1.0, 1.0);
        const std::vector<cplx> rot = gen_rotations(rng, n_ch);
        std::vector<std::vector<cplx>> acc0(n_ch, std::vector<cplx>(n));
        for (auto& chan : acc0) {
          for (auto& v : chan) {
            v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
          }
        }
        auto acc1 = acc0;
        ref().tone_fan_acc(channel_ptrs(acc0).data(), rot.data(), n_ch,
                           amp, phase0, dphase, n);
        ops.tone_fan_acc(channel_ptrs(acc1).data(), rot.data(), n_ch, amp,
                         phase0, dphase, n);
        for (std::size_t k = 0; k < n_ch; ++k) {
          // The tone's own bound (sincos plus the amp multiply), scaled
          // by the factor; each side also rounds its two products and
          // their sum. A unit factor multiplies exactly, so channel 0
          // keeps the bare tone bound.
          const double w = std::abs(rot[k].real()) + std::abs(rot[k].imag());
          const double tol =
              k == 0 ? amp * (rs::kSinCosAbsTol + 8e-16) + 1e-15
                     : w * amp * (rs::kSinCosAbsTol + 1.6e-15) + 1e-15;
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(acc1[k][i].real(), acc0[k][i].real(), tol)
                << ops.name << " k=" << k << " i=" << i << " n=" << n;
            EXPECT_NEAR(acc1[k][i].imag(), acc0[k][i].imag(), tol)
                << ops.name << " k=" << k << " i=" << i << " n=" << n;
          }
        }
      }
    }
  }
}

TEST(SimdConformance, ToneFanAccChannelsRoundLikeScalar) {
  // On every backend, channel k of one call is the scalar complex
  // product rot[k] * t, where t is the tone the same call put into the
  // unit-factor channel 0; and a one-channel call reproduces channel 0
  // of an eight-channel call. The fan itself adds no backend-dependent
  // rounding: only the tone's sincos differs between backends.
  Rng rng(107);
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const std::size_t n_ch = 8;
      const double amp = rng.uniform(0.1, 3.0);
      const double phase0 = rng.uniform(-1e5, 1e5);
      const double dphase = rng.uniform(-2.0, 2.0);
      const std::vector<cplx> rot = gen_rotations(rng, n_ch);
      std::vector<std::vector<cplx>> fan(n_ch, std::vector<cplx>(n));
      ops.tone_fan_acc(channel_ptrs(fan).data(), rot.data(), n_ch, amp,
                       phase0, dphase, n);
      std::vector<cplx> single(n);
      cplx* single_ptr = single.data();
      const cplx one{1.0, 0.0};
      ops.tone_fan_acc(&single_ptr, &one, 1, amp, phase0, dphase, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(bit_equal(single[i].real(), fan[0][i].real()) &&
                    bit_equal(single[i].imag(), fan[0][i].imag()))
            << ops.name << " i=" << i << " n=" << n;
        const double tr = fan[0][i].real();
        const double ti = fan[0][i].imag();
        for (std::size_t k = 1; k < n_ch; ++k) {
          const double rr = rot[k].real();
          const double ri = rot[k].imag();
          EXPECT_EQ(fan[k][i].real(), rr * tr - ri * ti)
              << ops.name << " k=" << k << " i=" << i << " n=" << n;
          EXPECT_EQ(fan[k][i].imag(), rr * ti + ri * tr)
              << ops.name << " k=" << k << " i=" << i << " n=" << n;
        }
      }
    }
  }
}

namespace {

/// gauss_acc into a zeroed buffer: the samples themselves.
std::vector<cplx> gauss_samples(const rs::Ops& ops, double power,
                                std::uint64_t key, std::uint64_t first,
                                std::size_t n) {
  std::vector<cplx> out(n);
  ops.gauss_acc(out.data(), power, key, first, n);
  return out;
}

bool bit_equal(cplx a, cplx b) {
  return bit_equal(a.real(), b.real()) && bit_equal(a.imag(), b.imag());
}

}  // namespace

TEST(SimdConformance, GaussAccScalarMatchesStreamDefinition) {
  // Pins the documented stream: u from the standard SplitMix64 sequence
  // (common::splitmix64 adds the gamma before mixing, so it is output c
  // when fed key + c*gamma), Box-Muller radius and angle in libm.
  const std::uint64_t gamma = 0x9E3779B97F4A7C15ull;
  const auto unit = [](std::uint64_t x) {
    return (static_cast<double>(x >> 11) + 0.5) * 0x1p-53;
  };
  const std::uint64_t key = 0xC0FFEEull;
  const std::uint64_t first = 11;
  const double power = 3.5;
  std::vector<cplx> acc(9, cplx{0.25, -1.0});
  ref().gauss_acc(acc.data(), power, key, first, acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    const std::uint64_t c = first + 2 * i;
    const double u1 = unit(ros::common::splitmix64(key + c * gamma));
    const double u2 = unit(ros::common::splitmix64(key + (c + 1) * gamma));
    const double r = std::sqrt(-power * std::log(u1));
    const double theta = 2.0 * ros::common::kPi * u2;
    const cplx want =
        cplx{0.25, -1.0} + cplx{r * std::cos(theta), r * std::sin(theta)};
    EXPECT_TRUE(bit_equal(acc[i], want)) << "i=" << i;
  }
}

TEST(SimdConformance, GaussAccWithinRelTol) {
  Rng rng(110);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const std::uint64_t key = rng.engine()();
      // Any start counter, including odd ones and ones that wrap.
      const std::uint64_t first =
          n % 3 == 0 ? ~std::uint64_t{0} - 5 : rng.engine()();
      const double power = std::pow(10.0, rng.uniform(-14.0, 2.0));
      const auto z0 = gauss_samples(ref(), power, key, first, n);
      const auto z1 = gauss_samples(ops, power, key, first, n);
      for (std::size_t i = 0; i < n; ++i) {
        const double tol = rs::kGaussRelTol * std::abs(z0[i]);
        EXPECT_NEAR(z1[i].real(), z0[i].real(), tol)
            << ops.name << " i=" << i << " n=" << n;
        EXPECT_NEAR(z1[i].imag(), z0[i].imag(), tol)
            << ops.name << " i=" << i << " n=" << n;
      }
    }
  }
}

TEST(SimdConformance, GaussAccIsLanePositionIndependent) {
  // The sample at a counter is the same bits whatever n, the offset of
  // the call, or whether it lands in the vector body or the tail.
  Rng rng(111);
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    const std::size_t n = 37;
    const std::uint64_t key = rng.engine()();
    const std::uint64_t first = rng.engine()() | 1;  // odd start
    const auto full = gauss_samples(ops, 0.7, key, first, n);
    for (std::size_t j = 0; j < n; ++j) {
      // Starting at sample j: element i - j must equal full[i].
      const auto shifted = gauss_samples(ops, 0.7, key, first + 2 * j, n - j);
      for (std::size_t i = j; i < n; ++i) {
        EXPECT_TRUE(bit_equal(shifted[i - j], full[i]))
            << ops.name << " sample " << i << " from offset " << j;
      }
      // A prefix of length j + 1 puts sample j in whatever tail lane.
      const auto prefix = gauss_samples(ops, 0.7, key, first, j + 1);
      EXPECT_TRUE(bit_equal(prefix[j], full[j]))
          << ops.name << " sample " << j << " at n=" << j + 1;
    }
  }
}

TEST(SimdConformance, GaussAccIsDeterministicPerKey) {
  for (rs::Backend b : rs::available_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    const auto a = gauss_samples(ops, 1.0, 42, 0, 64);
    const auto again = gauss_samples(ops, 1.0, 42, 0, 64);
    const auto other = gauss_samples(ops, 1.0, 43, 0, 64);
    std::size_t same = 0;
    std::size_t collide = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      same += bit_equal(a[i], again[i]);
      collide += bit_equal(a[i], other[i]);
    }
    EXPECT_EQ(same, a.size()) << ops.name;
    EXPECT_EQ(collide, 0u) << ops.name;
    // Accumulates: a second call adds a second draw onto the first.
    auto acc = a;
    ops.gauss_acc(acc.data(), 1.0, 42, 0, acc.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(bit_equal(acc[i], a[i] + a[i])) << ops.name << " i=" << i;
    }
  }
}

TEST(SimdConformance, ReductionsWithinReassociationBound) {
  Rng rng(107);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto x = gen_values(rng, n, 10.0);
      const auto y = gen_values(rng, n, 10.0);
      const double dn = static_cast<double>(n);

      double sum_abs = 0.0;
      for (double v : x) sum_abs += std::abs(v);
      EXPECT_NEAR(ops.sum(x.data(), n), ref().sum(x.data(), n),
                  rs::kReduceRelTol * dn * sum_abs + 1e-300)
          << ops.name << " sum n=" << n;

      double dot_abs = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot_abs += std::abs(x[i] * y[i]);
      EXPECT_NEAR(ops.dot(x.data(), y.data(), n),
                  ref().dot(x.data(), y.data(), n),
                  rs::kReduceRelTol * dn * dot_abs + 1e-300)
          << ops.name << " dot n=" << n;

      const cplx cs0 = ref().csum(x.data(), y.data(), n);
      const cplx cs1 = ops.csum(x.data(), y.data(), n);
      EXPECT_NEAR(cs1.real(), cs0.real(),
                  rs::kReduceRelTol * dn * sum_abs + 1e-300)
          << ops.name;
      double sum_abs_y = 0.0;
      for (double v : y) sum_abs_y += std::abs(v);
      EXPECT_NEAR(cs1.imag(), cs0.imag(),
                  rs::kReduceRelTol * dn * sum_abs_y + 1e-300)
          << ops.name;
    }
  }
}

TEST(SimdConformance, PhaseMacAndCexpSumWithinBound) {
  Rng rng(108);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      const auto p = gen_phases(rng, n);
      const auto ar = gen_values(rng, n, 2.0);
      const auto ai = gen_values(rng, n, 2.0);
      // Bound: per-term sincos error times the amplitude, plus the
      // lane re-association of the horizontal sum.
      double amp_sum = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        amp_sum += std::abs(ar[i]) + std::abs(ai[i]);
      }
      const double dn = static_cast<double>(n);
      const double tol =
          amp_sum * (rs::kSinCosAbsTol + 8e-16) +
          rs::kReduceRelTol * dn * (amp_sum + 1e-300) + 1e-300;
      const cplx m0 = ref().phase_mac(ar.data(), ai.data(), p.data(), n);
      const cplx m1 = ops.phase_mac(ar.data(), ai.data(), p.data(), n);
      EXPECT_NEAR(m1.real(), m0.real(), tol)
          << ops.name << " phase_mac n=" << n;
      EXPECT_NEAR(m1.imag(), m0.imag(), tol)
          << ops.name << " phase_mac n=" << n;

      const double tol_e = dn * (rs::kSinCosAbsTol + 8e-16) +
                           rs::kReduceRelTol * dn * dn + 1e-300;
      const cplx e0 = ref().cexp_sum(p.data(), n);
      const cplx e1 = ops.cexp_sum(p.data(), n);
      EXPECT_NEAR(e1.real(), e0.real(), tol_e)
          << ops.name << " cexp_sum n=" << n;
      EXPECT_NEAR(e1.imag(), e0.imag(), tol_e)
          << ops.name << " cexp_sum n=" << n;
    }
  }
}

TEST(SimdConformance, FftButterflyWithinRelTol) {
  Rng rng(109);
  for (rs::Backend b : vector_backends()) {
    const rs::Ops& ops = rs::backend_ops(b);
    for (std::size_t n : kSizes) {
      std::vector<cplx> a0(n), b0(n), w(n);
      for (std::size_t i = 0; i < n; ++i) {
        a0[i] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
        b0[i] = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
        w[i] = std::polar(1.0, rng.uniform(-ros::common::kPi,
                                           ros::common::kPi));
      }
      auto a1 = a0;
      auto b1 = b0;
      ref().fft_butterfly(a0.data(), b0.data(), w.data(), n);
      ops.fft_butterfly(a1.data(), b1.data(), w.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double sa = std::abs(a0[i]) + 1e-30;
        const double sb = std::abs(b0[i]) + 1e-30;
        EXPECT_NEAR(a1[i].real(), a0[i].real(), rs::kButterflyRelTol * sa)
            << ops.name << " i=" << i;
        EXPECT_NEAR(a1[i].imag(), a0[i].imag(), rs::kButterflyRelTol * sa)
            << ops.name << " i=" << i;
        EXPECT_NEAR(b1[i].real(), b0[i].real(), rs::kButterflyRelTol * sb)
            << ops.name << " i=" << i;
        EXPECT_NEAR(b1[i].imag(), b0[i].imag(), rs::kButterflyRelTol * sb)
            << ops.name << " i=" << i;
      }
    }
  }
}
