#include "../support/corner_reflector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "ros/common/angles.hpp"
#include "ros/common/units.hpp"
#include "ros/radar/processing.hpp"
#include "ros/scene/scene.hpp"
#include "ros/tag/link_budget.hpp"

namespace rs = ros::scene;
namespace rc = ros::common;

namespace {
rs::RadarPose side_pose(double x, double y) {
  rs::RadarPose p;
  p.position = {x, y};
  p.boresight = {0.0, -1.0};
  return p;
}
}  // namespace

TEST(CornerReflector, ClosedFormRcs) {
  // 5 cm trihedral at 79 GHz: 4 pi a^4 / (3 lambda^2) ~= 1.82 m^2
  // (+2.6 dBsm).
  rs::CornerReflector cr({});
  EXPECT_NEAR(cr.peak_rcs_dbsm(79e9),
              rc::linear_to_db(4.0 * rc::kPi * std::pow(0.05, 4) /
                               (3.0 * std::pow(rc::wavelength(79e9), 2))),
              1e-9);
  EXPECT_NEAR(cr.peak_rcs_dbsm(79e9), 2.6, 0.3);
}

TEST(CornerReflector, RcsGrowsWithFourthPowerOfEdge) {
  rs::CornerReflector::Params small;
  small.edge_m = 0.05;
  rs::CornerReflector::Params big;
  big.edge_m = 0.10;
  EXPECT_NEAR(rs::CornerReflector(big).peak_rcs_dbsm(79e9) -
                  rs::CornerReflector(small).peak_rcs_dbsm(79e9),
              40.0 * std::log10(2.0), 1e-9);
}

TEST(CornerReflector, WideAngularResponse) {
  rs::CornerReflector cr({.position = {0.0, 0.0}});
  rc::Rng rng(1);
  // Visible from 30 deg off boresight, gone beyond ~70 deg.
  EXPECT_FALSE(cr.scatter(side_pose(1.7, 3.0), 79e9, rng).empty());
  EXPECT_TRUE(cr.scatter(side_pose(9.0, 1.0), 79e9, rng).empty());
  EXPECT_TRUE(cr.scatter(side_pose(0.0, -3.0), 79e9, rng).empty());
}

TEST(CornerReflector, EndToEndCalibratesTheChain) {
  // The headline use: the beamformed RSS measured through the *entire*
  // simulation chain (scene -> radar equation -> waveform synthesis ->
  // range FFT -> beamforming) must match the closed-form link budget
  // prediction for the known-RCS target.
  rs::Scene world;
  rs::CornerReflector::Params p;
  p.position = {0.0, 0.0};
  world.add(std::make_unique<rs::CornerReflector>(p));

  const auto chirp = ros::radar::FmcwChirp::ti_iwr1443();
  const auto array = ros::radar::RadarArray::ti_iwr1443();
  const auto budget = ros::tag::RadarLinkBudget::ti_iwr1443();
  const ros::radar::WaveformSynthesizer synth(chirp, array);
  rc::Rng rng(2);

  const double dist = 4.0;
  const auto returns = world.frame_returns(
      side_pose(0.0, dist), ros::radar::TxMode::normal, array, budget,
      chirp.center_hz(), rng);
  ASSERT_EQ(returns.size(), 1u);
  const auto profile =
      ros::radar::range_fft(synth.synthesize(returns, 0.0, rng), chirp);
  const double measured = ros::radar::beamformed_rss_dbm(
      profile, array, chirp.center_hz(), dist, 0.0);

  const rs::CornerReflector cr(p);
  const double predicted =
      budget.received_power_dbm(cr.peak_rcs_dbsm(chirp.center_hz()), dist);
  EXPECT_NEAR(measured, predicted, 1.5);
}

TEST(CornerReflector, PreservesPolarization) {
  rs::CornerReflector cr({.position = {0.0, 0.0}});
  rc::Rng rng(3);
  const auto pts = cr.scatter(side_pose(0.0, 3.0), 79e9, rng);
  ASSERT_EQ(pts.size(), 1u);
  using ros::em::Polarization;
  const double co = std::abs(pts[0].s.response(Polarization::vertical,
                                               Polarization::vertical));
  const double cross = std::abs(pts[0].s.response(
      Polarization::vertical, Polarization::horizontal));
  EXPECT_GT(rc::amplitude_to_db(co / cross), 20.0);
}

TEST(CornerReflector, InvalidParamsThrow) {
  rs::CornerReflector::Params bad;
  bad.edge_m = 0.0;
  EXPECT_THROW(rs::CornerReflector{bad}, std::invalid_argument);
  bad = {};
  bad.boresight = {0.0, 0.0};
  EXPECT_THROW(rs::CornerReflector{bad}, std::invalid_argument);
}
