// Bit-identity comparators for the pipeline == serial oracle suites.
// The contract is exact equality (operator== on doubles, no epsilon):
// the engine and the oracle (pipeline_oracle.hpp) call the same layer
// functions on the same inputs, so ANY difference is a real divergence,
// not float noise.
#pragma once

#include <string>
#include <vector>

#include "ros/pipeline/interrogator.hpp"

namespace ros::teststream {

inline std::string diff_samples(const std::vector<ros::pipeline::RssSample>& a,
                                const std::vector<ros::pipeline::RssSample>& b) {
  if (a.size() != b.size()) {
    return "sample count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].rss_dbm != b[i].rss_dbm ||
        a[i].rss_w != b[i].rss_w || a[i].range_m != b[i].range_m ||
        a[i].frame != b[i].frame) {
      return "sample " + std::to_string(i) + " differs";
    }
  }
  return "";
}

inline std::string diff_decode(const ros::tag::DecodeResult& a,
                               const ros::tag::DecodeResult& b) {
  if (a.bits != b.bits) return "bits differ";
  if (a.slot_amplitudes != b.slot_amplitudes) return "slot_amplitudes differ";
  if (a.slot_modulation != b.slot_modulation) return "slot_modulation differ";
  if (a.band_rms != b.band_rms) return "band_rms differs";
  if (a.threshold != b.threshold) return "threshold differs";
  return "";
}

/// A decode-mode result vs its reference, full contract: same samples,
/// same decode, same mean RSS, same frame count.
inline std::string diff_decode_drive(
    const ros::pipeline::DecodeDriveResult& got,
    const ros::pipeline::DecodeDriveResult& want) {
  std::string err = diff_samples(got.samples, want.samples);
  if (!err.empty()) return "samples: " + err;
  err = diff_decode(got.decode, want.decode);
  if (!err.empty()) return "decode: " + err;
  if (got.mean_rss_dbm != want.mean_rss_dbm) return "mean_rss_dbm differs";
  if (got.telemetry.n_frames != want.telemetry.n_frames) {
    return "telemetry.n_frames differs";
  }
  return "";
}

inline std::string diff_cluster(const ros::pipeline::Cluster& a,
                                const ros::pipeline::Cluster& b) {
  if (a.point_indices != b.point_indices) return "point_indices differ";
  if (a.centroid.x != b.centroid.x || a.centroid.y != b.centroid.y) {
    return "centroid differs";
  }
  if (a.size_m2 != b.size_m2 || a.extent_m != b.extent_m ||
      a.mean_rss_dbm != b.mean_rss_dbm || a.density != b.density ||
      a.n_points != b.n_points) {
    return "features differ";
  }
  return "";
}

/// A full-mode report vs its reference, full contract: same cloud,
/// clusters, candidates, and decoded tags.
inline std::string diff_report(const ros::pipeline::InterrogationReport& s,
                               const ros::pipeline::InterrogationReport& b) {
  if (s.n_frames != b.n_frames) return "n_frames differs";
  if (s.cloud.points.size() != b.cloud.points.size()) {
    return "cloud size " + std::to_string(s.cloud.points.size()) + " vs " +
           std::to_string(b.cloud.points.size());
  }
  for (std::size_t i = 0; i < s.cloud.points.size(); ++i) {
    const auto& p = s.cloud.points[i];
    const auto& q = b.cloud.points[i];
    if (p.world.x != q.world.x || p.world.y != q.world.y ||
        p.rss_dbm != q.rss_dbm || p.frame != q.frame) {
      return "cloud point " + std::to_string(i) + " differs";
    }
  }
  if (s.clusters.size() != b.clusters.size()) return "cluster count differs";
  for (std::size_t i = 0; i < s.clusters.size(); ++i) {
    const std::string err = diff_cluster(s.clusters[i], b.clusters[i]);
    if (!err.empty()) return "cluster " + std::to_string(i) + ": " + err;
  }
  if (s.candidates.size() != b.candidates.size()) {
    return "candidate count differs";
  }
  for (std::size_t i = 0; i < s.candidates.size(); ++i) {
    const auto& x = s.candidates[i];
    const auto& y = b.candidates[i];
    if (x.rss_loss_db != y.rss_loss_db ||
        x.rss_normal_dbm != y.rss_normal_dbm ||
        x.rss_switched_dbm != y.rss_switched_dbm || x.is_tag != y.is_tag) {
      return "candidate " + std::to_string(i) + " differs";
    }
  }
  if (s.tags.size() != b.tags.size()) return "tag count differs";
  for (std::size_t i = 0; i < s.tags.size(); ++i) {
    std::string err = diff_decode(s.tags[i].decode, b.tags[i].decode);
    if (!err.empty()) return "tag " + std::to_string(i) + " decode: " + err;
    err = diff_samples(s.tags[i].samples, b.tags[i].samples);
    if (!err.empty()) return "tag " + std::to_string(i) + " samples: " + err;
  }
  return "";
}

}  // namespace ros::teststream
