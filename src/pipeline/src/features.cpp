#include "ros/pipeline/features.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ros/common/mathx.hpp"
#include "ros/common/units.hpp"

namespace ros::pipeline {

using ros::scene::Vec2;

std::vector<Cluster> extract_clusters(const PointCloud& cloud,
                                      const DbscanOptions& opts) {
  const std::vector<int> labels = dbscan(cloud.positions(), opts);
  const int n_clusters = cluster_count(labels);

  std::vector<Cluster> clusters(static_cast<std::size_t>(n_clusters));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0) continue;
    clusters[static_cast<std::size_t>(labels[i])].point_indices.push_back(i);
  }

  for (auto& c : clusters) {
    double sx = 0.0;
    double sy = 0.0;
    double rss_sum_w = 0.0;
    std::vector<double> xs;
    std::vector<double> ys;
    xs.reserve(c.point_indices.size());
    ys.reserve(c.point_indices.size());
    for (std::size_t idx : c.point_indices) {
      const CloudPoint& p = cloud.points[idx];
      sx += p.world.x;
      sy += p.world.y;
      rss_sum_w += ros::common::dbm_to_watt(p.rss_dbm);
      xs.push_back(p.world.x);
      ys.push_back(p.world.y);
    }
    c.n_points = c.point_indices.size();
    if (c.n_points == 0) continue;
    const auto n = static_cast<double>(c.n_points);
    c.centroid = {sx / n, sy / n};
    // Robust 10th-90th percentile box: low-SNR AoA outliers must not
    // inflate the size feature.
    const double dx = ros::common::percentile(xs, 90.0) -
                      ros::common::percentile(xs, 10.0);
    const double dy = ros::common::percentile(ys, 90.0) -
                      ros::common::percentile(ys, 10.0);
    c.size_m2 = dx * dy;
    c.extent_m = std::hypot(dx, dy);
    c.mean_rss_dbm = ros::common::watt_to_dbm(rss_sum_w / n);
    c.density = n / std::max(c.size_m2, 1e-4);
  }

  // Drop empty entries (possible if all members were noise-relabeled).
  clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                [](const Cluster& c) {
                                  return c.n_points == 0;
                                }),
                 clusters.end());
  return clusters;
}

std::vector<Cluster> filter_dense(std::vector<Cluster> clusters,
                                  double min_density,
                                  std::size_t min_points) {
  clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                [&](const Cluster& c) {
                                  return c.density < min_density ||
                                         c.n_points < min_points;
                                }),
                 clusters.end());
  return clusters;
}

}  // namespace ros::pipeline
