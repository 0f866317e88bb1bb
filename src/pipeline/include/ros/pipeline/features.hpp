// Cluster extraction and the per-cluster features the paper's tag
// detector uses (Sec. 6 / Fig. 13): point-cloud size and point density.
#pragma once

#include <vector>

#include "ros/pipeline/dbscan.hpp"
#include "ros/pipeline/pointcloud.hpp"

namespace ros::pipeline {

struct Cluster {
  std::vector<std::size_t> point_indices;
  ros::scene::Vec2 centroid;
  double size_m2 = 0.0;        ///< bounding-box area of the cluster
  double extent_m = 0.0;       ///< bounding-box diagonal
  double mean_rss_dbm = 0.0;   ///< mean of member point RSS
  double density = 0.0;        ///< points per m^2 (capped box >= 1 cm^2)
  std::size_t n_points = 0;
};

/// DBSCAN the cloud and compute features for each cluster.
std::vector<Cluster> extract_clusters(const PointCloud& cloud,
                                      const DbscanOptions& opts);

/// Drop clusters below a density / point-count floor (the paper keeps
/// only dense clusters for RCS measurement).
std::vector<Cluster> filter_dense(std::vector<Cluster> clusters,
                                  double min_density, std::size_t min_points);

}  // namespace ros::pipeline
