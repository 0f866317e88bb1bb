// Per-run pipeline telemetry (paper Sec. 6 stages): where a drive-by
// spent its time and how the detection funnel narrowed, attached to
// every InterrogationReport / DecodeDriveResult so benches and services
// can report stage-level numbers instead of end-to-end only.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ros::pipeline {

struct StageTiming {
  std::string stage;  ///< a layer name: "scene.returns", "tag.decode", ...
  double ms = 0.0;    ///< the layer's measured thread time over the read
};

/// Decode-quality numbers for one read tag. SNR/BER are the paper's OOK
/// metrics estimated from this single read's slot amplitudes (pooled by
/// decoded bit); NaN when the read saw only one symbol class.
struct TagDecodeTelemetry {
  double snr_db = 0.0;
  double ber = 0.0;
  double mean_rss_dbm = 0.0;
  std::size_t n_samples = 0;  ///< RSS samples fed to the decoder
  std::vector<bool> bits;
};

struct PipelineTelemetry {
  // Funnel counts: frames synthesized -> point-cloud points -> dense
  // clusters -> classified candidates -> decoded tags.
  std::size_t n_frames = 0;
  std::size_t n_points = 0;
  std::size_t n_clusters = 0;
  std::size_t n_candidates = 0;
  std::size_t n_tags = 0;

  /// One entry per layer the read mode runs, in layer order
  /// (ros::pipeline::Layer). At one thread they fit inside total_ms; at
  /// N threads the frame layers may add up to more.
  std::vector<StageTiming> stages;
  double total_ms = 0.0;  ///< the read's wall time
  std::vector<TagDecodeTelemetry> tags;

  /// Total ms booked against `stage`; 0 when the stage never ran.
  double stage_ms(std::string_view stage) const;
  void add_stage(std::string_view stage, double ms);

  /// The funnel can only narrow: points >= clusters >= candidates >=
  /// decoded tags (frames are counted separately since one frame yields
  /// many points).
  bool funnel_consistent() const;

  std::string to_json() const;
};

}  // namespace ros::pipeline
