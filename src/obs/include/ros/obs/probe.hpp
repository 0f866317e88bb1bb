// Decode forensics: per-read provenance capture (ros::obs::probe).
//
// Where the flight recorder answers "what was this *process* doing",
// the probe answers the domain question "where in the funnel did this
// *read* die, and why". Call sites in the interrogation pipeline tap
// stage artifacts (range-FFT summaries, point cloud, cluster
// assignments, coding-band spectrum, per-bit decision margins) into a
// thread-local pending ReadProvenance record; when the read finishes,
// policy decides whether the record becomes a self-contained JSON
// bundle under <ROS_OBS_DIAG_DIR>/reads/ alongside the crash bundles.
//
// The layer is built to be compiled in permanently:
//
//   * Disarmed (the default), every tap is one relaxed atomic load and
//     a branch; no allocation, no capture, nothing written. The
//     bench_obs_overhead gate holds this path to <= 1% on the
//     decode_drive hot loop and the zero-alloc frame budgets.
//   * Armed via ROS_OBS_PROBE=failure|always (or set_mode()), stage
//     taps serialize bounded JSON fragments. `failure` captures every
//     read but only writes a bundle when the read failed: the pipeline
//     reported a failure reason (e.g. no_read), the decoded bits
//     mismatch the caller-provided expected bits, or the caller aborts
//     the read (fuzz invariant violation, exception). `always` writes
//     every captured read, subject to set_sample_period() (capture 1
//     in N reads; default 1).
//   * Bundles are self-contained for replay: build/host/runtime info,
//     config digest, master noise seed (per-frame streams re-derive via
//     derive_stream_seed), funnel verdicts, and — when the caller
//     attached one — the full testkit scenario text. `rostriage replay`
//     re-runs the read bit-identically from that.
//
// Capture is deliberately observation-only: arming the probe must not
// change any decoded bit (enforced by bench fidelity checks).
//
// Threading: the pending record is thread-local, so concurrent reads on
// different threads capture independently. Context (scenario text +
// expected bits) is also thread-local; set it on the thread that runs
// the read.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ros::obs::probe {

enum class Mode : int {
  off = 0,      ///< taps short-circuit (default)
  failure = 1,  ///< capture every read, write bundles only on failure
  always = 2,   ///< write every (sampled) captured read
};

const char* to_string(Mode m);
/// "off"/"0" -> off, "failure"/"fail" -> failure, "always"/"on"/"1" ->
/// always; anything else -> off.
Mode parse_mode(std::string_view s);

/// Active mode; first call reads ROS_OBS_PROBE.
Mode mode();
void set_mode(Mode m);
/// Capture 1 in `n` reads in Mode::always (failure mode captures every
/// read — a failure is exactly the read you cannot afford to sample
/// away). 0/1 = every read.
void set_sample_period(std::uint32_t n);

/// True when any capture can happen (mode != off). The single relaxed
/// load every tap call performs first.
bool armed();

/// Begin an attempted read on this thread. Returns true when the read
/// is being captured (armed + sampled in); all taps until end_read()
/// attach to it. An unfinished prior record on this thread is dropped.
bool begin_read(std::string_view kind, std::uint64_t noise_seed,
                std::uint64_t config_digest);
/// True between begin_read() and end_read()/abort on this thread when
/// the current read is being captured. Call sites guard expensive
/// artifact serialization with this, not just armed().
bool capturing();

/// Scalar / string annotations ("mean_rss_dbm", "threads", ...).
void annotate(std::string_view key, double value);
void annotate(std::string_view key, std::string_view value);

/// Attach one stage artifact as a pre-serialized JSON value. Artifacts
/// beyond `max_artifact_bytes()` are replaced by a truncation note so a
/// runaway tap cannot balloon a bundle.
void stage_artifact(std::string_view stage, std::string json);
std::size_t max_artifact_bytes();
void set_max_artifact_bytes(std::size_t bytes);

/// Funnel verdict for one stage, in pipeline order: e.g. "synthesized",
/// "detected", "clustered", "aperture", "decoded".
void funnel(std::string_view stage, bool passed, std::string_view detail);

/// Decoded payload of the pending read (compared against the context's
/// expected bits to detect silent wrong-bit reads).
void decoded_bits(const std::vector<bool>& bits);

/// Caller context, attached to every subsequent bundle on this thread
/// until cleared: the self-contained scenario text that reproduces the
/// read (testkit Scenario::encode()) and the ground-truth payload.
void set_context(std::string scenario_text,
                 std::vector<bool> expected_bits);
void clear_context();

/// Finish the pending read. `failure_reason` empty means the pipeline
/// considers the read successful; policy (see Mode) decides whether a
/// bundle is written. Returns the bundle path, or "" when none was
/// written. Safe to call with no pending read (returns "").
std::string end_read(std::string_view failure_reason);

/// Write whatever the pending read captured so far (partial bundle),
/// e.g. from an exception handler or a fuzz oracle that failed after
/// the read returned. Always writes when a captured read is pending,
/// regardless of mode policy.
std::string abort_read(std::string_view reason);

/// Path of the most recent bundle written by this thread ("" if none).
std::string last_bundle_path();
/// Bundles written process-wide (mirrors obs.probe.bundles counter).
std::uint64_t bundles_written();

/// Directory read bundles land in: <diag_dir()>/reads.
std::string reads_dir();

}  // namespace ros::obs::probe
