// Ablation: decoder and tag design choices DESIGN.md calls out.
//   (1) polarization switching on/off in a cluttered scene,
//   (2) envelope whitening on/off,
//   (3) bin-averaged vs interpolated resampling,
//   (4) beam shaping on/off at a realistic height offset,
//   (5) the FFT decoder on the clean spotlighted series — per-read
//       latency, empirical bit errors near the noise cliff, and a
//       correct decode at clean SNR.
#include "bench_util.hpp"

#include <algorithm>

#include "ros/pipeline/rcs_sampler.hpp"
#include "ros/scene/objects.hpp"
#include "ros/tag/codec.hpp"

ROS_BENCH_OPTS(ablation_decoder, 2, 0) {
  using namespace ros;
  const auto bits = bench::truth_bits();
  pipeline::InterrogatorConfig cfg;
  cfg.frame_stride = 2;

  common::CsvTable table("Decoder / design ablations (decoding SNR)",
                         {"config", "snr_db", "decoded_ok"});

  // Baseline: full system in a cluttered scene.
  const auto cluttered = [&](bool switching) {
    scene::Scene world;
    tag::RosTag::Params p;
    p.psvaas_per_stack = 32;
    p.phase_weights_rad = tag::default_beam_weights(32);
    p.unit.switching = switching;
    world.add_tag(tag::RosTag(bits, p, &bench::stackup()),
                  {{0.0, 0.0}, {0.0, 1.0}, 0.0});
    world.add_clutter(scene::street_lamp_params({2.2, 0.3}));
    return world;
  };

  // Quick mode keeps only the two arms the fidelity checks compare
  // (full system vs no polarization switching) plus the gamma = 0
  // ground-bounce baseline; both arms run identically in full mode.
  double full_snr_db = 0.0;
  int full_decoded = 0;
  double rejection_gain_db = 0.0;
  {
    // Without polarization switching the decode channel only carries
    // leakage and the clutter is not rejected. Its SNR estimate divides
    // by a class-mean gap near zero, so one two-drive estimate swings by
    // tens of dB with the noise seed whatever the noise generator; the
    // gain is the median over independent seed bases instead.
    const auto on = cluttered(true);
    const auto off = cluttered(false);
    std::vector<double> gains;
    for (std::uint64_t base : {1000, 2000, 3000, 4000, 5000}) {
      const auto r_on =
          bench::measure_snr(on, bench::drive(), bits, cfg, 2, base);
      const auto r_off =
          bench::measure_snr(off, bench::drive(), bits, cfg, 2, base);
      if (gains.empty()) {
        table.add_row("full_system",
                      {r_on.snr_db, r_on.all_correct ? 1.0 : 0.0});
        table.add_row("no_polarization_switching",
                      {r_off.snr_db, r_off.all_correct ? 1.0 : 0.0});
        full_snr_db = r_on.snr_db;
        full_decoded = r_on.all_correct ? 1 : 0;
      }
      gains.push_back(r_on.snr_db - r_off.snr_db);
    }
    std::nth_element(gains.begin(), gains.begin() + 2, gains.end());
    rejection_gain_db = gains[2];
  }
  if (!ctx.quick()) {
    {
      auto c = cfg;
      c.decoder.spectrum.whiten_envelope = false;
      const auto r =
          bench::measure_snr(cluttered(true), bench::drive(), bits, c, 2);
      table.add_row("no_envelope_whitening",
                    {r.snr_db, r.all_correct ? 1.0 : 0.0});
    }
    {
      // Interpolated (non-averaging) resampling: emulate by using as many
      // cells as samples, so no averaging can happen.
      auto c = cfg;
      c.decoder.spectrum.resample_points = 4096;
      const auto r =
          bench::measure_snr(cluttered(true), bench::drive(), bits, c, 2);
      table.add_row("no_bin_averaging",
                    {r.snr_db, r.all_correct ? 1.0 : 0.0});
    }
    {
      // Beam shaping off, radar 15 cm below the tag at 3 m (~2.9 deg).
      scene::Scene world = bench::tag_scene(bits, 32, false);
      const auto drv = bench::drive(3.0, 2.0, 2.5, 0.15);
      const auto r = bench::measure_snr(world, drv, bits, cfg, 2);
      table.add_row("no_beam_shaping_15cm_offset",
                    {r.snr_db, r.all_correct ? 1.0 : 0.0});
    }
    {
      scene::Scene world = bench::tag_scene(bits, 32, true);
      const auto drv = bench::drive(3.0, 2.0, 2.5, 0.15);
      const auto r = bench::measure_snr(world, drv, bits, cfg, 2);
      table.add_row("beam_shaping_15cm_offset",
                    {r.snr_db, r.all_correct ? 1.0 : 0.0});
    }
  }
  bench::print(ctx, table);

  // Ground-multipath sensitivity: the two-ray fading tone can land in
  // the coding band; decoding survives realistic rough asphalt
  // (|Gamma| ~ 0.1) but degrades on mirror-like surfaces.
  common::CsvTable ground(
      "Ground-bounce ablation: decoding SNR vs road specular "
      "reflectivity (radar 0.5 m, tag 1.0 m above road, 3 m lane)",
      {"reflection_coefficient", "snr_db", "decoded_ok"});
  for (double gamma : {0.0, 0.1, 0.2, 0.3}) {
    if (ctx.quick() && gamma > 0.0) continue;
    scene::Scene world = bench::tag_scene(bits);
    scene::GroundBounce g;
    g.enabled = gamma > 0.0;
    g.reflection_coefficient = gamma;
    world.set_ground(g);
    auto c = cfg;
    c.frame_stride = 1;
    const auto r = bench::measure_snr(world, bench::drive(), bits, c, 2);
    ground.add_row({gamma, r.snr_db, r.all_correct ? 1.0 : 0.0});
  }
  bench::print(ctx, ground);

  // ---- FFT decoder: latency and bit errors near the noise cliff ----
  const scene::Scene clean_world = bench::tag_scene(bits);
  const auto clean_run =
      pipeline::decode_drive(clean_world, bench::drive(), {0.0, 0.0}, cfg);
  const auto series = pipeline::to_decoder_series(clean_run.samples);

  const tag::SpatialDecoder decoder(cfg.decoder);
  const auto fft_clean = decoder.decode(series.u, series.rss_linear);

  obs::BenchRunOptions opts;
  opts.warmup = 1;
  opts.reps = 9;
  opts.collect_perf_counters = false;
  constexpr int kReadsPerRep = 16;
  const auto timing = obs::run_timed(
      [&] {
        for (int i = 0; i < kReadsPerRep; ++i) {
          auto d = decoder.decode(series.u, series.rss_linear);
          bench::do_not_optimize(d);
        }
      },
      opts);
  const double fft_us = timing.wall_ms.median * 1000.0 / kReadsPerRep;
  obs::MetricsRegistry::global().gauge("bench.decoder.fft_read_us")
      .set(fft_us);

  // Empirical bit errors near the noise cliff. Seeds are fixed and the
  // pipeline is deterministic at every thread count, so these counts
  // are reproducible.
  const auto bit_errors = [&](double noise_dbm) {
    auto c = cfg;
    c.frame_stride = 4;
    c.extra_noise_dbm = noise_dbm;
    int errors = 0;
    for (int t = 0; t < 3; ++t) {
      c.noise_seed = 4242 + 17 * static_cast<std::uint64_t>(t);
      const auto r = pipeline::decode_drive(clean_world, bench::drive(),
                                            {0.0, 0.0}, c);
      if (r.decode.bits.size() != bits.size()) {
        errors += static_cast<int>(bits.size());
        continue;
      }
      for (std::size_t k = 0; k < bits.size(); ++k) {
        errors += r.decode.bits[k] != bits[k] ? 1 : 0;
      }
    }
    return errors;
  };

  common::CsvTable duel(
      "FFT decoder: per-read latency on the clean series + bit errors "
      "over 3 seeded drives per interference level (12 bits)",
      {"decoder", "read_us_median", "clean_ok", "errs_noise_46dbm",
       "errs_noise_44dbm", "errs_noise_42dbm", "errs_noise_40dbm"});
  std::vector<double> row{fft_us, fft_clean.bits == bits ? 1.0 : 0.0};
  for (double dbm : {-46.0, -44.0, -42.0, -40.0}) {
    row.push_back(static_cast<double>(bit_errors(dbm)));
  }
  duel.add_row("fft", row);
  bench::print(ctx, duel);

  ctx.fidelity("full_system_snr_db", full_snr_db, 14.0, 35.0,
               "Ablation baseline: full system decodes the cluttered "
               "scene with margin");
  ctx.fidelity("full_system_decoded", static_cast<double>(full_decoded),
               1.0, 1.0, "Ablation baseline: error-free decode");
  ctx.fidelity("polarization_rejection_gain_db", rejection_gain_db, 15.0,
               40.0,
               "Ablation 1: polarization switching is what rejects the "
               "clutter (~27 dB SNR swing)");
  ctx.fidelity("fft_clean_decoded", fft_clean.bits == bits ? 1.0 : 0.0,
               1.0, 1.0,
               "FFT decoder: correct bits on the clean series");
}
