// Measurement result types shared by the scenario runner and the benchmark
// binaries: normalization against a native baseline, and the detect/resume
// recovery breakdown structure reported by the Fig. 3 / Fig. 7 benches.
#pragma once

#include <cstddef>

namespace adcc::core {

/// A runtime measurement normalized against the native baseline — the y-axis
/// of Figs. 4, 8 and 13.
struct NormalizedTime {
  double seconds = 0.0;
  double normalized = 0.0;  ///< seconds / native_seconds.
  double overhead_percent() const { return (normalized - 1.0) * 100.0; }
};

NormalizedTime normalize(double seconds, double native_seconds);

/// The Fig. 3 / Fig. 7 recomputation breakdown, normalized by the mean cost of
/// one work unit (CG iteration, submatrix multiplication/addition).
struct RecomputationBreakdown {
  double detect_seconds = 0.0;
  double resume_seconds = 0.0;
  double unit_seconds = 0.0;   ///< Normalizer.
  std::size_t units_lost = 0;      ///< Completed units destroyed by crashes.
  std::size_t partial_units = 0;   ///< Interrupted mid-unit and re-executed.
  std::size_t units_corrected = 0; ///< Repaired from checksums, not recomputed.
  std::size_t torn_chunks = 0;     ///< Detected torn-checkpoint chunks (a save
                                   ///< the crash interrupted, caught by the
                                   ///< chunk CRC/version headers in recovery).
  std::size_t salvaged_chunks = 0; ///< Torn-consistent chunks recovered forward
                                   ///< from an interrupted save instead of
                                   ///< rolling back to the prior version.
  double overlap_seconds = 0.0;    ///< Work-unit execution time spent while an
                                   ///< async checkpoint drain was in flight —
                                   ///< the device window hidden behind compute.

  // Multi-shard group recovery accounting (zero for single-rank runs).
  std::size_t shards_restored = 0;     ///< Victim shards reloaded from their slots.
  std::size_t epochs_rolled_back = 0;  ///< Global epochs lost to coordinator rollbacks.
  std::size_t units_replayed = 0;      ///< Victim-local shard units replayed from
                                       ///< retained exchange logs inside recover().
  std::size_t halo_bytes = 0;          ///< Exchange bytes re-fetched by those replays.

  // Silent-corruption (flip: plans) accounting — zero for fail-stop runs.
  std::size_t flips = 0;               ///< Injected silent bit-flip events.
  std::size_t flips_detected = 0;      ///< Caught by a checksum/invariant check.
  std::size_t flips_corrected = 0;     ///< ...and repaired in place (ABFT).
  std::size_t flips_miscorrected = 0;  ///< In-place repairs that still failed verify.
  std::size_t detect_latency_units = 0;///< Work units between injection and detection.

  /// The paper's "iterations lost" count: destroyed + interrupted units.
  std::size_t units_redone() const { return units_lost + partial_units; }

  double detect_normalized() const { return unit_seconds > 0 ? detect_seconds / unit_seconds : 0; }
  double resume_normalized() const { return unit_seconds > 0 ? resume_seconds / unit_seconds : 0; }
  double total_normalized() const { return detect_normalized() + resume_normalized(); }
};

}  // namespace adcc::core
