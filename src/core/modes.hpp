// The paper's seven evaluation configurations (§III-A) as a first-class enum,
// plus a factory assembling the substrate stack each mode needs.
//
//   1. kNative     — no durability mechanism at all
//   2. kCkptDisk   — checkpoint to a local hard drive
//   3. kCkptNvm    — checkpoint into NVM-only main memory (NVM as fast as DRAM)
//   4. kCkptHetero — checkpoint into heterogeneous NVM/DRAM (NVM at 1/8 DRAM
//                    bandwidth, 32 MB DRAM cache in front)
//   5. kPmemTx     — Intel-PMEM-style undo-log transactions on NVM-only
//   6. kAlgNvm     — algorithm-directed approach on NVM-only
//   7. kAlgHetero  — algorithm-directed approach on heterogeneous NVM/DRAM
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint/backend.hpp"
#include "nvm/dram_cache.hpp"
#include "nvm/nvm_region.hpp"

namespace adcc::core {

enum class Mode {
  kNative,
  kCkptDisk,
  kCkptNvm,
  kCkptHetero,
  kPmemTx,
  kAlgNvm,
  kAlgHetero,
};

std::string mode_name(Mode m);
std::vector<Mode> all_modes();

/// Inverse of mode_name: round-trips every all_modes() spelling and accepts
/// forgiving variants (case-insensitive, '_' for '-', "ckpt-hetero" /
/// "alg-hetero" for the "...-nvm/dram" names). nullopt on unknown names.
std::optional<Mode> parse_mode(std::string_view name);

/// The four durability-mechanism families behind the seven modes; workload
/// adapters dispatch their per-mode engines on this instead of re-mapping the
/// Mode enum themselves.
enum class DurabilityKind { kNone, kCheckpoint, kTransaction, kAlgorithm };
DurabilityKind durability_kind(Mode m);

/// Substrate sizing for make_env: arena/slot capacities, device models, and
/// the durability-engine knobs (all sweepable through the CLI).
struct ModeEnvConfig {
  std::size_t arena_bytes = 64u << 20;   ///< NVM arena capacity.
  std::size_t slot_bytes = 16u << 20;    ///< Per-slot checkpoint capacity.
  std::filesystem::path scratch_dir;     ///< For kCkptDisk (default: tmp).
  double nvm_bandwidth_slowdown = 8.0;   ///< Hetero modes (paper: 8).
  double dram_bw_bytes_per_s = 0.0;      ///< 0 → calibrate with a memcpy sweep.
  double disk_throttle_bytes_per_s = 150e6;
  std::size_t dram_cache_bytes = 32u << 20;  ///< Paper: 32 MB.
  int ckpt_threads = 1;                      ///< --ckpt_threads (write pipeline).
  /// --ckpt_async: checkpoint saves stage + drain in the background, so the
  /// next work unit overlaps the device window (sweepable axis ckpt_async=0+1).
  bool ckpt_async = false;
  /// --ckpt_compress: per-chunk payload codec applied on the pipeline workers
  /// before the device-bandwidth queue ("none", "lz", "lz:LEVEL").
  checkpoint::CodecSpec ckpt_compress;
  /// --ckpt_async_depth: staging-arena ring depth for asynchronous saves.
  int ckpt_async_depth = 1;
  /// --ckpt_dirty_commit: mostly-clean images rewrite only dirty chunks in
  /// place (epoch-stamping the clean ones) instead of alternating whole
  /// slots. Rejected for multi-shard groups (coordinated rollback needs
  /// exactly-committed slot versions).
  bool ckpt_dirty_commit = false;
};

/// Everything a mode needs, wired together. Members not used by the mode stay
/// null (e.g. no NVM arena in kNative, no backend in kAlgNvm).
struct ModeEnv {
  Mode mode = Mode::kNative;
  /// The sizing this env was built from. Multi-shard groups derive their
  /// per-shard sub-envs from it (same knobs, per-shard scratch namespaces).
  ModeEnvConfig cfg;
  std::unique_ptr<nvm::PerfModel> perf;
  std::unique_ptr<nvm::NvmRegion> region;
  std::unique_ptr<nvm::DramCache> dram;
  std::unique_ptr<checkpoint::Backend> backend;
};

ModeEnv make_env(Mode mode, const ModeEnvConfig& cfg);

}  // namespace adcc::core
