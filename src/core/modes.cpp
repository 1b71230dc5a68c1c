#include "core/modes.hpp"

#include "checkpoint/file_backend.hpp"
#include "checkpoint/hetero_backend.hpp"
#include "checkpoint/nvm_backend.hpp"
#include "common/check.hpp"

namespace adcc::core {

std::string mode_name(Mode m) {
  switch (m) {
    case Mode::kNative: return "native";
    case Mode::kCkptDisk: return "ckpt-disk";
    case Mode::kCkptNvm: return "ckpt-nvm";
    case Mode::kCkptHetero: return "ckpt-nvm/dram";
    case Mode::kPmemTx: return "pmem-tx";
    case Mode::kAlgNvm: return "alg-nvm";
    case Mode::kAlgHetero: return "alg-nvm/dram";
  }
  ADCC_CHECK(false, "unknown mode");
}

std::vector<Mode> all_modes() {
  return {Mode::kNative,     Mode::kCkptDisk, Mode::kCkptNvm, Mode::kCkptHetero,
          Mode::kPmemTx,     Mode::kAlgNvm,   Mode::kAlgHetero};
}

std::optional<Mode> parse_mode(std::string_view name) {
  std::string key(name);
  for (char& c : key) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c == '_') c = '-';
  }
  for (Mode m : all_modes()) {
    if (key == mode_name(m)) return m;
  }
  if (key == "ckpt-hetero" || key == "ckpt-dram") return Mode::kCkptHetero;
  if (key == "alg-hetero" || key == "alg-dram") return Mode::kAlgHetero;
  if (key == "alg" || key == "adcc") return Mode::kAlgNvm;
  if (key == "ckpt" || key == "checkpoint") return Mode::kCkptNvm;
  if (key == "tx" || key == "pmem") return Mode::kPmemTx;
  return std::nullopt;
}

DurabilityKind durability_kind(Mode m) {
  switch (m) {
    case Mode::kNative: return DurabilityKind::kNone;
    case Mode::kCkptDisk:
    case Mode::kCkptNvm:
    case Mode::kCkptHetero: return DurabilityKind::kCheckpoint;
    case Mode::kPmemTx: return DurabilityKind::kTransaction;
    case Mode::kAlgNvm:
    case Mode::kAlgHetero: return DurabilityKind::kAlgorithm;
  }
  ADCC_CHECK(false, "unknown mode");
}

ModeEnv make_env(Mode mode, const ModeEnvConfig& cfg) {
  ModeEnv env;
  env.mode = mode;
  env.cfg = cfg;
  if (mode == Mode::kNative) return env;

  // NVM-only modes assume NVM as fast as DRAM (paper's optimistic
  // configuration); hetero modes throttle to 1/8 bandwidth.
  const bool hetero = mode == Mode::kCkptHetero || mode == Mode::kAlgHetero;
  nvm::PerfConfig pc;
  pc.dram_bw_bytes_per_s = cfg.dram_bw_bytes_per_s;
  pc.bandwidth_slowdown = hetero ? cfg.nvm_bandwidth_slowdown : 1.0;
  pc.enabled = hetero;
  env.perf = std::make_unique<nvm::PerfModel>(pc);

  if (mode != Mode::kCkptDisk) {
    env.region = std::make_unique<nvm::NvmRegion>(cfg.arena_bytes, *env.perf,
                                                  mode_name(mode) + ".arena");
  }
  if (hetero) {
    ADCC_CHECK(env.region != nullptr, "hetero modes need an arena");
    env.dram = std::make_unique<nvm::DramCache>(cfg.dram_cache_bytes, *env.region);
  }

  switch (mode) {
    case Mode::kCkptDisk: {
      checkpoint::FileBackendConfig fc;
      fc.directory = cfg.scratch_dir.empty()
                         ? std::filesystem::temp_directory_path() / "adcc_ckpt"
                         : cfg.scratch_dir;
      fc.throttle_bytes_per_s = cfg.disk_throttle_bytes_per_s;
      env.backend = std::make_unique<checkpoint::FileBackend>(fc);
      break;
    }
    case Mode::kCkptNvm:
      env.backend = std::make_unique<checkpoint::NvmBackend>(*env.region, cfg.slot_bytes);
      break;
    case Mode::kCkptHetero:
      env.backend =
          std::make_unique<checkpoint::HeteroBackend>(*env.region, *env.dram, cfg.slot_bytes);
      break;
    default:
      break;  // Tx and algorithm modes build workload-specific state on the arena.
  }
  if (env.backend) {
    checkpoint::ChunkConfig cc;
    cc.threads = cfg.ckpt_threads;
    cc.async = cfg.ckpt_async;
    cc.compress = cfg.ckpt_compress;
    cc.async_depth = cfg.ckpt_async_depth;
    cc.dirty_commit = cfg.ckpt_dirty_commit;
    env.backend->configure_chunks(cc);
  }
  return env;
}

}  // namespace adcc::core
