// Umbrella header for the ADCC library — algorithm-directed crash consistency
// in non-volatile memory for HPC (reproduction of Yang et al., CLUSTER 2017).
//
// Layered API:
//   adcc::memsim     — crash emulator (cache model + dual-image regions); the
//                      alg-* engines run under it with cache_mb, through
//                      core::FaultSurface
//   adcc::nvm        — flush primitives, NVM perf throttle, arenas, DRAM cache
//   adcc::pmemtx     — undo-log transactions (PMEM-library baseline)
//   adcc::checkpoint — disk/NVM/hetero checkpoint backends
//   adcc::linalg     — CSR/dense kernels, SPD generator
//   adcc::abft       — checksum encodings, verification and correction
//   adcc::cg         — CG solver and its seven-mode adapter (Fig. 2 history
//                      arrays in the alg-* engine)
//   adcc::mm         — ABFT-MM: seven-mode adapter (Fig. 6 two-loop
//                      algorithm in the alg-* engine)
//   adcc::mc         — XSBench-equivalent MC: seven-mode adapter (basic or
//                      selective flushing in the alg-* engine)
//   adcc::core       — the seven evaluation modes, harness, reporting, and the
//                      Workload/Scenario layer: core::Workload (polymorphic
//                      workload interface), core::WorkloadRegistry (name →
//                      factory, self-registering), core::ScenarioRunner
//                      (workload × mode × CrashScenario driver behind the
//                      `adccbench` CLI). Workload adapters live next to their
//                      algorithms: cg::CgWorkload, mm::MmWorkload,
//                      mc::McWorkload.
#pragma once

#include "abft/checksum.hpp"
#include "cg/cg.hpp"
#include "cg/cg_workload.hpp"
#include "checkpoint/backend.hpp"
#include "checkpoint/checkpoint_set.hpp"
#include "checkpoint/file_backend.hpp"
#include "checkpoint/hetero_backend.hpp"
#include "checkpoint/nvm_backend.hpp"
#include "common/align.hpp"
#include "common/check.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/fault.hpp"
#include "core/harness.hpp"
#include "core/modes.hpp"
#include "core/registry.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/workload.hpp"
#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "linalg/gemm.hpp"
#include "linalg/spgen.hpp"
#include "linalg/vec_ops.hpp"
#include "mc/mc_ckpt.hpp"
#include "mc/mc_workload.hpp"
#include "mc/tally.hpp"
#include "mc/xs_data.hpp"
#include "mc/xs_kernel.hpp"
#include "memsim/cache.hpp"
#include "memsim/crash.hpp"
#include "memsim/memsim.hpp"
#include "mm/mm_workload.hpp"
#include "nvm/dram_cache.hpp"
#include "nvm/flush.hpp"
#include "nvm/nvm_region.hpp"
#include "nvm/perf_model.hpp"
#include "pmemtx/pheap.hpp"
#include "pmemtx/tx.hpp"
#include "pmemtx/undo_log.hpp"
