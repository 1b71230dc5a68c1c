// Example — crash-consistent ABFT matrix multiplication (paper Fig. 6).
//
// Runs the mm workload's two-loop checksum-flushing engine under the crash
// emulator, crashes during the submatrix-multiplication loop, and lets the
// checksums classify every temporal matrix as consistent / correctable /
// lost. Also demonstrates pure checksum *correction*: a seeded silent bit
// flip in a temporal matrix is caught by its checksums and repaired in place.
//
//   build/examples/abft_matmul [--n=512] [--rank=64] [--crash_panel=3] [--cache_kb=2048]
#include <cstdio>

#include "core/adcc.hpp"

using namespace adcc;

namespace {

core::ScenarioResult run(mm::MmWorkload& w, const std::string& crash) {
  core::ScenarioConfig sc;
  sc.mode = core::Mode::kAlgNvm;
  sc.crash = core::parse_crash_or_throw(crash);
  sc.verify = true;
  w.tune_env(sc.mode, sc.env);
  return core::run_scenario(w, sc);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  mm::MmWorkloadConfig cfg;
  cfg.n = static_cast<std::size_t>(opts.get_int("n", 512));
  cfg.rank_k = static_cast<std::size_t>(opts.get_int("rank", 64));
  cfg.seed_a = 1;
  cfg.seed_b = 2;
  cfg.cache_bytes = static_cast<std::size_t>(opts.get_int("cache_kb", 2048)) << 10;
  cfg.cache_ways = 8;
  const auto crash_panel = static_cast<std::uint64_t>(opts.get_int("crash_panel", 3));

  std::printf("crash-consistent ABFT GEMM: n=%zu, rank=%zu, crash after panel %llu\n\n", cfg.n,
              cfg.rank_k, static_cast<unsigned long long>(crash_panel));

  mm::MmWorkload mm(cfg);
  std::printf("loop 1 computes %zu temporal full-checksum matrices of %zu x %zu\n",
              mm.num_panels(), cfg.n + 1, cfg.n + 1);
  const core::ScenarioResult res =
      run(mm, std::string("point:") + mm::MmWorkload::kPointMultEnd + ":" +
                  std::to_string(crash_panel));
  const auto& rb = res.recomputation;
  std::printf("*** simulated crash at the end of submatrix multiplication %llu, before its\n"
              "    checksum flush ***\n",
              static_cast<unsigned long long>(crash_panel));
  std::printf("recovery: checksum verification over the NVM image classified the\n");
  std::printf("          temporal matrices; %zu recomputed, %zu corrected in place,\n",
              rb.units_lost, rb.units_corrected);
  std::printf("          plus the interrupted multiplication (%zu)\n", rb.partial_units);
  std::printf("          detect %.4fs, catch-up %.4fs (one unit: %.4fs)\n", rb.detect_seconds,
              rb.resume_seconds, rb.unit_seconds);
  std::printf("product verified after recovery: %s\n\n", res.verified ? "yes" : "NO");

  // Bonus: pure checksum correction, no recomputation at all — a seeded bit
  // flip in one temporal-matrix element, on the host-memory arena. At the
  // default shape the seed lands in a mantissa bit the checksums can repair;
  // other seeds (or shapes) hit exponent bits or checksum lines, which are
  // detected and recomputed instead, or low bits below the tolerance.
  cfg.cache_bytes = 0;
  mm::MmWorkload mm2(cfg);
  const core::ScenarioResult res2 = run(mm2, "flip:7");
  const auto& rb2 = res2.recomputation;
  std::printf("fault injection: %llu bit flip(s), %llu detected -> %zu unit(s) repaired\n"
              "purely from checksums (recomputed: %zu); product verified: %s\n",
              static_cast<unsigned long long>(rb2.flips),
              static_cast<unsigned long long>(rb2.flips_detected), rb2.units_corrected,
              rb2.units_lost, res2.verified ? "yes" : "NO");
  return res.verified && res2.verified ? 0 : 1;
}
