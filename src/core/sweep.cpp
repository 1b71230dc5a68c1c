#include "core/sweep.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/check.hpp"
#include "core/registry.hpp"
#include "core/telemetry.hpp"
#include "kernels/backend.hpp"
#include "kernels/threads.hpp"

namespace adcc::core {

namespace {

// Expansion guards: a mistyped range like n=1:64M would otherwise expand into
// millions of cells before the engine ever runs one.
constexpr std::size_t kMaxAxisValues = 4096;
constexpr std::size_t kMaxDeckCells = 100'000;

bool fail(std::string* error, std::string msg) {
  if (error) *error = std::move(msg);
  return false;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string_view::npos) return out;
    start = pos + 1;
  }
}

bool is_string_axis(std::string_view key) {
  return std::find(std::begin(kStringAxes), std::end(kStringAxes), key) != std::end(kStringAxes);
}

bool expand_string_token(std::string_view key, std::string_view tok,
                         std::vector<std::string>& out, std::string* error) {
  const std::string token(tok);
  if (key == "mode") {
    if (token == "all") {
      for (Mode m : all_modes()) out.push_back(mode_name(m));
      return true;
    }
    const auto m = parse_mode(token);
    if (!m) {
      std::string known;
      for (Mode k : all_modes()) known += " " + mode_name(k);
      return fail(error, "axis 'mode': unknown mode '" + token + "' (known:" + known + ")");
    }
    out.push_back(mode_name(*m));
    return true;
  }
  if (key == "workload") {
    auto& registry = WorkloadRegistry::instance();
    if (token == "all") {
      for (const auto& name : registry.names()) out.push_back(name);
      return true;
    }
    if (!registry.contains(token)) {
      return fail(error, "axis 'workload': unknown workload '" + token + "' (try --list)");
    }
    out.push_back(token);
    return true;
  }
  if (key == "crash") {
    const auto crash = parse_crash(token);
    if (!crash) {
      return fail(error, "axis 'crash': malformed crash plan '" + token +
                             "' (want none | step:K | random[:SEED] | repeat:N | access:N | "
                             "point:NAME[:K] | fuzz:SEED | flip:SEED[:BITS])");
    }
    out.push_back(crash_name(*crash));
    return true;
  }
  if (key == "backend") {
    // Eager validation against the registry: requesting a backend this build
    // did not compile (omp without -DADCC_OPENMP=ON) is a deck parse error,
    // not UB at run time.
    if (find_kernel_backend(token) == nullptr) {
      std::string built;
      for (const std::string& name : kernel_backend_names()) built += " " + name;
      return fail(error,
                  "axis 'backend': unknown kernel backend '" + token + "' (built:" + built + ")");
    }
    out.push_back(token);
    return true;
  }
  if (key == "ckpt_compress") {
    // Eager codec validation: a typo'd codec spec is a deck parse error, not
    // a per-cell failure row.
    checkpoint::CodecSpec spec;
    std::string why;
    if (!checkpoint::parse_codec(token, &spec, &why)) {
      return fail(error, "axis 'ckpt_compress': " + why);
    }
    out.push_back(token);
    return true;
  }
  // policy
  if (token != "basic" && token != "selective") {
    return fail(error, "axis 'policy': want basic | selective, got '" + token + "'");
  }
  out.push_back(token);
  return true;
}

bool expand_numeric_token(std::string_view key, std::string_view tok,
                          std::vector<std::string>& out, std::string* error) {
  const std::string context = "axis '" + std::string(key) + "'";
  if (tok.find(':') == std::string_view::npos) {
    out.push_back(std::string(tok));  // Literal (numeric or not) — pass through.
    return true;
  }
  const auto parts = split(tok, ':');
  if (parts.size() > 3) {
    return fail(error, context + ": range '" + std::string(tok) +
                           "' has more than three ':'-separated fields");
  }
  const auto lo = parse_size(parts[0]);
  const auto hi = parse_size(parts[1]);
  if (!lo || !hi) {
    return fail(error, context + ": range bounds in '" + std::string(tok) +
                           "' must be sizes (123, 4K, 1M, ...)");
  }
  if (*hi < *lo) {
    return fail(error, context + ": empty range '" + std::string(tok) + "' (hi < lo)");
  }

  std::size_t step = 1;
  std::size_t factor = 0;  // 0 = additive.
  if (parts.size() == 3) {
    std::string_view sp = parts[2];
    if (!sp.empty() && (sp.front() == 'x' || sp.front() == 'X')) {
      sp.remove_prefix(1);
      std::uint64_t f = 0;
      const auto [ptr, ec] = std::from_chars(sp.data(), sp.data() + sp.size(), f);
      if (ec != std::errc() || ptr != sp.data() + sp.size() || f < 2) {
        return fail(error, context + ": geometric step in '" + std::string(tok) +
                               "' must be xF with integer F >= 2");
      }
      factor = static_cast<std::size_t>(f);
      if (*lo == 0) {
        return fail(error, context + ": geometric range needs lo >= 1");
      }
    } else {
      const auto s = parse_size(sp);
      if (!s || *s == 0) {
        return fail(error, context + ": step in '" + std::string(tok) +
                               "' must be a size >= 1 or xF");
      }
      step = *s;
    }
  }

  for (std::size_t v = *lo;;) {
    out.push_back(std::to_string(v));
    if (out.size() > kMaxAxisValues) {
      return fail(error, context + ": range '" + std::string(tok) + "' expands past " +
                             std::to_string(kMaxAxisValues) + " values");
    }
    if (factor != 0) {
      if (v > *hi / factor) break;  // Next value would pass hi (or overflow).
      v *= factor;
    } else {
      if (*hi - v < step) break;
      v += step;
    }
  }
  return true;
}

bool valid_axis_key(std::string_view key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::optional<SweepAxis> make_axis(std::string_view key, std::string_view values,
                                   std::string* error) {
  SweepAxis axis;
  axis.key = std::string(trim(key));
  if (!valid_axis_key(axis.key)) {
    fail(error, "bad axis key '" + std::string(key) + "' (want [a-z0-9_]+)");
    return std::nullopt;
  }
  const std::string_view spec = trim(values);
  if (spec.empty()) {
    fail(error, "axis '" + axis.key + "' has no values");
    return std::nullopt;
  }
  for (const std::string_view raw : split(spec, '+')) {
    const std::string_view tok = trim(raw);
    if (tok.empty()) {
      fail(error, "axis '" + axis.key + "' has an empty '+'-separated token");
      return std::nullopt;
    }
    const bool ok = is_string_axis(axis.key)
                        ? expand_string_token(axis.key, tok, axis.values, error)
                        : expand_numeric_token(axis.key, tok, axis.values, error);
    if (!ok) return std::nullopt;
    if (axis.values.size() > kMaxAxisValues) {
      fail(error, "axis '" + axis.key + "' expands past " + std::to_string(kMaxAxisValues) +
                      " values");
      return std::nullopt;
    }
  }
  return axis;
}

std::optional<SweepSpec> parse_sweep(std::string_view spec, std::string* error) {
  SweepSpec out;
  if (trim(spec).empty()) {
    fail(error, "empty sweep spec");
    return std::nullopt;
  }
  for (const std::string_view raw : split(spec, ',')) {
    const std::string_view part = trim(raw);
    if (part.empty()) {
      fail(error, "empty axis (stray ',')");
      return std::nullopt;
    }
    const auto eq = part.find('=');
    if (eq == std::string_view::npos) {
      fail(error, "axis '" + std::string(part) + "' is missing '='");
      return std::nullopt;
    }
    auto axis = make_axis(part.substr(0, eq), part.substr(eq + 1), error);
    if (!axis) return std::nullopt;
    if (out.find(axis->key) != nullptr) {
      fail(error, "duplicate axis '" + axis->key + "'");
      return std::nullopt;
    }
    out.axes.push_back(std::move(*axis));
  }
  if (out.cells() > kMaxDeckCells) {
    fail(error, "deck expands to " + std::to_string(out.cells()) + " cells (cap " +
                    std::to_string(kMaxDeckCells) + ")");
    return std::nullopt;
  }
  return out;
}

std::size_t SweepSpec::cells() const {
  std::size_t n = 1;
  for (const SweepAxis& axis : axes) {
    // Saturate instead of overflowing; parse_sweep rejects anything over the
    // deck cap anyway.
    if (axis.values.size() != 0 && n > kMaxDeckCells) return n;
    n *= std::max<std::size_t>(1, axis.values.size());
  }
  return n;
}

const SweepAxis* SweepSpec::find(std::string_view key) const {
  for (const SweepAxis& axis : axes) {
    if (axis.key == key) return &axis;
  }
  return nullptr;
}

std::vector<std::pair<std::string, std::string>> SweepSpec::assignment(
    std::size_t index) const {
  ADCC_CHECK(index < cells(), "sweep cell index out of range");
  std::vector<std::pair<std::string, std::string>> out(axes.size());
  // First axis slowest-varying. Strides accumulate from the last (fastest)
  // axis inward, independent of cells() — which saturates past the deck cap.
  std::size_t stride = 1;
  for (std::size_t i = axes.size(); i-- > 0;) {
    const SweepAxis& axis = axes[i];
    out[i] = {axis.key, axis.values[(index / stride) % axis.values.size()]};
    stride *= axis.values.size();
  }
  return out;
}

std::string SweepSpec::canonical() const {
  std::string out;
  for (const SweepAxis& axis : axes) {
    if (!out.empty()) out += ',';
    out += axis.key;
    out += '=';
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i != 0) out += '+';
      out += axis.values[i];
    }
  }
  return out;
}

namespace {

/// Values memoized across deck cells sharing a problem shape (native
/// baselines, fuzz probes), safe under concurrent workers: the first cell to
/// ask computes, the rest block on a shared future (a failed computation
/// rethrows into every waiting cell).
template <typename V>
class SharedCache {
 public:
  V get_or_compute(const std::string& key, const std::function<V()>& fn) {
    std::promise<V> promise;
    std::shared_future<V> future;
    bool owner = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it == cache_.end()) {
        future = promise.get_future().share();
        cache_.emplace(key, future);
        owner = true;
      } else {
        future = it->second;
      }
    }
    if (owner) {
      try {
        promise.set_value(fn());
      } catch (...) {
        promise.set_exception(std::current_exception());
      }
    }
    return future.get();
  }

  /// Seeds `key` with an already-measured value (a native/none cell offering
  /// its own run as the shape's baseline). Returns the stored value — the
  /// offered one, or an earlier cell's if it won the race.
  V put_or_get(const std::string& key, V value) {
    std::shared_future<V> future;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = cache_.find(key);
      if (it == cache_.end()) {
        std::promise<V> promise;
        promise.set_value(value);
        cache_.emplace(key, promise.get_future().share());
        return value;
      }
      future = it->second;
    }
    return future.get();
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::shared_future<V>> cache_;
};

using BaselineCache = SharedCache<double>;
using FuzzBoundaries = std::shared_ptr<const std::vector<std::uint64_t>>;
using FuzzProbeCache = SharedCache<FuzzBoundaries>;

ScenarioConfig cell_config(const Workload& workload, Mode mode, const CrashScenario& crash,
                           const Options& opts, const std::filesystem::path& scratch) {
  ScenarioConfig sc;
  sc.mode = mode;
  sc.crash = crash;
  sc.env.scratch_dir = scratch;
  sc.env.disk_throttle_bytes_per_s = opts.get_double("disk_mbps", 150.0) * 1e6;
  // Durability-engine knobs, sweepable like any other axis.
  sc.env.ckpt_threads = std::max(1, static_cast<int>(opts.get_int("ckpt_threads", 1)));
  sc.env.ckpt_async = opts.get_bool("ckpt_async");
  if (opts.has("ckpt_compress")) {
    std::string why;
    ADCC_CHECK(checkpoint::parse_codec(opts.get("ckpt_compress", "none"),
                                       &sc.env.ckpt_compress, &why),
               ("bad --ckpt_compress: " + why).c_str());
  }
  sc.env.ckpt_async_depth = std::max(1, static_cast<int>(opts.get_int("ckpt_async_depth", 1)));
  sc.env.ckpt_dirty_commit = opts.get_bool("ckpt_dirty_commit");
  ADCC_CHECK(!sc.env.ckpt_dirty_commit || opts.get_size("shards", 1) <= 1,
             "--ckpt_dirty_commit is incompatible with shards > 1 (coordinated "
             "rollback needs exactly-committed slot versions)");
  workload.tune_env(mode, sc.env);
  sc.reps = std::max(1, static_cast<int>(opts.get_int("reps", 1)));
  sc.warmup = opts.get_bool("warmup", false);
  sc.verify = opts.get_bool("verify", true);
  return sc;
}

/// The baseline is a function of everything except the durability-only axes:
/// mode and crash are forced to native/none in the baseline run, policy and
/// cache_mb (dropped from its options) only configure the alg-* engines the
/// native run never executes, and the checkpoint-engine knobs
/// (threads/async/codec, the disk device model) configure a backend the
/// native run never builds. Cells differing only in those share one
/// baseline — which also keeps self-relative gates (e.g. the ckpt_async
/// overhead ratio) free of native-measurement noise between cells.
/// The shard axes also drop out: the native baseline of a sharded cell is the
/// single-rank run of the same problem, so "shards=4 overhead" is measured
/// against the same denominator as "shards=1 overhead". Likewise the compute
/// axes (backend/threads): baselines always run on the serial backend, so a
/// backend=serial+omp,threads=1:8:x2 deck shares ONE native baseline per shape
/// and every speedup/overhead ratio uses the same denominator.
std::string baseline_key(const std::string& workload,
                         const std::vector<std::pair<std::string, std::string>>& assignment) {
  std::string key = workload;
  for (const auto& [k, v] : assignment) {
    if (k == "mode" || k == "crash" || k == "policy" || k == "cache_mb" ||
        k == "ckpt_threads" || k == "ckpt_async" || k == "ckpt_compress" ||
        k == "ckpt_async_depth" || k == "ckpt_dirty_commit" || k == "disk_mbps" ||
        k == "shards" || k == "backend" || k == "threads") {
      continue;
    }
    key += '\x1f' + k + '=' + v;
  }
  return key;
}

SweepCellResult run_cell(const SweepSpec& spec, const SweepConfig& cfg, std::size_t index,
                         const std::filesystem::path& scratch_root, BaselineCache& baselines,
                         FuzzProbeCache& fuzz_probes) {
  SweepCellResult cell;
  cell.index = index;
  cell.assignment = spec.assignment(index);

  Options opts = cfg.base;
  for (const auto& [k, v] : cell.assignment) opts.set(k, v);
  cell.workload = opts.get("workload", "cg");
  cell.mode_label = opts.get("mode", "native");
  cell.crash_label = opts.get("crash", "none");

  try {
    const auto mode = parse_mode(cell.mode_label);
    ADCC_CHECK(mode.has_value(), "sweep cell needs a single resolvable mode");
    const auto crash = parse_crash(cell.crash_label);
    ADCC_CHECK(crash.has_value(), "sweep cell has a malformed crash plan");
    cell.mode_label = mode_name(*mode);
    cell.crash_label = crash_name(*crash);

    // Per-worker OpenMP team sizing: the scope sets the calling thread's ICV
    // (so concurrent workers sweeping a `threads` axis don't stomp each other)
    // and restores the previous value when the cell ends — a threads axis
    // can't leak into later cells or whatever runs after the deck.
    const ScopedOmpThreads thread_scope(
        opts.has("threads") ? std::max(1, static_cast<int>(opts.get_int("threads", 1))) : 0);

    auto& registry = WorkloadRegistry::instance();
    const auto workload = registry.create(cell.workload, opts);
    const std::filesystem::path scratch = scratch_root / ("cell" + std::to_string(index));
    ScenarioConfig sc = cell_config(*workload, *mode, *crash, opts, scratch);
    // Only the main scenario gets the cell's backend: cell_config is shared
    // with the baseline and fuzz-probe configs below, which must stay serial
    // (null = the serial default) so backends share one native baseline.
    const std::string backend_name = opts.get("backend", "serial");
    sc.backend = &kernel_backend(backend_name);

    // Per-cell stage-timer registry (the baseline and fuzz-probe runs below
    // use their own ScenarioConfigs and stay unbound, so the memoized native
    // baseline is never perturbed by telemetry).
    std::optional<Telemetry> telemetry;
    if (cfg.telemetry || cfg.trace != nullptr) {
      telemetry.emplace();
      telemetry->set_trace(cfg.trace);
      sc.telemetry = &*telemetry;
      sc.telemetry_label = "cell" + std::to_string(index);
    }

    // A crash-free native cell IS its shape's baseline: it offers its own
    // measurement to the cache (normalized 1.000) instead of paying a second
    // native run. Every other cell fetches (or computes) the shared baseline.
    const bool want_baseline = cfg.baseline && !opts.get_bool("no_baseline");
    // Sharded native cells don't self-seed the cache: the shared baseline is
    // the SINGLE-RANK native run (shards is not part of the baseline key), so
    // a shards=4 native measurement under the shards-agnostic key would skew
    // every sibling's overhead column.
    // ... and only a SERIAL-backend cell may self-seed: backend/threads drop
    // out of the baseline key (one native baseline per shape), so an omp
    // native measurement under the backend-agnostic key would skew every
    // sibling's speedup/overhead column.
    const bool self_baseline = want_baseline && *mode == Mode::kNative &&
                               crash->kind == CrashScenario::Kind::kNone &&
                               opts.get_size("shards", 1) <= 1 && backend_name == "serial";
    const std::string shape = baseline_key(cell.workload, cell.assignment);
    if (want_baseline && !self_baseline) {
      cell.native_seconds = baselines.get_or_compute(shape, [&] {
        Options bopts = opts;
        bopts.set("shards", "1").erase("cache_mb").erase("policy");
        const auto native = registry.create(cell.workload, bopts);
        ScenarioConfig nc = cell_config(*native, Mode::kNative, {}, bopts, scratch);
        nc.verify = false;
        return run_scenario(*native, nc).seconds;
      });
    }
    sc.native_seconds = cell.native_seconds;

    // Fuzz plans need one untimed probe of the per-unit access boundaries.
    // The boundaries depend on everything BUT the crash plan (unlike the
    // native baseline they run under the cell's real mode and policy), so the
    // probe key keeps every other axis — and a crash=fuzz:A+fuzz:B+... axis
    // shares a single probe per cell shape instead of paying one probe
    // repetition per seed.
    if (crash->kind == CrashScenario::Kind::kFuzz ||
        crash->kind == CrashScenario::Kind::kFlip) {
      std::string probe_key = cell.workload + '\x1f' + cell.mode_label;
      for (const auto& [k, v] : cell.assignment) {
        if (k == "workload" || k == "mode" || k == "crash") continue;
        probe_key += '\x1f' + k + '=' + v;
      }
      sc.fuzz_boundaries =
          fuzz_probes.get_or_compute(probe_key, [&] {
            const auto probe = registry.create(cell.workload, opts);
            ScenarioConfig pc = cell_config(*probe, *mode, {}, opts, scratch);
            return std::make_shared<const std::vector<std::uint64_t>>(
                probe_fuzz_boundaries(*probe, *mode, pc.env));
          });
    }

    cell.result = ScenarioRunner(*workload, sc).run();
    if (telemetry) {
      cell.telemetry = true;
      cell.t_stage = telemetry->seconds("ckpt/stage");
      cell.t_crc = telemetry->seconds("ckpt/crc");
      cell.t_comp = telemetry->seconds("ckpt/compress");
      cell.t_io = telemetry->seconds("ckpt/queue");
      cell.t_drain = telemetry->seconds("ckpt/drain");
      cell.t_kernel = telemetry->prefix_seconds("kernel/");
      cell.t_spmv = telemetry->seconds("kernel/spmv");
      cell.t_gemm = telemetry->seconds("kernel/gemm");
      cell.t_xs = telemetry->seconds("kernel/xs");
    }
    if (self_baseline) {
      cell.native_seconds = baselines.put_or_get(shape, cell.result.seconds);
      cell.result.time = normalize(cell.result.seconds, cell.native_seconds);
    }
    // Flip cells stay "ok" when the outcome is an *accounted* silent-fault
    // result: an undefended mode missing the corruption entirely (the honest
    // miss — flips > 0, detected == 0) or an in-place repair that verify
    // exposes as a miscorrection (the miscorr column carries it). A
    // detected-and-rolled-back flip, by contrast, must end verified —
    // rollback restores pre-corruption state — so a verify failure there is
    // a genuine engine fault, not a measured outcome.
    const RecomputationBreakdown& rb = cell.result.recomputation;
    const bool accounted_flip_outcome =
        rb.flips > 0 && (rb.flips_detected == 0 || rb.flips_corrected > 0);
    cell.status =
        cell.result.verify_ran && !cell.result.verified && !accounted_flip_outcome
            ? SweepCellResult::Status::kVerifyFailed
            : SweepCellResult::Status::kOk;
  } catch (const std::exception& e) {
    cell.status = SweepCellResult::Status::kError;
    cell.error = e.what();
  }
  return cell;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec, const SweepConfig& cfg) {
  SweepResult out;
  out.spec = spec;
  const std::size_t n = spec.cells();
  // parse_sweep enforces this for user-written specs, but callers can grow a
  // parsed spec (adccbench injects workload/mode/crash axes afterwards).
  ADCC_CHECK(n <= kMaxDeckCells, "sweep deck expands past the cell cap");
  out.cells.resize(n);

  const std::filesystem::path scratch_root =
      cfg.scratch_root.empty()
          ? std::filesystem::temp_directory_path() / ("adcc_sweep." + std::to_string(::getpid()))
          : cfg.scratch_root;

  BaselineCache baselines;
  FuzzProbeCache fuzz_probes;
  const int jobs = std::max(1, std::min<int>(cfg.jobs, static_cast<int>(n)));
  if (jobs == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      out.cells[i] = run_cell(spec, cfg, i, scratch_root, baselines, fuzz_probes);
    }
  } else {
    // Results land in deck order regardless of which worker ran which cell, so
    // the emitted table is independent of scheduling.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
          out.cells[i] = run_cell(spec, cfg, i, scratch_root, baselines, fuzz_probes);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }

  // Cell scratch dirs are removed by their FileBackends (when empty); drop the
  // root too if nothing is left in it.
  std::error_code ec;
  std::filesystem::remove(scratch_root, ec);
  return out;
}

bool SweepResult::all_ok() const {
  return count(SweepCellResult::Status::kOk) == cells.size();
}

std::size_t SweepResult::count(SweepCellResult::Status s) const {
  std::size_t n = 0;
  for (const SweepCellResult& cell : cells) n += cell.status == s ? 1 : 0;
  return n;
}

Table SweepResult::table(bool timing) const {
  std::vector<std::string> headers = {"cell", "workload", "mode", "crash"};
  std::vector<std::string> extra;  // Non-core axis columns, in spec order.
  for (const SweepAxis& axis : spec.axes) {
    if (axis.key != "workload" && axis.key != "mode" && axis.key != "crash") {
      extra.push_back(axis.key);
      headers.push_back(axis.key);
    }
  }
  for (const char* h : {"units", "seconds", "normalized", "overhead", "lost", "partial",
                        "corrected", "torn", "salvaged", "overlap", "detect/unit",
                        "resume/unit", "victims", "epochs_rb", "replayed", "halo_kb",
                        "flips", "detected", "detect_lat", "miscorr",
                        "t_stage", "t_crc", "t_comp", "t_io", "t_drain", "t_kernel", "t_spmv",
                        "t_gemm", "t_xs", "status"}) {
    headers.emplace_back(h);
  }

  Table table(std::move(headers));
  for (const SweepCellResult& cell : cells) {
    std::vector<std::string> row = {std::to_string(cell.index), cell.workload,
                                    cell.mode_label, cell.crash_label};
    for (const std::string& key : extra) {
      std::string value = "-";
      for (const auto& [k, v] : cell.assignment) {
        if (k == key) value = v;
      }
      row.push_back(std::move(value));
    }
    if (cell.status == SweepCellResult::Status::kError) {
      for (int i = 0; i < 29; ++i) row.emplace_back("-");
      row.push_back("ERROR: " + cell.error);
    } else {
      const ScenarioResult& res = cell.result;
      const RecomputationBreakdown& rb = res.recomputation;
      const bool normalized = timing && cell.native_seconds > 0;
      row.push_back(std::to_string(res.work_units));
      row.push_back(timing ? Table::fmt(res.seconds, 4) : "-");
      row.push_back(normalized ? Table::fmt(res.time.normalized, 3) : "-");
      row.push_back(normalized ? Table::fmt(res.time.overhead_percent(), 1) + "%" : "-");
      row.push_back(std::to_string(rb.units_lost));
      row.push_back(std::to_string(rb.partial_units));
      row.push_back(std::to_string(rb.units_corrected));
      row.push_back(std::to_string(rb.torn_chunks));
      row.push_back(std::to_string(rb.salvaged_chunks));
      // Wall-clock-derived like seconds: blanked under --no_timing so serial
      // and parallel decks stay byte-identical.
      row.push_back(timing && rb.overlap_seconds > 0 ? Table::fmt(rb.overlap_seconds, 4) : "-");
      row.push_back(timing && res.crashes > 0 ? Table::fmt(rb.detect_normalized(), 2) : "-");
      row.push_back(timing && res.crashes > 0 ? Table::fmt(rb.resume_normalized(), 2) : "-");
      // Shard-group recovery accounting: pure counts (and a byte count), so
      // they stay populated — and deterministic — under --no_timing.
      row.push_back(std::to_string(rb.shards_restored));
      row.push_back(std::to_string(rb.epochs_rolled_back));
      row.push_back(std::to_string(rb.units_replayed));
      row.push_back(Table::fmt(static_cast<double>(rb.halo_bytes) / 1024.0, 1));
      // Silent-flip accounting: pure counts (deterministic in the flip seed),
      // so they stay populated under --no_timing. Latency is only meaningful
      // once something detected the flip.
      row.push_back(std::to_string(rb.flips));
      row.push_back(std::to_string(rb.flips_detected));
      row.push_back(rb.flips_detected > 0 ? std::to_string(rb.detect_latency_units) : "-");
      row.push_back(std::to_string(rb.flips_miscorrected));
      // Stage breakdown: wall-clock-derived, so blanked under --no_timing
      // (byte-equality) and when the deck ran without telemetry.
      const bool stages = timing && cell.telemetry;
      row.push_back(stages ? Table::fmt(cell.t_stage, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_crc, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_comp, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_io, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_drain, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_kernel, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_spmv, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_gemm, 4) : "-");
      row.push_back(stages ? Table::fmt(cell.t_xs, 4) : "-");
      row.push_back(cell.status == SweepCellResult::Status::kOk ? "ok" : "FAIL:verify");
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace adcc::core
