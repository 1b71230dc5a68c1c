// Minimal CLI option parsing for the benchmark/example binaries.
//
// Syntax: --key=value or --flag. Unrecognized positional arguments are an
// error; benchmarks opt into a "quick" mode via --quick for CI runs.
//
// Binaries document their keys with doc() once after parsing; --help output is
// then generated from the registered keys (maybe_print_help), so the flag list
// printed to the user and the flag list the code reads cannot drift apart, and
// reject_undocumented() refuses any other key, so a misspelt flag cannot
// silently run the default configuration.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace adcc {

/// Parses "64M", "1G", "4k", "123" into bytes (binary suffixes K/M/G/T,
/// case-insensitive, optional trailing 'b'/'B'). nullopt on malformed input.
std::optional<std::size_t> parse_size(std::string_view text);

class Options {
 public:
  Options() = default;
  /// Parses argv; throws ContractViolation on malformed arguments.
  Options(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  /// Integer / floating-point values. The whole value must parse: trailing
  /// characters, an empty value or a non-number throw ContractViolation
  /// naming the key and the value.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// "0", "false", "off" and "no" are falsey; any other value is true.
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Size in bytes (or any count) with K/M/G/T suffix support: --lookups=1M.
  /// Throws ContractViolation on malformed values.
  std::size_t get_size(const std::string& key, std::size_t fallback) const;

  /// Sets (or overrides) a key programmatically — how the sweep engine overlays
  /// one deck cell's axis assignment onto the base CLI options. Chainable.
  Options& set(std::string key, std::string value);

  /// Removes a key (a no-op when absent) — how the sweep engine drops the
  /// keys a cell's native baseline run cannot use. Chainable.
  Options& erase(const std::string& key);

  /// Registers a key for the generated --help output. Chainable.
  Options& doc(std::string key, std::string help, std::string fallback = "");

  /// The generated --help text for the doc()'d keys.
  std::string help_text(const std::string& program) const;

  /// When --help was passed: prints help_text to stdout and returns true (the
  /// caller should exit 0).
  bool maybe_print_help(const std::string& program) const;

  /// True when `key` is one --help lists: a doc()'d key, or "help" itself.
  bool documented(std::string_view key) const;

  /// Throws ContractViolation naming the first key passed that --help does
  /// not list. Call once after the doc() chain.
  void reject_undocumented() const;

 private:
  struct Doc {
    std::string key, help, fallback;
  };
  std::map<std::string, std::string> kv_;
  std::vector<Doc> docs_;
};

}  // namespace adcc
