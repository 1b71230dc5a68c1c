#include "common/options.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/check.hpp"

namespace adcc {

namespace {

/// The message for a value of `key` that does not parse as a `kind`.
std::string malformed(const char* kind, const std::string& key, const std::string& value) {
  return std::string("malformed ") + kind + " value for --" + key + ": '" + value + "'";
}

/// Parses the whole of `value` as a T with from_chars (no whitespace, no
/// trailing characters); throws ContractViolation naming the key otherwise.
template <typename T>
T parse_number(const char* kind, const std::string& key, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  ADCC_CHECK(ec == std::errc() && ptr == end, malformed(kind, key, value).c_str());
  return out;
}

}  // namespace

std::optional<std::size_t> parse_size(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc()) return std::nullopt;
  std::string_view suffix(ptr, static_cast<std::size_t>(text.data() + text.size() - ptr));
  if (!suffix.empty() && (suffix.back() == 'b' || suffix.back() == 'B')) {
    suffix.remove_suffix(1);
    if (suffix.empty()) return value;  // "123B" — plain bytes.
  }
  if (suffix.empty()) return value;
  if (suffix.size() != 1) return std::nullopt;
  int shift = 0;
  switch (suffix.front()) {
    case 'k': case 'K': shift = 10; break;
    case 'm': case 'M': shift = 20; break;
    case 'g': case 'G': shift = 30; break;
    case 't': case 'T': shift = 40; break;
    default: return std::nullopt;
  }
  if (value != 0 && (value >> (64 - shift)) != 0) return std::nullopt;  // Overflow.
  return static_cast<std::size_t>(value << shift);
}

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    ADCC_CHECK(arg.starts_with("--"), "options must look like --key=value or --flag");
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      // A bare flag means "1". Assigned as one character: `= "1"` trips
      // GCC 12's -Wrestrict false positive (GCC bug 105651).
      kv_[std::string(arg)].assign(1, '1');
    } else {
      kv_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.contains(key); }

std::string Options::get(const std::string& key, const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_number<std::int64_t>("integer", key, it->second);
}

double Options::get_double(const std::string& key, double fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : parse_number<double>("number", key, it->second);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string& v = it->second;
  return v != "0" && v != "false" && v != "off" && v != "no";
}

std::size_t Options::get_size(const std::string& key, std::size_t fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const auto parsed = parse_size(it->second);
  ADCC_CHECK(parsed.has_value(),
             (malformed("size", key, it->second) + " (expected e.g. 64M, 1G, 4096)").c_str());
  return *parsed;
}

Options& Options::set(std::string key, std::string value) {
  kv_[std::move(key)] = std::move(value);
  return *this;
}

Options& Options::erase(const std::string& key) {
  kv_.erase(key);
  return *this;
}

Options& Options::doc(std::string key, std::string help, std::string fallback) {
  docs_.push_back({std::move(key), std::move(help), std::move(fallback)});
  return *this;
}

std::string Options::help_text(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [--key=value ...]\n";
  std::size_t width = 4;  // "help"
  for (const auto& d : docs_) width = std::max(width, d.key.size());
  for (const auto& d : docs_) {
    out << "  --" << d.key << std::string(width - d.key.size() + 2, ' ') << d.help;
    if (!d.fallback.empty()) out << " (default: " << d.fallback << ")";
    out << "\n";
  }
  out << "  --help" << std::string(width - 2, ' ') << "show this message\n";
  return out.str();
}

bool Options::maybe_print_help(const std::string& program) const {
  if (!has("help")) return false;
  std::fputs(help_text(program).c_str(), stdout);
  return true;
}

bool Options::documented(std::string_view key) const {
  if (key == "help") return true;
  for (const auto& d : docs_) {
    if (d.key == key) return true;
  }
  return false;
}

void Options::reject_undocumented() const {
  for (const auto& [key, value] : kv_) {
    if (!documented(key)) throw ContractViolation("unknown option --" + key + " (see --help)");
  }
}

}  // namespace adcc
