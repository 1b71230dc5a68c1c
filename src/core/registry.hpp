// WorkloadRegistry — name -> factory table behind `adccbench --workload=...`.
//
// Workload adapters self-register via static WorkloadRegistrar objects
// (ADCC_REGISTER_WORKLOAD), so adding a workload is one translation unit, not
// a new benchmark binary. libadcc is linked as an OBJECT library precisely so
// these registrars survive into every executable.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "core/workload.hpp"

namespace adcc::core {

/// Builds a workload instance from CLI options (problem sizes, --quick, ...).
using WorkloadFactory = std::function<std::unique_ptr<Workload>(const Options&)>;

class WorkloadRegistry {
 public:
  /// The process-wide registry (registrars run before main).
  static WorkloadRegistry& instance();

  /// Registers a factory; duplicate names are a contract violation.
  void add(std::string name, std::string description, WorkloadFactory factory);

  bool contains(const std::string& name) const;
  std::vector<std::string> names() const;  ///< Sorted.
  const std::string& description(const std::string& name) const;

  /// Instantiates a registered workload; throws ContractViolation listing the
  /// known names when `name` is not registered.
  std::unique_ptr<Workload> create(const std::string& name, const Options& opts) const;

 private:
  struct Entry {
    std::string description;
    WorkloadFactory factory;
  };
  std::map<std::string, Entry> entries_;
};

/// Static-initialization helper: declare one at namespace scope to register a
/// workload at program start.
struct WorkloadRegistrar {
  WorkloadRegistrar(std::string name, std::string description, WorkloadFactory factory);
};

#define ADCC_REGISTER_WORKLOAD_CONCAT2(a, b) a##b
#define ADCC_REGISTER_WORKLOAD_CONCAT(a, b) ADCC_REGISTER_WORKLOAD_CONCAT2(a, b)

/// ADCC_REGISTER_WORKLOAD("cg", "NPB-CG solver", [](const Options& o) {...});
/// The factory is the variadic tail, so its body may name a template with
/// several arguments (make_adapter<W, Plan>) without extra parentheses.
#define ADCC_REGISTER_WORKLOAD(name, description, ...)                        \
  static const ::adcc::core::WorkloadRegistrar ADCC_REGISTER_WORKLOAD_CONCAT( \
      adcc_workload_registrar_, __LINE__)(name, description, __VA_ARGS__)

}  // namespace adcc::core
