// String-keyed registry of ScenarioFamily implementations — the workload-side
// mirror of api/registry.h. Every generated dataset in the repo comes from a
// family looked up here by name, usually through GenerateScenario; custom
// families can be registered alongside the built-ins.

#ifndef DPCLUSTER_DATA_REGISTRY_H_
#define DPCLUSTER_DATA_REGISTRY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dpcluster/common/status.h"
#include "dpcluster/data/scenario.h"

namespace dpcluster {

class ScenarioRegistry {
 public:
  /// Adds a family under its name(); InvalidArgument on duplicates.
  Status Register(std::unique_ptr<ScenarioFamily> family);

  /// Looks a family up by name; NotFound (listing the registered names) when
  /// absent. The pointer stays valid for the registry's lifetime.
  Result<const ScenarioFamily*> Lookup(std::string_view name) const;

  bool Contains(std::string_view name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  std::size_t size() const { return families_.size(); }

  /// The process-wide registry, populated with the built-in families on
  /// first use.
  static ScenarioRegistry& Global();

 private:
  std::map<std::string, std::unique_ptr<ScenarioFamily>, std::less<>> families_;
};

/// Registers the built-in scenario families (data/generators.cc) into
/// `registry`. Names already present are left untouched.
Status RegisterBuiltinScenarios(ScenarioRegistry& registry);

/// Convenience: validate `spec` and generate one instance via the global
/// registry — lookup, generic + family validation, generation, invariants.
Result<ScenarioInstance> GenerateScenario(Rng& rng, const ScenarioSpec& spec);

/// Same, against an explicit registry.
Result<ScenarioInstance> GenerateScenario(const ScenarioRegistry& registry,
                                          Rng& rng, const ScenarioSpec& spec);

}  // namespace dpcluster

#endif  // DPCLUSTER_DATA_REGISTRY_H_
