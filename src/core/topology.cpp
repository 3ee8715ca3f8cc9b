#include "core/topology.hpp"

#include <stdexcept>

#include "core/ota_topology.hpp"
#include "core/two_stage_topology.hpp"

namespace lo::core {

TopologyRegistry::TopologyRegistry()
    : factories_{{kFoldedCascodeOtaTopologyName,
                  [](const tech::Technology& t, const device::MosModel& m) {
                    return std::make_unique<FoldedCascodeOtaTopology>(t, m);
                  }},
                 {kTwoStageTopologyName,
                  [](const tech::Technology& t, const device::MosModel& m) {
                    return std::make_unique<TwoStageTopology>(t, m);
                  }}} {}

TopologyRegistry& TopologyRegistry::instance() {
  static TopologyRegistry registry;
  return registry;
}

std::unique_ptr<Topology> TopologyRegistry::create(
    const std::string& name, const tech::Technology& t,
    const device::MosModel& model) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string msg = "unknown topology \"" + name + "\"; registered:";
    for (const auto& [key, unused] : factories_) {
      msg += ' ';
      msg += key;
    }
    throw std::invalid_argument(msg);
  }
  return it->second(t, model);
}

std::vector<std::string> TopologyRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [key, unused] : factories_) out.push_back(key);
  return out;
}

}  // namespace lo::core
