// Topology abstraction for the synthesis engine.
//
// The paper's flow (size -> parasitic-mode layout -> resize -> ... ->
// generation-mode layout -> extract -> verify) is topology independent;
// only the design plan, the layout program and the netlist differ between
// circuits.  A Topology bundles exactly those pieces behind the hooks the
// engine drives, so a new circuit plugs into the methodology by
// implementing this interface -- the paper's "hierarchy simplifies the
// addition of new topologies" claim, made into an API boundary.
//
// A Topology instance is *stateful per run*: the engine calls the hooks in
// a fixed order and the adapter accumulates the sizing result, the layout
// runs and the extracted design, which callers read back through the
// concrete adapter type (FoldedCascodeOtaTopology, TwoStageTopology).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "device/mos_model.hpp"
#include "layout/constraints.hpp"
#include "layout/extract.hpp"
#include "sizing/ota_spec.hpp"
#include "sizing/verify.hpp"
#include "tech/technology.hpp"
#include "verify/verify.hpp"

namespace lo::core {

class Topology {
 public:
  virtual ~Topology() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Nets whose parasitic capacitance must settle before the sizing <->
  /// layout loop counts as converged (paper: "till the calculated
  /// parasitics remain unchanged").  Fixed for the topology's lifetime.
  [[nodiscard]] virtual const std::vector<std::string>& criticalNets() const = 0;

  /// The matching intent the topology's layout program declares (mirror
  /// pairs, common-centroid stacks, rows) as first-class constraints; the
  /// engine validates them before the first layout call.  Topologies with
  /// no physical layout return an empty set.
  [[nodiscard]] virtual layout::ConstraintSet placementConstraints() const {
    return {};
  }

  /// Run (or re-run) the design plan under the current policy state.
  virtual void size(const sizing::OtaSpecs& specs,
                    const sizing::SizingPolicy& policy) = 0;

  /// Run the layout program in parasitic calculation mode on the current
  /// design and return the resulting per-net report.  The report stays
  /// owned by the topology and valid until the next layout call.
  virtual const layout::ParasiticReport& layoutParasitic() = 0;

  /// Feed the last parasitic-mode layout's knowledge (junction templates,
  /// and the routing/coupling/well report when `includeRouting`) back into
  /// `policy` for the next size() call.
  virtual void feedback(sizing::SizingPolicy& policy, bool includeRouting) = 0;

  /// Hook before the generation-mode layout; topologies that support a
  /// drawn bias generator design it here.
  virtual void prepareGeneration(bool /*includeBiasGenerator*/) {}

  /// Run the layout program in generation mode (full mask geometry).
  virtual void layoutGenerate() = 0;

  /// Replace the design's geometry with what the layout actually drew
  /// (fold-quantised widths, exact junctions, drawn passives).
  virtual void applyExtracted() = 0;

  /// The verification inputs: instantiators for the schematic-level and
  /// extracted netlists plus the generation-mode parasitic report.  Valid
  /// after applyExtracted(); the engine measures the extracted netlist
  /// against the report and hands the same setup to the post-layout tier.
  [[nodiscard]] virtual verify::VerificationSetup verificationSetup() = 0;

  /// Performance predicted by the last sizing pass.
  [[nodiscard]] virtual sizing::OtaPerformance predicted() const = 0;

  /// Diagnostics recorded into the per-iteration history.
  [[nodiscard]] virtual double primaryCurrent() const = 0;
  [[nodiscard]] virtual double pairWidth() const = 0;

  /// Bounding-box dimensions of the generation-mode layout [nm]; 0 before
  /// layoutGenerate() has run (or for topologies with no physical layout).
  /// The engine records these into EngineResult so downstream consumers
  /// (the design-space explorer's area objective) need no adapter access.
  [[nodiscard]] virtual geom::Coord layoutWidth() const { return 0; }
  [[nodiscard]] virtual geom::Coord layoutHeight() const { return 0; }
};

/// String-keyed factory table of the built-in topologies (folded_cascode_ota,
/// two_stage), the names EngineOptions::topology selects.  It is filled once,
/// in its constructor, so concurrent readers need no lock.  A caller's own
/// topology runs through SynthesisEngine::run(Topology&, specs).
class TopologyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Topology>(
      const tech::Technology&, const device::MosModel&)>;

  /// The process-wide registry.
  [[nodiscard]] static TopologyRegistry& instance();

  /// Instantiate a registered topology; throws std::invalid_argument
  /// naming the unknown key and the known ones.
  [[nodiscard]] std::unique_ptr<Topology> create(
      const std::string& name, const tech::Technology& t,
      const device::MosModel& model) const;

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  TopologyRegistry();

  std::map<std::string, Factory> factories_;
};

/// Registry keys of the built-in topologies.
inline constexpr const char* kFoldedCascodeOtaTopologyName = "folded_cascode_ota";
inline constexpr const char* kTwoStageTopologyName = "two_stage";

}  // namespace lo::core
