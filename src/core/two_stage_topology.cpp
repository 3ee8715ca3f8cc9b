#include "core/two_stage_topology.hpp"

namespace lo::core {

TwoStageTopology::TwoStageTopology(const tech::Technology& t,
                                   const device::MosModel& model,
                                   layout::TwoStageLayoutOptions layoutOptions)
    : tech_(t), model_(model), layoutOptions_(std::move(layoutOptions)) {}

const std::vector<std::string>& TwoStageTopology::criticalNets() const {
  // Both amplifying nodes, the Rz/Cc midpoint (bottom-plate parasitic of
  // the compensation capacitor) and the tail: all four must settle, not
  // just the output (the single-net criterion could declare convergence
  // while the compensation network was still moving).
  static const std::vector<std::string> kNets = {"out", "o1", "rzm", "tail"};
  return kNets;
}

void TwoStageTopology::size(const sizing::OtaSpecs& specs,
                            const sizing::SizingPolicy& policy) {
  sizing_ = sizing::TwoStageSizer(tech_, model_).size(specs, policy);
}

const layout::ParasiticReport& TwoStageTopology::layoutParasitic() {
  parasiticRun_ = layout::generateTwoStageLayout(tech_, sizing_.design, layoutOptions_,
                                                 /*generateGeometry=*/false);
  return parasiticRun_.parasitics;
}

void TwoStageTopology::feedback(sizing::SizingPolicy& policy, bool includeRouting) {
  policy.twoStageTemplates = parasiticRun_.junctions;
  if (includeRouting) {
    policy.routingParasitics = &parasiticRun_.parasitics;
  }
}

void TwoStageTopology::layoutGenerate() {
  layout_ = layout::generateTwoStageLayout(tech_, sizing_.design, layoutOptions_,
                                           /*generateGeometry=*/true);
}

void TwoStageTopology::applyExtracted() {
  extracted_ = sizing::applyExtractedGeometry(sizing_.design, layout_.junctions,
                                              layout_.ccInfo.drawnFarads,
                                              layout_.rzInfo.drawnOhms);
}

verify::VerificationSetup TwoStageTopology::verificationSetup() {
  verify::VerificationSetup s;
  s.preLayout = [d = sizing_.design](circuit::Circuit& c) {
    circuit::instantiateTwoStage(c, d);
  };
  s.postLayout = [d = extracted_](circuit::Circuit& c) {
    circuit::instantiateTwoStage(c, d);
  };
  s.parasitics = &layout_.parasitics;
  s.inputCm = extracted_.inputCm;
  s.vdd = extracted_.vdd;
  return s;
}

}  // namespace lo::core
