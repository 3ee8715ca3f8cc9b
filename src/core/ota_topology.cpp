#include "core/ota_topology.hpp"

namespace lo::core {

FoldedCascodeOtaTopology::FoldedCascodeOtaTopology(const tech::Technology& t,
                                                   const device::MosModel& model,
                                                   layout::OtaLayoutOptions layoutOptions)
    : tech_(t), model_(model), layoutOptions_(std::move(layoutOptions)) {}

const std::vector<std::string>& FoldedCascodeOtaTopology::criticalNets() const {
  // The folding node, the output and the tail (which includes the floating
  // well) -- the capacitances the paper's convergence study traces.
  static const std::vector<std::string> kNets = {"x1", "out", "tail"};
  return kNets;
}

void FoldedCascodeOtaTopology::size(const sizing::OtaSpecs& specs,
                                    const sizing::SizingPolicy& policy) {
  sizing_ = sizing::OtaSizer(tech_, model_).size(specs, policy);
}

const layout::ParasiticReport& FoldedCascodeOtaTopology::layoutParasitic() {
  parasiticRun_ = layout::generateOtaLayout(tech_, sizing_.design, layoutOptions_,
                                            /*generateGeometry=*/false);
  return parasiticRun_.parasitics;
}

void FoldedCascodeOtaTopology::feedback(sizing::SizingPolicy& policy,
                                        bool includeRouting) {
  policy.junctionTemplates = parasiticRun_.junctions;
  if (includeRouting) {
    policy.routingParasitics = &parasiticRun_.parasitics;
  }
}

void FoldedCascodeOtaTopology::prepareGeneration(bool includeBiasGenerator) {
  biasEnabled_ = includeBiasGenerator;
  if (biasEnabled_) {
    bias_ = sizing::designOtaBias(tech_, model_, sizing_.design);
  }
}

void FoldedCascodeOtaTopology::layoutGenerate() {
  layout::OtaLayoutOptions genOptions = layoutOptions_;
  if (biasEnabled_) {
    // Draw the bias generator into the rows; its nets are then routed and
    // their parasitics appear in the report.
    genOptions.biasGenerator = &bias_;
  }
  layout_ = layout::generateOtaLayout(tech_, sizing_.design, genOptions,
                                      /*generateGeometry=*/true);
}

void FoldedCascodeOtaTopology::applyExtracted() {
  extracted_ = sizing::applyExtractedGeometry(sizing_.design, layout_.junctions);
}

verify::VerificationSetup FoldedCascodeOtaTopology::verificationSetup() {
  verify::VerificationSetup s;
  // The instantiators capture design copies so the setup stays valid even
  // if the adapter is resized afterwards.
  if (biasEnabled_) {
    s.preLayout = [d = sizing_.design, b = bias_](circuit::Circuit& c) {
      circuit::instantiateOtaWithBias(c, d, b);
    };
    s.postLayout = [d = extracted_, b = bias_](circuit::Circuit& c) {
      circuit::instantiateOtaWithBias(c, d, b);
    };
  } else {
    s.preLayout = [d = sizing_.design](circuit::Circuit& c) {
      circuit::instantiateOta(c, d);
    };
    s.postLayout = [d = extracted_](circuit::Circuit& c) {
      circuit::instantiateOta(c, d);
    };
  }
  s.parasitics = &layout_.parasitics;
  s.inputCm = extracted_.inputCm;
  s.vdd = extracted_.vdd;
  return s;
}

}  // namespace lo::core
