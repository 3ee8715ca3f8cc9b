// Folded-cascode OTA adapter for the synthesis engine: wraps the COMDIAC
// design plan (sizing::OtaSizer), the CAIRO layout program
// (layout::generateOtaLayout), the optional transistor-level bias
// generator and the verification testbenches behind the Topology hooks.
#pragma once

#include "core/topology.hpp"
#include "layout/ota_layout.hpp"
#include "sizing/ota_sizer.hpp"

namespace lo::core {

class FoldedCascodeOtaTopology final : public Topology {
 public:
  FoldedCascodeOtaTopology(const tech::Technology& t, const device::MosModel& model,
                           layout::LayoutOptions layoutOptions = {});

  [[nodiscard]] std::string_view name() const override {
    return kFoldedCascodeOtaTopologyName;
  }
  [[nodiscard]] const std::vector<std::string>& criticalNets() const override;
  [[nodiscard]] layout::ConstraintSet placementConstraints() const override {
    return layout::otaPlacementConstraints(biasEnabled_);
  }

  void size(const sizing::OtaSpecs& specs, const sizing::SizingPolicy& policy) override;
  const layout::ParasiticReport& layoutParasitic() override;
  void feedback(sizing::SizingPolicy& policy, bool includeRouting) override;
  void prepareGeneration(bool includeBiasGenerator) override;
  void layoutGenerate() override;
  void applyExtracted() override;
  [[nodiscard]] verify::VerificationSetup verificationSetup() override;

  [[nodiscard]] sizing::OtaPerformance predicted() const override {
    return sizing_.predicted;
  }
  [[nodiscard]] double primaryCurrent() const override {
    return sizing_.design.tailCurrent;
  }
  [[nodiscard]] double pairWidth() const override { return sizing_.design.inputPair.w; }
  [[nodiscard]] geom::Coord layoutWidth() const override { return layout_.width; }
  [[nodiscard]] geom::Coord layoutHeight() const override { return layout_.height; }

  // Topology-specific outputs, valid after an engine run.
  [[nodiscard]] const sizing::SizingResult& sizingResult() const { return sizing_; }
  [[nodiscard]] const layout::OtaLayoutResult& layout() const { return layout_; }
  [[nodiscard]] const circuit::FoldedCascodeOtaDesign& extractedDesign() const {
    return extracted_;
  }
  [[nodiscard]] const circuit::OtaBiasDesign& bias() const { return bias_; }

 private:
  const tech::Technology& tech_;
  const device::MosModel& model_;
  layout::LayoutOptions layoutOptions_;

  sizing::SizingResult sizing_;
  layout::OtaLayoutResult parasiticRun_;
  layout::OtaLayoutResult layout_;
  circuit::FoldedCascodeOtaDesign extracted_;
  circuit::OtaBiasDesign bias_;
  bool biasEnabled_ = false;
};

}  // namespace lo::core
