// Two-stage Miller OTA adapter for the synthesis engine: the design plan
// (sizing::TwoStageSizer), the two-stage layout program (including the
// drawn compensation capacitor and nulling resistor) and the shared
// verification testbenches behind the Topology hooks.
#pragma once

#include "core/topology.hpp"
#include "layout/two_stage_layout.hpp"
#include "sizing/two_stage.hpp"

namespace lo::core {

class TwoStageTopology final : public Topology {
 public:
  TwoStageTopology(const tech::Technology& t, const device::MosModel& model,
                   layout::TwoStageLayoutOptions layoutOptions = {});

  [[nodiscard]] std::string_view name() const override { return kTwoStageTopologyName; }
  [[nodiscard]] const std::vector<std::string>& criticalNets() const override;
  [[nodiscard]] layout::ConstraintSet placementConstraints() const override {
    return layout::twoStagePlacementConstraints();
  }

  void size(const sizing::OtaSpecs& specs, const sizing::SizingPolicy& policy) override;
  const layout::ParasiticReport& layoutParasitic() override;
  void feedback(sizing::SizingPolicy& policy, bool includeRouting) override;
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
  [[nodiscard]] const sizing::TwoStageSizingResult& sizingResult() const {
    return sizing_;
  }
  [[nodiscard]] const layout::TwoStageLayoutResult& layout() const { return layout_; }
  [[nodiscard]] const circuit::TwoStageOtaDesign& extractedDesign() const {
    return extracted_;
  }

 private:
  const tech::Technology& tech_;
  const device::MosModel& model_;
  layout::TwoStageLayoutOptions layoutOptions_;

  sizing::TwoStageSizingResult sizing_;
  layout::TwoStageLayoutResult parasiticRun_;
  layout::TwoStageLayoutResult layout_;
  circuit::TwoStageOtaDesign extracted_;
};

}  // namespace lo::core
