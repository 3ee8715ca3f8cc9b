// Technology description: the single object that makes every generator and
// model in this project technology independent.
//
// A Technology bundles design rules, per-layer electrical coefficients
// (capacitance, sheet resistance, electromigration limits) and the MOS model
// cards.  It can be built programmatically (generic060()) or loaded from a
// simple sectioned "key = value" text file (fromFile()/parse()).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "tech/design_rules.hpp"
#include "tech/layers.hpp"
#include "tech/model_card.hpp"

namespace lo::tech {

/// Electrical properties of one mask layer.
struct LayerElectrical {
  double capAreaPerM2 = 0.0;    ///< Cap to substrate per area [F/m^2].
  double capFringePerM = 0.0;   ///< Fringe cap per edge length [F/m].
  double capCouplePerM = 0.0;   ///< Coupling cap per parallel-run length at
                                ///< minimum spacing [F/m].
  double sheetResOhmSq = 0.0;   ///< Sheet resistance [ohm/square].
  double emMaxAmpPerM = 0.0;    ///< Electromigration limit: max DC current
                                ///< per metre of wire width [A/m].
};

/// Process corners for design-centering studies: threshold and mobility
/// shifts applied on top of a nominal technology.
enum class ProcessCorner { kTypical, kSlow, kFast, kSlowNFastP, kFastNSlowP };

[[nodiscard]] constexpr const char* cornerName(ProcessCorner c) {
  switch (c) {
    case ProcessCorner::kTypical: return "tt";
    case ProcessCorner::kSlow: return "ss";
    case ProcessCorner::kFast: return "ff";
    case ProcessCorner::kSlowNFastP: return "sf";
    case ProcessCorner::kFastNSlowP: return "fs";
  }
  return "?";
}

/// Thrown by the tech-file parser on malformed input.
class TechParseError : public std::runtime_error {
 public:
  explicit TechParseError(const std::string& what) : std::runtime_error(what) {}
};

class Technology {
 public:
  std::string name = "generic060";
  DesignRules rules;
  MosModelCard nmos;
  MosModelCard pmos;

  double nominalVdd = 3.3;          ///< Default supply voltage [V].
  double temperature = 300.15;      ///< Default analysis temperature [K].
  double contactMaxAmp = 0.6e-3;    ///< Max DC current per contact cut [A].
  double via1MaxAmp = 0.8e-3;       ///< Max DC current per via cut [A].
  double contactResOhm = 6.0;       ///< Resistance per contact cut [ohm].

  /// N-well junction capacitance to substrate (floating-well parasitic,
  /// paper section 2: "Exact well sizes so that floating well capacitance
  /// can be calculated").
  double nwellCapAreaPerM2 = 0.10e-3;   ///< [F/m^2]
  double nwellCapPerimPerM = 0.50e-9;   ///< [F/m]

  /// Poly/metal1 plate capacitor density (used by the capacitor generator
  /// for compensation capacitors). [F/m^2]
  double plateCapPerM2 = 0.50e-3;

  [[nodiscard]] const LayerElectrical& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] LayerElectrical& layer(Layer l) {
    return layers_[static_cast<std::size_t>(l)];
  }

  [[nodiscard]] const MosModelCard& card(MosType type) const {
    return type == MosType::kNmos ? nmos : pmos;
  }

  /// Minimum drawn wire width on a routing layer [nm].
  [[nodiscard]] Nm minWireWidth(Layer l) const;

  /// Width (grid-snapped, >= layer minimum) a wire on `l` needs to carry
  /// `amps` of DC current without violating the electromigration limit.
  [[nodiscard]] Nm wireWidthForCurrent(Layer l, double amps) const;

  /// Number of contact cuts required to carry `amps` of DC current (>= 1).
  [[nodiscard]] int contactsForCurrent(double amps) const;

  /// Built-in synthetic 0.6 um CMOS process used throughout the paper
  /// reproduction (the paper uses an unnamed 0.6 um technology).
  [[nodiscard]] static Technology generic060();

  /// A coarser companion process (1.0 um class) used by the technology
  /// evaluation example (paper section 4: "A technology evaluation
  /// interface ... helps to choose the most suitable technology").
  [[nodiscard]] static Technology generic100();

  /// This technology shifted to a process corner (vto +/-8%, kp -/+12% per
  /// device type; temperature unchanged).
  [[nodiscard]] Technology atCorner(ProcessCorner corner) const;

  /// Parse a technology file; throws TechParseError on malformed input.
  [[nodiscard]] static Technology parse(std::string_view text);
  [[nodiscard]] static Technology fromFile(const std::string& path);

  /// Serialise to the same text format parse() accepts (round-trippable).
  [[nodiscard]] std::string toText() const;

 private:
  std::array<LayerElectrical, kLayerCount> layers_{};
};

}  // namespace lo::tech
