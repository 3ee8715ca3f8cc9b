// Mask layer identifiers for the symbolic layout system.
//
// The layout generator (CAIRO-class library in src/layout) emits geometry on
// these symbolic layers; the Technology object maps each layer to design
// rules, capacitance coefficients and sheet resistance, which is what makes
// the generators technology independent (paper, section 3, "Technology
// independence").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace lo::tech {

enum class Layer : std::uint8_t {
  kNWell = 0,   ///< N-well (PMOS bulk).
  kActive,      ///< Diffusion (source/drain and channel area).
  kPoly,        ///< Polysilicon gates and local interconnect.
  kNPlus,       ///< N+ implant select.
  kPPlus,       ///< P+ implant select.
  kContact,     ///< Active/poly to metal1 contact cut.
  kMetal1,      ///< First metal routing layer.
  kVia1,        ///< Metal1 to metal2 cut.
  kMetal2,      ///< Second metal routing layer.
};

inline constexpr std::size_t kLayerCount = 9;

inline constexpr std::array<Layer, kLayerCount> kAllLayers = {
    Layer::kNWell, Layer::kActive,  Layer::kPoly,
    Layer::kNPlus, Layer::kPPlus,   Layer::kContact,
    Layer::kMetal1, Layer::kVia1,   Layer::kMetal2,
};

[[nodiscard]] constexpr std::string_view layerName(Layer layer) {
  switch (layer) {
    case Layer::kNWell: return "nwell";
    case Layer::kActive: return "active";
    case Layer::kPoly: return "poly";
    case Layer::kNPlus: return "nplus";
    case Layer::kPPlus: return "pplus";
    case Layer::kContact: return "contact";
    case Layer::kMetal1: return "metal1";
    case Layer::kVia1: return "via1";
    case Layer::kMetal2: return "metal2";
  }
  return "unknown";
}

/// Parse a layer name as written by layerName(); empty optional on failure.
[[nodiscard]] constexpr std::optional<Layer> layerFromName(std::string_view name) {
  for (Layer layer : kAllLayers) {
    if (layerName(layer) == name) return layer;
  }
  return std::nullopt;
}

}  // namespace lo::tech
