// Layout output writers: SVG (for human inspection of Figs. 3 and 5) and
// CIF (Caltech Intermediate Form, the classic machine-readable mask format).
#pragma once

#include <string>

#include "geom/geometry.hpp"

namespace lo::layout {

/// Render shapes to an SVG document (y axis flipped so the layout reads
/// bottom-up as drawn).  Layers get fixed colours and opacity; net-tagged
/// shapes carry a <title> tooltip with the net name.
[[nodiscard]] std::string toSvg(const geom::ShapeList& shapes, double scale = 0.02);

/// Emit CIF: one layer command per used layer, boxes in centimicrons.
[[nodiscard]] std::string toCif(const geom::ShapeList& shapes,
                                const std::string& cellName = "TOP");

/// Emit binary GDSII: one structure containing a BOUNDARY per rectangle,
/// database unit 1 nm, user unit 1 um.  Layer numbers follow gdsLayerNumber().
[[nodiscard]] std::string toGds(const geom::ShapeList& shapes,
                                const std::string& cellName = "TOP");

/// GDS layer number assigned to a symbolic layer.
[[nodiscard]] int gdsLayerNumber(tech::Layer layer);

/// Write a string to a file; throws std::runtime_error on failure.
void writeFile(const std::string& path, const std::string& content);

/// Where examples and benches put generated artifacts (SVG/CIF/GDS/SPICE):
/// $LOS_OUT_DIR if set, else "examples/out".  Creates the directory on
/// first use and returns "<dir>/<name>", keeping generated files out of
/// the source tree.
[[nodiscard]] std::string outputPath(const std::string& name);

}  // namespace lo::layout
