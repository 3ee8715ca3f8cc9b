// Channel router with reliability-driven wire sizing.
//
// Connects same-net ports of a placed cell using a two-layer discipline:
//   * horizontal metal1 trunks confined to routing channels (the horizontal
//     bands between cell rows, plus bands above and below the core), and
//   * vertical metal2 branches from every port, which may legally cross any
//     row because rows contain no metal2.
// Via stacks join port metal -> branch and branch -> trunk.  Tracks within
// a channel are allocated greedily; nets whose x spans overlap get distinct
// tracks.  Wire widths follow the electromigration rule ("DC current
// information is used to adjust ... routing wires in order to respect the
// maximum current density", paper section 3), and every wire's area/fringe
// capacitance plus trunk-to-trunk coupling is reported for the parasitic
// calculation mode.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "layout/cell.hpp"
#include "tech/technology.hpp"

namespace lo::layout {

/// Per-net routing request: which nets to route and their DC current.
struct NetRequest {
  std::string net;
  double current = 0.0;  ///< |DC current| the trunk carries [A].
};

/// Horizontal band (y0, y1) where trunks may be placed.
struct Channel {
  geom::Coord y0 = 0;
  geom::Coord y1 = 0;
};

struct RoutedNet {
  std::string net;
  tech::Nm trunkWidth = 0;
  double trunkLength = 0.0;    ///< [m]
  double branchLength = 0.0;   ///< Total vertical branch length [m].
  double capToGround = 0.0;    ///< Area + fringe capacitance [F].
  double resistanceOhm = 0.0;  ///< Trunk + worst branch sheet resistance
                               ///< plus via stacks (series path estimate).
  int viaCount = 0;
};

struct RoutingResult {
  std::vector<RoutedNet> nets;
  /// Coupling capacitance between trunks on adjacent tracks [F], keyed by
  /// the (lexicographically ordered) net-name pair.
  std::map<std::pair<std::string, std::string>, double> coupling;
  geom::ShapeList wires;  ///< Trunk/branch/via geometry (generation mode).
};

/// Route the given nets over `cell`'s ports.  Nets with fewer than two
/// ports are skipped.  `channels` lists the bands trunks may occupy; when
/// empty, trunks float freely at the mean port height (fine for cells whose
/// port rows do not collide with wiring).  When `emitGeometry` is false only
/// the electrical summary is produced (the paper's parasitic mode).
[[nodiscard]] RoutingResult routeCell(const tech::Technology& t, const Cell& cell,
                                      const std::vector<NetRequest>& nets,
                                      const std::vector<Channel>& channels,
                                      bool emitGeometry);

/// Convenience overload with no channel constraints.
[[nodiscard]] inline RoutingResult routeCell(const tech::Technology& t, const Cell& cell,
                                             const std::vector<NetRequest>& nets,
                                             bool emitGeometry) {
  return routeCell(t, cell, nets, {}, emitGeometry);
}

}  // namespace lo::layout
