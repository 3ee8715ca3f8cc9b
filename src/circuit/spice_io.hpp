// SPICE-flavoured netlist writer.
//
// The examples write each synthesised netlist as a .sp file next to its
// layout, for inspection or for an external simulator.  Cards emitted:
//
//   * <title>, .end
//   M<name> d g s b <nmos|pmos> W= L= NF= AD= AS= PD= PS= M=
//   R<name> a b <ohms>
//   C<name> a b <farads>
//   V<name> p n DC <v> | PULSE(v1 v2 td tr tf pw per) | SIN(off ampl freq)
//            [AC <mag> <phase>]
//   I<name> p n DC <v> | PULSE(...) | SIN(...) [AC <mag>]
//   E<name> p n cp cn <gain>
//
// Numbers carry the usual SI suffixes (f p n u m k meg g t) and every
// digit they need to read back exactly.
#pragma once

#include <string>

#include "circuit/circuit.hpp"

namespace lo::circuit {

/// Serialise a circuit to netlist text.
[[nodiscard]] std::string writeNetlist(const Circuit& circuit);

/// Format a value in engineering notation with SI suffix (e.g. "2.5u"),
/// with the digits of its shortest round-trip text.
[[nodiscard]] std::string formatSpiceNumber(double value);

}  // namespace lo::circuit
