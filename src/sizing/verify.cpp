#include "sizing/verify.hpp"

#include <cmath>

#include "sim/measure.hpp"

namespace lo::sizing {

using circuit::Circuit;
using circuit::FoldedCascodeOtaDesign;
using circuit::NodeId;
using circuit::Waveform;

Circuit buildAmpSlewTestbench(const AmpInstantiateFn& instantiate, double inputCm,
                              const layout::ParasiticReport* parasitics,
                              const VerifyOptions& options) {
  Circuit c;
  c.title = "amplifier slew testbench";
  instantiate(c);
  const NodeId out = *c.findNode("out");
  const NodeId inn = *c.findNode("inn");
  const NodeId inp = *c.findNode("inp");
  c.addVSource("VSHORT", out, inn, Waveform::makeDc(0.0));
  const double a = options.stepAmplitude;
  c.addVSource("VIN", inp, circuit::kGround,
               Waveform::makePulse(inputCm - a / 2, inputCm + a / 2, 20e-9, 1e-9, 1e-9,
                                   options.tranStop / 2, options.tranStop * 2));
  if (parasitics) layout::annotateCircuit(c, *parasitics);
  return c;
}

FoldedCascodeOtaDesign applyExtractedGeometry(
    FoldedCascodeOtaDesign design,
    const std::map<circuit::OtaGroup, device::MosGeometry>& junctions) {
  for (const auto& [group, geo] : junctions) design.geometry(group) = geo;
  return design;
}

circuit::TwoStageOtaDesign applyExtractedGeometry(
    circuit::TwoStageOtaDesign design,
    const std::map<circuit::TwoStageGroup, device::MosGeometry>& junctions,
    double drawnCc, double drawnRz) {
  for (const auto& [group, geo] : junctions) design.geometry(group) = geo;
  design.cc = drawnCc;
  design.rz = drawnRz;
  return design;
}

Circuit buildAmpAcTestbench(const AmpInstantiateFn& instantiate, double inputCm,
                            const layout::ParasiticReport* parasitics, double diffAcMag,
                            double cmAcMag, double routProbeAcMag) {
  Circuit c;
  c.title = "amplifier ac testbench";
  instantiate(c);
  const NodeId out = *c.findNode("out");
  const NodeId inn = *c.findNode("inn");
  const NodeId inp = *c.findNode("inp");
  const NodeId cmref = c.node("cmref");
  c.addVSource("VCM", cmref, circuit::kGround, Waveform::makeDc(inputCm), cmAcMag);
  c.addVSource("VDIFF", inp, cmref, Waveform::makeDc(0.0), diffAcMag);
  // DC unity feedback, transparent only below ~1e-10 Hz.
  c.addResistor("RFB", out, inn, 1e9);
  c.addCapacitor("CFB", inn, cmref, 1.0);
  if (routProbeAcMag != 0.0) {
    c.addISource("IPROBE", circuit::kGround, out, Waveform::makeDc(0.0), routProbeAcMag);
  }
  if (parasitics) layout::annotateCircuit(c, *parasitics);
  return c;
}

OtaPerformance measureAmplifier(const tech::Technology& t, const device::MosModel& model,
                                const AmpInstantiateFn& instantiate, double inputCm,
                                double vdd, const layout::ParasiticReport* parasitics,
                                const VerifyOptions& options) {
  OtaPerformance p;
  const double fLow = options.fStart;

  sim::SimOptions simOpt;
  simOpt.tempK = t.temperature;

  // --- One AC testbench, one operating point, every small-signal figure.
  // The excitations (differential, common-mode, supply, output probe) are
  // moved onto branches at solve time (acFrom / acBatch) instead of baked
  // into four acMag-variant copies of the same netlist, so the whole
  // small-signal suite shares a single DC solve, and the low-band
  // excitation block shares each frequency point's factorization. ---
  {
    const Circuit c = buildAmpAcTestbench(instantiate, inputCm, parasitics, 0.0, 0.0, 0.0);
    sim::Simulator sim(c, t, model, simOpt);
    const sim::DcSolution op = sim.dcOperatingPoint();
    const NodeId out = *c.findNode("out");
    const NodeId inp = *c.findNode("inp");

    // Offset: unity feedback forces out = inp - Voffset.
    p.offsetMv = (op.voltage(inp) - op.voltage(out)) * 1e3;

    // Power from the supply branch current.
    for (std::size_t i = 0; i < c.vsources.size(); ++i) {
      if (c.vsources[i].name == "VDD") {
        p.powerMw = std::abs(op.vsourceCurrents[i]) * vdd * 1e3;
      }
    }

    const auto ac = sim.acFrom(op, "VDIFF", fLow, options.fStop, options.pointsPerDecade);
    const sim::AcCurve adm = sim::curveAt(ac, out);
    const double a0 = sim::dcGain(adm);
    p.dcGainDb = sim::toDb(a0);
    p.gbwHz = sim::unityGainFrequency(adm);
    p.phaseMarginDeg = sim::phaseMarginDeg(adm);

    const auto noise = sim.noise(op, out, "VDIFF", kNoiseBandLowHz, kNoiseBandHighHz, 10);
    // Input-referred PSD integrated over the amplifier band (1 Hz .. fu),
    // the same convention the analytic evaluator uses.
    const double inMs = sim::integratePsd(noise, kNoiseBandLowHz,
                                          std::min(p.gbwHz, kNoiseBandHighHz),
                                          /*inputReferred=*/true);
    p.inputNoiseUv = std::sqrt(inMs) * 1e6;
    auto spot = [&](double f) {
      for (std::size_t i = 0; i + 1 < noise.size(); ++i) {
        if (noise[i].freq <= f && f <= noise[i + 1].freq) {
          const double x =
              std::log(f / noise[i].freq) / std::log(noise[i + 1].freq / noise[i].freq);
          return noise[i].inputRefPsd +
                 x * (noise[i + 1].inputRefPsd - noise[i].inputRefPsd);
        }
      }
      return noise.back().inputRefPsd;
    };
    p.thermalNoiseDensityNv = std::sqrt(spot(kThermalSpotHz)) * 1e9;
    p.flickerNoiseUv = std::sqrt(spot(kFlickerSpotHz)) * 1e6;

    // --- CMRR / PSRR / output resistance: one excitation block over the
    // shared low-frequency grid.  Common-mode gain drives the VCM branch,
    // supply rejection the VDD branch, output resistance a unit AC current
    // into "out" -- each curve bit-identical to the standalone
    // ac()/acFrom() measurement it replaces. ---
    const auto lowBand =
        sim.acBatch(op,
                    {sim::AcExcitation::unitVsource("VCM"),
                     sim::AcExcitation::unitVsource("VDD"),
                     sim::AcExcitation::unitCurrent(circuit::kGround, out)},
                    fLow, 10.0 * fLow, 4);
    const double admDc = std::pow(10.0, p.dcGainDb / 20.0);
    const double acm = sim::dcGain(sim::curveAt(lowBand[0], out));
    p.cmrrDb = sim::toDb(admDc / std::max(acm, 1e-12));
    const double avdd = sim::dcGain(sim::curveAt(lowBand[1], out));
    p.psrrDb = sim::toDb(admDc / std::max(avdd, 1e-12));
    p.outputResistanceMOhm = std::abs(lowBand[2].front().at(out)) / 1e6;
  }

  // --- Slew rate: hard unity feedback, +/- step. ---
  {
    const Circuit c = buildAmpSlewTestbench(instantiate, inputCm, parasitics, options);
    sim::Simulator sim(c, t, model, simOpt);
    const auto tran = sim.transient(options.tranStop, options.tranStep);
    const NodeId out = *c.findNode("out");
    const sim::SlewRates sr = sim::slewRates(tran, out, 10e-9);
    p.slewRateVPerUs = std::min(sr.rising, sr.falling) / 1e6;

    // 1% settling after the rising edge (20 ns) toward the pre-fall level.
    const double tEdge = 20e-9;
    const double tFall = 20e-9 + options.tranStop / 2;
    double finalV = 0.0;
    for (const sim::TranPoint& pt : tran) {
      if (pt.time < tFall - 2e-9) finalV = pt.nodeV[out];
    }
    const double band = 0.01 * options.stepAmplitude;
    double settled = options.tranStop;
    for (std::size_t i = tran.size(); i-- > 0;) {
      if (tran[i].time < tEdge || tran[i].time > tFall - 2e-9) continue;
      if (std::abs(tran[i].nodeV[out] - finalV) > band) {
        settled = tran[i].time;
        break;
      }
    }
    p.settlingTimeNs = (settled - tEdge) * 1e9;
  }

  return p;
}

Circuit OtaVerifier::buildAcTestbench(const FoldedCascodeOtaDesign& design,
                                      const layout::ParasiticReport* parasitics,
                                      double diffAcMag, double cmAcMag,
                                      double routProbeAcMag) const {
  return buildAmpAcTestbench(
      [&](Circuit& c) { circuit::instantiateOta(c, design); }, design.inputCm, parasitics,
      diffAcMag, cmAcMag, routProbeAcMag);
}

OtaPerformance OtaVerifier::verify(const FoldedCascodeOtaDesign& design,
                                   const layout::ParasiticReport* parasitics) const {
  return measureAmplifier(
      tech_, model_, [&](Circuit& c) { circuit::instantiateOta(c, design); },
      design.inputCm, design.vdd, parasitics, options_);
}

}  // namespace lo::sizing
