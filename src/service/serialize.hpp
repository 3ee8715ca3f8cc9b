// JSON (de)serialisation of the engine's value types, shared by the
// result-cache disk store, the losynthd protocol and the service bench.
//
// Round trips are exact: every double survives toJson -> dump -> parse ->
// fromJson bit-identically (see Json::formatNumber), so a result served
// from the disk store is indistinguishable from the cold run that
// produced it.
#pragma once

#include <string>
#include <vector>

#include "core/engine.hpp"
#include "service/json.hpp"
#include "service/scheduler.hpp"

namespace lo::service {

[[nodiscard]] Json toJson(const sizing::OtaPerformance& perf);
[[nodiscard]] sizing::OtaPerformance performanceFromJson(const Json& j);

[[nodiscard]] Json toJson(const core::EngineResult& result);
[[nodiscard]] core::EngineResult resultFromJson(const Json& j);

/// Post-layout verification report round trip.  toJson(EngineResult) only
/// emits the "verification" member when the report actually ran, so
/// results from configurations that never enabled the tier stay
/// byte-identical to what they serialised before the tier existed.
[[nodiscard]] Json toJson(const verify::VerificationReport& report);
[[nodiscard]] verify::VerificationReport verificationFromJson(const Json& j);

/// Full-fidelity JobRequest round trip for the write-ahead job journal:
/// every field that influences the job's result or its scheduling (label,
/// topology, case, model, engine knobs, verify options, specs, corner,
/// priority, deadline, retries, cache bypass) survives exactly, so a
/// replayed job computes the same cache key as the original submission.
[[nodiscard]] Json toJson(const JobRequest& request);
[[nodiscard]] JobRequest jobRequestFromJson(const Json& j);

[[nodiscard]] Json toJson(const sizing::OtaSpecs& specs);
/// Apply the members present in `j` onto `specs` (absent fields keep their
/// defaults); throws std::invalid_argument on an unknown field name, so
/// client typos fail loudly instead of silently synthesising the default.
void specsFromJson(const Json& j, sizing::OtaSpecs& specs);

/// Throws std::invalid_argument naming the first spec field no synthesis
/// can take: a value that is not finite, or a gbw, cload or vdd <= 0.
void requireSpecDomain(const sizing::OtaSpecs& specs);

/// The OtaSpecs field names the protocol understands ("spec" object keys),
/// in their canonical serialisation order.
[[nodiscard]] const std::vector<std::string>& specFieldNames();

/// Set one spec field by its protocol name; throws std::invalid_argument
/// on an unknown name.  The explorer sweeps spec axes by name through it
/// instead of hard-coding members.
void setSpecField(sizing::OtaSpecs& specs, const std::string& name, double value);

/// "case1".."case4" (or bare 1..4) -> SizingCase; throws on anything else.
[[nodiscard]] core::SizingCase sizingCaseFromJson(const Json& j);

/// "tt"/"ss"/"ff"/"sf"/"fs" -> corner; throws std::invalid_argument.
[[nodiscard]] tech::ProcessCorner cornerFromName(const std::string& name);

}  // namespace lo::service
