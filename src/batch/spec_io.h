// JSON (de)serialization of mined artifacts — SyntaxSpec, CommandSpec, and
// whole MiningOutcomes — so the Fig. 4 pipeline's expensive middle (the
// probe sweep) is cached like analysis reports are: mined once ahead of
// time, reloaded instantly at invocation time, re-probed only when the
// corpus entry changed. Enums are encoded as integers; the sash version is
// part of every cache key, so the encoding only has to be stable within one
// build.
#ifndef SASH_BATCH_SPEC_IO_H_
#define SASH_BATCH_SPEC_IO_H_

#include <optional>
#include <string>
#include <string_view>

#include "mining/pipeline.h"
#include "obs/json.h"
#include "specs/hoare.h"

namespace sash::batch {

void WriteSyntaxSpec(const specs::SyntaxSpec& spec, obs::JsonWriter* w);
void WriteCommandSpec(const specs::CommandSpec& spec, obs::JsonWriter* w);

std::optional<specs::SyntaxSpec> ReadSyntaxSpec(const obs::JsonValue& v);
std::optional<specs::CommandSpec> ReadCommandSpec(const obs::JsonValue& v);

// A full mining outcome as one cache entry: its JSON document as the body
// of the sealed container (SealEntry, kind "mine").
std::string EncodeMiningOutcome(std::string_view key, const mining::MiningOutcome& outcome);
std::optional<mining::MiningOutcome> DecodeMiningOutcome(std::string_view payload);

}  // namespace sash::batch

#endif  // SASH_BATCH_SPEC_IO_H_
