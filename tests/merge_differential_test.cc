// Merge differential suite: over the shared fuzz-grammar corpus, the state
// merging strategy must be invisible in the report. Digest merging must take
// exactly the decisions the rendered state signatures would (paranoid
// merging checks both directions at every merge point), and merging on/off
// must produce identical sash-analysis-v1 findings (engine stats differ by
// construction there: that is what merging does).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/analyzer.h"
#include "json_normalize.h"
#include "obs/json.h"
#include "script_generator.h"
#include "symex/engine.h"
#include "syntax/parser.h"

namespace sash {
namespace {

constexpr uint32_t kSeeds = 60;

core::AnalyzerOptions DifferentialOptions() {
  core::AnalyzerOptions options;
  options.enable_lint = true;
  options.enable_idempotence_check = true;
  options.enable_optimization_coach = true;
  return options;
}

struct RunResult {
  std::string json;            // Normalized full document.
  std::string findings_no_notes;  // Findings with witness notes stripped.
  int digest_collisions = 0;
};

RunResult Analyze(const std::string& script, bool merge, bool paranoid, int max_states = 0) {
  core::AnalyzerOptions options = DifferentialOptions();
  options.engine.merge_identical_states = merge;
  options.engine.paranoid_merge = paranoid;
  if (max_states > 0) {
    options.engine.max_states = max_states;
  }
  core::Analyzer analyzer(options);
  core::AnalysisReport report = analyzer.AnalyzeSource(script);
  RunResult out;
  out.json = sash::testing::NormalizeJson(report.ToJson(nullptr));
  out.digest_collisions = report.engine_stats().digest_collisions;
  std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(out.json);
  if (doc.has_value() && doc->is_object()) {
    if (const obs::JsonValue* findings = doc->Find("findings")) {
      obs::JsonValue stripped = *findings;
      for (obs::JsonValue& f : stripped.array) {
        if (f.is_object()) {
          f.object.erase(
              std::remove_if(f.object.begin(), f.object.end(),
                             [](const auto& kv) { return kv.first == "notes"; }),
              f.object.end());
        }
      }
      obs::JsonWriter w;
      obs::WriteJsonValue(stripped, &w);
      out.findings_no_notes = w.Take();
    }
  }
  return out;
}

TEST(MergeDifferentialTest, DigestMatchesLegacySignaturesByteForByte) {
  // Paranoid merging takes every decision on both the digest and the
  // rendered signature and counts each disagreement: a digest hit whose
  // signature differs, or a new digest whose signature was already seen.
  // Zero means the digest merged exactly where the signatures would have,
  // so the report must not move a byte.
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    testing::ScriptGenerator gen(seed);
    std::string script = gen.Program();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + script);
    RunResult plain = Analyze(script, /*merge=*/true, /*paranoid=*/false);
    RunResult paranoid = Analyze(script, /*merge=*/true, /*paranoid=*/true);
    EXPECT_EQ(plain.json, paranoid.json);
    EXPECT_EQ(paranoid.digest_collisions, 0);
  }
}

TEST(MergeDifferentialTest, ParanoidMergeSeparatesStatesByCwd) {
  // An analysis starts from a symbolic cwd, and `cd` from a symbolic cwd
  // stays symbolic, so no analyzed script tells states apart by cwd alone.
  // This engine run starts from a concrete cwd with /srv already known to
  // be a directory; once PWD is reset, the two branches differ in cwd only.
  syntax::ParseOutput parsed =
      syntax::Parse("if grep -q key; then cd /srv; fi\nPWD=/\necho done\n");
  DiagnosticSink sink;
  symex::EngineOptions options;
  options.paranoid_merge = true;
  symex::Engine engine(options, &sink);
  symex::State initial = engine.MakeInitialState();
  initial.cwd = symex::SymValue::Concrete("/");
  initial.sfs.Assume(symfs::PathKey::Concrete("/srv"), specs::PathState::kIsDir);
  std::set<std::string> cwds;
  for (const symex::State& st : engine.RunFrom(std::move(initial), parsed.program)) {
    cwds.insert(st.cwd.concrete());
  }
  EXPECT_EQ(engine.stats().digest_collisions, 0);
  EXPECT_EQ(cwds, (std::set<std::string>{"/", "/srv"}));
}

TEST(MergeDifferentialTest, MergingNeverChangesFindings) {
  // Two deliberate relaxations, both inherent to what merging IS:
  //   - the state cap is lifted (merging exists to preserve coverage under
  //     the cap; an unmerged run at the default cap drops paths outright,
  //     legitimately losing findings);
  //   - witness notes are stripped (assumptions are deliberately not part
  //     of state identity, so merging may pick a representative whose
  //     example path differs).
  // The diagnostics themselves (severity, code, location, message) must
  // not move.
  for (uint32_t seed = 1; seed <= kSeeds; ++seed) {
    testing::ScriptGenerator gen(seed);
    std::string script = gen.Program();
    SCOPED_TRACE("seed=" + std::to_string(seed) + "\n" + script);
    RunResult merged = Analyze(script, /*merge=*/true, /*paranoid=*/false, 1 << 16);
    RunResult unmerged = Analyze(script, /*merge=*/false, /*paranoid=*/false, 1 << 16);
    ASSERT_FALSE(merged.findings_no_notes.empty());
    EXPECT_EQ(merged.findings_no_notes, unmerged.findings_no_notes);
  }
}

}  // namespace
}  // namespace sash
