// Hot-path benchmark: cold single-script analysis over the checked-in
// example corpus (examples/scripts/, override with SASH_SCRIPTS_DIR; a
// synthetic corpus stands in when the directory is absent so CI from any cwd
// still runs), on the one path that ships — digest state merging, the
// regex/glob pattern cache, the Describe() memo and the emit early-out.
//
// Gates (bench/baseline.json): ms/script against the committed reference;
// paranoid merging renders the corpus byte-identically with zero digest
// disagreements; one cold corpus pass makes at least the recorded number of
// pattern-cache hits (a deterministic count).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "core/analyzer.h"
#include "regex/regex.h"
#include "util/intern.h"

namespace {

namespace fs = std::filesystem;

struct Script {
  std::string name;
  std::string source;
};

std::string SyntheticScript(int i) {
  std::string s = "# synthetic corpus " + std::to_string(i) + "\n";
  s += "PREFIX=/srv/app" + std::to_string(i) + "\n";
  s += "for f in a b c d; do\n  echo \"$PREFIX/$f\"\ndone\n";
  s += "if test -d \"$PREFIX\"; then\n  rm -r \"$PREFIX/stale\"\nfi\n";
  s += "cat conf | grep key" + std::to_string(i) + " | sort | uniq -c\n";
  s += "mkdir -p \"$PREFIX/logs\"\ntouch \"$PREFIX/logs/run\"\n";
  return s;
}

std::vector<Script> LoadCorpus() {
  const char* env = std::getenv("SASH_SCRIPTS_DIR");
  fs::path dir = env != nullptr ? env : "examples/scripts";
  std::error_code ec;
  if (env == nullptr && !fs::is_directory(dir, ec)) {
    dir = "../examples/scripts";  // Run from the build root.
  }
  std::vector<Script> corpus;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".sh") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    corpus.push_back({entry.path().filename().string(), buf.str()});
  }
  std::sort(corpus.begin(), corpus.end(),
            [](const Script& a, const Script& b) { return a.name < b.name; });
  if (corpus.empty()) {
    for (int i = 0; i < 8; ++i) {
      corpus.push_back({"synthetic_" + std::to_string(i) + ".sh", SyntheticScript(i)});
    }
  }
  return corpus;
}

struct CorpusResult {
  int64_t total_ns = 0;
  int64_t peak_states = 0;  // Max over scripts.
  int64_t digest_collisions = 0;
  size_t findings = 0;
  std::string rendered;  // Concatenated findings text, for identity checks.
};

CorpusResult AnalyzeCorpus(const std::vector<Script>& corpus, bool paranoid = false) {
  CorpusResult out;
  for (const Script& script : corpus) {
    // Fresh analyzer per script: cold single-script analysis is the metric.
    sash::core::Analyzer analyzer;
    analyzer.options().engine.paranoid_merge = paranoid;
    auto start = std::chrono::steady_clock::now();
    sash::core::AnalysisReport report = analyzer.AnalyzeSource(script.source);
    auto end = std::chrono::steady_clock::now();
    out.total_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
    out.peak_states = std::max(out.peak_states,
                               static_cast<int64_t>(report.engine_stats().states_peak));
    out.digest_collisions += report.engine_stats().digest_collisions;
    out.findings += report.findings().size();
    out.rendered += "== " + script.name + " ==\n" + report.ToString();
  }
  return out;
}

std::string FormatMsPerScript(int64_t total_ns, size_t scripts) {
  double ms = static_cast<double>(total_ns) / 1e6 / static_cast<double>(scripts);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void PrintResult() {
  std::vector<Script> corpus = LoadCorpus();

  // Warm-up pass so lazily-built tables (spec index, typing rules, builtin
  // sets) are constructed before the timed passes.
  AnalyzeCorpus(corpus);

  // Best of 5 cold passes: the DFA cache is cleared before each, since the
  // claim is cold single-script analysis, where the cache still wins because
  // patterns repeat within a script and across the spec library. Every cold
  // pass makes the same lookups, so its hit count is deterministic.
  CorpusResult best;
  best.total_ns = INT64_MAX;
  int64_t pass_hits = 0;
  int64_t pass_misses = 0;
  for (int rep = 0; rep < 5; ++rep) {
    sash::regex::PatternCache::Clear();
    uint64_t hits0 = sash::regex::PatternCache::Hits();
    uint64_t misses0 = sash::regex::PatternCache::Misses();
    CorpusResult r = AnalyzeCorpus(corpus);
    pass_hits = static_cast<int64_t>(sash::regex::PatternCache::Hits() - hits0);
    pass_misses = static_cast<int64_t>(sash::regex::PatternCache::Misses() - misses0);
    if (r.total_ns < best.total_ns) {
      best = std::move(r);
    }
  }
  // The equivalence oracle: paranoid merging takes every merge decision on
  // the rendered state signature too, counting each disagreement.
  CorpusResult paranoid = AnalyzeCorpus(corpus, /*paranoid=*/true);
  bool identical = paranoid.rendered == best.rendered && paranoid.digest_collisions == 0;

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"ms/script", "peak states", "findings", "DFA cache hits/pass",
                  "paranoid identical"});
  rows.push_back({FormatMsPerScript(best.total_ns, corpus.size()),
                  std::to_string(best.peak_states), std::to_string(best.findings),
                  std::to_string(pass_hits), identical ? "yes" : "NO"});
  sash::bench::PrintTable("H1: cold single-script analysis over " +
                              std::to_string(corpus.size()) + " scripts",
                          rows);
  sash::bench::Metric("hotpath.ns_per_script.full",
                      best.total_ns / static_cast<int64_t>(corpus.size()));
  sash::bench::Metric("hotpath.peak_states.full", best.peak_states);
  sash::bench::Metric("hotpath.identical.paranoid", identical ? 1 : 0);
  sash::bench::Metric("hotpath.dfa_cache.hits", pass_hits);
  sash::bench::Metric("hotpath.dfa_cache.misses", pass_misses);

  // Tab7-style sweep: b independent branches that all assign one shared
  // variable, so paths that agree on everything else rejoin after each `fi`
  // and merge. Paranoid merging checks every decision.
  std::vector<std::vector<std::string>> sweep;
  sweep.push_back({"branches b", "peak states", "merged", "digest collisions"});
  for (int b : {2, 4, 6, 8, 10}) {
    std::string src;
    for (int i = 0; i < b; ++i) {
      src += "if grep -q key /etc/conf" + std::to_string(i) + "; then f=1; fi\n";
    }
    src += "echo done\n";
    sash::syntax::ParseOutput parsed = sash::syntax::Parse(src);
    sash::DiagnosticSink sink;
    sash::symex::EngineOptions options;
    options.paranoid_merge = true;
    options.report_unset_vars = false;
    sash::symex::Engine engine(options, &sink);
    engine.Run(parsed.program);
    const sash::symex::EngineStats& stats = engine.stats();
    sweep.push_back({std::to_string(b), std::to_string(stats.states_peak),
                     std::to_string(stats.states_merged),
                     std::to_string(stats.digest_collisions)});
    sash::bench::Metric("hotpath.sweep.peak_states.b" + std::to_string(b), stats.states_peak);
    sash::bench::Metric("hotpath.sweep.merged.b" + std::to_string(b), stats.states_merged);
  }
  sash::bench::PrintTable("H2: state-merging sweep (expected: 0 digest collisions)", sweep);

  sash::bench::Metric("hotpath.intern.size",
                      static_cast<int64_t>(sash::util::Interner::size()));
}

void BM_AnalyzeCorpus(benchmark::State& state) {
  static const std::vector<Script>* corpus = new std::vector<Script>(LoadCorpus());
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeCorpus(*corpus).findings);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(corpus->size()));
}
BENCHMARK(BM_AnalyzeCorpus)->Unit(benchmark::kMillisecond);

void BM_PatternCompile(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sash::regex::Regex::FromPattern("[-+]?\\d+(\\.\\d+)?"));
  }
}
BENCHMARK(BM_PatternCompile);

}  // namespace

SASH_BENCH_MAIN(PrintResult)
