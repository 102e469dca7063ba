// Differential tests for the per-analysis regex algebra memo
// (regex::AlgebraScope). Every memoized operation must return what the
// direct DFA computation returns — same display pattern, same language, and
// the same witness, samples and automaton size, since reports print those —
// and no analysis may observe anything a previous analysis left behind.
// Labelled concurrency as well as unit: the TSan job runs it, with four
// threads each analyzing under its own scope.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/batch.h"
#include "core/analyzer.h"
#include "json_normalize.h"
#include "obs/metrics.h"
#include "regex/glob.h"
#include "regex/regex.h"
#include "rtypes/types.h"
#include "script_generator.h"
#include "specs/library.h"
#include "symex/engine.h"
#include "syntax/parser.h"

namespace sash {
namespace {

using regex::AlgebraScope;
using regex::Regex;

// Hand-written scripts that reach the string, test and glob operators the
// grammar fuzzer rarely combines.
const char* const kFigureScripts[] = {
    "STEAMROOT=\"$(cd \"${0%/*}\" && echo \"$PWD\")\"\nrm -rf \"$STEAMROOT/\"*\n",
    "if [ -n \"$ROOT\" ]; then\n  rm -r \"$ROOT/tmp\"\nfi\n",
    "lsb_release -a | grep Release | cut -f2\n",
    "D=\"$1\"\ncase \"$D\" in\n  /*) cd \"$D\" && rm -rf * ;;\n  *) echo rel ;;\nesac\n",
    "X=${HOME:-/tmp}\nY=\"$X/a\"\nif [ \"$Y\" = /tmp/a ]; then echo same; fi\nrm -f \"$Y\"\n",
    "for f in *.log; do\n  [ -z \"$f\" ] || cat \"$f\" | grep -c err\ndone\n",
};

// The corpus every test below analyzes: the figure-like scripts, then
// grammar-fuzzer programs.
std::vector<std::string> Corpus(int generated) {
  std::vector<std::string> scripts(std::begin(kFigureScripts), std::end(kFigureScripts));
  for (int seed = 1; seed <= generated; ++seed) {
    testing::ScriptGenerator gen(static_cast<uint32_t>(seed));
    scripts.push_back(gen.Program());
  }
  return scripts;
}

// Languages the analysis really produces — the variable values and working
// directories of symex final states over the corpus, built inside a scope
// as the analyzer builds them — plus the spec and line-type patterns.
std::vector<Regex> CorpusLanguages(size_t limit) {
  std::vector<Regex> out;
  std::set<std::string> seen;
  auto add = [&](const Regex& r) {
    if (out.size() < limit && seen.insert(r.pattern()).second) {
      out.push_back(r);
    }
  };
  rtypes::TypeLibrary types = rtypes::TypeLibrary::Default();
  for (const std::string& name : types.Names()) {
    add(*types.Find(name));
  }
  const specs::SpecLibrary& library = specs::SpecLibrary::BuiltinGroundTruth();
  for (const std::string& name : library.CommandNames()) {
    const std::string& pattern = library.Find(name)->stdout_line_type;
    if (std::optional<Regex> r = Regex::FromPattern(pattern); r.has_value()) {
      add(*r);
    }
  }
  AlgebraScope scope;
  for (const std::string& script : Corpus(40)) {
    syntax::ParseOutput parsed = syntax::Parse(script);
    DiagnosticSink sink;
    symex::Engine engine(symex::EngineOptions{}, &sink);
    for (const symex::State& state : engine.Run(parsed.program)) {
      add(state.cwd.lang());
      for (const auto& [name, value] : state.vars()) {
        add(value.lang());
      }
    }
  }
  return out;
}

void ExpectSameLanguage(const Regex& memo, const Regex& direct, const std::string& what) {
  EXPECT_EQ(memo.pattern(), direct.pattern()) << what;
  EXPECT_TRUE(memo.EquivalentTo(direct)) << what;
  EXPECT_EQ(memo.Witness(), direct.Witness()) << what;
  EXPECT_EQ(memo.Samples(3), direct.Samples(3)) << what;
  EXPECT_EQ(memo.DfaStates(), direct.DfaStates()) << what;
}

struct OpCase {
  std::string name;
  std::function<Regex(const Regex&, const Regex&)> op;
};

const std::vector<OpCase>& Ops() {
  static const std::vector<OpCase> kOps = {
      {"Intersect", [](const Regex& a, const Regex& b) { return a.Intersect(b); }},
      {"Union", [](const Regex& a, const Regex& b) { return a.Union(b); }},
      {"Concat", [](const Regex& a, const Regex& b) { return a.Concat(b); }},
      {"Complement", [](const Regex& a, const Regex&) { return a.Complement(); }},
      {"Star", [](const Regex& a, const Regex&) { return a.Star(); }},
      // Second-order: operands that are themselves DFA-only results.
      {"Complement.Concat", [](const Regex& a, const Regex& b) { return a.Complement().Concat(b); }},
      {"Intersect.Star", [](const Regex& a, const Regex& b) { return a.Intersect(b).Star(); }},
  };
  return kOps;
}

// A fixed, spread-out sample of operand pairs (i, j): every language meets a
// handful of partners, including itself.
std::vector<std::pair<size_t, size_t>> Pairs(size_t n) {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < n; ++i) {
    for (size_t step : {size_t{0}, size_t{1}, n / 2 + 1}) {
      pairs.emplace_back(i, (i + step) % n);
    }
  }
  return pairs;
}

TEST(RegexMemoTest, MemoizedOpsMatchDirectComputation) {
  const std::vector<Regex> langs = CorpusLanguages(48);
  ASSERT_GE(langs.size(), 24u);
  const auto pairs = Pairs(langs.size());

  // Direct: no scope is open, so nothing is shared or memoized.
  std::vector<Regex> direct;
  std::vector<bool> direct_included;
  for (const auto& [i, j] : pairs) {
    for (const OpCase& c : Ops()) {
      direct.push_back(c.op(langs[i], langs[j]));
    }
    direct_included.push_back(langs[i].IncludedIn(langs[j]));
  }

  AlgebraScope scope;
  std::vector<Regex> memo;
  size_t m = 0;
  for (const auto& [i, j] : pairs) {
    for (const OpCase& c : Ops()) {
      memo.push_back(c.op(langs[i], langs[j]));
      ExpectSameLanguage(memo.back(), direct[memo.size() - 1],
                         c.name + "(" + langs[i].pattern() + ", " + langs[j].pattern() + ")");
    }
    EXPECT_EQ(langs[i].IncludedIn(langs[j]), direct_included[m++])
        << langs[i].pattern() << " <= " << langs[j].pattern();
  }
  // Asked again, every operation is a hit that hands back the same language.
  const uint64_t misses = scope.stats().misses;
  size_t k = 0;
  m = 0;
  for (const auto& [i, j] : pairs) {
    for (const OpCase& c : Ops()) {
      Regex again = c.op(langs[i], langs[j]);
      EXPECT_EQ(again.pattern(), memo[k].pattern());
      EXPECT_EQ(&again.dfa(), &memo[k].dfa()) << c.name;
      ++k;
    }
    EXPECT_EQ(langs[i].IncludedIn(langs[j]), direct_included[m++]);
  }
  EXPECT_EQ(scope.stats().misses, misses);
  EXPECT_GT(scope.stats().hits, 0u);
}

// An AST-backed language that adopts a DFA by display pattern must behave
// exactly like its own DFA would.
TEST(RegexMemoTest, SharedDfasMatchEachAstsOwnDfa) {
  const std::vector<Regex> langs = CorpusLanguages(48);
  AlgebraScope scope;
  for (const Regex& lang : langs) {
    if (lang.ast() == nullptr) {
      continue;
    }
    Regex shared = Regex::FromAst(lang.ast());
    regex::Dfa own = regex::Dfa::FromAst(lang.ast()).Minimize();
    EXPECT_EQ(shared.DfaStates(), static_cast<size_t>(own.NumStates())) << lang.pattern();
    EXPECT_EQ(shared.Witness(), own.ShortestWitness()) << lang.pattern();
    EXPECT_EQ(shared.Samples(3), own.SampleStrings(3)) << lang.pattern();
  }
}

// The same display text reached through different AST shapes: the parser's
// "a|b" and a hand-built alternation, "x?" as (x|ε) and as (ε|x).
// FromPattern itself displays its source text and does not share, but must
// still agree with the AST-built language of the same text.
TEST(RegexMemoTest, SamePatternThroughDifferentAstShapes) {
  using regex::CharSet;
  using regex::MakeAlt2;
  using regex::MakeChars;
  using regex::MakeEpsilon;
  auto ch = [](char c) { return MakeChars(CharSet::Of(static_cast<unsigned char>(c))); };

  struct Shapes {
    std::function<Regex()> first;
    std::function<Regex()> second;
  };
  auto parsed = [](const char* text) { return Regex::FromAst(Regex::FromPattern(text)->ast()); };
  const std::vector<Shapes> cases = {
      {[&] { return parsed("a|b"); }, [&] { return Regex::FromAst(MakeAlt2(ch('a'), ch('b'))); }},
      {[&] { return Regex::FromAst(MakeAlt2(ch('x'), MakeEpsilon())); },
       [&] { return Regex::FromAst(MakeAlt2(MakeEpsilon(), ch('x'))); }},
      {[&] { return parsed("x?"); }, [&] { return Regex::FromAst(MakeAlt2(MakeEpsilon(), ch('x'))); }},
  };
  const Regex y = Regex::Literal("y");
  for (const Shapes& c : cases) {
    const Regex first_direct = c.first();
    const Regex second_direct = c.second();
    const Regex union_direct = second_direct.Union(y);
    ASSERT_EQ(first_direct.pattern(), second_direct.pattern());

    AlgebraScope scope;
    const Regex first = c.first();
    const Regex second = c.second();
    EXPECT_EQ(&first.dfa(), &second.dfa()) << "one DFA per display pattern";
    ExpectSameLanguage(first, first_direct, first.pattern());
    ExpectSameLanguage(second, second_direct, second.pattern());
    EXPECT_EQ(first.Witness(), second.Witness());
    EXPECT_EQ(first.Samples(3), second.Samples(3));
    // Union is rebuilt from the AST, so it must not be served across shapes:
    // (x|ε)|y prints "x|()|y" but (ε|x)|y prints "()|x|y".
    first.Union(y);
    ExpectSameLanguage(second.Union(y), union_direct, "union of " + second.pattern());
    ExpectSameLanguage(*Regex::FromPattern(first.pattern()), first_direct,
                       "FromPattern " + first.pattern());
  }
}

// A negated class means different languages to the two readers of "[^a]":
// the regex parser leaves out newline, a glob's "[!a]" keeps it, and the
// glob's ToPattern rendering is also "[^a]". Whichever is built first, in
// whichever order, neither may take the other's DFA, and nothing a scope
// saw may reach the process-wide pattern cache.
TEST(RegexMemoTest, NegatedClassTextIsNotSharedAcrossReaders) {
  regex::PatternCache::Clear();
  for (bool glob_first : {true, false}) {
    AlgebraScope scope;
    std::optional<Regex> glob;
    std::optional<Regex> pattern;
    if (glob_first) {
      glob = regex::GlobLanguage("[!a]");
      pattern = Regex::FromPattern("[^a]");
    } else {
      pattern = Regex::FromPattern("[^a]");
      glob = regex::GlobLanguage("[!a]");
    }
    EXPECT_EQ(glob->pattern(), "[^a]");
    EXPECT_TRUE(glob->Matches("\n")) << "glob first: " << glob_first;
    EXPECT_FALSE(pattern->Matches("\n")) << "glob first: " << glob_first;
    EXPECT_FALSE(glob->EquivalentTo(*pattern));
    EXPECT_TRUE(pattern->IncludedIn(*glob));
    EXPECT_FALSE(glob->IncludedIn(*pattern));
  }
  // Both are now cache hits, built under scopes that have since closed.
  EXPECT_FALSE(Regex::FromPattern("[^a]")->Matches("\n"));
  EXPECT_TRUE(regex::GlobLanguage("[!a]").Matches("\n"));
  AlgebraScope later;
  EXPECT_FALSE(Regex::FromPattern("[^a]")->Matches("\n"));
  EXPECT_TRUE(regex::GlobLanguage("[!a]").Matches("\n"));
}

TEST(RegexMemoTest, ConstantsAndLiteralsAreShared) {
  EXPECT_EQ(&Regex::AnyLine().dfa(), &Regex::AnyLine().dfa());
  EXPECT_EQ(&Regex::Nothing().dfa(), &Regex::Nothing().dfa());
  EXPECT_EQ(&Regex::Epsilon().dfa(), &Regex::Epsilon().dfa());
  {
    AlgebraScope scope;
    EXPECT_EQ(&Regex::Literal("abc").dfa(), &Regex::Literal("abc").dfa());
    // Each call counts once: the first a miss, the second a hit.
    EXPECT_EQ(scope.stats().hits, 1u);
    EXPECT_EQ(scope.stats().misses, 1u);
  }
  // Outside a scope each literal owns its DFA.
  EXPECT_NE(&Regex::Literal("abc").dfa(), &Regex::Literal("abc").dfa());
}

// Scopes nest; the memo lives until the outermost closes, and the next
// scope starts empty.
TEST(RegexMemoTest, MemoIsDroppedWhenTheOutermostScopeCloses) {
  const Regex a = *Regex::FromPattern("[a-c]+");
  const Regex b = *Regex::FromPattern("b*");
  {
    AlgebraScope outer;
    a.Intersect(b);
    {
      AlgebraScope inner;
      a.Intersect(b);
      EXPECT_EQ(inner.stats().hits, 1u);
    }
    a.Intersect(b);
    EXPECT_EQ(outer.stats().hits, 2u);
    EXPECT_EQ(outer.stats().misses, 1u);
  }
  AlgebraScope fresh;
  EXPECT_EQ(fresh.stats().hits, 0u);
  EXPECT_EQ(fresh.stats().misses, 0u);
  EXPECT_EQ(fresh.stats().languages, 0u);
}

core::AnalyzerOptions FullOptions() {
  core::AnalyzerOptions options;
  options.enable_lint = true;
  options.enable_idempotence_check = true;
  options.enable_optimization_coach = true;
  return options;
}

std::string AnalyzeNormalized(const std::string& script) {
  core::Analyzer analyzer(FullOptions());
  return sash::testing::NormalizeJson(analyzer.AnalyzeSource(script).ToJson(nullptr));
}

// Four threads analyze the corpus at once, each analysis under its own
// scope on its own thread, and must agree with a single-threaded run.
TEST(RegexMemoTest, ConcurrentScopesAgreeWithSingleThreaded) {
  const std::vector<std::string> scripts = Corpus(30);
  std::vector<std::string> expected;
  for (const std::string& s : scripts) {
    expected.push_back(AnalyzeNormalized(s));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the corpus from a different offset so the threads
      // build the same languages at different times.
      for (size_t k = 0; k < scripts.size(); ++k) {
        size_t i = (k + static_cast<size_t>(t) * 7) % scripts.size();
        got[t].push_back(std::to_string(i) + ":" + AnalyzeNormalized(scripts[i]));
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (const std::string& entry : got[t]) {
      size_t colon = entry.find(':');
      size_t i = std::stoul(entry.substr(0, colon));
      EXPECT_EQ(entry.substr(colon + 1), expected[i]) << "thread " << t << " script " << i;
    }
  }
}

TEST(RegexMemoTest, AnalysisPublishesMemoCounters) {
  obs::Registry registry;
  core::AnalyzerOptions options = FullOptions();
  options.obs.metrics = &registry;
  core::Analyzer analyzer(options);
  analyzer.AnalyzeSource(kFigureScripts[0]);
  obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_GT(snap.counters["regex.memo.hits"], 0);
  EXPECT_GT(snap.counters["regex.memo.misses"], 0);
  EXPECT_GT(snap.gauges["regex.memo.languages"], 0);
}

// A report may depend only on its own script: forward, reverse and batch
// orders at one and four jobs must all produce the same bytes. Warm replay
// stores these bytes, so a leak here would surface as a cache entry that
// depends on which file ran before it on the same thread.
TEST(RegexMemoTest, NoLeakageBetweenAnalyses) {
  const std::vector<std::string> scripts = Corpus(60);
  std::vector<std::string> forward;
  for (const std::string& s : scripts) {
    forward.push_back(AnalyzeNormalized(s));
  }
  std::vector<std::string> reverse(scripts.size());
  for (size_t i = scripts.size(); i-- > 0;) {
    reverse[i] = AnalyzeNormalized(scripts[i]);
  }
  EXPECT_EQ(forward, reverse);

  std::vector<std::pair<std::string, std::string>> sources;
  for (size_t i = 0; i < scripts.size(); ++i) {
    sources.emplace_back("s" + std::to_string(i) + ".sh", scripts[i]);
  }
  for (int jobs : {1, 4}) {
    batch::BatchOptions options;
    options.jobs = jobs;
    options.use_cache = false;
    options.analyzer = FullOptions();
    batch::BatchDriver driver(options);
    batch::BatchResult result = driver.RunSources(sources);
    ASSERT_EQ(result.files.size(), scripts.size());
    for (size_t i = 0; i < scripts.size(); ++i) {
      EXPECT_EQ(sash::testing::NormalizeJson(result.files[i].report_json), forward[i])
          << "jobs=" << jobs << " script " << i << "\n" << scripts[i];
    }
  }
}

}  // namespace
}  // namespace sash
