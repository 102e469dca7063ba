// Self-test of the benchmark's own arithmetic and generator:
//   - the corpus generator gives the same bytes for the same seed (and a
//     pinned digest, so a change to the generator cannot pass unnoticed);
//   - the size mix and the planted answers are what the generator claims;
//   - percentiles, medians and span self times are computed correctly.
// Exits 0 when every check passes; prints each failure.
#include <cstdio>
#include <string>
#include <vector>

#include "corpus.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

std::string Line(const std::string& source, int line) {
  size_t start = 0;
  for (int i = 1; i < line; ++i) {
    start = source.find('\n', start);
    if (start == std::string::npos) return "";
    ++start;
  }
  return source.substr(start, source.find('\n', start) - start);
}

void TestGenerator() {
  using perfbench::CorpusDigest;
  using perfbench::GenerateCorpus;
  const auto a = GenerateCorpus(7, 1, 60);
  const auto b = GenerateCorpus(7, 1, 60);
  Check(CorpusDigest(a) == CorpusDigest(b), "same seed gives the same corpus");
  Check(CorpusDigest(a) != CorpusDigest(GenerateCorpus(8, 1, 60)), "seeds differ");
  Check(CorpusDigest(a) != CorpusDigest(GenerateCorpus(7, 2, 60)), "tags differ");
  // A script does not depend on how many were generated before it.
  Check(perfbench::GenerateScript(7, 1, 45).source == a[45].source, "scripts are independent");
  const std::string pinned = CorpusDigest(GenerateCorpus(1, 1, 40));
  Check(pinned == "34a7642b8426abed15ea312eada791c48428d7260dd7168a4c21c0d63fa1fd42",
        "pinned digest of seed 1 (got " + pinned + ")");

  int small = 0, medium = 0, large = 0, planted = 0;
  for (const auto& s : a) {
    int lines = 0;
    for (char c : s.source) lines += c == '\n';
    const char cls = s.size_class;
    if (cls == 'S') ++small, Check(lines >= 5 && lines <= 80, s.name + " small size");
    if (cls == 'M') ++medium, Check(lines >= 30 && lines <= 250, s.name + " medium size");
    if (cls == 'L') ++large, Check(lines >= 300 && lines <= 1500, s.name + " large size");
    for (const auto& bug : s.planted) {
      ++planted;
      const std::string text = Line(s.source, bug.line);
      if (bug.shape == "steam") {
        Check(text.rfind("rm ", 0) == 0 && text.find("/\"*") != std::string::npos,
              s.name + " steam line: " + text);
      } else if (bug.shape == "stream") {
        Check(text.find("lsb_release -a | grep") != std::string::npos,
              s.name + " stream line: " + text);
      } else {
        Check(text.rfind("cd \"", 0) == 0 && text.find("&& rm -rf *") != std::string::npos,
              s.name + " cd-glob line: " + text);
      }
    }
  }
  Check(small == 42 && medium == 15 && large == 3, "size mix 14:5:1 per 20 scripts");
  Check(planted == 9, "three carriers per 20 scripts");
}

void TestPercentiles() {
  using perfbench::Median;
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(Percentile(v, 50) == 50, "p50 of 1..100");
  Check(Percentile(v, 99) == 99, "p99 of 1..100");
  Check(Percentile(v, 100) == 100, "p100 of 1..100");
  Check(Percentile({3, 1, 2}, 50) == 2, "p50 of 3 samples");
  Check(Percentile({3, 1, 2}, 99) == 3, "p99 of 3 samples");
  Check(Percentile({}, 50) == 0, "empty percentile");
  Check(Median({4, 1, 3}) == 3, "odd median");
  Check(Median({4, 1, 3, 2}) == 2.5, "even median");
}

void TestSelfTime() {
  using perfbench::Span;
  // parent [0,100); children [10,30), [20,50) overlap, [90,120) sticks out;
  // a grandchild inside the first child does not count against the parent.
  const std::vector<Span> spans = {
      {"p", 1, 0, 7, 0, 100},  {"c", 2, 1, 7, 10, 30},  {"c", 3, 1, 7, 20, 50},
      {"c", 4, 1, 7, 90, 120}, {"g", 5, 2, 7, 12, 18}, {"r", 6, 0, 8, 0, 40},
  };
  const auto self = perfbench::SelfTimes(spans);
  Check(self.at(1) == 50, "parent self = 100 - |[10,50) u [90,100)|");
  Check(self.at(2) == 14, "child self = 20 - 6");
  Check(self.at(3) == 30, "leaf self = duration");
  Check(self.at(6) == 40, "root without children");
  Check(perfbench::UnionLength({{0, 10}, {5, 15}, {20, 25}, {30, 30}}) == 20, "union length");
}

}  // namespace

int main() {
  TestGenerator();
  TestPercentiles();
  TestSelfTime();
  if (failures == 0) std::printf("sashbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
