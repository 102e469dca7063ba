// Seeded corpus generator for the sash benchmark.
//
// Every script is a function of (seed, tag, index) alone, so the same seed
// always yields the same bytes, and adding scripts to a corpus never changes
// the ones already in it. Sizes follow a fixed heavy-tailed mix, by position
// in each block of 20 scripts:
//
//   small   5–30 lines      14 of 20
//   medium  30–150 lines     5 of 20
//   large   300–1200 lines   1 of 20 (mostly a library of functions)
//
// (a script may overrun its target by the statement that crosses it). Three
// scripts in 20 carry one planted known-answer bug, rotating through the
// shapes below; the generator records the expected finding (code and line)
// itself, so the answer never comes from sash.
//
//   steam    Fig. 1: VAR="$(cd "${0%/*}" && echo "$PWD")"; rm -rf "$VAR/"*
//   stream   Fig. 5: lsb_release -a | grep '^desc' | cut -f 2
//   cd-glob  cd "$V" && rm -rf *   (a miss class sash does not catch yet)
#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct PlantedBug {
  std::string shape;  // "steam" | "stream" | "cd-glob"
  std::string code;   // Expected finding code.
  int line = 0;       // 1-based line the finding must be reported on.
};

struct Script {
  std::string name;
  std::string source;
  char size_class = 'S';  // 'S', 'M' or 'L'.
  std::vector<PlantedBug> planted;
};

// Size class by position in each block of 20 scripts.
inline constexpr char kClassPattern[] = "SSSMSSSMSSSMSSSMSSML";

// Deterministic 64-bit generator (splitmix64): the corpus bytes must not
// depend on the standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [lo, hi] (inclusive).
  int Range(int lo, int hi);
  bool Chance(int percent) { return Range(1, 100) <= percent; }
  double Unit();  // Uniform in [0, 1).

 private:
  uint64_t state_;
};

// Mixes a seed with a stream tag and an index into an independent seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag, uint64_t index);

// One generated script: `tag` separates independent script streams drawn
// from the same seed (the corpus, the first-seen pool, ...). The size class
// follows the index unless `size_class` ('S', 'M' or 'L') forces one.
Script GenerateScript(uint64_t seed, uint64_t tag, int index, char size_class = 0);

// `count` scripts from stream `tag`, with the size classes in fixed
// proportions (so every seed gets the same mix) and the planted shapes
// rotating through the carriers.
std::vector<Script> GenerateCorpus(uint64_t seed, uint64_t tag, int count);

// Appends the paper-figure scripts from `dir` (examples/scripts), with the
// known answers of the two figure bugs. Returns false when the directory
// holds no scripts.
bool AppendFigureScripts(const std::string& dir, std::vector<Script>* corpus);

// SHA-256 over every (name, source) pair in order, hex.
std::string CorpusDigest(const std::vector<Script>& corpus);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
