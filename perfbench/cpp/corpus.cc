#include "corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/sha256.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Rng::Range(int lo, int hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(Next() % span);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t SubSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  Rng r(seed ^ (tag * 0xd1b54a32d192ed03ULL));
  r.Next();
  Rng s(r.Next() ^ (index * 0x8cb92ba72f3d8dd7ULL));
  return s.Next();
}

namespace {

// Carriers of planted bugs sit at positions 3 (medium), 9 and 13 (small) of
// each block of 20, where reports are rarely degraded, so that every shape
// is checked about equally often; the shape rotates with the block.
constexpr int kCarrierPos[] = {3, 9, 13};

const char* const kProjects[] = {"webapp", "indexer", "backup", "relay",  "mailer",
                                 "agent",  "deployer", "cron",   "metrics", "proxy"};
const char* const kWords[] = {"alpha", "beta", "gamma", "delta", "main", "stable", "edge"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&items)[N]) {
  return items[rng->Range(0, static_cast<int>(N) - 1)];
}

// Emits realistic statements over a small per-script vocabulary of paths
// and variables, the way maintenance and install scripts reuse a handful of
// directories.
class Writer {
 public:
  explicit Writer(Rng* rng) : rng_(rng) {}

  // Shebang, a header naming the script (so no two scripts share content),
  // the path vocabulary, and (unless `brief`) the usual up-front checks that
  // the configuration exists and the working directories do.
  std::vector<std::string> Prologue(const std::string& name, const std::string& project,
                                    bool brief) {
    std::vector<std::string> out = {
        "#!/bin/sh",
        "# " + name + ": " + project + " maintenance",
        "APP=\"/srv/" + project + "\"",
        "LOGD=\"/var/log/" + project + "\"",
        "CONF=\"/etc/" + project + ".conf\"",
        "TMPD=\"/tmp/" + project + "\"",
    };
    if (brief) return out;
    out.push_back("COUNT=0");
    out.push_back("VERSION=\"$(uname)\"");
    out.push_back("[ -f \"$CONF\" ] || exit 1");
    out.push_back("mkdir -p \"$APP\" \"$TMPD\" \"$LOGD\" || exit 1");
    out.push_back("touch \"$LOGD/app.log\" || exit 1");
    return out;
  }

  // Large scripts are mostly libraries of functions, called from a
  // dispatch at the end (see Dispatch()).
  std::vector<std::string> LibraryStatement() {
    if (rng_->Chance(80)) return Function(4, 12);
    return Statement();
  }

  // The closing `case "$1"` dispatch of medium and large scripts. Every
  // arm constrains $1 differently, so scripts have one, at the end.
  std::vector<std::string> Dispatch() {
    std::vector<std::string> out = {"case \"$1\" in"};
    const char* const kVerbs[] = {"install", "upgrade", "clean", "check"};
    const int arms = rng_->Range(2, 4);
    for (int a = 0; a < arms; ++a) {
      out.push_back("  " + std::string(kVerbs[a]) + ")");
      if (functions_.empty()) {
        out.push_back("    " + Log());
      } else {
        const int calls = rng_->Range(1, 3);
        for (int i = 0; i < calls; ++i) {
          const auto pick = rng_->Range(0, static_cast<int>(functions_.size()) - 1);
          out.push_back("    " + functions_[static_cast<size_t>(pick)] + " \"$2\"");
        }
      }
      out.push_back("    ;;");
    }
    out.push_back("  *)");
    out.push_back("    echo \"usage: $0 install|upgrade|clean|check\"");
    out.push_back("    ;;");
    out.push_back("esac");
    return out;
  }

  // One top-level statement (possibly several lines).
  std::vector<std::string> Statement() {
    const int roll = rng_->Range(1, 100);
    if (roll <= 20) return {FileOp()};
    if (roll <= 32) return {Log()};
    if (roll <= 49) return {Pipeline()};
    if (roll <= 58) return {Assign()};
    if (roll <= 75) return If();
    if (roll <= 83) return For();
    if (roll <= 92) return Function();
    if (roll <= 97 && !functions_.empty()) {
      return {functions_[rng_->Range(0, static_cast<int>(functions_.size()) - 1)] + " \"" +
              Pick(rng_, kWords) + "\""};
    }
    return {Cd()};
  }

 private:
  std::string Dir() {
    static const char* const kDirs[] = {"$APP", "$TMPD"};
    return Pick(rng_, kDirs);
  }
  std::string File() {
    static const char* const kPaths[] = {"$TMPD/lock", "$APP/state.db"};
    return Pick(rng_, kPaths);
  }

  std::string FileOp() {
    // Careful scripts stop on a failed file operation; the rest carry on.
    const std::string guard = rng_->Chance(90) ? " || exit 1" : "";
    switch (rng_->Range(0, 3)) {
      case 0: return "mkdir -p \"" + Dir() + "\"" + guard;
      case 1: return "touch \"" + File() + "\"" + guard;
      case 2: return "cp \"$CONF\" \"" + Dir() + "/\"" + guard;
      default: return "rm -f \"" + File() + "\"";
    }
  }

  std::string Log() {
    switch (rng_->Range(0, 2)) {
      case 0:
        return "echo \"" + std::string(Pick(rng_, kWords)) + ": $COUNT\" >> \"$LOGD/app.log\"";
      case 1: return "echo \"starting " + std::string(Pick(rng_, kWords)) + "\"";
      default: return "printf '%s\\n' \"$NAME\" >> \"$LOGD/app.log\"";
    }
  }

  std::string Pipeline() {
    switch (rng_->Range(0, 7)) {
      case 0: return "cat \"$CONF\" | grep -v '^#' | sort | uniq -c > \"$TMPD/state.db\"";
      case 1: return "ls -1 \"" + Dir() + "\" | head -n " + std::to_string(rng_->Range(1, 20));
      case 2: return "cut -d: -f1 \"$CONF\" | sort -u | wc -l";
      case 3: return "lsb_release -a | grep Release | cut -f2";
      case 4:
        return "grep -c " + std::string(Pick(rng_, kWords)) + " \"$LOGD/app.log\" 2>/dev/null";
      case 5: return "sed -n 's/^name=//p' \"$CONF\" | head -n 1";
      case 6:
        return "tail -n " + std::to_string(rng_->Range(5, 50)) + " \"$LOGD/app.log\" | grep WARN";
      default: return "echo \"$VERSION\" | tr -d '.'";
    }
  }

  std::string Assign() {
    switch (rng_->Range(0, 4)) {
      case 0: return "COUNT=$((COUNT + " + std::to_string(rng_->Range(1, 9)) + "))";
      case 1: return "NAME=\"" + std::string(Pick(rng_, kWords)) + "\"";
      case 2: return "DEST=\"$TMPD/$NAME\"";
      case 3: return "TARGET=\"$APP/" + std::string(Pick(rng_, kWords)) + "\"";
      default: return "LIMIT=$((COUNT * 2 + " + std::to_string(rng_->Range(1, 99)) + "))";
    }
  }

  std::string Test() {
    switch (rng_->Range(0, 3)) {
      case 0: return "[ -d \"" + Dir() + "\" ]";
      case 1: return "[ -f \"$CONF\" ]";
      case 2: return "[ -n \"$VERSION\" ]";
      default: return "[ -e \"$TMPD/lock\" ]";
    }
  }

  // Function-body statements: a file operation or a log line. (Assignments
  // in bodies would make every call path distinct for the rest of the
  // script.)
  std::string Simple() { return rng_->Chance(50) ? FileOp() : Log(); }

  // Branch bodies log; a file operation in only one branch would leave the
  // two paths disagreeing about the file system for the rest of the script.
  void Body(std::vector<std::string>* out, int lo, int hi) {
    const int n = rng_->Range(lo, hi);
    for (int i = 0; i < n; ++i) out->push_back("  " + Log());
  }

  std::vector<std::string> If() {
    std::vector<std::string> out = {"if " + Test() + "; then"};
    Body(&out, 1, 2);
    if (rng_->Chance(25)) {
      out.push_back("else");
      Body(&out, 1, 2);
    }
    out.push_back("fi");
    return out;
  }

  std::vector<std::string> For() {
    std::vector<std::string> out;
    if (rng_->Chance(50)) {
      out.push_back("for f in \"$TMPD\"/*.log; do");
      out.push_back("  echo \"archiving $f\"");
    } else {
      out.push_back("for name in alpha beta gamma; do");
      out.push_back("  echo \"$name\" >> \"$LOGD/app.log\"");
    }
    out.push_back("done");
    return out;
  }

  std::vector<std::string> Function(int min_body = 1, int max_body = 4) {
    const std::string name = std::string(Pick(rng_, kWords)) + "_" +
                             std::to_string(functions_.size());
    std::vector<std::string> out = {name + "() {"};
    out.push_back("  echo \"[" + name + "] $1\" >> \"$LOGD/app.log\"");
    const int n = rng_->Range(min_body, max_body);
    for (int i = 0; i < n; ++i) {
      const int roll = rng_->Range(1, 10);
      if (roll <= 2) {
        for (const std::string& line : If()) out.push_back("  " + line);
      } else if (roll <= 5) {
        out.push_back("  " + Pipeline());
      } else {
        out.push_back("  " + Simple());
      }
    }
    out.push_back("}");
    functions_.push_back(name);
    return out;
  }

  std::string Cd() {
    return rng_->Chance(50) ? "cd \"$APP\" || exit 1" : "cd \"$TMPD\" && touch lock";
  }

  Rng* rng_;
  std::vector<std::string> functions_;
};

std::vector<std::string> PlantedLines(const std::string& shape, Rng* rng, int* bug_offset,
                                      std::string* code) {
  if (shape == "steam") {
    const char* const kVars[] = {"STEAMROOT", "INSTALL_ROOT", "SELF_DIR", "BASEDIR", "HERE"};
    const char* const kFlags[] = {"-rf", "-fr", "-r"};
    const std::string var = Pick(rng, kVars);
    *bug_offset = 1;
    *code = "SASH-DEL-ROOT";
    return {var + "=\"$(cd \"${0%/*}\" && echo \"$PWD\")\"",
            "rm " + std::string(Pick(rng, kFlags)) + " \"$" + var + "/\"*"};
  }
  if (shape == "stream") {
    const char* const kPatterns[] = {"^desc", "^Releas:", "^codename", "^distrib"};
    const std::string pipe =
        "lsb_release -a | grep '" + std::string(Pick(rng, kPatterns)) + "' | cut -f 2";
    *bug_offset = 0;
    *code = "SASH-DEAD-STREAM";
    return {rng->Chance(50) ? pipe : "REL=$(" + pipe + ")"};
  }
  const char* const kTargets[] = {"$1", "$2", "$WORKDIR"};
  *bug_offset = 0;
  *code = "SASH-DEL-ROOT";
  return {"cd \"" + std::string(Pick(rng, kTargets)) + "\" && rm -rf *"};
}

}  // namespace

Script GenerateScript(uint64_t seed, uint64_t tag, int index, char size_class) {
  Rng rng(SubSeed(seed, tag, static_cast<uint64_t>(index)));
  const int pos = index % 20;
  const int block = index / 20;
  const char cls = size_class != 0 ? size_class : kClassPattern[pos];
  int target_lines = 0;
  if (cls == 'S') {
    target_lines = rng.Range(5, 30);
  } else if (cls == 'M') {
    target_lines = rng.Range(30, 150);
  } else {
    target_lines = rng.Range(300, 1200);
  }

  Script script;
  char name[64];
  std::snprintf(name, sizeof(name), "t%llu-%c%06d.sh", static_cast<unsigned long long>(tag), cls,
                index);
  script.name = name;
  script.size_class = cls;
  const std::string project = kProjects[rng.Range(0, 9)];
  Writer writer(&rng);
  std::vector<std::string> lines = writer.Prologue(script.name, project, target_lines < 16);
  // Top-level statements start here; a planted bug goes between two of them.
  std::vector<size_t> boundaries;
  while (static_cast<int>(lines.size()) < target_lines || boundaries.empty()) {
    boundaries.push_back(lines.size());
    std::vector<std::string> stmt = cls == 'L' ? writer.LibraryStatement() : writer.Statement();
    lines.insert(lines.end(), stmt.begin(), stmt.end());
  }
  if (cls != 'S') {
    std::vector<std::string> dispatch = writer.Dispatch();
    lines.insert(lines.end(), dispatch.begin(), dispatch.end());
  }



  for (int slot = 0; slot < 3; ++slot) {
    if (pos != kCarrierPos[slot]) continue;
    static const char* const kShapes[] = {"steam", "stream", "cd-glob"};
    PlantedBug bug;
    bug.shape = kShapes[(slot + block) % 3];
    int offset = 0;
    std::vector<std::string> planted = PlantedLines(bug.shape, &rng, &offset, &bug.code);
    const size_t at = boundaries[rng.Range(0, static_cast<int>(boundaries.size()) - 1)];
    bug.line = static_cast<int>(at) + offset + 1;
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), planted.begin(), planted.end());
    script.planted.push_back(bug);
  }

  for (const std::string& line : lines) {
    script.source += line;
    script.source += '\n';
  }
  return script;
}

std::vector<Script> GenerateCorpus(uint64_t seed, uint64_t tag, int count) {
  std::vector<Script> corpus;
  corpus.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) corpus.push_back(GenerateScript(seed, tag, i));
  return corpus;
}

bool AppendFigureScripts(const std::string& dir, std::vector<Script>* corpus) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".sh") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    Script script;
    script.name = "fig-" + path.filename().string();
    script.source = buf.str();
    // Known answers of the paper's figure scripts (Fig. 1 and Fig. 5).
    if (path.filename() == "steam_updater.sh") {
      script.planted.push_back({"steam", "SASH-DEL-ROOT", 4});
    } else if (path.filename() == "dead_stream.sh") {
      script.planted.push_back({"stream", "SASH-DEAD-STREAM", 3});
    }
    corpus->push_back(std::move(script));
  }
  return !paths.empty();
}

std::string CorpusDigest(const std::vector<Script>& corpus) {
  sash::util::Sha256 h;
  for (const Script& s : corpus) {
    const std::string header = s.name + '\0' + std::to_string(s.source.size()) + '\0';
    h.Update(header);
    h.Update(s.source);
  }
  return h.HexDigest();
}

}  // namespace perfbench
