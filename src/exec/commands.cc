#include "exec/commands.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <set>

#include "fs/glob.h"
#include "fs/path.h"
#include "regex/regex.h"
#include "specs/library.h"
#include "util/strings.h"

namespace sash::exec {

namespace {

using specs::Invocation;
using specs::SpecLibrary;

RunResult Fail(int code, std::string err) {
  RunResult r;
  r.exit_code = code;
  r.err = std::move(err);
  return r;
}

std::vector<std::string> InputLines(fs::FileSystem& fs, const Invocation& inv,
                                    const std::string& stdin_data, size_t first_operand,
                                    int* exit_code, std::string* err) {
  std::vector<std::string> lines;
  bool any_file = false;
  for (size_t i = first_operand; i < inv.operands.size(); ++i) {
    any_file = true;
    Result<std::string> content = fs.ReadFile(inv.operands[i]);
    if (!content.ok()) {
      *exit_code = inv.command == "grep" ? 2 : 1;
      *err += inv.command + ": " + content.status().message() + "\n";
      continue;
    }
    for (std::string& line : SplitLines(*content)) {
      lines.push_back(std::move(line));
    }
  }
  if (!any_file) {
    lines = SplitLines(stdin_data);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

// Leftmost-longest scan of `body` matches inside `line` using the DFA.
std::vector<std::pair<size_t, size_t>> FindMatches(const regex::Regex& body,
                                                   const std::string& line) {
  std::vector<std::pair<size_t, size_t>> out;
  const regex::Dfa& dfa = body.dfa();
  size_t pos = 0;
  while (pos <= line.size()) {
    int state = dfa.StartState();
    size_t best = std::string::npos;
    for (size_t i = pos; i <= line.size(); ++i) {
      if (dfa.IsAccepting(state)) {
        best = i;
      }
      if (i == line.size() || dfa.IsDeadState(state)) {
        break;
      }
      state = dfa.Step(state, static_cast<unsigned char>(line[i]));
    }
    // Re-check acceptance after consuming the final character.
    if (best == std::string::npos && dfa.IsAccepting(state)) {
      best = line.size();
    }
    if (best != std::string::npos && best > pos) {
      out.emplace_back(pos, best);
      pos = best;
    } else {
      ++pos;
    }
  }
  return out;
}

// ---------------- individual commands ----------------

RunResult CmdCat(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::vector<std::string> pieces;
  if (inv.operands.empty()) {
    pieces.push_back(stdin_data);
  } else {
    for (const std::string& path : inv.operands) {
      if (fs.IsDir(path)) {
        r.exit_code = 1;
        r.err += "cat: " + path + ": Is a directory\n";
        continue;
      }
      Result<std::string> content = fs.ReadFile(path);
      if (!content.ok()) {
        r.exit_code = 1;
        r.err += "cat: " + content.status().message() + "\n";
        continue;
      }
      pieces.push_back(*content);
    }
  }
  std::string joined;
  for (const std::string& p : pieces) {
    joined += p;
  }
  if (inv.HasFlag('n')) {
    std::string numbered;
    int n = 1;
    for (const std::string& line : SplitLines(joined)) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%6d\t", n++);
      numbered += buf;
      numbered += line;
      numbered += '\n';
    }
    r.out = std::move(numbered);
  } else {
    r.out = std::move(joined);
  }
  return r;
}

RunResult CmdRm(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  const bool recursive = inv.HasFlag('r') || inv.HasFlag('R');
  const bool force = inv.HasFlag('f');
  for (const std::string& path : inv.operands) {
    Status s = fs.Remove(path, recursive, force);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "rm: cannot remove '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdRmdir(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    Status s = fs.RemoveEmptyDir(path);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "rmdir: failed to remove '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdMkdir(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    Status s = fs.MakeDir(path, inv.HasFlag('p'));
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "mkdir: cannot create directory '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdTouch(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    if (inv.HasFlag('c') && !fs.Exists(path)) {
      continue;
    }
    Status s = fs.Touch(path);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "touch: cannot touch '" + path + "': " + s.message() + "\n";
    }
  }
  return r;
}

Status CopyTree(fs::FileSystem& fs, const std::string& src, const std::string& dst) {
  if (fs.IsDir(src)) {
    Status s = fs.MakeDir(dst, /*parents=*/true);
    if (!s.ok()) {
      return s;
    }
    Result<std::vector<std::string>> entries = fs.ListDir(src);
    if (!entries.ok()) {
      return entries.status();
    }
    for (const std::string& name : *entries) {
      Status child = CopyTree(fs, fs::JoinPath(src, name), fs::JoinPath(dst, name));
      if (!child.ok()) {
        return child;
      }
    }
    return Status::Ok();
  }
  Result<std::string> content = fs.ReadFile(src);
  if (!content.ok()) {
    return content.status();
  }
  return fs.WriteFile(dst, *content);
}

RunResult CmdCp(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  const bool recursive = inv.HasFlag('r') || inv.HasFlag('R');
  const std::string& dst = inv.operands.back();
  for (size_t i = 0; i + 1 < inv.operands.size(); ++i) {
    const std::string& src = inv.operands[i];
    if (fs.IsDir(src)) {
      if (!recursive) {
        r.exit_code = 1;
        r.err += "cp: -r not specified; omitting directory '" + src + "'\n";
        continue;
      }
      std::string target = fs.IsDir(dst) ? fs::JoinPath(dst, fs::BaseName(src)) : dst;
      Status s = CopyTree(fs, src, target);
      if (!s.ok()) {
        r.exit_code = 1;
        r.err += "cp: " + s.message() + "\n";
      }
      continue;
    }
    Status s = fs.CopyFile(src, dst);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "cp: cannot copy '" + src + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdMv(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  const std::string& dst = inv.operands.back();
  for (size_t i = 0; i + 1 < inv.operands.size(); ++i) {
    if (fs.IsDir(inv.operands[i]) && fs.Exists(dst) && !fs.IsDir(dst)) {
      r.exit_code = 1;
      r.err += "mv: cannot overwrite non-directory '" + dst + "' with directory '" +
               inv.operands[i] + "'\n";
      continue;
    }
    Status s = fs.Rename(inv.operands[i], dst);
    if (!s.ok()) {
      r.exit_code = 1;
      r.err += "mv: cannot move '" + inv.operands[i] + "': " + s.message() + "\n";
    }
  }
  return r;
}

RunResult CmdLs(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  std::vector<std::string> targets = inv.operands;
  if (targets.empty()) {
    targets.push_back(fs.cwd());
  }
  auto render = [&](const std::string& name, const std::string& full) {
    if (!inv.HasFlag('l')) {
      r.out += name + "\n";
      return;
    }
    bool is_dir = fs.IsDir(full);
    size_t size = 0;
    if (fs.IsFile(full)) {
      size = fs.ReadFile(full)->size();
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s 1 user user %zu Jul  1 12:00 %s\n",
                  is_dir ? "drwxr-xr-x" : "-rw-r--r--", size, name.c_str());
    r.out += buf;
  };
  for (const std::string& path : targets) {
    if (fs.IsDir(path) && !inv.HasFlag('d')) {
      Result<std::vector<std::string>> entries = fs.ListDir(path);
      if (!entries.ok()) {
        r.exit_code = 2;
        r.err += "ls: cannot access '" + path + "': " + entries.status().message() + "\n";
        continue;
      }
      for (const std::string& name : *entries) {
        if (!inv.HasFlag('a') && !name.empty() && name[0] == '.') {
          continue;
        }
        render(name, fs::JoinPath(path, name));
      }
    } else if (fs.Exists(path)) {
      render(path, path);
    } else {
      r.exit_code = 2;
      r.err += "ls: cannot access '" + path + "': No such file or directory\n";
    }
  }
  return r;
}

RunResult CmdRealpath(fs::FileSystem& fs, const Invocation& inv) {
  RunResult r;
  for (const std::string& path : inv.operands) {
    if (inv.HasFlag('m')) {
      r.out += fs::Absolutize(path, fs.cwd()) + "\n";
      continue;
    }
    Result<std::string> real = fs.RealPath(path);
    if (!real.ok()) {
      r.exit_code = 1;
      r.err += "realpath: " + real.status().message() + "\n";
      continue;
    }
    r.out += *real + "\n";
  }
  return r;
}

RunResult CmdGrep(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::string pattern;
  size_t first_file = 0;
  if (std::optional<std::string> e = inv.FlagArg('e'); e.has_value()) {
    pattern = *e;
  } else if (!inv.operands.empty()) {
    pattern = inv.operands[0];
    first_file = 1;
  } else {
    return Fail(2, "grep: missing pattern\n");
  }
  if (inv.HasFlag('i')) {
    pattern = AsciiLower(pattern);
  }
  std::optional<regex::Regex> body;
  std::optional<regex::Regex> search;
  if (inv.HasFlag('F')) {
    body = regex::Regex::Literal(pattern);
    search = regex::Regex::AnyLine().Concat(*body).Concat(regex::Regex::AnyLine());
  } else {
    std::string err;
    body = regex::Regex::FromPattern(pattern, &err);
    search = regex::Regex::FromSearchPattern(pattern, &err);
    if (!body.has_value() || !search.has_value()) {
      return Fail(2, "grep: invalid pattern: " + err + "\n");
    }
  }
  std::vector<std::string> lines = InputLines(fs, inv, stdin_data, first_file, &r.exit_code,
                                              &r.err);
  if (r.exit_code == 2) {
    return r;
  }
  int matches = 0;
  int lineno = 0;
  for (const std::string& raw : lines) {
    ++lineno;
    std::string line = inv.HasFlag('i') ? AsciiLower(raw) : raw;
    bool hit = search->Matches(line);
    if (inv.HasFlag('v')) {
      hit = !hit;
    }
    if (!hit) {
      continue;
    }
    ++matches;
    if (inv.HasFlag('q') || inv.HasFlag('c')) {
      continue;
    }
    if (inv.HasFlag('o') && !inv.HasFlag('v')) {
      for (const auto& [begin, end] : FindMatches(*body, line)) {
        if (inv.HasFlag('n')) {
          r.out += std::to_string(lineno) + ":";
        }
        r.out += raw.substr(begin, end - begin) + "\n";
      }
      continue;
    }
    if (inv.HasFlag('n')) {
      r.out += std::to_string(lineno) + ":";
    }
    r.out += raw + "\n";
  }
  if (inv.HasFlag('c')) {
    r.out = std::to_string(matches) + "\n";
  }
  if (r.exit_code == 0) {
    r.exit_code = matches > 0 ? 0 : 1;
  }
  return r;
}

RunResult CmdSed(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::string script;
  size_t first_file = 0;
  if (std::optional<std::string> e = inv.FlagArg('e'); e.has_value()) {
    script = *e;
  } else if (!inv.operands.empty()) {
    script = inv.operands[0];
    first_file = 1;
  } else {
    return Fail(2, "sed: missing script\n");
  }
  // Supported: s/RE/REPL/[g] with '/' delimiter; REPL is literal.
  if (script.size() < 4 || script[0] != 's' || script[1] != '/') {
    return Fail(2, "sed: unsupported script: " + script + "\n");
  }
  std::vector<std::string> parts = Split(script.substr(2), '/');
  if (parts.size() < 2) {
    return Fail(2, "sed: unterminated `s' command\n");
  }
  const std::string& re_text = parts[0];
  const std::string& repl = parts[1];
  const bool global = parts.size() > 2 && parts[2] == "g";
  std::vector<std::string> lines = InputLines(fs, inv, stdin_data, first_file, &r.exit_code,
                                              &r.err);
  // Anchor handling: ^ inserts at start, $ appends at end.
  if (re_text == "^") {
    for (std::string& line : lines) {
      line = repl + line;
    }
  } else if (re_text == "$") {
    for (std::string& line : lines) {
      line += repl;
    }
  } else {
    std::string err;
    std::optional<regex::Regex> body = regex::Regex::FromPattern(re_text, &err);
    if (!body.has_value()) {
      return Fail(2, "sed: invalid expression: " + err + "\n");
    }
    for (std::string& line : lines) {
      std::string rebuilt;
      size_t consumed = 0;
      for (const auto& [begin, end] : FindMatches(*body, line)) {
        if (begin < consumed) {
          continue;
        }
        rebuilt += line.substr(consumed, begin - consumed);
        rebuilt += repl;
        consumed = end;
        if (!global) {
          break;
        }
      }
      rebuilt += line.substr(consumed);
      line = std::move(rebuilt);
    }
  }
  r.out = JoinLines(lines);
  return r;
}

// Parses cut-style LIST: "2", "1,3", "2-4", "3-".
std::vector<std::pair<int, int>> ParseRanges(const std::string& list) {
  std::vector<std::pair<int, int>> out;
  for (const std::string& piece : Split(list, ',')) {
    size_t dash = piece.find('-');
    if (dash == std::string::npos) {
      int v = std::atoi(piece.c_str());
      out.emplace_back(v, v);
    } else {
      int lo = dash == 0 ? 1 : std::atoi(piece.substr(0, dash).c_str());
      int hi = dash + 1 >= piece.size() ? 1 << 30 : std::atoi(piece.substr(dash + 1).c_str());
      out.emplace_back(lo, hi);
    }
  }
  return out;
}

bool InRanges(const std::vector<std::pair<int, int>>& ranges, int v) {
  for (const auto& [lo, hi] : ranges) {
    if (v >= lo && v <= hi) {
      return true;
    }
  }
  return false;
}

RunResult CmdCut(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::vector<std::string> lines = InputLines(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  if (std::optional<std::string> fields = inv.FlagArg('f'); fields.has_value()) {
    char delim = '\t';
    if (std::optional<std::string> d = inv.FlagArg('d'); d.has_value() && !d->empty()) {
      delim = (*d)[0];
    }
    std::vector<std::pair<int, int>> ranges = ParseRanges(*fields);
    for (const std::string& line : lines) {
      if (line.find(delim) == std::string::npos) {
        r.out += line + "\n";  // POSIX: lines without the delimiter pass through.
        continue;
      }
      std::vector<std::string> cols = Split(line, delim);
      std::vector<std::string> picked;
      for (int i = 0; i < static_cast<int>(cols.size()); ++i) {
        if (InRanges(ranges, i + 1)) {
          picked.push_back(cols[static_cast<size_t>(i)]);
        }
      }
      r.out += Join(picked, std::string(1, delim)) + "\n";
    }
    return r;
  }
  if (std::optional<std::string> chars = inv.FlagArg('c'); chars.has_value()) {
    std::vector<std::pair<int, int>> ranges = ParseRanges(*chars);
    for (const std::string& line : lines) {
      std::string picked;
      for (int i = 0; i < static_cast<int>(line.size()); ++i) {
        if (InRanges(ranges, i + 1)) {
          picked += line[static_cast<size_t>(i)];
        }
      }
      r.out += picked + "\n";
    }
    return r;
  }
  return Fail(2, "cut: you must specify a list of fields or characters\n");
}

RunResult CmdSort(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::vector<std::string> lines = InputLines(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  const bool numeric = inv.HasFlag('n') || inv.HasFlag('g');
  if (numeric) {
    std::stable_sort(lines.begin(), lines.end(), [](const std::string& a, const std::string& b) {
      return std::strtod(a.c_str(), nullptr) < std::strtod(b.c_str(), nullptr);
    });
  } else {
    std::stable_sort(lines.begin(), lines.end());
  }
  if (inv.HasFlag('r')) {
    std::reverse(lines.begin(), lines.end());
  }
  if (inv.HasFlag('u')) {
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  }
  r.out = JoinLines(lines);
  return r;
}

RunResult CmdHeadTail(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data,
                      bool head) {
  RunResult r;
  std::vector<std::string> lines = InputLines(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  size_t n = 10;
  if (std::optional<std::string> arg = inv.FlagArg('n'); arg.has_value()) {
    n = static_cast<size_t>(std::atol(arg->c_str()));
  }
  std::vector<std::string> picked;
  if (head) {
    for (size_t i = 0; i < lines.size() && i < n; ++i) {
      picked.push_back(lines[i]);
    }
  } else {
    size_t start = lines.size() > n ? lines.size() - n : 0;
    for (size_t i = start; i < lines.size(); ++i) {
      picked.push_back(lines[i]);
    }
  }
  r.out = JoinLines(picked);
  return r;
}

// Expands tr sets: "a-z0-9" and escapes \n \t \\.
std::string ExpandTrSet(const std::string& set) {
  std::string out;
  for (size_t i = 0; i < set.size(); ++i) {
    char c = set[i];
    if (c == '\\' && i + 1 < set.size()) {
      char e = set[++i];
      out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
      continue;
    }
    if (i + 2 < set.size() && set[i + 1] == '-' && set[i + 2] >= c) {
      for (char k = c; k <= set[i + 2]; ++k) {
        out += k;
      }
      i += 2;
      continue;
    }
    out += c;
  }
  return out;
}

RunResult CmdTr(const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  if (inv.operands.empty()) {
    return Fail(1, "tr: missing operand\n");
  }
  std::string set1 = ExpandTrSet(inv.operands[0]);
  if (inv.HasFlag('d')) {
    for (char c : stdin_data) {
      if (set1.find(c) == std::string::npos) {
        r.out += c;
      }
    }
    return r;
  }
  if (inv.operands.size() < 2) {
    return Fail(1, "tr: missing operand after '" + inv.operands[0] + "'\n");
  }
  std::string set2 = ExpandTrSet(inv.operands[1]);
  for (char c : stdin_data) {
    size_t pos = set1.find(c);
    if (pos != std::string::npos && !set2.empty()) {
      r.out += set2[std::min(pos, set2.size() - 1)];
    } else {
      r.out += c;
    }
  }
  return r;
}

RunResult CmdUniq(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::vector<std::string> lines = InputLines(fs, inv, stdin_data, 0, &r.exit_code, &r.err);
  std::string prev;
  bool have_prev = false;
  int count = 0;
  auto flush = [&] {
    if (!have_prev) {
      return;
    }
    if (inv.HasFlag('d') && count < 2) {
      return;
    }
    if (inv.HasFlag('c')) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%7d ", count);
      r.out += buf;
    }
    r.out += prev + "\n";
  };
  for (const std::string& line : lines) {
    if (have_prev && line == prev) {
      ++count;
      continue;
    }
    flush();
    prev = line;
    have_prev = true;
    count = 1;
  }
  flush();
  return r;
}

RunResult CmdWc(fs::FileSystem& fs, const Invocation& inv, const std::string& stdin_data) {
  RunResult r;
  std::string data;
  if (inv.operands.empty()) {
    data = stdin_data;
  } else {
    for (const std::string& path : inv.operands) {
      Result<std::string> content = fs.ReadFile(path);
      if (!content.ok()) {
        r.exit_code = 1;
        r.err += "wc: " + content.status().message() + "\n";
        continue;
      }
      data += *content;
    }
  }
  size_t lines = 0;
  size_t words = 0;
  size_t bytes = data.size();
  bool in_word = false;
  for (char c : data) {
    if (c == '\n') {
      ++lines;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_word = false;
    } else if (!in_word) {
      in_word = true;
      ++words;
    }
  }
  const bool want_l = inv.HasFlag('l');
  const bool want_w = inv.HasFlag('w');
  const bool want_c = inv.HasFlag('c');
  const bool all = !want_l && !want_w && !want_c;
  std::vector<std::string> cols;
  if (all || want_l) {
    cols.push_back(std::to_string(lines));
  }
  if (all || want_w) {
    cols.push_back(std::to_string(words));
  }
  if (all || want_c) {
    cols.push_back(std::to_string(bytes));
  }
  r.out = " " + Join(cols, " ") + "\n";
  return r;
}

RunResult CmdLsbRelease(const Invocation& inv, const World& world) {
  RunResult r;
  const bool short_form = inv.HasFlag('s');
  auto emit = [&](const char* label, const std::string& value) {
    if (short_form) {
      r.out += value + "\n";
    } else {
      r.out += std::string(label) + ":\t" + value + "\n";
    }
  };
  bool any = false;
  if (inv.HasFlag('a') || inv.HasFlag('i')) {
    emit("Distributor ID", world.distributor_id);
    any = true;
  }
  if (inv.HasFlag('a') || inv.HasFlag('d')) {
    emit("Description", world.description);
    any = true;
  }
  if (inv.HasFlag('a') || inv.HasFlag('r')) {
    emit("Release", world.release);
    any = true;
  }
  if (inv.HasFlag('a') || inv.HasFlag('c')) {
    emit("Codename", world.codename);
    any = true;
  }
  if (!any) {
    emit("Distributor ID", world.distributor_id);
  }
  return r;
}

RunResult CmdCurl(fs::FileSystem& fs, const Invocation& inv, const World& world) {
  RunResult r;
  for (const std::string& url : inv.operands) {
    auto it = world.remote.find(url);
    if (it == world.remote.end()) {
      r.exit_code = 6;
      if (!inv.HasFlag('s')) {
        r.err += "curl: (6) Could not resolve host: " + url + "\n";
      }
      continue;
    }
    if (std::optional<std::string> out_file = inv.FlagArg('o'); out_file.has_value()) {
      Status s = fs.WriteFile(*out_file, it->second);
      if (!s.ok()) {
        r.exit_code = 23;
        r.err += "curl: (23) " + s.message() + "\n";
      }
    } else {
      r.out += it->second;
    }
  }
  return r;
}

}  // namespace

RunResult RunCommand(fs::FileSystem& fs, const std::vector<std::string>& argv,
                     const std::string& stdin_data, const World& world) {
  if (argv.empty()) {
    return Fail(127, "sh: empty command\n");
  }
  const std::string& name = argv[0];
  if (!HasCommand(name)) {
    return Fail(127, "sh: " + name + ": command not found\n");
  }

  // Simple commands that need no spec-parsed invocation.
  if (name == "pwd") {
    RunResult r;
    r.out = fs.cwd() + "\n";
    return r;
  }
  if (name == "true" || name == ":") {
    return RunResult{};
  }
  if (name == "false") {
    return Fail(1, "");
  }
  if (name == "uname") {
    RunResult r;
    r.out = "Linux\n";
    return r;
  }
  if (name == "date") {
    RunResult r;
    r.out = "Mon Jul  6 12:00:00 UTC 2026\n";
    return r;
  }
  if (name == "sleep") {
    return RunResult{};  // Time is not modeled.
  }
  if (name == "echo") {
    // POSIX sh echo: only an exact leading -n is an option; every other
    // argument, dashes included, is printed as given.
    const bool newline = argv.size() < 2 || argv[1] != "-n";
    RunResult r;
    r.out = Join(std::vector<std::string>(argv.begin() + (newline ? 1 : 2), argv.end()), " ");
    if (newline) {
      r.out += '\n';
    }
    return r;
  }
  if (name == "basename" || name == "dirname") {
    if (argv.size() < 2) {
      return Fail(1, name + ": missing operand\n");
    }
    RunResult r;
    r.out = (name == "basename" ? fs::BaseName(argv[1]) : fs::DirName(argv[1])) + "\n";
    return r;
  }

  const specs::CommandSpec* spec = SpecLibrary::BuiltinGroundTruth().Find(name);
  if (spec == nullptr) {
    return Fail(127, "sh: " + name + ": command not found\n");
  }
  Result<Invocation> inv = specs::ParseInvocation(
      spec->syntax, std::vector<std::string>(argv.begin() + 1, argv.end()));
  if (!inv.ok()) {
    return Fail(2, name + ": " + inv.status().message() + "\n");
  }

  if (name == "cat") {
    return CmdCat(fs, *inv, stdin_data);
  }
  if (name == "rm") {
    return CmdRm(fs, *inv);
  }
  if (name == "rmdir") {
    return CmdRmdir(fs, *inv);
  }
  if (name == "mkdir") {
    return CmdMkdir(fs, *inv);
  }
  if (name == "touch") {
    return CmdTouch(fs, *inv);
  }
  if (name == "cp") {
    return CmdCp(fs, *inv);
  }
  if (name == "mv") {
    return CmdMv(fs, *inv);
  }
  if (name == "ls") {
    return CmdLs(fs, *inv);
  }
  if (name == "realpath") {
    return CmdRealpath(fs, *inv);
  }
  if (name == "grep") {
    return CmdGrep(fs, *inv, stdin_data);
  }
  if (name == "sed") {
    return CmdSed(fs, *inv, stdin_data);
  }
  if (name == "cut") {
    return CmdCut(fs, *inv, stdin_data);
  }
  if (name == "sort") {
    return CmdSort(fs, *inv, stdin_data);
  }
  if (name == "head") {
    return CmdHeadTail(fs, *inv, stdin_data, /*head=*/true);
  }
  if (name == "tail") {
    return CmdHeadTail(fs, *inv, stdin_data, /*head=*/false);
  }
  if (name == "tr") {
    return CmdTr(*inv, stdin_data);
  }
  if (name == "uniq") {
    return CmdUniq(fs, *inv, stdin_data);
  }
  if (name == "wc") {
    return CmdWc(fs, *inv, stdin_data);
  }
  if (name == "lsb_release") {
    return CmdLsbRelease(*inv, world);
  }
  if (name == "curl") {
    return CmdCurl(fs, *inv, world);
  }
  return Fail(127, "sh: " + name + ": command not found\n");
}

bool HasCommand(const std::string& name) {
  static const std::set<std::string> kExtra = {"pwd",  "true", ":",        "false",
                                               "uname", "date", "sleep",   "basename",
                                               "dirname"};
  if (kExtra.count(name) > 0) {
    return true;
  }
  static const std::set<std::string> kModeled = {
      "echo", "cat",  "rm",   "rmdir", "mkdir", "touch", "cp",   "mv",
      "ls",   "realpath", "grep", "sed", "cut", "sort",  "head", "tail",
      "tr",   "uniq", "wc",   "lsb_release", "curl"};
  return kModeled.count(name) > 0;
}

std::vector<std::string> CommandNames() {
  std::vector<std::string> out = {
      "basename", "cat",  "cp",    "curl",  "cut",   "date",  "dirname", "echo",
      "false",    "grep", "head",  "ls",    "lsb_release", "mkdir", "mv", "pwd",
      "realpath", "rm",   "rmdir", "sed",   "sleep", "sort",  "tail",    "touch",
      "tr",       "true", "uname", "uniq",  "wc"};
  return out;
}

}  // namespace sash::exec
