#include "syntax/parser.h"

#include <cctype>
#include <climits>
#include <set>
#include <utility>

#include "util/strings.h"

namespace sash::syntax {

namespace {

bool IsNameStart(char c) {
  return c == '_' || std::isalpha(static_cast<unsigned char>(c));
}

bool IsNameChar(char c) { return c == '_' || std::isalnum(static_cast<unsigned char>(c)); }

// Reserved words that terminate an enclosing list.
const std::set<std::string_view>& TerminatorWords() {
  static const std::set<std::string_view> kWords = {"then", "else", "elif", "fi",  "do",
                                                    "done", "esac", "}",    "in"};
  return kWords;
}

// What stops a list: used to share ParseList between program/if/loops/case.
struct StopSpec {
  bool at_rparen = false;  // ')' ends the list (subshell, command substitution).
  bool at_dsemi = false;   // ';;' ends the list (case item).
  std::set<std::string_view> words;  // Bare terminator words.
};

class Parser {
 public:
  explicit Parser(std::string_view src,
                  std::shared_ptr<util::Arena> arena = nullptr)
      : src_(src),
        arena_(arena != nullptr ? std::move(arena)
                                : std::make_shared<util::Arena>()) {}

  ParseOutput Run() {
    ParseOutput out;
    out.program.arena = arena_;
    StopSpec stop;  // Nothing stops the top level but EOF.
    out.program.range.begin = Pos();
    out.program.body = ParseList(stop);
    SkipLineSpace();
    if (!AtEnd()) {
      Error("unexpected trailing input");
      // Consume the rest so the range is sensible.
      while (!AtEnd()) {
        Advance();
      }
    }
    out.program.range.end = Pos();
    out.diagnostics = std::move(diagnostics_);
    return out;
  }

  // Parses the body of a command substitution in place (after "$(").
  // Exposed via friend helper below.
  std::shared_ptr<Program> ParseSubstitutionBody() {
    auto prog = std::make_shared<Program>();
    // The sub-Program is owned by a word part that lives in the enclosing
    // arena; sharing that arena would make Program → Arena → node → Program
    // a shared_ptr cycle. Swap in a fresh arena for the body instead.
    std::shared_ptr<util::Arena> saved = std::exchange(arena_, std::make_shared<util::Arena>());
    prog->arena = arena_;
    prog->range.begin = Pos();
    StopSpec stop;
    stop.at_rparen = true;
    prog->body = ParseList(stop);
    prog->range.end = Pos();
    arena_ = std::move(saved);
    return prog;
  }

 private:
  // ---------- character access ----------

  bool AtEnd() const { return pos_ >= src_.size(); }
  char Cur() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  char At(size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  void Advance() {
    if (AtEnd()) {
      return;
    }
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  SourcePos Pos() const { return SourcePos{pos_, line_, col_}; }

  void Error(std::string message) {
    SourcePos p = Pos();
    diagnostics_.push_back(Diagnostic{Severity::kError, "SASH-PARSE", SourceRange{p, p},
                                      std::move(message), {}});
  }

  // Skips spaces, tabs, line continuations, and comments — NOT newlines.
  void SkipLineSpace() {
    while (!AtEnd()) {
      char c = Cur();
      if (c == ' ' || c == '\t' || c == '\r') {
        Advance();
      } else if (c == '\\' && At(1) == '\n') {
        Advance();
        Advance();
      } else if (c == '#') {
        while (!AtEnd() && Cur() != '\n') {
          Advance();
        }
      } else {
        break;
      }
    }
  }

  // Consumes a newline and then any pending here-document bodies.
  void ConsumeNewline() {
    Advance();  // The '\n'.
    for (PendingHeredoc& pending : pending_heredocs_) {
      std::string body;
      while (!AtEnd()) {
        size_t line_start = pos_;
        while (!AtEnd() && Cur() != '\n') {
          Advance();
        }
        std::string_view line = src_.substr(line_start, pos_ - line_start);
        if (!AtEnd()) {
          Advance();  // Consume the newline.
        }
        std::string_view compare = line;
        if (pending.strip_tabs) {
          while (!compare.empty() && compare.front() == '\t') {
            compare.remove_prefix(1);
          }
        }
        if (compare == pending.delimiter) {
          break;
        }
        if (pending.strip_tabs) {
          body.append(compare);
        } else {
          body.append(line);
        }
        body.push_back('\n');
      }
      *pending.slot = std::move(body);
    }
    pending_heredocs_.clear();
  }

  // Skips blank space including newlines (used after && and | where the
  // grammar allows line breaks).
  void SkipAllSpace() {
    while (true) {
      SkipLineSpace();
      if (!AtEnd() && Cur() == '\n') {
        ConsumeNewline();
      } else {
        break;
      }
    }
  }

  // ---------- bare-word lookahead ----------

  // Returns the next bare (unquoted, expansion-free) word without consuming
  // it, or "" when the next token is not a bare word. '{', '}', '!' count.
  std::string PeekBareWord() {
    SkipLineSpace();
    size_t p = pos_;
    if (p >= src_.size()) {
      return "";
    }
    char c = src_[p];
    if (c == '{' || c == '}' || c == '!') {
      // Must stand alone (followed by a delimiter).
      char n = p + 1 < src_.size() ? src_[p + 1] : '\0';
      if (n == '\0' || n == ' ' || n == '\t' || n == '\n' || n == ';' || n == ')' || n == '&' ||
          n == '|' || n == '<' || n == '>') {
        return std::string(1, c);
      }
      return "";
    }
    if (!IsNameStart(c)) {
      return "";
    }
    size_t q = p;
    while (q < src_.size() && IsNameChar(src_[q])) {
      ++q;
    }
    char n = q < src_.size() ? src_[q] : '\0';
    // A bare word must end at a delimiter; "fi2" or "fi=3" are not "fi".
    if (n == '\0' || n == ' ' || n == '\t' || n == '\n' || n == ';' || n == ')' || n == '(' ||
        n == '&' || n == '|' || n == '<' || n == '>') {
      return std::string(src_.substr(p, q - p));
    }
    return "";
  }

  bool ConsumeBareWord(std::string_view expected) {
    if (PeekBareWord() != expected) {
      return false;
    }
    SkipLineSpace();
    for (size_t i = 0; i < expected.size(); ++i) {
      Advance();
    }
    return true;
  }

  // Requires `expected` next; reports an error when missing.
  void ExpectBareWord(std::string_view expected, std::string_view context) {
    if (!ConsumeBareWord(expected)) {
      Error("expected '" + std::string(expected) + "' " + std::string(context));
    }
  }

  bool AtStop(const StopSpec& stop) {
    SkipLineSpace();
    if (AtEnd()) {
      return true;
    }
    if (stop.at_rparen && Cur() == ')') {
      return true;
    }
    if (Cur() == ';' && At(1) == ';') {
      return true;  // ';;' always ends the current list (or is an error).
    }
    std::string bare = PeekBareWord();
    if (!bare.empty() && (stop.words.count(bare) > 0 || TerminatorWords().count(bare) > 0)) {
      return true;
    }
    return false;
  }

  // ---------- lists ----------

  // list := and_or ((';' | '&' | '\n')+ and_or)*
  CommandPtr ParseList(const StopSpec& stop) {
    auto list = NewCommand();
    list->kind = CommandKind::kList;
    list->range.begin = Pos();

    while (true) {
      // Skip separators/newlines before a command.
      while (true) {
        SkipLineSpace();
        if (!AtEnd() && Cur() == '\n') {
          ConsumeNewline();
        } else {
          break;
        }
      }
      if (AtStop(stop) || AtEnd()) {
        break;
      }
      CommandPtr cmd = ParseAndOr();
      if (cmd == nullptr) {
        break;
      }
      ListOp op = ListOp::kSeq;
      SkipLineSpace();
      if (!AtEnd()) {
        if (Cur() == '&' && At(1) != '&') {
          Advance();
          op = ListOp::kBackground;
        } else if (Cur() == ';' && At(1) != ';') {
          Advance();
        }
      }
      list->list.commands.push_back(std::move(cmd));
      list->list.ops.push_back(op);
    }

    list->range.end = Pos();
    if (list->list.commands.empty()) {
      return nullptr;
    }
    if (list->list.commands.size() == 1 && list->list.ops[0] == ListOp::kSeq) {
      return std::move(list->list.commands[0]);
    }
    return list;
  }

  // and_or := pipeline (('&&' | '||') linebreak pipeline)*
  CommandPtr ParseAndOr() {
    CommandPtr first = ParsePipeline();
    if (first == nullptr) {
      return nullptr;
    }
    SkipLineSpace();
    if (AtEnd() || !((Cur() == '&' && At(1) == '&') || (Cur() == '|' && At(1) == '|'))) {
      return first;
    }
    auto list = NewCommand();
    list->kind = CommandKind::kList;
    list->range.begin = first->range.begin;
    list->list.commands.push_back(std::move(first));
    while (true) {
      SkipLineSpace();
      ListOp op;
      if (Cur() == '&' && At(1) == '&') {
        op = ListOp::kAnd;
      } else if (Cur() == '|' && At(1) == '|') {
        op = ListOp::kOr;
      } else {
        break;
      }
      Advance();
      Advance();
      SkipAllSpace();
      CommandPtr next = ParsePipeline();
      if (next == nullptr) {
        Error("expected a command after '&&'/'||'");
        break;
      }
      list->list.ops.push_back(op);
      list->list.commands.push_back(std::move(next));
    }
    list->list.ops.push_back(ListOp::kSeq);
    list->range.end = Pos();
    return list;
  }

  // pipeline := ['!'] command ('|' linebreak command)*
  CommandPtr ParsePipeline() {
    SkipLineSpace();
    bool negated = false;
    if (PeekBareWord() == "!") {
      ConsumeBareWord("!");
      negated = true;
      SkipLineSpace();
    }
    CommandPtr first = ParseCommand();
    if (first == nullptr) {
      if (negated) {
        Error("expected a command after '!'");
      }
      return nullptr;
    }
    SkipLineSpace();
    if (!negated && (AtEnd() || Cur() != '|' || At(1) == '|')) {
      return first;  // Single command, no wrapper needed.
    }
    auto pipe = NewCommand();
    pipe->kind = CommandKind::kPipeline;
    pipe->range.begin = first->range.begin;
    pipe->pipeline.negated = negated;
    pipe->pipeline.commands.push_back(std::move(first));
    while (!AtEnd() && Cur() == '|' && At(1) != '|') {
      Advance();
      SkipAllSpace();
      CommandPtr next = ParseCommand();
      if (next == nullptr) {
        Error("expected a command after '|'");
        break;
      }
      pipe->pipeline.commands.push_back(std::move(next));
      SkipLineSpace();
    }
    pipe->range.end = Pos();
    if (pipe->pipeline.commands.size() == 1 && !negated) {
      return std::move(pipe->pipeline.commands[0]);
    }
    return pipe;
  }

  // ---------- commands ----------

  CommandPtr ParseCommand() {
    SkipLineSpace();
    if (AtEnd() || Cur() == '\n') {
      return nullptr;
    }
    if (Cur() == '(') {
      return ParseSubshell();
    }
    std::string bare = PeekBareWord();
    if (bare == "if") {
      return ParseIf();
    }
    if (bare == "while" || bare == "until") {
      return ParseLoop(bare == "until");
    }
    if (bare == "for") {
      return ParseFor();
    }
    if (bare == "case") {
      return ParseCase();
    }
    if (bare == "{") {
      return ParseBraceGroup();
    }
    // Function definition: NAME '(' ')' compound-or-simple body.
    if (!bare.empty() && TerminatorWords().count(bare) == 0) {
      size_t save_pos = pos_;
      int save_line = line_;
      int save_col = col_;
      SkipLineSpace();
      SourcePos begin = Pos();
      for (size_t i = 0; i < bare.size(); ++i) {
        Advance();
      }
      SkipLineSpace();
      if (Cur() == '(' && At(1) == ')') {
        Advance();
        Advance();
        SkipAllSpace();
        auto fn = NewCommand();
        fn->kind = CommandKind::kFunctionDef;
        fn->range.begin = begin;
        fn->function.name = bare;
        fn->function.body = ParseCommand();
        if (fn->function.body == nullptr) {
          Error("expected a function body");
        }
        ParseTrailingRedirects(fn);
        fn->range.end = Pos();
        return fn;
      }
      pos_ = save_pos;
      line_ = save_line;
      col_ = save_col;
    }
    return ParseSimple();
  }

  CommandPtr ParseSubshell() {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kSubshell;
    cmd->range.begin = Pos();
    Advance();  // '('
    StopSpec stop;
    stop.at_rparen = true;
    cmd->subshell.body = ParseList(stop);
    SkipAllSpace();
    if (Cur() == ')') {
      Advance();
    } else {
      Error("expected ')' to close subshell");
    }
    ParseTrailingRedirects(cmd);
    cmd->range.end = Pos();
    return cmd;
  }

  CommandPtr ParseBraceGroup() {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kBraceGroup;
    cmd->range.begin = Pos();
    ConsumeBareWord("{");
    StopSpec stop;
    stop.words.insert("}");
    cmd->brace.body = ParseList(stop);
    ExpectBareWord("}", "to close group");
    ParseTrailingRedirects(cmd);
    cmd->range.end = Pos();
    return cmd;
  }

  CommandPtr ParseIf() {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kIf;
    cmd->range.begin = Pos();
    ConsumeBareWord("if");
    StopSpec cond_stop;
    cond_stop.words.insert("then");
    cmd->if_cmd.condition = ParseList(cond_stop);
    ExpectBareWord("then", "after if condition");
    StopSpec body_stop;
    body_stop.words = {"elif", "else", "fi"};
    cmd->if_cmd.then_body = ParseList(body_stop);
    std::string next = PeekBareWord();
    if (next == "elif") {
      // Desugar: elif chains become a nested If in the else branch. Consume
      // "elif" and re-enter as "if"; the nested parse consumes through "fi".
      SkipLineSpace();
      SourcePos elif_begin = Pos();
      ConsumeBareWord("elif");
      auto nested = NewCommand();
      nested->kind = CommandKind::kIf;
      nested->range.begin = elif_begin;
      nested->if_cmd.condition = ParseList(cond_stop);
      ExpectBareWord("then", "after elif condition");
      nested->if_cmd.then_body = ParseList(body_stop);
      // Recursively handle further elif/else by faking the tail parse.
      nested->if_cmd.else_body = ParseIfTail(body_stop);
      nested->range.end = Pos();
      cmd->if_cmd.else_body = std::move(nested);
      cmd->range.end = Pos();
      ParseTrailingRedirects(cmd);
      return cmd;
    }
    if (next == "else") {
      ConsumeBareWord("else");
      StopSpec else_stop;
      else_stop.words.insert("fi");
      cmd->if_cmd.else_body = ParseList(else_stop);
    }
    ExpectBareWord("fi", "to close if");
    ParseTrailingRedirects(cmd);
    cmd->range.end = Pos();
    return cmd;
  }

  // Handles the tail of an if after a then-body: elif.../else/fi. Consumes
  // through "fi". Returns the else-branch command (possibly a nested If).
  CommandPtr ParseIfTail(const StopSpec& body_stop) {
    std::string next = PeekBareWord();
    if (next == "elif") {
      SkipLineSpace();
      SourcePos begin = Pos();
      ConsumeBareWord("elif");
      auto nested = NewCommand();
      nested->kind = CommandKind::kIf;
      nested->range.begin = begin;
      StopSpec cond_stop;
      cond_stop.words.insert("then");
      nested->if_cmd.condition = ParseList(cond_stop);
      ExpectBareWord("then", "after elif condition");
      nested->if_cmd.then_body = ParseList(body_stop);
      nested->if_cmd.else_body = ParseIfTail(body_stop);
      nested->range.end = Pos();
      return nested;
    }
    if (next == "else") {
      ConsumeBareWord("else");
      StopSpec else_stop;
      else_stop.words.insert("fi");
      CommandPtr body = ParseList(else_stop);
      ExpectBareWord("fi", "to close if");
      return body;
    }
    ExpectBareWord("fi", "to close if");
    return nullptr;
  }

  CommandPtr ParseLoop(bool until) {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kLoop;
    cmd->range.begin = Pos();
    ConsumeBareWord(until ? "until" : "while");
    cmd->loop.until = until;
    StopSpec cond_stop;
    cond_stop.words.insert("do");
    cmd->loop.condition = ParseList(cond_stop);
    ExpectBareWord("do", "after loop condition");
    StopSpec body_stop;
    body_stop.words.insert("done");
    cmd->loop.body = ParseList(body_stop);
    ExpectBareWord("done", "to close loop");
    ParseTrailingRedirects(cmd);
    cmd->range.end = Pos();
    return cmd;
  }

  CommandPtr ParseFor() {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kFor;
    cmd->range.begin = Pos();
    ConsumeBareWord("for");
    std::string var = PeekBareWord();
    if (var.empty()) {
      Error("expected a variable name after 'for'");
    } else {
      ConsumeBareWord(var);
    }
    cmd->for_cmd.var = var;
    SkipAllSpace();
    if (PeekBareWord() == "in") {
      ConsumeBareWord("in");
      cmd->for_cmd.has_in = true;
      SkipLineSpace();
      while (!AtEnd() && Cur() != '\n' && Cur() != ';') {
        Word w = ParseWord(false);
        if (w.parts.empty()) {
          break;
        }
        cmd->for_cmd.words.push_back(std::move(w));
        SkipLineSpace();
      }
    }
    // Optional separator before 'do'.
    SkipLineSpace();
    if (Cur() == ';') {
      Advance();
    }
    SkipAllSpace();
    ExpectBareWord("do", "after for clause");
    StopSpec body_stop;
    body_stop.words.insert("done");
    cmd->for_cmd.body = ParseList(body_stop);
    ExpectBareWord("done", "to close for");
    ParseTrailingRedirects(cmd);
    cmd->range.end = Pos();
    return cmd;
  }

  CommandPtr ParseCase() {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kCase;
    cmd->range.begin = Pos();
    ConsumeBareWord("case");
    SkipLineSpace();
    cmd->case_cmd.subject = ParseWord(false);
    SkipAllSpace();
    ExpectBareWord("in", "after case subject");
    while (true) {
      SkipAllSpace();
      if (PeekBareWord() == "esac") {
        break;
      }
      if (AtEnd()) {
        Error("unterminated case (missing 'esac')");
        break;
      }
      CaseItem item;
      item.range.begin = Pos();
      SkipLineSpace();
      if (Cur() == '(') {
        Advance();
        SkipLineSpace();
      }
      while (true) {
        Word pat = ParseWord(/*in_case_pattern=*/true);
        if (pat.parts.empty()) {
          Error("expected a case pattern");
          break;
        }
        item.patterns.push_back(std::move(pat));
        SkipLineSpace();
        if (Cur() == '|') {
          Advance();
          SkipLineSpace();
          continue;
        }
        break;
      }
      SkipLineSpace();
      if (Cur() == ')') {
        Advance();
      } else {
        Error("expected ')' after case pattern");
      }
      StopSpec body_stop;
      body_stop.at_dsemi = true;
      body_stop.words.insert("esac");
      item.body = ParseList(body_stop);
      SkipLineSpace();
      if (Cur() == ';' && At(1) == ';') {
        Advance();
        Advance();
      }
      item.range.end = Pos();
      // Error recovery must consume input: a malformed item (e.g. a pattern
      // starting with '|') can fail every parse above without advancing, and
      // re-trying the same byte forever accumulates diagnostics unboundedly.
      if (item.range.end.offset == item.range.begin.offset && !AtEnd()) {
        Advance();
      }
      cmd->case_cmd.items.push_back(std::move(item));
    }
    ExpectBareWord("esac", "to close case");
    ParseTrailingRedirects(cmd);
    cmd->range.end = Pos();
    return cmd;
  }

  CommandPtr ParseSimple() {
    auto cmd = NewCommand();
    cmd->kind = CommandKind::kSimple;
    SkipLineSpace();
    cmd->range.begin = Pos();
    while (true) {
      SkipLineSpace();
      if (AtEnd()) {
        break;
      }
      char c = Cur();
      if (c == '\n' || c == ';' || c == '&' || c == '|' || c == ')' || c == '(') {
        break;
      }
      if (TryParseRedirect(&cmd->redirects)) {
        continue;
      }
      // Assignment prefix? Only before the first non-assignment word.
      if (cmd->simple.words.empty() && IsNameStart(c)) {
        size_t q = pos_;
        while (q < src_.size() && IsNameChar(src_[q])) {
          ++q;
        }
        if (q < src_.size() && src_[q] == '=') {
          Assignment a;
          a.range.begin = Pos();
          a.name = std::string(src_.substr(pos_, q - pos_));
          while (pos_ <= q) {
            Advance();  // Name and '='.
          }
          a.value = ParseWordAllowEmpty();
          a.range.end = Pos();
          cmd->simple.assignments.push_back(std::move(a));
          continue;
        }
      }
      Word w = ParseWord(false);
      if (w.parts.empty()) {
        break;
      }
      cmd->simple.words.push_back(std::move(w));
    }
    cmd->range.end = Pos();
    if (cmd->simple.words.empty() && cmd->simple.assignments.empty() && cmd->redirects.empty()) {
      return nullptr;
    }
    return cmd;
  }

  void ParseTrailingRedirects(Command* cmd) {
    while (true) {
      SkipLineSpace();
      if (!TryParseRedirect(&cmd->redirects)) {
        break;
      }
    }
  }

  // ---------- redirections ----------

  bool TryParseRedirect(std::vector<Redirect>* out) {
    SkipLineSpace();
    size_t save_pos = pos_;
    int save_line = line_;
    int save_col = col_;
    Redirect r;
    r.range.begin = Pos();
    // Optional fd digits immediately before the operator.
    int fd = -1;
    if (std::isdigit(static_cast<unsigned char>(Cur()))) {
      size_t q = pos_;
      int value = 0;
      while (q < src_.size() && std::isdigit(static_cast<unsigned char>(src_[q]))) {
        // Saturate: a word may start with any number of digits.
        value = value > (INT_MAX - 9) / 10 ? INT_MAX : value * 10 + (src_[q] - '0');
        ++q;
      }
      if (q < src_.size() && (src_[q] == '<' || src_[q] == '>')) {
        fd = value;
        while (pos_ < q) {
          Advance();
        }
      } else {
        return false;  // A word that merely starts with digits.
      }
    }
    char c = Cur();
    if (c != '<' && c != '>') {
      pos_ = save_pos;
      line_ = save_line;
      col_ = save_col;
      return false;
    }
    bool heredoc = false;
    if (c == '<') {
      Advance();
      if (Cur() == '<') {
        Advance();
        if (Cur() == '-') {
          Advance();
          r.op = RedirOp::kHereDocTab;
        } else {
          r.op = RedirOp::kHereDoc;
        }
        heredoc = true;
      } else if (Cur() == '&') {
        Advance();
        r.op = RedirOp::kDupIn;
      } else if (Cur() == '>') {
        Advance();
        r.op = RedirOp::kReadWrite;
      } else {
        r.op = RedirOp::kIn;
      }
    } else {
      Advance();
      if (Cur() == '>') {
        Advance();
        r.op = RedirOp::kAppend;
      } else if (Cur() == '&') {
        Advance();
        r.op = RedirOp::kDupOut;
      } else if (Cur() == '|') {
        Advance();
        r.op = RedirOp::kClobber;
      } else {
        r.op = RedirOp::kOut;
      }
    }
    r.fd = fd;
    SkipLineSpace();
    r.target = ParseWord(false);
    if (r.target.parts.empty()) {
      Error("expected a redirection target");
    }
    if (heredoc) {
      // Delimiter: static text of the word; quoting disables body expansion.
      std::string delim;
      bool quoted = false;
      for (const WordPart& p : r.target.parts) {
        switch (p.kind) {
          case WordPartKind::kLiteral:
            delim += p.text;
            break;
          case WordPartKind::kSingleQuoted:
            delim += p.text;
            quoted = true;
            break;
          case WordPartKind::kDoubleQuoted:
            for (const WordPart& cp : p.children) {
              if (cp.kind == WordPartKind::kLiteral) {
                delim += cp.text;
              }
            }
            quoted = true;
            break;
          default:
            break;
        }
      }
      r.heredoc_quoted = quoted;
      r.heredoc_body = std::make_shared<std::string>();
      pending_heredocs_.push_back(
          PendingHeredoc{r.heredoc_body, delim, r.op == RedirOp::kHereDocTab});
    }
    r.range.end = Pos();
    out->push_back(std::move(r));
    return true;
  }

  // ---------- words ----------

  bool AtWordChar(bool in_case_pattern) const {
    if (AtEnd()) {
      return false;
    }
    char c = Cur();
    // Note '#' mid-word is a literal; comments are recognized only after
    // whitespace (in SkipLineSpace).
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      return false;
    }
    if (c == ';' || c == '&' || c == '(' || c == ')') {
      return false;
    }
    if (c == '<' || c == '>') {
      return false;
    }
    if (c == '|') {
      return false;
    }
    (void)in_case_pattern;
    return true;
  }

  Word ParseWordAllowEmpty() {
    SkipNothing();
    Word w;
    w.range.begin = Pos();
    ParseWordParts(&w, /*in_case_pattern=*/false);
    w.range.end = Pos();
    if (w.parts.empty()) {
      // An explicit empty assignment value: represent as an empty literal.
      WordPart p;
      p.kind = WordPartKind::kLiteral;
      p.range = w.range;
      w.parts.push_back(std::move(p));
    }
    return w;
  }

  void SkipNothing() {}

  Word ParseWord(bool in_case_pattern) {
    SkipLineSpace();
    Word w;
    w.range.begin = Pos();
    ParseWordParts(&w, in_case_pattern);
    w.range.end = Pos();
    return w;
  }

  void ParseWordParts(Word* w, bool in_case_pattern) {
    std::string literal;
    SourcePos literal_begin = Pos();
    auto flush_literal = [&] {
      if (!literal.empty()) {
        WordPart p;
        p.kind = WordPartKind::kLiteral;
        p.text = std::move(literal);
        p.range = SourceRange{literal_begin, Pos()};
        w->parts.push_back(std::move(p));
        literal.clear();
      }
      literal_begin = Pos();
    };

    bool first = true;
    while (AtWordChar(in_case_pattern)) {
      char c = Cur();
      if (c == '\'') {
        flush_literal();
        w->parts.push_back(ParseSingleQuoted());
      } else if (c == '"') {
        flush_literal();
        w->parts.push_back(ParseDoubleQuoted());
      } else if (c == '\\') {
        Advance();
        if (AtEnd()) {
          literal += '\\';
          break;
        }
        if (Cur() == '\n') {
          Advance();  // Line continuation.
        } else {
          literal += Cur();
          Advance();
        }
      } else if (c == '$') {
        flush_literal();
        w->parts.push_back(ParseDollar());
      } else if (c == '`') {
        flush_literal();
        w->parts.push_back(ParseBackquote());
      } else if (c == '*') {
        flush_literal();
        WordPart p;
        p.kind = WordPartKind::kGlobStar;
        p.range.begin = Pos();
        Advance();
        p.range.end = Pos();
        w->parts.push_back(std::move(p));
      } else if (c == '?') {
        flush_literal();
        WordPart p;
        p.kind = WordPartKind::kGlobQuestion;
        p.range.begin = Pos();
        Advance();
        p.range.end = Pos();
        w->parts.push_back(std::move(p));
      } else if (c == '[') {
        // Glob class if a closing ']' appears before whitespace.
        size_t q = pos_ + 1;
        if (q < src_.size() && (src_[q] == '!' || src_[q] == '^')) {
          ++q;
        }
        if (q < src_.size() && src_[q] == ']') {
          ++q;  // Leading ']' is literal inside the class.
        }
        while (q < src_.size() && src_[q] != ']' && src_[q] != ' ' && src_[q] != '\t' &&
               src_[q] != '\n') {
          ++q;
        }
        if (q < src_.size() && src_[q] == ']') {
          flush_literal();
          WordPart p;
          p.kind = WordPartKind::kGlobClass;
          p.range.begin = Pos();
          Advance();  // '['
          while (pos_ < q) {
            p.text += Cur();
            Advance();
          }
          Advance();  // ']'
          p.range.end = Pos();
          w->parts.push_back(std::move(p));
        } else {
          literal += c;
          Advance();
        }
      } else if (c == '~' && first && w->parts.empty() && literal.empty()) {
        flush_literal();
        WordPart p;
        p.kind = WordPartKind::kTilde;
        p.range.begin = Pos();
        Advance();
        while (!AtEnd() && (IsNameChar(Cur()) || Cur() == '-')) {
          p.text += Cur();
          Advance();
        }
        p.range.end = Pos();
        w->parts.push_back(std::move(p));
      } else {
        literal += c;
        Advance();
      }
      first = false;
    }
    flush_literal();
  }

  WordPart ParseSingleQuoted() {
    WordPart p;
    p.kind = WordPartKind::kSingleQuoted;
    p.range.begin = Pos();
    Advance();  // Opening quote.
    while (!AtEnd() && Cur() != '\'') {
      p.text += Cur();
      Advance();
    }
    if (AtEnd()) {
      Error("unterminated single quote");
    } else {
      Advance();  // Closing quote.
    }
    p.range.end = Pos();
    return p;
  }

  WordPart ParseDoubleQuoted() {
    WordPart p;
    p.kind = WordPartKind::kDoubleQuoted;
    p.range.begin = Pos();
    Advance();  // Opening quote.
    std::string literal;
    SourcePos literal_begin = Pos();
    auto flush_literal = [&] {
      if (!literal.empty()) {
        WordPart lit;
        lit.kind = WordPartKind::kLiteral;
        lit.text = std::move(literal);
        lit.range = SourceRange{literal_begin, Pos()};
        p.children.push_back(std::move(lit));
        literal.clear();
      }
      literal_begin = Pos();
    };
    while (!AtEnd() && Cur() != '"') {
      char c = Cur();
      if (c == '\\') {
        char n = At(1);
        if (n == '$' || n == '`' || n == '"' || n == '\\') {
          Advance();
          literal += Cur();
          Advance();
        } else if (n == '\n') {
          Advance();
          Advance();
        } else {
          literal += '\\';
          Advance();
        }
      } else if (c == '$') {
        flush_literal();
        p.children.push_back(ParseDollar());
      } else if (c == '`') {
        flush_literal();
        p.children.push_back(ParseBackquote());
      } else {
        literal += c;
        Advance();
      }
    }
    flush_literal();
    if (AtEnd()) {
      Error("unterminated double quote");
    } else {
      Advance();  // Closing quote.
    }
    p.range.end = Pos();
    return p;
  }

  WordPart ParseDollar() {
    WordPart p;
    p.range.begin = Pos();
    Advance();  // '$'
    if (AtEnd()) {
      p.kind = WordPartKind::kLiteral;
      p.text = "$";
      p.range.end = Pos();
      return p;
    }
    char c = Cur();
    if (c == '(') {
      if (At(1) == '(') {
        // Arithmetic expansion $(( ... )).
        Advance();
        Advance();
        p.kind = WordPartKind::kArith;
        int depth = 0;
        while (!AtEnd()) {
          if (Cur() == '(') {
            ++depth;
          } else if (Cur() == ')') {
            if (depth == 0 && At(1) == ')') {
              break;
            }
            --depth;
          }
          p.text += Cur();
          Advance();
        }
        if (AtEnd()) {
          Error("unterminated arithmetic expansion");
        } else {
          Advance();  // ')'
          Advance();  // ')'
        }
        p.range.end = Pos();
        return p;
      }
      // Command substitution $( ... ): parse the program in place.
      Advance();  // '('
      p.kind = WordPartKind::kCommandSub;
      size_t body_begin = pos_;
      p.command = ParseSubstitutionBody();
      p.command_text = std::string(sash::Trim(src_.substr(body_begin, pos_ - body_begin)));
      SkipAllSpace();
      if (Cur() == ')') {
        Advance();
      } else {
        Error("unterminated command substitution");
      }
      p.range.end = Pos();
      return p;
    }
    if (c == '{') {
      Advance();  // '{'
      return ParseBracedParam(p.range.begin);
    }
    // $name and special parameters.
    p.kind = WordPartKind::kParam;
    if (IsNameStart(c)) {
      while (!AtEnd() && IsNameChar(Cur())) {
        p.param_name += Cur();
        Advance();
      }
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '#' || c == '?' || c == '*' ||
               c == '@' || c == '$' || c == '!' || c == '-') {
      p.param_name = std::string(1, c);
      Advance();
    } else {
      p.kind = WordPartKind::kLiteral;
      p.text = "$";
    }
    p.range.end = Pos();
    return p;
  }

  // After "${" — parses name, operator, and argument through "}".
  WordPart ParseBracedParam(SourcePos begin) {
    WordPart p;
    p.kind = WordPartKind::kParam;
    p.range.begin = begin;
    if (Cur() == '#' && At(1) != '}') {
      // ${#name} — string length.
      Advance();
      p.param_op = ParamOp::kLength;
      while (!AtEnd() && (IsNameChar(Cur()) || std::string_view("?*@!$-").find(Cur()) !=
                                                   std::string_view::npos)) {
        p.param_name += Cur();
        Advance();
      }
      if (Cur() == '}') {
        Advance();
      } else {
        Error("expected '}' in ${#...}");
      }
      p.range.end = Pos();
      return p;
    }
    // Name (or special/positional).
    if (IsNameStart(Cur())) {
      while (!AtEnd() && IsNameChar(Cur())) {
        p.param_name += Cur();
        Advance();
      }
    } else if (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Cur())) ||
                            std::string_view("#?*@!$-").find(Cur()) != std::string_view::npos)) {
      p.param_name = std::string(1, Cur());
      Advance();
      // Multi-digit positionals: ${10}.
      while (std::isdigit(static_cast<unsigned char>(p.param_name[0])) && !AtEnd() &&
             std::isdigit(static_cast<unsigned char>(Cur()))) {
        p.param_name += Cur();
        Advance();
      }
    } else {
      Error("expected a parameter name in ${...}");
    }
    if (Cur() == '}') {
      Advance();
      p.range.end = Pos();
      return p;
    }
    // Operator.
    bool colon = false;
    if (Cur() == ':') {
      colon = true;
      Advance();
    }
    char opch = Cur();
    switch (opch) {
      case '-':
        p.param_op = ParamOp::kDefault;
        Advance();
        break;
      case '=':
        p.param_op = ParamOp::kAssignDefault;
        Advance();
        break;
      case '?':
        p.param_op = ParamOp::kErrorIfUnset;
        Advance();
        break;
      case '+':
        p.param_op = ParamOp::kAlternative;
        Advance();
        break;
      case '%':
        Advance();
        if (Cur() == '%') {
          Advance();
          p.param_op = ParamOp::kRemLargeSuffix;
        } else {
          p.param_op = ParamOp::kRemSmallSuffix;
        }
        break;
      case '#':
        Advance();
        if (Cur() == '#') {
          Advance();
          p.param_op = ParamOp::kRemLargePrefix;
        } else {
          p.param_op = ParamOp::kRemSmallPrefix;
        }
        break;
      default:
        Error(std::string("unsupported parameter operator '") + opch + "'");
        break;
    }
    p.param_colon = colon;
    // Argument word: parts until the matching '}'.
    auto arg = std::make_shared<Word>();
    arg->range.begin = Pos();
    std::string literal;
    SourcePos literal_begin = Pos();
    auto flush_literal = [&] {
      if (!literal.empty()) {
        WordPart lit;
        lit.kind = WordPartKind::kLiteral;
        lit.text = std::move(literal);
        lit.range = SourceRange{literal_begin, Pos()};
        arg->parts.push_back(std::move(lit));
        literal.clear();
      }
      literal_begin = Pos();
    };
    while (!AtEnd() && Cur() != '}') {
      char c = Cur();
      if (c == '\\') {
        Advance();
        if (!AtEnd()) {
          literal += Cur();
          Advance();
        }
      } else if (c == '$') {
        flush_literal();
        arg->parts.push_back(ParseDollar());
      } else if (c == '`') {
        flush_literal();
        arg->parts.push_back(ParseBackquote());
      } else if (c == '\'') {
        flush_literal();
        arg->parts.push_back(ParseSingleQuoted());
      } else if (c == '"') {
        flush_literal();
        arg->parts.push_back(ParseDoubleQuoted());
      } else if (c == '*') {
        flush_literal();
        WordPart g;
        g.kind = WordPartKind::kGlobStar;
        g.range.begin = Pos();
        Advance();
        g.range.end = Pos();
        arg->parts.push_back(std::move(g));
      } else if (c == '?') {
        flush_literal();
        WordPart g;
        g.kind = WordPartKind::kGlobQuestion;
        g.range.begin = Pos();
        Advance();
        g.range.end = Pos();
        arg->parts.push_back(std::move(g));
      } else {
        literal += c;
        Advance();
      }
    }
    flush_literal();
    arg->range.end = Pos();
    if (Cur() == '}') {
      Advance();
    } else {
      Error("unterminated ${...}");
    }
    p.param_arg = std::move(arg);
    p.range.end = Pos();
    return p;
  }

  WordPart ParseBackquote() {
    WordPart p;
    p.kind = WordPartKind::kCommandSub;
    p.backquoted = true;
    p.range.begin = Pos();
    Advance();  // '`'
    std::string inner;
    while (!AtEnd() && Cur() != '`') {
      if (Cur() == '\\' && (At(1) == '`' || At(1) == '\\' || At(1) == '$')) {
        Advance();
        inner += Cur();
        Advance();
      } else {
        inner += Cur();
        Advance();
      }
    }
    if (AtEnd()) {
      Error("unterminated backquote substitution");
    } else {
      Advance();  // Closing '`'.
    }
    p.command_text = inner;
    // Re-parse the unescaped inner text as its own program (own arena too —
    // sharing ours from an arena-resident node would be a shared_ptr cycle).
    // Positions inside refer to the extracted text, not the original source.
    Parser sub(inner);
    ParseOutput sub_out = sub.Run();
    for (Diagnostic& d : sub_out.diagnostics) {
      diagnostics_.push_back(std::move(d));
    }
    p.command = std::make_shared<Program>(std::move(sub_out.program));
    p.range.end = Pos();
    return p;
  }

  struct PendingHeredoc {
    std::shared_ptr<std::string> slot;
    std::string delimiter;
    bool strip_tabs = false;
  };

  // All Commands are allocated here; the Program keeps it alive.
  Command* NewCommand() { return arena_->New<Command>(); }

  std::string_view src_;
  std::shared_ptr<util::Arena> arena_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  std::vector<Diagnostic> diagnostics_;
  std::vector<PendingHeredoc> pending_heredocs_;
};

}  // namespace

ParseOutput Parse(std::string_view source) { return Parser(source).Run(); }

}  // namespace sash::syntax
