// Word expansion over symbolic values: parameter expansion (all POSIX
// operators), command substitution, arithmetic, quoting, globs, tilde.
#include <cctype>
#include <functional>

#include "fs/glob.h"
#include "fs/path.h"
#include "symex/evaluator.h"
#include "syntax/arith.h"
#include "util/strings.h"

namespace sash::symex {

namespace {

using syntax::ParamOp;
using syntax::Word;
using syntax::WordPart;
using syntax::WordPartKind;

bool IsSpecialParam(const std::string& name) {
  return name.size() == 1 && std::string_view("#?*@$!-").find(name[0]) != std::string_view::npos;
}

bool IsPositional(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool StaticGlobPattern(const syntax::Word& word, std::string* out) {
  std::string pattern;
  for (const WordPart& p : word.parts) {
    switch (p.kind) {
      case WordPartKind::kLiteral: {
        // Escape glob metacharacters in literal text.
        for (char c : p.text) {
          if (c == '*' || c == '?' || c == '[' || c == '\\') {
            pattern += '\\';
          }
          pattern += c;
        }
        break;
      }
      case WordPartKind::kSingleQuoted:
        for (char c : p.text) {
          if (c == '*' || c == '?' || c == '[' || c == '\\') {
            pattern += '\\';
          }
          pattern += c;
        }
        break;
      case WordPartKind::kDoubleQuoted:
        for (const WordPart& c : p.children) {
          if (c.kind != WordPartKind::kLiteral) {
            return false;
          }
          for (char ch : c.text) {
            if (ch == '*' || ch == '?' || ch == '[' || ch == '\\') {
              pattern += '\\';
            }
            pattern += ch;
          }
        }
        break;
      case WordPartKind::kGlobStar:
        pattern += '*';
        break;
      case WordPartKind::kGlobQuestion:
        pattern += '?';
        break;
      case WordPartKind::kGlobClass:
        pattern += '[' + p.text + ']';
        break;
      default:
        return false;
    }
  }
  *out = std::move(pattern);
  return true;
}

Expanded Evaluator::ExpandWord(State& st, const Word& word, int depth) {
  Expanded out;
  SymValue acc = SymValue::Concrete("");
  // Provenance tracking: a single expansion part optionally followed by
  // literal text keeps a refinable link to its variable.
  bool prov_alive = true;

  auto append_literal = [&](const std::string& text) {
    acc = acc.Append(SymValue::Concrete(text));
    if (out.prov.has_value()) {
      out.prov->suffix += text;
    }
  };

  std::function<void(const WordPart&, bool)> handle = [&](const WordPart& p, bool quoted) {
    switch (p.kind) {
      case WordPartKind::kLiteral:
      case WordPartKind::kSingleQuoted:
        append_literal(p.text);
        break;
      case WordPartKind::kDoubleQuoted:
        for (const WordPart& c : p.children) {
          handle(c, /*quoted=*/true);
        }
        break;
      case WordPartKind::kParam: {
        SymValue v = ExpandParam(st, p, depth);
        if (prov_alive && !out.prov.has_value() && acc.MustBeEmpty() &&
            p.param_op == ParamOp::kPlain && !IsSpecialParam(p.param_name)) {
          out.prov = Provenance{p.param_name, "", false};
        } else if (out.prov.has_value()) {
          out.prov.reset();  // Second expansion: provenance lost.
          prov_alive = false;
        }
        out.vars.push_back(p.param_name);
        acc = acc.Append(v);
        break;
      }
      case WordPartKind::kCommandSub: {
        std::optional<Provenance> sub_prov;
        SymValue v = EvalCommandSub(st, p, depth, &sub_prov);
        if (prov_alive && !out.prov.has_value() && acc.MustBeEmpty() && sub_prov.has_value()) {
          out.prov = sub_prov;
        } else if (out.prov.has_value()) {
          out.prov.reset();
          prov_alive = false;
        }
        acc = acc.Append(v);
        break;
      }
      case WordPartKind::kArith:
        acc = acc.Append(EvalArith(st, p.text));
        if (out.prov.has_value()) {
          out.prov.reset();
          prov_alive = false;
        }
        break;
      case WordPartKind::kGlobStar:
        if (!quoted) {
          out.has_unquoted_glob = true;
        }
        append_literal("*");
        break;
      case WordPartKind::kGlobQuestion:
        if (!quoted) {
          out.has_unquoted_glob = true;
        }
        append_literal("?");
        break;
      case WordPartKind::kGlobClass:
        if (!quoted) {
          out.has_unquoted_glob = true;
        }
        append_literal("[" + p.text + "]");
        break;
      case WordPartKind::kTilde: {
        std::string home = "/home/user";
        if (!p.text.empty()) {
          home = "/home/" + p.text;
        } else if (const SymValue* h = st.Lookup("HOME"); h != nullptr && h->is_concrete()) {
          home = h->concrete();
        }
        append_literal(home);
        break;
      }
    }
  };

  for (const WordPart& p : word.parts) {
    handle(p, /*quoted=*/false);
  }
  out.value = std::move(acc);

  // A word that is exactly one unquoted parameter/substitution drops the
  // field entirely when it expands empty.
  if (word.parts.size() == 1 &&
      (word.parts[0].kind == WordPartKind::kParam ||
       word.parts[0].kind == WordPartKind::kCommandSub)) {
    out.droppable_if_empty = true;
  }
  return out;
}

SymValue Evaluator::ExpandParam(State& st, const WordPart& part, int depth) {
  const std::string& name = part.param_name;
  const util::Symbol name_sym = part.param_sym();  // Cached on the AST node.

  // --- resolve the raw value ---
  SymValue raw;
  bool is_set = true;
  bool maybe_unset = false;
  if (name == "?") {
    raw = st.exit.known ? SymValue::Concrete(std::to_string(st.exit.code))
                        : SymValue::UnknownNumber();
  } else if (name == "#") {
    raw = SymValue::UnknownNumber();
  } else if (name == "$" || name == "!") {
    raw = SymValue::UnknownNumber();
  } else if (name == "*" || name == "@") {
    raw = SymValue::UnknownLine();
    maybe_unset = true;
  } else if (name == "-") {
    raw = SymValue::UnknownLine();
  } else if (name == "0") {
    if (const SymValue* v = st.Lookup(name_sym); v != nullptr) {
      raw = *v;
    } else {
      raw = SymValue::UnknownLine();
    }
  } else if (const SymValue* v = st.Lookup(name_sym); v != nullptr) {
    raw = *v;
    maybe_unset = st.MaybeUnset(name_sym);
  } else {
    is_set = false;
    raw = SymValue::Concrete("");
    if (options_.report_unset_vars && !IsPositional(name) && !IsSpecialParam(name) &&
        part.param_op != ParamOp::kDefault && part.param_op != ParamOp::kAssignDefault &&
        part.param_op != ParamOp::kAlternative && part.param_op != ParamOp::kErrorIfUnset) {
      Emit(Severity::kWarning, kCodeUnsetVar, part.range,
           "variable '" + name + "' is never assigned; it expands to the empty string", st);
    }
  }

  auto expand_arg = [&]() -> SymValue {
    if (part.param_arg == nullptr) {
      return SymValue::Concrete("");
    }
    return ExpandWord(st, *part.param_arg, depth).value;
  };

  // --- apply the operator ---
  switch (part.param_op) {
    case ParamOp::kPlain:
      if (!is_set) {
        return SymValue::Concrete("");
      }
      if (maybe_unset) {
        return raw.UnionWith(SymValue::Concrete(""));
      }
      return raw;

    case ParamOp::kDefault: {
      SymValue def = expand_arg();
      bool use_default_possible =
          !is_set || maybe_unset || (part.param_colon && raw.CanBeEmpty());
      bool use_default_certain =
          !is_set || (part.param_colon && raw.MustBeEmpty() && !maybe_unset);
      if (use_default_certain) {
        return def;
      }
      if (!use_default_possible) {
        return raw;
      }
      SymValue kept = part.param_colon ? raw.RestrictNonEmpty() : raw;
      return kept.UnionWith(def);
    }

    case ParamOp::kAssignDefault: {
      SymValue def = expand_arg();
      bool use_default_certain =
          !is_set || (part.param_colon && raw.MustBeEmpty() && !maybe_unset);
      SymValue result;
      if (use_default_certain) {
        result = def;
      } else if (!maybe_unset && !(part.param_colon && raw.CanBeEmpty())) {
        result = raw;
      } else {
        SymValue kept = part.param_colon ? raw.RestrictNonEmpty() : raw;
        result = kept.UnionWith(def);
      }
      st.Bind(name_sym, result);
      return result;
    }

    case ParamOp::kErrorIfUnset: {
      bool must_fail = !is_set || (part.param_colon && raw.MustBeEmpty() && !maybe_unset);
      bool may_fail = must_fail || maybe_unset || (part.param_colon && raw.CanBeEmpty());
      if (must_fail) {
        Emit(Severity::kError, kCodeParamError, part.range,
             "${" + name + (part.param_colon ? ":?" : "?") +
                 "} always fails: the parameter is " +
                 (is_set ? "always empty" : "never set"),
             st);
        st.terminated = true;
        st.exit = ExitStatus::Known(1);
        return SymValue::Nothing();
      }
      if (may_fail) {
        // Continue on the success path: the value is refined non-empty, and
        // the script may abort here on other paths.
        st.Assume([&] { return "${" + name + ":?} did not fail (value non-empty)"; });
        SymValue refined = part.param_colon ? raw.RestrictNonEmpty() : raw;
        st.Bind(name_sym, refined);
        return refined;
      }
      return raw;
    }

    case ParamOp::kAlternative: {
      SymValue alt = expand_arg();
      bool value_usable_possible = is_set && (!part.param_colon || !raw.MustBeEmpty());
      bool value_usable_certain =
          is_set && !maybe_unset && (!part.param_colon || !raw.CanBeEmpty());
      if (!value_usable_possible) {
        return SymValue::Concrete("");
      }
      if (value_usable_certain) {
        return alt;
      }
      return alt.UnionWith(SymValue::Concrete(""));
    }

    case ParamOp::kRemSmallSuffix:
    case ParamOp::kRemLargeSuffix:
    case ParamOp::kRemSmallPrefix:
    case ParamOp::kRemLargePrefix: {
      bool suffix = part.param_op == ParamOp::kRemSmallSuffix ||
                    part.param_op == ParamOp::kRemLargeSuffix;
      bool largest = part.param_op == ParamOp::kRemLargeSuffix ||
                     part.param_op == ParamOp::kRemLargePrefix;
      std::string pattern;
      if (part.param_arg != nullptr && StaticGlobPattern(*part.param_arg, &pattern) &&
          raw.is_concrete()) {
        return SymValue::Concrete(fs::RemovePattern(raw.concrete(), pattern, suffix, largest));
      }
      // Symbolic operand or dynamic pattern: the result is some substring of
      // the original; over-approximate as any line. (The cd model downstream
      // recovers the precision the paper's Fig. 1 needs.)
      return SymValue::UnknownLine();
    }

    case ParamOp::kLength:
      if (raw.is_concrete() && is_set && !maybe_unset) {
        return SymValue::Concrete(std::to_string(raw.concrete().size()));
      }
      return SymValue::UnknownNumber();
  }
  return raw;
}

SymValue Evaluator::EvalCommandSub(State& st, const WordPart& part, int depth,
                                   std::optional<Provenance>* prov_out) {
  if (part.command == nullptr) {
    return SymValue::UnknownLine();
  }
  if (depth > options_.max_call_depth) {
    ++stats_->depth_cap_hits;
    return SymValue::UnknownLine();
  }
  // Substitutions run in a subshell: variable/cwd changes do not escape, but
  // file-system effects do.
  State sub = st.Fork();
  sub.stdout_lines.clear();
  sub.stdout_prov.reset();
  std::vector<State> results = ExecProgram(std::move(sub), *part.command, depth + 1);
  if (results.empty()) {
    return SymValue::Concrete("");
  }
  if (results.size() == 1) {
    State& r = results[0];
    st.sfs = std::move(r.sfs);
    st.exit = r.exit;
    if (prov_out != nullptr) {
      *prov_out = r.stdout_prov;
    }
    return r.JoinedStdout();
  }
  // Multiple inner paths: the substitution's value is the union of their
  // outputs; exit status becomes unknown unless all agree; inner FS effects
  // are dropped (they differ per path). Assumption notes record the merge.
  SymValue value = results[0].JoinedStdout();
  bool all_same_exit = results[0].exit.known;
  int code = results[0].exit.code;
  for (size_t i = 1; i < results.size(); ++i) {
    value = value.UnionWith(results[i].JoinedStdout());
    if (!results[i].exit.known || results[i].exit.code != code) {
      all_same_exit = false;
    }
  }
  st.exit = all_same_exit ? ExitStatus::Known(code) : ExitStatus::Unknown();
  // Provenance survives the merge when exactly one distinct provenance
  // produced all non-empty output and every other path printed nothing:
  // comparisons against the union then still refine through the variable
  // (e.g. Fig. 2's $(realpath "$STEAMROOT/") where the failure path is
  // silent — and realpath of the root never fails, so the dangerous values
  // always take the provenance-carrying path).
  if (prov_out != nullptr) {
    std::optional<Provenance> unique;
    bool ok = true;
    for (State& r : results) {
      if (r.JoinedStdout().MustBeEmpty()) {
        continue;
      }
      if (!r.stdout_prov.has_value()) {
        ok = false;
        break;
      }
      if (!unique.has_value()) {
        unique = r.stdout_prov;
      } else if (unique->var != r.stdout_prov->var || unique->suffix != r.stdout_prov->suffix ||
                 unique->canonicalized != r.stdout_prov->canonicalized) {
        ok = false;
        break;
      }
    }
    if (ok && unique.has_value()) {
      *prov_out = unique;
    }
  }
  return value;
}

SymValue Evaluator::EvalArith(State& st, const std::string& expr) {
  // Only variables with concrete integer values are known; anything else
  // yields an unknown number.
  std::optional<int64_t> v = syntax::EvalArith(expr, [&st](std::string_view name) {
    const SymValue* value = st.Lookup(std::string(name));
    return value != nullptr && value->is_concrete() ? syntax::ParseArithInt(value->concrete())
                                                    : std::nullopt;
  });
  return v.has_value() ? SymValue::Concrete(std::to_string(*v)) : SymValue::UnknownNumber();
}

}  // namespace sash::symex
