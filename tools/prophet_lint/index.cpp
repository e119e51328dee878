#include "prophet_lint/index.hpp"

#include <algorithm>
#include <cctype>

namespace prophet::lint::internal {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::Ident && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::Punct && t.text == text;
}

// Lexically normalize "a/b/../c" and "a/./b".
std::string normalize_path(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::string part = path.substr(
        start, slash == std::string::npos ? std::string::npos : slash - start);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string{} : path.substr(0, slash);
}

std::string src_module(const std::string& path) {
  if (path.compare(0, 4, "src/") != 0) return {};
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return {};
  return path.substr(4, slash - 4);
}

bool all_caps_macro(const std::string& s) {
  if (s.size() < 2) return false;
  bool letter = false;
  for (const char c : s) {
    if (c >= 'A' && c <= 'Z') {
      letter = true;
    } else if (c != '_' && (c < '0' || c > '9')) {
      return false;
    }
  }
  return letter;
}

// Namespace-scope mutable variables. Brace contexts are classified by the
// statement that opens them: a '{' whose statement starts with `namespace`
// keeps us at namespace scope, anything else (functions, classes, enums,
// initializer braces) does not. Within namespace scope, a statement is a
// mutable variable declaration when it has no parentheses (functions), no
// const/constexpr, does not start with a type-introducing or alias keyword,
// and ends with a plain identifier declarator.
void collect_globals(const TokenizedFile& tf, std::vector<GlobalVar>& out) {
  const auto& toks = tf.tokens;
  static const std::set<std::string> kSkipFirst = {
      "namespace", "using", "typedef", "struct", "class",  "enum",
      "union",     "extern", "friend", "template", "static_assert",
      "public",    "private", "protected", "operator"};

  std::vector<bool> ns_stack;  // true = namespace brace
  std::size_t stmt_start = 0;

  const auto at_namespace_scope = [&] {
    return std::all_of(ns_stack.begin(), ns_stack.end(), [](bool b) { return b; });
  };

  const auto eval_span = [&](std::size_t lo, std::size_t hi) {
    if (hi <= lo) return;
    if (toks[lo].kind == TokKind::Ident && kSkipFirst.count(toks[lo].text) != 0) return;
    std::size_t end = hi;  // stop at the first '=' (the initializer is irrelevant)
    for (std::size_t k = lo; k < hi; ++k) {
      if (is_punct(toks[k], "=")) {
        end = k;
        break;
      }
    }
    if (end - lo < 2) return;
    for (std::size_t k = lo; k < end; ++k) {
      if (toks[k].kind == TokKind::Ident &&
          (toks[k].text == "const" || toks[k].text == "constexpr" ||
           toks[k].text == "constinit" || toks[k].text == "operator")) {
        return;
      }
      if (toks[k].kind == TokKind::Punct &&
          (toks[k].text == "(" || toks[k].text == ")" || toks[k].text == "[")) {
        return;
      }
    }
    const Token& name = toks[end - 1];
    if (name.kind != TokKind::Ident || all_caps_macro(name.text)) return;
    out.push_back(GlobalVar{name.text, name.line});
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Punct) continue;
    const std::string& p = toks[i].text;
    if (p == ";") {
      if (at_namespace_scope()) eval_span(stmt_start, i);
      stmt_start = i + 1;
    } else if (p == "{") {
      // Classified by CONTAINING the `namespace` keyword, not starting with
      // it: swallowed preprocessor directives (`#pragma once` leaves an
      // `once` token) can precede it in the statement span. A `namespace`
      // token followed by `{` in the same statement is always a definition —
      // alias (`namespace a = b;`) and using-directives end in ';'.
      bool ns = false;
      for (std::size_t k = stmt_start; k < i; ++k) {
        if (is_ident(toks[k], "namespace")) {
          ns = true;
          break;
        }
      }
      if (at_namespace_scope() && !ns) eval_span(stmt_start, i);
      ns_stack.push_back(ns);
      stmt_start = i + 1;
    } else if (p == "}") {
      if (!ns_stack.empty()) ns_stack.pop_back();
      stmt_start = i + 1;
    }
  }
}

// Unit-tagged function signature collection. A declaration site looks like
//   <ret-tokens> name ( T1 p1_ms, T2 p2, ... ) <;|{|const|noexcept|override|->>
// Call sites are rejected structurally: every recorded parameter must be a
// multi-token type+name sequence made of plain type syntax (no operators or
// literals), and the token before `name` must be part of a declarator, not a
// statement boundary or member access.
void collect_functions(const std::string& path, const TokenizedFile& tf,
                       std::map<std::string, FunctionSig>& out) {
  const auto& toks = tf.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || !is_punct(toks[i + 1], "(")) continue;
    if (all_caps_macro(toks[i].text)) continue;
    if (i == 0) continue;
    const Token& prev = toks[i - 1];
    const bool declarator_ctx =
        prev.kind == TokKind::Ident
            ? (prev.text != "return" && prev.text != "if" && prev.text != "while" &&
               prev.text != "switch" && prev.text != "for" && prev.text != "case" &&
               prev.text != "new" && prev.text != "delete" && prev.text != "co_return")
            : (is_punct(prev, ">") || is_punct(prev, "*") || is_punct(prev, "&") ||
               is_punct(prev, "::"));
    if (!declarator_ctx) continue;

    // Parse the parameter list at depth 1.
    int depth = 0;
    std::size_t close = 0;
    std::vector<std::pair<std::size_t, std::size_t>> params;  // token spans
    std::size_t param_start = i + 2;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != TokKind::Punct) continue;
      const std::string& p = toks[j].text;
      if (p == "(") {
        ++depth;
      } else if (p == ")") {
        if (--depth == 0) {
          if (j > param_start) params.emplace_back(param_start, j);
          close = j;
          break;
        }
      } else if (p == "," && depth == 1) {
        if (j > param_start) params.emplace_back(param_start, j);
        param_start = j + 1;
      } else if (p == ";" && depth == 1) {
        break;  // mis-parse (operator< or a statement); bail
      }
    }
    if (close == 0 || close + 1 >= toks.size()) continue;
    const Token& after = toks[close + 1];
    const bool decl_tail =
        is_punct(after, ";") || is_punct(after, "{") || is_punct(after, "->") ||
        is_ident(after, "const") || is_ident(after, "noexcept") ||
        is_ident(after, "override") || is_ident(after, "final");
    if (!decl_tail) continue;

    // Validate parameters and extract declared names.
    std::vector<std::string> names;
    bool tagged = false;
    bool shaped = !params.empty();
    for (const auto& [lo, hi_raw] : params) {
      std::size_t hi = hi_raw;  // ignore default arguments
      for (std::size_t k = lo; k < hi_raw; ++k) {
        if (is_punct(toks[k], "=")) {
          hi = k;
          break;
        }
      }
      bool plain = true;
      for (std::size_t k = lo; k < hi; ++k) {
        const Token& t = toks[k];
        if (t.kind == TokKind::Number || t.kind == TokKind::Str ||
            t.kind == TokKind::CharLit) {
          plain = false;
          break;
        }
        if (t.kind == TokKind::Punct && t.text != "*" && t.text != "&" &&
            t.text != "::" && t.text != "<" && t.text != ">" && t.text != "," &&
            t.text != "." && t.text != "(" && t.text != ")") {
          plain = false;
          break;
        }
        if (t.kind == TokKind::Punct && (t.text == "(" || t.text == ")")) {
          plain = false;  // function-pointer params are out of scope
          break;
        }
      }
      if (!plain || hi - lo < 2 || toks[hi - 1].kind != TokKind::Ident) {
        shaped = false;
        break;
      }
      const std::string& name = toks[hi - 1].text;
      names.push_back(name);
      if (!unit_of(name).empty()) tagged = true;
    }
    if (!shaped || !tagged) continue;

    auto [it, inserted] =
        out.emplace(toks[i].text, FunctionSig{path, toks[i].line, names, false});
    if (!inserted && it->second.params != names) it->second.ambiguous = true;
  }
}

}  // namespace

std::string unit_of(const std::string& ident) {
  // Use only the last member-path component ("foo.deadline_ms" -> "deadline_ms").
  // `_qb` / `_qbpns`: net::FlowNetwork's fixed-point byte quanta and quanta
  // per nanosecond.
  static const std::vector<std::pair<std::string, std::string>> kSuffixes = {
      {"_qbpns", "qb/ns"}, {"_qb", "qb"},
      {"_seconds", "s"}, {"_nanos", "ns"}, {"_micros", "us"}, {"_millis", "ms"},
      {"_bytes", "bytes"}, {"_secs", "s"}, {"_gbps", "gbps"}, {"_mbps", "mbps"},
      {"_kbps", "kbps"}, {"_sec", "s"},   {"_bps", "bps"},   {"_ns", "ns"},
      {"_us", "us"},     {"_ms", "ms"},   {"_s", "s"}};
  for (const auto& [suffix, unit] : kSuffixes) {
    if (ident.size() > suffix.size() &&
        ident.compare(ident.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return unit;
    }
  }
  return {};
}

ProjectIndex build_index(const Config& cfg, const std::vector<SourceFile>& files,
                         const std::vector<TokenizedFile>& tokenized) {
  ProjectIndex index;
  const std::size_t n = files.size();
  index.includes.resize(n);
  index.include_edges.resize(n);
  index.included_by.resize(n);
  index.globals.resize(n);
  index.calls_sweep.assign(n, false);
  index.handle_names.resize(n);

  // Known module names (layering table keys plus whatever is on disk) let a
  // quote-include like "net/topology.hpp" resolve to src/net/topology.hpp.
  std::set<std::string> modules;
  for (const auto& [m, deps] : cfg.layering) {
    modules.insert(m);
    modules.insert(deps.begin(), deps.end());
  }
  for (const auto& f : files) {
    const std::string m = src_module(f.path);
    if (!m.empty()) modules.insert(m);
  }
  for (std::size_t i = 0; i < n; ++i) index.by_path.emplace(files[i].path, i);
  const auto& by_path = index.by_path;

  for (std::size_t i = 0; i < n; ++i) {
    for (const IncludeDirective& inc : tokenized[i].includes) {
      ResolvedInclude ri;
      ri.line = inc.line;
      ri.target = inc.target;
      ri.angled = inc.angled;
      if (!inc.angled) {
        const std::size_t slash = inc.target.find('/');
        if (slash != std::string::npos &&
            modules.count(inc.target.substr(0, slash)) != 0) {
          ri.resolved = normalize_path("src/" + inc.target);
        } else {
          const std::string dir = dirname_of(files[i].path);
          ri.resolved = normalize_path(dir.empty() ? inc.target : dir + "/" + inc.target);
        }
        const auto it = by_path.find(ri.resolved);
        if (it != by_path.end()) {
          ri.file_index = static_cast<int>(it->second);
          index.include_edges[i].push_back(it->second);
          index.included_by[it->second].push_back(i);
        }
      }
      index.includes[i].push_back(std::move(ri));
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const auto& toks = tokenized[i].tokens;
    collect_globals(tokenized[i], index.globals[i]);
    collect_functions(files[i].path, tokenized[i], index.functions);
    for (std::size_t j = 0; j < toks.size(); ++j) {
      const Token& t = toks[j];
      if (t.kind != TokKind::Ident) continue;
      const bool next_call =
          j + 1 < toks.size() && toks[j + 1].kind == TokKind::Punct &&
          (toks[j + 1].text == "(" || toks[j + 1].text == "<");
      if (next_call && (t.text == "run_sweep" || t.text == "parallel_map" ||
                        t.text == "parallel_for_index")) {
        index.calls_sweep[i] = true;
      }
      if (next_call && toks[j + 1].text == "(" && all_caps_macro(t.text)) {
        ++index.macro_uses[t.text];
      }
      // `FlowId x` / `EventHandle h(...)`: remember every name declared with a
      // handle type (locals, fields, params, handle-returning functions).
      if (cfg.r7_handle_types.count(t.text) != 0 && j + 2 < toks.size() &&
          toks[j + 1].kind == TokKind::Ident && toks[j + 2].kind == TokKind::Punct) {
        const std::string& after = toks[j + 2].text;
        if (after == ";" || after == "=" || after == "{" || after == "," ||
            after == ")" || after == "(") {
          index.handle_names[i].insert(toks[j + 1].text);
        }
      }
    }
  }
  return index;
}

std::set<std::size_t> reverse_include_closure(const ProjectIndex& index,
                                              const std::set<std::size_t>& changed) {
  std::set<std::size_t> out = changed;
  std::vector<std::size_t> queue(changed.begin(), changed.end());
  while (!queue.empty()) {
    const std::size_t cur = queue.back();
    queue.pop_back();
    for (const std::size_t parent : index.included_by[cur]) {
      if (out.insert(parent).second) queue.push_back(parent);
    }
  }
  return out;
}

std::set<std::size_t> forward_include_closure(const ProjectIndex& index,
                                              std::size_t root) {
  std::set<std::size_t> out{root};
  std::vector<std::size_t> queue{root};
  while (!queue.empty()) {
    const std::size_t cur = queue.back();
    queue.pop_back();
    for (const std::size_t child : index.include_edges[cur]) {
      if (out.insert(child).second) queue.push_back(child);
    }
  }
  return out;
}

}  // namespace prophet::lint::internal
