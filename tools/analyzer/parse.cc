#include "parse.h"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <set>

namespace streamline::analyzer {

namespace {

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",       "else",     "for",          "while",    "do",
      "switch",   "case",     "default",      "return",   "break",
      "continue", "goto",     "new",          "delete",   "throw",
      "try",      "catch",    "sizeof",       "alignof",  "decltype",
      "typeid",   "co_await", "co_yield",     "co_return"};
  return kw;
}

const std::set<std::string>& Specifiers() {
  static const std::set<std::string> kw = {
      "static",   "const",   "constexpr", "consteval", "constinit",
      "inline",   "mutable", "volatile",  "explicit",  "virtual",
      "typename", "extern",  "thread_local", "register", "noexcept",
      "override", "final",   "unsigned",  "signed",    "long",
      "short"};
  return kw;
}

/// Smart pointers / containers whose first template argument is the type
/// that matters for receiver resolution.
const std::set<std::string>& Wrappers() {
  static const std::set<std::string> w = {
      "unique_ptr", "shared_ptr", "weak_ptr", "vector", "deque", "array",
      "optional",   "span",       "Result",   "list",   "atomic"};
  return w;
}

bool IsIdent(const Token& t) { return t.kind == TokKind::kIdent; }
bool IsPunct(const Token& t, const char* p) {
  return t.kind == TokKind::kPunct && t.text == p;
}

struct TypeParse {
  std::string cls;       // unwrapped class name ("" if not a class-ish type)
  size_t next = 0;       // index just past the type expression
  bool ok = false;
  bool wrapped = false;  // cls is a wrapper's argument (vector<Record>)
};

/// True when the declared type toks[0, tp.next) spells any of `marks`
/// (`*`, `&`, `&&`, `const`).
bool TypeHasAny(const std::vector<Token>& toks, const TypeParse& tp,
                std::initializer_list<const char*> marks) {
  for (size_t k = 0; k < tp.next; ++k) {
    for (const char* m : marks) {
      if (toks[k].text == m) return true;
    }
  }
  return false;
}

/// A Record or Value the function may move from: by value, `&` or `&&` --
/// not const, not a pointer, not inside a container or smart pointer.
bool IsMovableHotType(const std::vector<Token>& toks, const TypeParse& tp) {
  return !tp.wrapped && IsHotType(tp.cls) &&
         !TypeHasAny(toks, tp, {"*", "const"});
}

/// Parses a type expression starting at `i`: qualified identifier chain with
/// balanced template arguments, then trailing cv / * / &. Unwraps the known
/// smart-pointer / container wrappers to their first template argument and
/// returns the last identifier of the resulting chain as the class name.
TypeParse ParseType(const std::vector<Token>& t, size_t i) {
  TypeParse out;
  // Leading specifiers.
  while (i < t.size() && IsIdent(t[i]) && Specifiers().count(t[i].text)) ++i;
  if (i >= t.size() || !IsIdent(t[i])) return out;
  std::string last = t[i].text;
  ++i;
  while (i < t.size()) {
    if (IsPunct(t[i], "::") && i + 1 < t.size() && IsIdent(t[i + 1])) {
      last = t[i + 1].text;
      i += 2;
      continue;
    }
    if (IsPunct(t[i], "<")) {
      // Balanced template argument list. If `last` is a wrapper, descend
      // into the first argument; otherwise skip the group.
      const size_t arg_start = i + 1;
      int depth = 1;
      size_t j = i + 1;
      while (j < t.size() && depth > 0) {
        if (IsPunct(t[j], "<")) ++depth;
        else if (IsPunct(t[j], ">")) --depth;
        ++j;
      }
      if (Wrappers().count(last)) {
        TypeParse inner = ParseType(t, arg_start);
        if (inner.ok && !inner.cls.empty()) {
          last = inner.cls;
          out.wrapped = true;
        }
      }
      i = j;
      continue;
    }
    break;
  }
  // Trailing cv / ref / pointer.
  while (i < t.size() &&
         (IsPunct(t[i], "*") || IsPunct(t[i], "&") || IsPunct(t[i], "&&") ||
          (IsIdent(t[i]) && t[i].text == "const"))) {
    ++i;
  }
  out.cls = last;
  out.next = i;
  out.ok = true;
  return out;
}

/// Walks a member-access receiver chain *backwards* from the token before
/// the method name. `a[i]->b.Foo(` with Foo at index k: called with k-1
/// pointing at '.', returns {"a", "b"}. Elements that are themselves calls
/// are recorded as "name()" markers.
std::vector<std::string> WalkReceiverChain(const std::vector<Token>& t,
                                           size_t before_name) {
  std::vector<std::string> rev;
  size_t i = before_name;
  while (true) {
    if (!(IsPunct(t[i], ".") || IsPunct(t[i], "->"))) break;
    if (i == 0) break;
    size_t j = i - 1;
    // Skip trailing [index] groups and call parens on the receiver element.
    bool is_call = false;
    while (true) {
      if (IsPunct(t[j], "]")) {
        int depth = 1;
        while (j-- > 0 && depth > 0) {
          if (IsPunct(t[j], "]")) ++depth;
          else if (IsPunct(t[j], "[")) --depth;
        }
        if (j == static_cast<size_t>(-1)) return {};
        continue;
      }
      if (IsPunct(t[j], ")")) {
        int depth = 1;
        while (j-- > 0 && depth > 0) {
          if (IsPunct(t[j], ")")) ++depth;
          else if (IsPunct(t[j], "(")) --depth;
        }
        if (j == static_cast<size_t>(-1)) return {};
        is_call = true;
        continue;
      }
      break;
    }
    if (IsIdent(t[j])) {
      rev.push_back(is_call ? t[j].text + "()" : t[j].text);
      if (j == 0) break;
      i = j - 1;
      if (IsIdent(t[i]) && t[i].text == "this") break;
      continue;
    }
    if (IsIdent(t[j]) == false && (IsPunct(t[j], ")") || IsPunct(t[j], "]"))) {
      break;  // already consumed above; defensive
    }
    // `(*x).Foo` or `this->` handled loosely: give up on complex receivers.
    break;
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

/// Reads a receiver chain forward from t[i]: identifiers joined by `.`,
/// `->` or `::`, with `[..]` skipped and call parentheses marked as
/// "name()". Stops at the first other token.
std::vector<std::string> ForwardChain(const std::vector<Token>& t, size_t i,
                                      size_t end) {
  std::vector<std::string> chain;
  for (; i < end; ++i) {
    if (IsIdent(t[i])) {
      chain.push_back(t[i].text);
      continue;
    }
    const bool call = IsPunct(t[i], "(");
    if (call || IsPunct(t[i], "[")) {
      if (call && !chain.empty()) chain.back() += "()";
      const char* open = call ? "(" : "[";
      const char* close = call ? ")" : "]";
      int depth = 1;
      while (++i < end && depth > 0) {
        if (IsPunct(t[i], open)) ++depth;
        else if (IsPunct(t[i], close)) --depth;
      }
      --i;
      continue;
    }
    if (!(IsPunct(t[i], ".") || IsPunct(t[i], "->") || IsPunct(t[i], "::"))) {
      break;
    }
  }
  return chain;
}

struct Parser {
  const LexedFile& file;
  Program* prog;
  const std::vector<Token>& t;

  explicit Parser(const LexedFile& f, Program* p)
      : file(f), prog(p), t(f.tokens) {}

  SourceLoc LocAt(size_t i) const {
    return {file.path, i < t.size() ? t[i].line : 0};
  }

  size_t SkipBalanced(size_t i, const char* open, const char* close) const {
    // `i` points at the opening token; returns index just past the close.
    int depth = 0;
    while (i < t.size()) {
      if (IsPunct(t[i], open)) ++depth;
      else if (IsPunct(t[i], close)) {
        if (--depth == 0) return i + 1;
      }
      ++i;
    }
    return i;
  }

  // ---------------------------------------------------------------------
  // Declaration scopes (namespace / class bodies / file scope)
  // ---------------------------------------------------------------------

  void ParseTopLevel() { ParseDeclScope("", nullptr, 0, t.size()); }

  /// Parses declarations in [begin, end). `cls` is the enclosing ClassInfo
  /// (nullptr at namespace scope).
  void ParseDeclScope(const std::string& ns, ClassInfo* cls, size_t begin,
                      size_t end) {
    std::vector<size_t> buf;  // token indices of the current declaration
    size_t i = begin;
    while (i < end) {
      const Token& tok = t[i];
      if (IsPunct(tok, ";")) {
        ProcessDecl(cls, buf);
        buf.clear();
        ++i;
        continue;
      }
      if (IsPunct(tok, ":") && cls != nullptr && buf.size() == 1 &&
          IsIdent(t[buf[0]]) &&
          (t[buf[0]].text == "public" || t[buf[0]].text == "private" ||
           t[buf[0]].text == "protected")) {
        buf.clear();  // access specifier
        ++i;
        continue;
      }
      if (IsPunct(tok, "}")) {
        return;  // caller consumes
      }
      if (IsPunct(tok, "{")) {
        const auto kind = ClassifyBrace(buf);
        switch (kind) {
          case BraceKind::kNamespace: {
            std::string name = LastIdentText(buf);
            if (name == "namespace") name = "";  // anonymous
            const size_t close = SkipBalanced(i, "{", "}");
            ParseDeclScope(ns.empty() ? name : ns + "::" + name, nullptr,
                           i + 1, close - 1);
            i = close;
            buf.clear();
            continue;
          }
          case BraceKind::kClass: {
            const size_t close = SkipBalanced(i, "{", "}");
            ParseClass(buf, i + 1, close - 1);
            i = close;
            // The trailing `;` (and possible variable name) is consumed by
            // the normal `;` handling with an empty-ish buffer.
            buf.clear();
            continue;
          }
          case BraceKind::kEnumOrSkip: {
            i = SkipBalanced(i, "{", "}");
            buf.clear();
            continue;
          }
          case BraceKind::kInitializer: {
            // Brace init inside a declaration: consume the group into the
            // buffer and keep collecting until ';'.
            const size_t close = SkipBalanced(i, "{", "}");
            for (size_t k = i; k < close; ++k) buf.push_back(k);
            i = close;
            continue;
          }
          case BraceKind::kCtorInitMember: {
            const size_t close = SkipBalanced(i, "{", "}");
            for (size_t k = i; k < close; ++k) buf.push_back(k);
            i = close;
            continue;
          }
          case BraceKind::kFunctionBody: {
            const size_t close = SkipBalanced(i, "{", "}");
            ParseFunction(cls, buf, i + 1, close - 1);
            i = close;
            buf.clear();
            continue;
          }
        }
      }
      if (IsPunct(tok, "(")) {
        // Consume balanced parens into the buffer in one go so nested
        // braces (lambdas in default args) don't confuse classification.
        const size_t close = SkipBalanced(i, "(", ")");
        for (size_t k = i; k < close; ++k) buf.push_back(k);
        i = close;
        continue;
      }
      if (IsIdent(tok) && tok.text == "template") {
        // Skip the template parameter list; keep "template" in the buffer
        // so ProcessDecl can ignore forward declarations.
        buf.push_back(i);
        ++i;
        if (i < end && IsPunct(t[i], "<")) {
          int depth = 0;
          while (i < end) {
            if (IsPunct(t[i], "<")) ++depth;
            else if (IsPunct(t[i], ">")) {
              if (--depth == 0) { ++i; break; }
            }
            ++i;
          }
        }
        continue;
      }
      buf.push_back(i);
      ++i;
    }
    ProcessDecl(cls, buf);
  }

  enum class BraceKind {
    kNamespace,
    kClass,
    kEnumOrSkip,
    kInitializer,
    kCtorInitMember,
    kFunctionBody,
  };

  std::string LastIdentText(const std::vector<size_t>& buf) const {
    for (size_t k = buf.size(); k-- > 0;) {
      if (IsIdent(t[buf[k]])) return t[buf[k]].text;
    }
    return "";
  }

  bool BufHasIdent(const std::vector<size_t>& buf, const char* s) const {
    for (size_t idx : buf) {
      if (IsIdent(t[idx]) && t[idx].text == s) return true;
    }
    return false;
  }

  BraceKind ClassifyBrace(const std::vector<size_t>& buf) const {
    if (buf.empty()) return BraceKind::kEnumOrSkip;  // bare block
    const std::string first = t[buf[0]].text;
    if (BufHasIdent(buf, "namespace")) return BraceKind::kNamespace;
    if (BufHasIdent(buf, "enum")) return BraceKind::kEnumOrSkip;
    if (first == "using" || BufHasIdent(buf, "typedef")) {
      return BraceKind::kInitializer;
    }
    const bool is_class =
        BufHasIdent(buf, "class") || BufHasIdent(buf, "struct") ||
        BufHasIdent(buf, "union");
    // `struct X {` is a class; but `struct X foo = {...}` (C style) is not
    // seen in this codebase, and function definitions never contain the
    // class keyword outside template headers (which were skipped).
    if (is_class && FindParamOpen(buf) == static_cast<size_t>(-1)) {
      return BraceKind::kClass;
    }
    // `= { ... }` initializer.
    for (size_t k = 0; k < buf.size(); ++k) {
      if (IsPunct(t[buf[k]], "=")) return BraceKind::kInitializer;
    }
    const size_t paren = FindParamOpen(buf);
    if (paren == static_cast<size_t>(-1)) {
      // No function signature: brace-init of a member/global
      // (`std::atomic<int> x{0};`) when preceded by an identifier,
      // otherwise an unknown block we skip.
      if (!buf.empty() && IsIdent(t[buf.back()])) {
        return BraceKind::kInitializer;
      }
      return BraceKind::kEnumOrSkip;
    }
    // Signature found. Constructor-initializer handling: a top-level ':'
    // after the parameter list means member initializers follow; a '{'
    // directly after an identifier is a member brace-init, one after ')'
    // or '}' is the body.
    if (CtorColonAfterParams(buf, paren)) {
      const Token& last = t[buf.back()];
      if (IsIdent(last)) return BraceKind::kCtorInitMember;
    }
    return BraceKind::kFunctionBody;
  }

  /// Index *into buf* of the '(' opening the parameter list: the first
  /// top-level '(' (outside template angles) preceded by an identifier or
  /// operator name. Returns (size_t)-1 when absent.
  size_t FindParamOpen(const std::vector<size_t>& buf) const {
    int angle = 0;
    for (size_t k = 0; k < buf.size(); ++k) {
      const Token& tok = t[buf[k]];
      if (IsPunct(tok, "<")) {
        // Heuristic: '<' after an identifier opens template args.
        if (k > 0 && IsIdent(t[buf[k - 1]]) &&
            t[buf[k - 1]].text != "operator" && !InExprPosition(buf, k)) {
          ++angle;
        }
        continue;
      }
      if (IsPunct(tok, ">")) {
        if (angle > 0) --angle;
        continue;
      }
      if (angle > 0) continue;
      if (IsPunct(tok, "(") && k > 0) {
        const Token& prev = t[buf[k - 1]];
        if (IsIdent(prev) && !Keywords().count(prev.text)) return k;
        // operator()( ... ) / operator<( ... ): prev is punct but an
        // 'operator' ident appears within 3 tokens back.
        for (size_t b = k; b-- > 0 && k - b <= 3;) {
          if (IsIdent(t[buf[b]]) && t[buf[b]].text == "operator") return k;
        }
      }
    }
    return static_cast<size_t>(-1);
  }

  bool InExprPosition(const std::vector<size_t>& buf, size_t k) const {
    // Rough guard so `a < b` in a default argument doesn't open an angle
    // scope: '<' directly following ')' / number is comparison.
    if (k == 0) return false;
    const Token& prev = t[buf[k - 1]];
    return prev.kind == TokKind::kNumber || IsPunct(prev, ")");
  }

  bool CtorColonAfterParams(const std::vector<size_t>& buf,
                            size_t paren) const {
    // Find close of the param list within buf, then look for top-level ':'.
    int depth = 0;
    size_t k = paren;
    for (; k < buf.size(); ++k) {
      if (IsPunct(t[buf[k]], "(")) ++depth;
      else if (IsPunct(t[buf[k]], ")")) {
        if (--depth == 0) { ++k; break; }
      }
    }
    for (; k < buf.size(); ++k) {
      if (IsPunct(t[buf[k]], "(")) { k = SkipInBuf(buf, k, "(", ")"); continue; }
      if (IsPunct(t[buf[k]], "{")) { k = SkipInBuf(buf, k, "{", "}"); continue; }
      if (IsPunct(t[buf[k]], ":")) return true;
    }
    return false;
  }

  size_t SkipInBuf(const std::vector<size_t>& buf, size_t k, const char* open,
                   const char* close) const {
    int depth = 0;
    for (; k < buf.size(); ++k) {
      if (IsPunct(t[buf[k]], open)) ++depth;
      else if (IsPunct(t[buf[k]], close)) {
        if (--depth == 0) return k;
      }
    }
    return k;
  }

  // ---------------------------------------------------------------------
  // Class parsing
  // ---------------------------------------------------------------------

  void ParseClass(const std::vector<size_t>& head, size_t begin, size_t end) {
    // Head: [template <...>] class/struct [MACRO(..)] Name [final]
    //       [: bases...]
    // Find the name: last identifier before the top-level ':' (base clause)
    // or end of head, skipping 'final'.
    size_t colon = head.size();
    int depth = 0;
    for (size_t k = 0; k < head.size(); ++k) {
      if (IsPunct(t[head[k]], "(")) ++depth;
      else if (IsPunct(t[head[k]], ")")) --depth;
      else if (depth == 0 && IsPunct(t[head[k]], ":")) { colon = k; break; }
    }
    std::string name;
    for (size_t k = colon; k-- > 0;) {
      if (IsIdent(t[head[k]]) && t[head[k]].text != "final") {
        name = t[head[k]].text;
        break;
      }
    }
    if (name.empty() || name == "class" || name == "struct") {
      // Anonymous struct/union: parse members into the void.
      ClassInfo scratch;
      ParseDeclScope("", &scratch, begin, end);
      return;
    }
    ClassInfo& info = prog->classes[name];
    info.name = name;
    // Bases: after ':', comma-separated; skip access specifiers; take the
    // first identifier chain of each (its last pre-'<' component).
    if (colon < head.size()) {
      size_t k = colon + 1;
      while (k < head.size()) {
        while (k < head.size() && IsIdent(t[head[k]]) &&
               (t[head[k]].text == "public" || t[head[k]].text == "private" ||
                t[head[k]].text == "protected" ||
                t[head[k]].text == "virtual")) {
          ++k;
        }
        std::string base, last;
        int ang = 0;
        for (; k < head.size(); ++k) {
          const Token& tok = t[head[k]];
          if (IsPunct(tok, "<")) { ++ang; continue; }
          if (IsPunct(tok, ">")) { if (ang > 0) --ang; continue; }
          if (ang > 0) continue;
          if (IsPunct(tok, ",")) { ++k; break; }
          if (IsIdent(tok)) last = tok.text;
        }
        base = last;
        if (!base.empty()) info.bases.push_back(base);
        if (k >= head.size()) break;
      }
    }
    ParseDeclScope("", &info, begin, end);
  }

  // ---------------------------------------------------------------------
  // Simple declarations (members, aliases, method declarations)
  // ---------------------------------------------------------------------

  void ProcessDecl(ClassInfo* cls, const std::vector<size_t>& buf) {
    if (buf.empty()) return;
    const std::string first = t[buf[0]].text;
    if (first == "friend" || first == "template" || first == "typedef" ||
        first == "public" || first == "private" || first == "protected") {
      return;
    }
    if (first == "using") {
      // using X = Y<...>;
      if (buf.size() >= 3 && IsIdent(t[buf[1]]) && IsPunct(t[buf[2]], "=")) {
        std::vector<Token> rhs;
        for (size_t k = 3; k < buf.size(); ++k) rhs.push_back(t[buf[k]]);
        TypeParse tp = ParseType(rhs, 0);
        if (tp.ok && cls != nullptr) {
          cls->aliases[t[buf[1]].text] = tp.cls;
        }
      }
      return;
    }
    if (cls == nullptr) return;  // namespace-scope globals: not needed
    if (BufHasIdent(buf, "class") || BufHasIdent(buf, "struct") ||
        BufHasIdent(buf, "enum")) {
      return;  // forward declaration
    }
    // Method declaration? Signature paren present -> record name + return
    // type, no member variable.
    const size_t paren = FindParamOpen(buf);
    if (paren != static_cast<size_t>(-1) && paren > 0) {
      const std::string mname = t[buf[paren - 1]].text;
      cls->method_names.insert(mname);
      return;
    }
    // Member variable: Type name [MACRO(...)] [= init | {init}] ;
    std::vector<Token> toks;
    toks.reserve(buf.size());
    for (size_t idx : buf) toks.push_back(t[idx]);
    TypeParse tp = ParseType(toks, 0);
    if (!tp.ok || tp.next >= toks.size()) return;
    if (!IsIdent(toks[tp.next])) return;
    const std::string vname = toks[tp.next].text;
    if (Keywords().count(vname) || Specifiers().count(vname)) return;
    cls->member_types[vname] = tp.cls;
  }

  // ---------------------------------------------------------------------
  // Function definitions
  // ---------------------------------------------------------------------

  void ParseFunction(ClassInfo* cls, const std::vector<size_t>& head,
                     size_t begin, size_t end) {
    const size_t paren = FindParamOpen(head);
    if (paren == static_cast<size_t>(-1) || paren == 0) return;
    // Assemble the possibly-qualified name ending at head[paren-1]:
    // [~]Name, Qual::Name, Qual::~Name, operatorX.
    size_t k = paren - 1;
    std::string name = t[head[k]].text;
    if (name == "operator" || (k > 0 && IsIdent(t[head[k - 1]]) &&
                               t[head[k - 1]].text == "operator")) {
      // operator<=, operator(), ... normalize to "operator".
      name = "operator";
      while (k > 0 && !(IsIdent(t[head[k]]) && t[head[k]].text == "operator"))
        --k;
    }
    bool dtor = false;
    if (k > 0 && IsPunct(t[head[k - 1]], "~")) {
      dtor = true;
      --k;
    }
    std::vector<std::string> quals;
    while (k >= 2 && IsPunct(t[head[k - 1]], "::") && IsIdent(t[head[k - 2]])) {
      quals.insert(quals.begin(), t[head[k - 2]].text);
      k -= 2;
    }
    std::string class_name = cls ? cls->name : "";
    if (!quals.empty()) class_name = quals.back();
    if (dtor) name = "~" + name;
    std::string qualified =
        class_name.empty() ? name : class_name + "::" + name;

    FunctionInfo& fn = prog->functions[qualified];
    if (fn.qualified_name.empty()) {
      fn.qualified_name = qualified;
      fn.class_name = class_name;
      fn.bare_name = name;
      fn.loc = LocAt(head[paren]);
    }
    // Record the method on its class even when defined out of line in a
    // .cc file the header was also parsed from.
    if (!class_name.empty()) {
      prog->classes[class_name].method_names.insert(name);
      if (prog->classes[class_name].name.empty()) {
        prog->classes[class_name].name = class_name;
      }
    }
    // `override` among post-paren head tokens.
    for (size_t p = paren; p < head.size(); ++p) {
      if (IsIdent(t[head[p]]) && t[head[p]].text == "override") {
        fn.is_override = true;
      }
    }
    ParseParams(&fn, head, paren);
    // Constructor-init-list member names were folded into `head`; their
    // initializer expressions can contain calls but those run once at
    // construction -- outside morsel paths -- so we skip them.
    ParseBody(&fn, cls, begin, end);
  }

  void ParseParams(FunctionInfo* fn, const std::vector<size_t>& head,
                   size_t paren) {
    // Split the parameter list on top-level commas; each parameter is
    // Type name [= default].
    std::vector<Token> cur;
    int pdepth = 0, adepth = 0;
    auto flush = [&]() {
      if (cur.empty()) return;
      TypeParse tp = ParseType(cur, 0);
      if (tp.ok) {
        bool by_value = true;
        for (const Token& tok : cur) {
          if (IsPunct(tok, "&") || IsPunct(tok, "*") || IsPunct(tok, "&&")) {
            by_value = false;
            break;
          }
        }
        fn->params.push_back({tp.cls, by_value});
        if (tp.next < cur.size() && IsIdent(cur[tp.next])) {
          fn->local_types[cur[tp.next].text] = tp.cls;
          if (IsMovableHotType(cur, tp)) {
            fn->movable_hot_locals.insert(cur[tp.next].text);
          }
        }
      }
      cur.clear();
    };
    for (size_t k = paren; k < head.size(); ++k) {
      const Token& tok = t[head[k]];
      if (IsPunct(tok, "(")) {
        if (++pdepth == 1) continue;
      } else if (IsPunct(tok, ")")) {
        if (--pdepth == 0) break;
      } else if (IsPunct(tok, "<")) {
        ++adepth;
      } else if (IsPunct(tok, ">")) {
        if (adepth > 0) --adepth;
      } else if (IsPunct(tok, ",") && pdepth == 1 && adepth == 0) {
        flush();
        continue;
      }
      if (pdepth >= 1) cur.push_back(tok);
    }
    flush();
  }

  // ---------------------------------------------------------------------
  // Function bodies
  // ---------------------------------------------------------------------

  struct HeldLock {
    int lock_index;                  // index into fn->locks
    std::vector<std::string> chain;  // for explicit-Unlock matching
    int depth;                       // brace depth at acquisition
    bool raii;                       // false for explicit .Lock()
  };

  void ParseBody(FunctionInfo* fn, ClassInfo* cls, size_t begin, size_t end) {
    std::vector<HeldLock> held;
    int depth = 0;
    bool stmt_start = true;
    auto held_indices = [&]() {
      std::vector<int> idx;
      for (const auto& h : held) idx.push_back(h.lock_index);
      return idx;
    };
    for (size_t i = begin; i < end; ++i) {
      const Token& tok = t[i];
      if (IsPunct(tok, "{")) {
        ++depth;
        stmt_start = true;
        continue;
      }
      if (IsPunct(tok, "}")) {
        --depth;
        held.erase(std::remove_if(held.begin(), held.end(),
                                  [&](const HeldLock& h) {
                                    return h.raii && h.depth > depth;
                                  }),
                   held.end());
        stmt_start = true;
        continue;
      }
      if (IsPunct(tok, ";")) {
        stmt_start = true;
        continue;
      }
      if (!IsIdent(tok)) {
        if (IsPunct(tok, ")")) stmt_start = false;
        continue;
      }
      if (tok.text == "system_clock" || tok.text == "random_device") {
        RecordNondetType(fn, i, end);
      }

      // --- Declarations at statement starts -------------------------------
      if (stmt_start || (i > begin && IsPunct(t[i - 1], "("))) {
        if (tok.text == "MutexLock" || tok.text == "ReaderMutexLock") {
          // MutexLock name(&expr);
          size_t j = i + 1;
          if (j < end && IsIdent(t[j]) && j + 1 < end &&
              IsPunct(t[j + 1], "(")) {
            std::vector<std::string> chain = LockChainAt(j + 2, end);
            if (!chain.empty()) {
              LockAcquire acq;
              acq.chain = chain;
              acq.loc = LocAt(i);
              acq.held_idx = held_indices();
              fn->locks.push_back(std::move(acq));
              held.push_back({static_cast<int>(fn->locks.size()) - 1,
                              std::move(chain), depth, true});
            }
            i = SkipBalanced(j + 1, "(", ")") - 1;
            stmt_start = false;
            continue;
          }
        }
        MaybeLocalDecl(fn, i, end);
      }

      // --- Calls ----------------------------------------------------------
      if (i + 1 < end && IsPunct(t[i + 1], "(") &&
          !Keywords().count(tok.text)) {
        RecordCall(fn, i, end, held_indices(), depth, &held);
      }
      stmt_start = false;
    }
    (void)cls;
  }

  /// Extracts the receiver chain of the mutex expression inside
  /// `MutexLock l(&...)`: `&workers_[i]->mu` -> {"workers_", "mu"}.
  std::vector<std::string> LockChainAt(size_t i, size_t end) {
    if (i >= end || !IsPunct(t[i], "&")) {
      // MutexLock l(LogMutex()) style: chain is the call marker.
      if (i < end && IsIdent(t[i])) return {t[i].text + "()"};
      return {};
    }
    std::vector<std::string> chain = ForwardChain(t, i + 1, end);
    if (chain.size() == 1 && chain[0] == "this") return {};
    return chain;
  }

  void MaybeLocalDecl(FunctionInfo* fn, size_t i, size_t end) {
    // Attempt `Type name [=(;{:,]` at a statement start. Conservative: the
    // first token must be an identifier that is not a known keyword.
    std::vector<Token> toks;
    for (size_t k = i; k < end && toks.size() < 24; ++k) {
      toks.push_back(t[k]);
      if (IsPunct(t[k], ";") || IsPunct(t[k], "{")) break;
    }
    if (toks.empty() || !IsIdent(toks[0])) return;
    if (Keywords().count(toks[0].text)) return;
    if (toks[0].text == "auto") {
      // Range-for over a typed container: `auto& op : ops` -- record the
      // container chain so the resolver can type `op` as its element.
      size_t k = 1;
      while (k < toks.size() &&
             (IsPunct(toks[k], "&") || IsPunct(toks[k], "*") ||
              IsPunct(toks[k], "&&") ||
              (IsIdent(toks[k]) && toks[k].text == "const"))) {
        ++k;
      }
      if (k + 1 < toks.size() && IsIdent(toks[k]) &&
          IsPunct(toks[k + 1], ":")) {
        const std::string vname = toks[k].text;
        std::vector<std::string> chain =
            ForwardChain(toks, k + 2, toks.size());
        if (!chain.empty()) fn->local_elem_of[vname] = std::move(chain);
      }
      return;  // element type resolved later; nothing else to record
    }
    TypeParse tp = ParseType(toks, 0);
    if (!tp.ok || tp.next >= toks.size()) return;
    if (!IsIdent(toks[tp.next])) return;
    const std::string vname = toks[tp.next].text;
    if (Keywords().count(vname)) return;
    if (tp.next + 1 >= toks.size()) return;
    const Token& after = toks[tp.next + 1];
    const bool decl_shape = IsPunct(after, "=") || IsPunct(after, ";") ||
                            IsPunct(after, "{") || IsPunct(after, "(") ||
                            IsPunct(after, ":") || IsPunct(after, ",");
    if (!decl_shape) return;
    fn->local_types[vname] = tp.cls;
    if (IsMovableHotType(toks, tp)) fn->movable_hot_locals.insert(vname);

    // Record copy detection: `Record r = lvalue;` / `Record r(lvalue);`
    // where the initializer is a plain lvalue chain (not a call result,
    // not std::move). A reference or pointer binds; it does not copy.
    if (IsHotType(tp.cls) && !TypeHasAny(toks, tp, {"&", "&&", "*"})) {
      if (IsPunct(after, "=") || IsPunct(after, "(")) {
        const std::vector<Token> init = InitializerAt(toks, tp.next + 2);
        if (IsPlainLvalue(init)) {
          fn->copies.push_back({tp.cls + " copy-initialized from lvalue '" +
                                    init.front().text + "'",
                                {file.path, toks[0].line}});
        }
      }
    }
  }

  /// Records a named nondeterministic std type. The display name carries
  /// the member that follows it, if any: `system_clock::now()` shows as
  /// "std::chrono::system_clock::now".
  void RecordNondetType(FunctionInfo* fn, size_t i, size_t end) {
    std::string name = t[i].text == "system_clock"
                           ? "std::chrono::system_clock"
                           : "std::" + t[i].text;
    if (i + 2 < end && IsPunct(t[i + 1], "::") && IsIdent(t[i + 2])) {
      name += "::" + t[i + 2].text;
    }
    fn->nondet_types.push_back({std::move(name), LocAt(i)});
  }

  /// The initializer starting at toks[j], up to the `;` or unmatched `)`
  /// that closes it; empty when no terminator is in view.
  static std::vector<Token> InitializerAt(const std::vector<Token>& toks,
                                          size_t j) {
    int depth = 0;
    for (size_t k = j; k < toks.size(); ++k) {
      if (IsPunct(toks[k], "(") || IsPunct(toks[k], "[")) {
        ++depth;
      } else if (IsPunct(toks[k], "]") ||
                 (IsPunct(toks[k], ")") && depth > 0)) {
        --depth;
      } else if (depth == 0 &&
                 (IsPunct(toks[k], ";") || IsPunct(toks[k], ")"))) {
        return {toks.begin() + j, toks.begin() + k};
      }
    }
    return {};
  }

  void RecordCall(FunctionInfo* fn, size_t name_idx, size_t end,
                  std::vector<int> held, int depth,
                  std::vector<HeldLock>* held_stack) {
    const std::string name = t[name_idx].text;
    CallSite cs;
    cs.name = name;
    cs.loc = LocAt(name_idx);
    cs.held_idx = std::move(held);
    // Explicit qualifier: A::B::name( -- walk back over :: pairs. A keyword
    // before the :: means a global-namespace call in statement position
    // (`return ::fsync(fd)`), not a qualifier.
    size_t k = name_idx;
    std::vector<std::string> quals;
    while (k >= 2 && IsPunct(t[k - 1], "::") && IsIdent(t[k - 2]) &&
           !Keywords().count(t[k - 2].text)) {
      quals.insert(quals.begin(), t[k - 2].text);
      k -= 2;
    }
    if (!quals.empty()) {
      std::string q;
      for (const auto& part : quals) q += (q.empty() ? "" : "::") + part;
      cs.qualifier = q;
    } else if (name_idx > 0 &&
               (IsPunct(t[name_idx - 1], ".") ||
                IsPunct(t[name_idx - 1], "->"))) {
      cs.receiver_chain = WalkReceiverChain(t, name_idx - 1);
    }
    // Indirect-call marker: calling a variable of function type.
    if (cs.qualifier.empty() && cs.receiver_chain.empty()) {
      auto it = fn->local_types.find(name);
      if (it != fn->local_types.end() &&
          (it->second == "function" || it->second == "Fn" ||
           it->second == "Runner")) {
        cs.indirect = true;
      }
    }
    // Explicit lock operations on mutexes: expr.Lock() / expr.Unlock().
    if ((name == "Lock" || name == "Unlock") && !cs.receiver_chain.empty()) {
      std::vector<std::string> chain = cs.receiver_chain;
      if (name == "Lock") {
        LockAcquire acq;
        acq.chain = chain;
        acq.loc = cs.loc;
        for (const auto& h : *held_stack) acq.held_idx.push_back(h.lock_index);
        fn->locks.push_back(std::move(acq));
        held_stack->push_back({static_cast<int>(fn->locks.size()) - 1,
                               std::move(chain), depth, false});
      } else {
        for (size_t h = held_stack->size(); h-- > 0;) {
          if ((*held_stack)[h].chain == chain) {
            held_stack->erase(held_stack->begin() + h);
            break;
          }
        }
      }
      return;  // lock ops are modeled as lock events, not calls
    }
    ExtractArgs(&cs, name_idx + 1, end);
    fn->calls.push_back(std::move(cs));
  }

  /// Splits the call's top-level arguments and classifies each as a plain
  /// lvalue chain (potential copy source), a ?:-with-lvalue-branch
  /// (conditional copy), or a computed value.
  void ExtractArgs(CallSite* cs, size_t open, size_t end) {
    std::vector<std::vector<Token>> arg_toks;
    std::vector<Token> cur;
    int pdepth = 0;
    for (size_t i = open; i < end; ++i) {
      const Token& tok = t[i];
      if (IsPunct(tok, "(") || IsPunct(tok, "[") || IsPunct(tok, "{")) {
        ++pdepth;
        if (pdepth == 1) continue;  // the call's own '('
      } else if (IsPunct(tok, ")") || IsPunct(tok, "]") ||
                 IsPunct(tok, "}")) {
        --pdepth;
        if (pdepth == 0) break;
      } else if (IsPunct(tok, ",") && pdepth == 1) {
        arg_toks.push_back(cur);
        cur.clear();
        continue;
      }
      if (pdepth >= 1) cur.push_back(tok);
    }
    if (!cur.empty()) arg_toks.push_back(cur);
    for (auto& a : arg_toks) {
      CallSite::Arg arg;
      // ?: with an lvalue tail: `last ? std::move(r) : r`.
      size_t tail = 0;
      bool ternary = false;
      int depth2 = 0;
      for (size_t k = 0; k < a.size(); ++k) {
        if (IsPunct(a[k], "(") || IsPunct(a[k], "[")) ++depth2;
        else if (IsPunct(a[k], ")") || IsPunct(a[k], "]")) --depth2;
        else if (depth2 == 0 && IsPunct(a[k], "?")) ternary = true;
        else if (depth2 == 0 && ternary && IsPunct(a[k], ":")) tail = k + 1;
      }
      std::vector<Token> slice(a.begin() + (ternary ? tail : 0), a.end());
      if (ternary && tail == 0) slice.clear();
      if (IsPlainLvalue(slice)) {
        arg.lvalue_head = slice.front().text;
        arg.bare_name = slice.size() == 1;
        arg.conditional = ternary;
      }
      cs->args.push_back(std::move(arg));
    }
  }

  /// A plain lvalue chain -- ident (. ident | -> ident | [..])* -- i.e. a
  /// copy source. The element accessors front()/back()/top() return
  /// references, so they continue the chain; any other call, std::move and
  /// literals compute a value.
  static bool IsPlainLvalue(const std::vector<Token>& toks) {
    if (toks.empty() || toks[0].kind != TokKind::kIdent) return false;
    if (toks[0].text == "std" || toks[0].text == "true" ||
        toks[0].text == "false" || toks[0].text == "nullptr") {
      return false;
    }
    bool expect_ident = true;
    int bracket = 0;
    for (size_t k = 0; k < toks.size(); ++k) {
      const Token& tok = toks[k];
      if (bracket > 0) {
        if (IsPunct(tok, "]")) --bracket;
        else if (IsPunct(tok, "[")) ++bracket;
        continue;
      }
      if (IsPunct(tok, "[")) { ++bracket; continue; }
      if (expect_ident) {
        if (tok.kind != TokKind::kIdent) return false;
        expect_ident = false;
        continue;
      }
      if (IsPunct(tok, ".") || IsPunct(tok, "->")) {
        expect_ident = true;
        continue;
      }
      if (IsPunct(tok, "(") && k + 1 < toks.size() &&
          IsPunct(toks[k + 1], ")") &&
          (toks[k - 1].text == "front" || toks[k - 1].text == "back" ||
           toks[k - 1].text == "top")) {
        ++k;  // accessor call: skip its empty argument list
        continue;
      }
      return false;
    }
    return !expect_ident;
  }
};

}  // namespace

void ParseFile(const LexedFile& file, Program* prog) {
  Parser(file, prog).ParseTopLevel();
}

void CollectWaivers(const LexedFile& file, Program* prog) {
  for (const Comment& c : file.comments) {
    const std::string& s = c.text;
    size_t pos = 0;
    while ((pos = s.find("analyzer:allow(", pos)) != std::string::npos) {
      const size_t open = pos + std::string("analyzer:allow(").size();
      const size_t close = s.find(')', open);
      if (close == std::string::npos) break;
      Waiver w;
      w.check = s.substr(open, close - open);
      w.loc = {file.path, c.line};
      size_t r = close + 1;
      if (r < s.size() && s[r] == ':') {
        ++r;
        while (r < s.size() && std::isspace(static_cast<unsigned char>(s[r])))
          ++r;
        w.reason = s.substr(r);
        // Trim trailing whitespace / comment close.
        while (!w.reason.empty() &&
               (std::isspace(static_cast<unsigned char>(w.reason.back())) ||
                w.reason.back() == '/' || w.reason.back() == '*')) {
          w.reason.pop_back();
        }
      }
      prog->waivers.push_back(std::move(w));
      pos = close;
    }
  }
}

}  // namespace streamline::analyzer
