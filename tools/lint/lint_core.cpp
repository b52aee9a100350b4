#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace asyncmr::lint {
namespace {

// --- per-rule file allowlist (matched by path suffix) ------------------------
// The only places the banned constructs are the *point*: the host-clock
// stopwatch, the seeded RNG itself, and the logger/fatal-check sinks that ARE
// the sanctioned output path.
struct AllowEntry {
  const char* suffix;
  const char* rule;
};
constexpr AllowEntry kAllowlist[] = {
    {"common/stopwatch.hpp", "wall-clock"},
    {"common/rng.hpp", "randomness"},
    {"common/rng.cpp", "randomness"},
    {"common/logging.hpp", "raw-output"},
    {"common/logging.cpp", "raw-output"},
    // The fatal-check sink writes to stderr directly: when an invariant is
    // down, the logger may be part of what's broken.
    {"common/check.hpp", "raw-output"},
};

bool IsAllowlisted(std::string_view path, std::string_view rule) {
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  for (const AllowEntry& e : kAllowlist) {
    if (rule != e.rule) continue;
    const std::string_view suffix = e.suffix;
    if (norm.size() >= suffix.size() &&
        std::string_view(norm).substr(norm.size() - suffix.size()) == suffix) {
      return true;
    }
  }
  return false;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

// --- comment/string stripping ------------------------------------------------
// Returns a same-length copy of `src` with comments, string literals and char
// literals blanked to spaces (newlines preserved), so the rule matchers never
// fire on prose or quoted text. Annotations are read from the RAW text.
std::string StripCode(std::string_view src) {
  std::string out(src.size(), ' ');
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  St st = St::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == '"') {
          // Raw string literal? Look back for R / u8R / LR / uR / UR.
          size_t j = i;
          bool raw = false;
          if (j > 0 && src[j - 1] == 'R' &&
              (j == 1 || !IsIdentChar(src[j - 2]) || src[j - 2] == '8')) {
            raw = true;
          }
          if (raw) {
            st = St::kRawString;
            raw_delim.clear();
            for (size_t k = i + 1; k < src.size() && src[k] != '('; ++k) {
              raw_delim.push_back(src[k]);
            }
          } else {
            st = St::kString;
          }
        } else if (c == '\'') {
          st = St::kChar;
        } else {
          out[i] = c;
        }
        break;
      case St::kLineComment:
        if (c == '\n') st = St::kCode;
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          ++i;
        }
        break;
      case St::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
      case St::kRawString: {
        const std::string closer = ")" + raw_delim + "\"";
        if (c == ')' && src.substr(i, closer.size()) == closer) {
          i += closer.size() - 1;
          st = St::kCode;
        }
        break;
      }
    }
    if (c == '\n') out[i] = '\n';
  }
  return out;
}

// --- line bookkeeping --------------------------------------------------------
std::vector<size_t> LineStarts(std::string_view text) {
  std::vector<size_t> starts{0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

int LineOf(const std::vector<size_t>& starts, size_t pos) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return static_cast<int>(it - starts.begin());  // 1-based
}

std::string_view RawLine(std::string_view raw, const std::vector<size_t>& starts,
                         int line) {
  if (line < 1 || static_cast<size_t>(line) > starts.size()) return {};
  const size_t begin = starts[static_cast<size_t>(line) - 1];
  const size_t end = static_cast<size_t>(line) < starts.size()
                         ? starts[static_cast<size_t>(line)]
                         : raw.size();
  return raw.substr(begin, end - begin);
}

/// `// lint:allow(<rule>)` on the flagged line suppresses any rule; the
/// unordered-iteration rule additionally honours its dedicated
/// `// lint:order-insensitive` annotation on the loop line or the line above
/// (range-fors regularly sit under a justification comment).
bool Suppressed(std::string_view raw, const std::vector<size_t>& starts, int line,
                std::string_view rule) {
  const std::string allow = "lint:allow(" + std::string(rule) + ")";
  if (RawLine(raw, starts, line).find(allow) != std::string_view::npos) return true;
  if (rule == "unordered-iteration") {
    for (int l = line; l >= line - 1 && l >= 1; --l) {
      if (RawLine(raw, starts, l).find("lint:order-insensitive") !=
          std::string_view::npos) {
        return true;
      }
    }
  }
  return false;
}

// --- token scanning helpers --------------------------------------------------
size_t SkipWs(std::string_view s, size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i]))) {
    ++i;
  }
  return i;
}

size_t PrevSig(std::string_view s, size_t i) {  // index of prev non-ws, or npos
  while (i > 0) {
    --i;
    if (!std::isspace(static_cast<unsigned char>(s[i]))) return i;
  }
  return std::string_view::npos;
}

bool InSet(std::string_view needle, std::initializer_list<std::string_view> set) {
  for (std::string_view s : set) {
    if (needle == s) return true;
  }
  return false;
}

/// Is the identifier at [begin, end) a bare call target or qualified only by
/// `std::`? Member accesses (`x.time(`, `p->clock(`) and foreign qualifiers
/// (`sim::clock(`) are someone else's function and not flagged, and neither
/// are declarations of same-named members (`double time() const`).
bool BareOrStdQualified(std::string_view code, size_t begin) {
  // Suffix of a longer identifier (caller bug): adjacency matters, so look
  // at the immediately preceding char — PrevSig would skip the whitespace
  // in `return rand()` and land on the `n` of the keyword.
  if (begin > 0 && IsIdentChar(code[begin - 1])) return false;
  const size_t p = PrevSig(code, begin);
  if (p == std::string_view::npos) return true;
  const char c = code[p];
  if (c == '.') return false;                       // member call
  if (c == '>' && p > 0 && code[p - 1] == '-') return false;  // arrow call
  if (IsIdentChar(c)) {
    // Preceded by another identifier: a declaration's type name
    // (`double time()`) — not a call — unless it is a statement keyword
    // (`return rand()`).
    size_t b = p + 1;
    while (b > 0 && IsIdentChar(code[b - 1])) --b;
    return InSet(code.substr(b, p + 1 - b),
                 {"return", "co_return", "co_yield", "co_await", "throw",
                  "case", "else", "do"});
  }
  if (c == ':' && p > 0 && code[p - 1] == ':') {
    // Qualified: only std:: counts as the banned global facility.
    size_t q = p - 1;
    const size_t qp = PrevSig(code, q);
    if (qp == std::string_view::npos) return false;
    size_t qe = qp + 1;
    size_t qb = qe;
    while (qb > 0 && IsIdentChar(code[qb - 1])) --qb;
    return code.substr(qb, qe - qb) == "std";
  }
  return true;
}

struct Ident {
  size_t begin;
  size_t end;
  std::string_view text;
};

std::vector<Ident> Identifiers(std::string_view code) {
  std::vector<Ident> ids;
  for (size_t i = 0; i < code.size();) {
    if (IsIdentStart(code[i])) {
      size_t j = i + 1;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      ids.push_back({i, j, code.substr(i, j - i)});
      i = j;
    } else {
      ++i;
    }
  }
  return ids;
}

/// Advances past a balanced `<...>` starting at the '<' at `i`; returns the
/// index just past the matching '>'. Each '>' closes one level, so `>>`
/// closes two (template context; shift operators inside non-type arguments
/// are rare enough to ignore in a heuristic linter).
size_t SkipTemplateArgs(std::string_view code, size_t i) {
  int depth = 0;
  for (; i < code.size(); ++i) {
    if (code[i] == '<') {
      ++depth;
    } else if (code[i] == '>') {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

// --- unordered-container declaration tracking --------------------------------
struct UnorderedDecls {
  std::vector<std::string> aliases;  // using/typedef names for unordered types
  std::vector<std::string> vars;     // variables/members/params of unordered type
  std::vector<std::string> fns;      // functions returning unordered refs/values
};

bool Contains(const std::vector<std::string>& v, std::string_view s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Collects `using NAME = ...unordered_map/set...;` and
/// `typedef ...unordered... NAME;` alias names.
void CollectAliases(std::string_view code, const std::vector<Ident>& ids,
                    UnorderedDecls* decls) {
  for (size_t k = 0; k < ids.size(); ++k) {
    if (ids[k].text == "using" && k + 1 < ids.size()) {
      const size_t eq = SkipWs(code, ids[k + 1].end);
      if (eq < code.size() && code[eq] == '=') {
        const size_t semi = code.find(';', eq);
        const std::string_view rhs =
            code.substr(eq, semi == std::string_view::npos ? code.size() - eq
                                                           : semi - eq);
        if (rhs.find("unordered_map") != std::string_view::npos ||
            rhs.find("unordered_set") != std::string_view::npos) {
          decls->aliases.emplace_back(ids[k + 1].text);
        }
      }
    } else if (ids[k].text == "typedef") {
      const size_t semi = code.find(';', ids[k].end);
      if (semi == std::string_view::npos) continue;
      const std::string_view body = code.substr(ids[k].end, semi - ids[k].end);
      if (body.find("unordered_map") == std::string_view::npos &&
          body.find("unordered_set") == std::string_view::npos) {
        continue;
      }
      // The alias is the last identifier before the ';'.
      size_t m = k + 1;
      while (m < ids.size() && ids[m].end <= semi) ++m;
      if (m > k + 1) decls->aliases.emplace_back(ids[m - 1].text);
    }
  }
}

/// Records names declared with an unordered type: after the type token (and
/// its balanced template arguments), skipping const/&/*, an identifier
/// followed by '(' is a function returning the unordered type, anything else
/// is a variable/member/parameter. A '>' right after the type means it was
/// nested inside another template (vector<unordered_map<...>>) — iterating
/// THAT outer container is order-stable, so nothing is recorded.
void CollectDeclarations(std::string_view code, const std::vector<Ident>& ids,
                         UnorderedDecls* decls) {
  for (const Ident& id : ids) {
    const bool is_unordered =
        id.text == "unordered_map" || id.text == "unordered_set";
    const bool is_alias = !is_unordered && Contains(decls->aliases, id.text);
    if (!is_unordered && !is_alias) continue;
    size_t i = SkipWs(code, id.end);
    if (is_unordered) {
      if (i >= code.size() || code[i] != '<') continue;  // e.g. bare mention
      i = SkipTemplateArgs(code, i);
    }
    // Skip const/&/* between type and declared name.
    for (;;) {
      i = SkipWs(code, i);
      if (i < code.size() && (code[i] == '&' || code[i] == '*')) {
        ++i;
        continue;
      }
      if (code.substr(i, 5) == "const" &&
          (i + 5 >= code.size() || !IsIdentChar(code[i + 5]))) {
        i += 5;
        continue;
      }
      break;
    }
    if (i >= code.size() || !IsIdentStart(code[i])) continue;
    size_t j = i + 1;
    while (j < code.size() && IsIdentChar(code[j])) ++j;
    const std::string name(code.substr(i, j - i));
    const size_t after = SkipWs(code, j);
    if (after < code.size() && code[after] == '(') {
      decls->fns.push_back(name);
    } else {
      decls->vars.push_back(name);
    }
  }
}

/// The identifier a range-for expression ultimately yields: the call name for
/// a trailing call (`intermediate.groups()` -> groups), otherwise the
/// trailing identifier (`other.combined_` -> combined_).
std::string_view RangeExprBase(std::string_view expr) {
  size_t end = expr.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1]))) --end;
  if (end == 0) return {};
  if (expr[end - 1] == ')') {
    int depth = 0;
    size_t i = end;
    while (i > 0) {
      --i;
      if (expr[i] == ')') ++depth;
      if (expr[i] == '(' && --depth == 0) break;
    }
    end = i;
    while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1]))) --end;
  }
  size_t begin = end;
  while (begin > 0 && IsIdentChar(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

// --- the linter --------------------------------------------------------------
class Linter {
 public:
  Linter(std::string_view path, std::string_view raw)
      : path_(path),
        raw_(raw),
        code_(StripCode(raw)),
        lines_(LineStarts(raw)),
        ids_(Identifiers(code_)) {}

  std::vector<Violation> Run() {
    CollectAliases(code_, ids_, &decls_);
    CollectDeclarations(code_, ids_, &decls_);
    CheckIncludes();
    CheckIdentifiers();
    CheckRangeFors();
    std::sort(out_.begin(), out_.end(), [](const Violation& a, const Violation& b) {
      return std::tie(a.line, a.rule, a.message) <
             std::tie(b.line, b.rule, b.message);
    });
    return std::move(out_);
  }

 private:
  void Report(size_t pos, std::string rule, std::string message) {
    const int line = LineOf(lines_, pos);
    if (IsAllowlisted(path_, rule)) return;
    if (Suppressed(raw_, lines_, line, rule)) return;
    out_.push_back({std::string(path_), line, std::move(rule), std::move(message)});
  }

  void CheckIncludes() {
    for (size_t l = 0; l < lines_.size(); ++l) {
      const std::string_view line = RawLine(code_, lines_, static_cast<int>(l) + 1);
      const size_t hash = line.find('#');
      if (hash == std::string_view::npos ||
          line.find("include", hash) == std::string_view::npos) {
        continue;
      }
      if (line.find("<chrono>") != std::string_view::npos) {
        Report(lines_[l] + hash, "wall-clock",
               "#include <chrono>: simulation code must take time from "
               "sim::EventQueue (host timing lives in common/stopwatch.hpp)");
      }
      if (line.find("<random>") != std::string_view::npos) {
        Report(lines_[l] + hash, "randomness",
               "#include <random>: all stochastic draws must come from the "
               "seeded streams in common/rng");
      }
      for (const std::string_view header : {"<thread>", "<future>"}) {
        if (line.find(header) != std::string_view::npos) {
          Report(lines_[l] + hash, "host-threads",
                 "#include " + std::string(header) +
                     ": the simulator runs on one host thread; model "
                     "parallelism in virtual time instead");
        }
      }
    }
  }

  void CheckIdentifiers() {
    for (size_t k = 0; k < ids_.size(); ++k) {
      const Ident& id = ids_[k];
      const size_t after = SkipWs(code_, id.end);
      const bool called = after < code_.size() && code_[after] == '(';

      if (id.text == "chrono" && StdQualifiedHere(id)) {
        Report(id.begin, "wall-clock",
               "std::chrono: virtual time comes from sim::EventQueue; host "
               "timing belongs in common/stopwatch.hpp or bench mains");
        continue;
      }
      if (called && BareOrStdQualified(code_, id.begin) &&
          InSet(id.text, {"time", "clock", "gettimeofday", "clock_gettime",
                          "localtime", "gmtime", "mktime", "difftime"})) {
        Report(id.begin, "wall-clock",
               std::string(id.text) +
                   "(): wall-clock reads are nondeterministic; use "
                   "sim::EventQueue::now() or common/stopwatch.hpp");
        continue;
      }
      if (called && BareOrStdQualified(code_, id.begin) &&
          InSet(id.text, {"rand", "srand"})) {
        Report(id.begin, "randomness",
               std::string(id.text) +
                   "(): unseeded libc randomness; draw from asyncmr::Rng");
        continue;
      }
      if (InSet(id.text,
                {"random_device", "mt19937", "mt19937_64", "minstd_rand",
                 "minstd_rand0", "default_random_engine", "ranlux24",
                 "ranlux48", "knuth_b"})) {
        Report(id.begin, "randomness",
               "std::" + std::string(id.text) +
                   ": locally-seeded std engines break seed purity; derive a "
                   "substream via asyncmr::Rng::Split instead");
        continue;
      }
      if (called && BareOrStdQualified(code_, id.begin) &&
          InSet(id.text, {"printf", "fprintf", "vprintf", "vfprintf", "puts",
                          "fputs", "putchar", "fputc", "perror"})) {
        Report(id.begin, "raw-output",
               std::string(id.text) +
                   "(): direct output from src/; route diagnostics through "
                   "AMR_LOG (common/logging)");
        continue;
      }
      if (InSet(id.text, {"cout", "cerr", "clog"}) && StdQualifiedHere(id)) {
        Report(id.begin, "raw-output",
               "std::" + std::string(id.text) +
                   ": direct output from src/; route diagnostics through "
                   "AMR_LOG (common/logging)");
        continue;
      }
      if (InSet(id.text, {"thread", "jthread", "async"}) && StdQualifiedHere(id)) {
        Report(id.begin, "host-threads",
               "std::" + std::string(id.text) +
                   ": host threads make results depend on scheduling; model "
                   "parallelism in virtual time (e.g. a WorkReport time_scale)");
      }
    }
  }

  bool StdQualifiedHere(const Ident& id) const {
    const size_t p = PrevSig(code_, id.begin);
    if (p == std::string_view::npos || code_[p] != ':' || p == 0 ||
        code_[p - 1] != ':') {
      return false;
    }
    size_t qe = PrevSig(code_, p - 1);
    if (qe == std::string_view::npos) return false;
    size_t qb = qe + 1;
    while (qb > 0 && IsIdentChar(code_[qb - 1])) --qb;
    return code_.substr(qb, qe + 1 - qb) == "std";
  }

  void CheckRangeFors() {
    for (size_t k = 0; k < ids_.size(); ++k) {
      if (ids_[k].text != "for") continue;
      size_t open = SkipWs(code_, ids_[k].end);
      if (open >= code_.size() || code_[open] != '(') continue;
      // Find the matching ')'.
      int depth = 0;
      size_t close = open;
      for (; close < code_.size(); ++close) {
        if (code_[close] == '(') ++depth;
        if (code_[close] == ')' && --depth == 0) break;
      }
      if (close >= code_.size()) continue;
      // Range-for iff a single ':' (not '::') at paren depth 1.
      size_t colon = std::string_view::npos;
      depth = 0;
      for (size_t i = open; i < close; ++i) {
        const char c = code_[i];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') --depth;
        if (c == ':' && depth == 1) {
          if ((i > open && code_[i - 1] == ':') ||
              (i + 1 < close && code_[i + 1] == ':')) {
            continue;
          }
          colon = i;
          break;
        }
      }
      if (colon == std::string_view::npos) continue;
      // View into code_ itself — std::string::substr would return a
      // temporary and leave the view dangling.
      const std::string_view expr =
          std::string_view(code_).substr(colon + 1, close - colon - 1);
      const std::string_view base = RangeExprBase(expr);
      const bool unordered =
          expr.find("unordered_") != std::string_view::npos ||
          (!base.empty() &&
           (Contains(decls_.vars, base) || Contains(decls_.fns, base)));
      if (!unordered) continue;
      Report(ids_[k].begin, "unordered-iteration",
             "range-for over unordered container '" + std::string(base) +
                 "': hash order is not deterministic contract; iterate a "
                 "sorted copy, or annotate the loop `// lint:order-insensitive`"
                 " if downstream effects are provably order-free");
    }
  }

  std::string_view path_;
  std::string_view raw_;
  std::string code_;
  std::vector<size_t> lines_;
  std::vector<Ident> ids_;
  UnorderedDecls decls_;
  std::vector<Violation> out_;
};

}  // namespace

std::vector<Violation> LintSource(std::string_view path, std::string_view content) {
  return Linter(path, content).Run();
}

std::vector<Violation> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{path, 0, "io-error", "cannot read file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  return LintSource(path, content);
}

std::vector<Violation> LintTree(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec)) continue;
    const std::string ext = it->path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      files.push_back(it->path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Violation> all;
  for (const std::string& f : files) {
    std::vector<Violation> v = LintFile(f);
    all.insert(all.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  return all;
}

std::string FormatViolation(const Violation& v) {
  std::ostringstream os;
  os << v.file << ":" << v.line << ": [" << v.rule << "] " << v.message;
  return os.str();
}

}  // namespace asyncmr::lint
