#include "tools/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace kgeval {
namespace lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small text utilities
// ---------------------------------------------------------------------------

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Replaces comment text with spaces (newlines kept), so rules that must not
/// fire on prose — a comment *discussing* -ffast-math, say — see only code.
/// String and character literals pass through untouched. `cmake` switches to
/// `#`-to-end-of-line comments.
std::string StripComments(const std::string& in, bool cmake) {
  std::string out = in;
  enum class State { kCode, kString, kChar, kLine, kBlock };
  State state = State::kCode;
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '"') {
          state = State::kString;
        } else if (!cmake && c == '\'') {
          state = State::kChar;
        } else if (cmake && c == '#') {
          state = State::kLine;
          out[i] = ' ';
        } else if (!cmake && c == '/' && next == '/') {
          state = State::kLine;
          out[i] = ' ';
        } else if (!cmake && c == '/' && next == '*') {
          state = State::kBlock;
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // Skip the escaped character.
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= s.size()) {
    size_t nl = s.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(s.substr(start));
      break;
    }
    lines.push_back(s.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// True when `token` occurs in `line` with non-identifier characters (or the
/// line edge) on both sides; `pos_out` gets the match offset.
bool FindToken(const std::string& line, const std::string& token,
               size_t* pos_out) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) {
      *pos_out = pos;
      return true;
    }
    pos = end;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppressions {
  /// rule -> 1-based lines where it is allowed (the comment line + the next).
  std::map<std::string, std::set<int>> lines;
  std::set<std::string> whole_file;
  std::vector<Finding> findings;  // Malformed suppressions.
};

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : Rules()) {
    if (id == r.id) return true;
  }
  return false;
}

/// Parses `kgeval-lint: allow(rule): reason` / `allow-file` comments from the
/// raw text (they live in comments, so this runs before stripping). A missing
/// or empty reason, or an unknown rule id, is itself a finding — an
/// unexplained suppression is exactly the kind of silent drift the linter
/// exists to stop.
Suppressions ParseSuppressions(const std::string& relpath,
                               const std::vector<std::string>& raw_lines) {
  static const std::regex kAllowRe(
      R"(kgeval-lint:\s*allow(-file)?\(([A-Za-z0-9_-]+)\)(:\s*(\S.*))?)");
  Suppressions sup;
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const int lineno = static_cast<int>(i) + 1;
    std::smatch m;
    std::string::const_iterator begin = raw_lines[i].begin();
    while (std::regex_search(begin, raw_lines[i].cend(), m, kAllowRe)) {
      const bool file_scope = m[1].matched;
      const std::string rule = m[2].str();
      const std::string reason = m[4].matched ? Trim(m[4].str()) : "";
      if (!IsKnownRule(rule)) {
        sup.findings.push_back(
            {"suppression-reason", relpath, lineno,
             "suppression names unknown rule '" + rule +
                 "' (see kgeval_lint --list for valid ids)"});
      } else if (reason.empty()) {
        sup.findings.push_back(
            {"suppression-reason", relpath, lineno,
             "suppression of '" + rule +
                 "' has no reason; write kgeval-lint: allow(" + rule +
                 "): <why this exception is sound>"});
      } else if (file_scope) {
        sup.whole_file.insert(rule);
      } else {
        sup.lines[rule].insert(lineno);
        sup.lines[rule].insert(lineno + 1);
      }
      begin = m.suffix().first;
    }
  }
  return sup;
}

bool IsSuppressed(const Suppressions& sup, const std::string& rule,
                  int lineno) {
  if (sup.whole_file.count(rule) != 0) return true;
  auto it = sup.lines.find(rule);
  return it != sup.lines.end() && it->second.count(lineno) != 0;
}

// ---------------------------------------------------------------------------
// File-scoped rules
// ---------------------------------------------------------------------------

bool IsCMakeFile(const std::string& relpath) {
  const std::string base = fs::path(relpath).filename().string();
  return base == "CMakeLists.txt" ||
         (base.size() > 6 && base.compare(base.size() - 6, 6, ".cmake") == 0);
}

bool UnderDir(const std::string& relpath, const std::string& dir) {
  return StartsWith(relpath, dir + "/");
}

void CheckSimdContainment(const std::string& relpath,
                          const std::vector<std::string>& code_lines,
                          std::vector<Finding>* findings) {
  if (!UnderDir(relpath, "src") || UnderDir(relpath, "src/la/kernels")) return;
  static const char* kHeaders[] = {"immintrin.h", "x86intrin.h", "arm_neon.h",
                                   "arm_sve.h"};
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    for (const char* header : kHeaders) {
      if (line.find(header) != std::string::npos) {
        findings->push_back(
            {"simd-containment", relpath, lineno,
             std::string("SIMD header <") + header +
                 "> outside src/la/kernels/: ISA-specific code lives only "
                 "behind the runtime kernel dispatcher"});
      }
    }
    if (line.find("__attribute__((target") != std::string::npos ||
        line.find("__attribute__((__target__") != std::string::npos ||
        line.find("#pragma GCC target") != std::string::npos ||
        line.find("#pragma clang attribute") != std::string::npos) {
      findings->push_back(
          {"simd-containment", relpath, lineno,
           "per-function target attribute outside src/la/kernels/: the "
           "dispatcher owns all ISA-gated code paths"});
    }
  }
}

void CheckThreadContainment(const std::string& relpath,
                            const std::vector<std::string>& code_lines,
                            std::vector<Finding>* findings) {
  if (!UnderDir(relpath, "src")) return;
  const bool may_spawn = UnderDir(relpath, "src/sched") ||
                         UnderDir(relpath, "src/util") ||
                         UnderDir(relpath, "src/net");
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    size_t pos = 0;
    if (!may_spawn && line.find("std::thread") != std::string::npos &&
        line.find("std::thread::id") == std::string::npos) {
      findings->push_back(
          {"thread-containment", relpath, lineno,
           "raw std::thread outside src/sched, src/util, src/net: route "
           "work through ThreadPool/TaskGroup or the event loop so every "
           "thread has an owner that joins it"});
    }
    if (FindToken(line, "detach", &pos) && pos > 0 && line[pos - 1] == '.' &&
        pos + 6 < line.size() && line[pos + 6] == '(') {
      findings->push_back(
          {"thread-containment", relpath, lineno,
           "detached thread: nothing can join it, so shutdown and "
           "sanitizer runs race against its lifetime"});
    }
  }
}

void CheckDeterminism(const std::string& relpath,
                      const std::vector<std::string>& code_lines,
                      std::vector<Finding>* findings) {
  if (!UnderDir(relpath, "src")) return;
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    size_t pos = 0;
    if (line.find("random_device") != std::string::npos) {
      findings->push_back(
          {"determinism", relpath, lineno,
           "std::random_device is nondeterministic entropy: seed a kgeval "
           "Rng from configuration instead"});
    }
    if (FindToken(line, "rand", &pos) || FindToken(line, "srand", &pos)) {
      // `rand(`/`srand(` as calls; FindToken already rejected foo_rand.
      const size_t after = line.find_first_not_of(
          ' ', pos + (line[pos] == 's' ? 5 : 4));
      if (after != std::string::npos && line[after] == '(') {
        findings->push_back(
            {"determinism", relpath, lineno,
             "C rand()/srand() is hidden global state: use a seeded kgeval "
             "Rng so runs replay bit-exactly"});
      }
    }
    if (FindToken(line, "time", &pos)) {
      const size_t after = line.find_first_not_of(' ', pos + 4);
      if (after != std::string::npos && line[after] == '(') {
        findings->push_back(
            {"determinism", relpath, lineno,
             "wall-clock time() in src/: use steady_clock for durations or "
             "thread timestamps in as data"});
      }
    }
  }
}

void CheckFpDrift(const std::string& relpath,
                  const std::vector<std::string>& code_lines,
                  std::vector<Finding>* findings) {
  if (!UnderDir(relpath, "src") && !IsCMakeFile(relpath)) return;
  for (size_t i = 0; i < code_lines.size(); ++i) {
    const std::string& line = code_lines[i];
    const int lineno = static_cast<int>(i) + 1;
    if (line.find("ffast-math") != std::string::npos ||
        line.find("funsafe-math-optimizations") != std::string::npos) {
      findings->push_back(
          {"fp-drift", relpath, lineno,
           "fast-math reorders and contracts FP: it breaks the bit-exact "
           "scalar/batched/SIMD parity the kernel tests assert"});
    }
    if (line.find("float_control") != std::string::npos ||
        line.find("FP_CONTRACT") != std::string::npos) {
      findings->push_back(
          {"fp-drift", relpath, lineno,
           "per-file FP pragmas fork the rounding model: FP behavior is set "
           "once, globally, in the top-level CMakeLists.txt"});
    }
    size_t pos = line.find("fp-contract");
    while (pos != std::string::npos) {
      const std::string rest = line.substr(pos + 11);
      if (!StartsWith(rest, "=off")) {
        findings->push_back(
            {"fp-drift", relpath, lineno,
             "fp-contract other than =off lets the compiler fuse a*b+c "
             "into FMAs, changing low bits between code paths"});
      }
      pos = line.find("fp-contract", pos + 11);
    }
  }
}

void CheckNolintReason(const std::string& relpath,
                       const std::vector<std::string>& raw_lines,
                       std::vector<Finding>* findings) {
  if (!UnderDir(relpath, "src")) return;
  // A NOLINT must name its check(s) and say why:  NOLINT(check): reason
  static const std::regex kGoodRe(
      R"(NOLINT(NEXTLINE)?\([A-Za-z0-9_.,* -]+\)\s*:\s*\S)");
  for (size_t i = 0; i < raw_lines.size(); ++i) {
    const std::string& line = raw_lines[i];
    size_t pos = 0;
    if (!FindToken(line, "NOLINT", &pos) &&
        !FindToken(line, "NOLINTNEXTLINE", &pos) &&
        !FindToken(line, "NOLINTBEGIN", &pos) &&
        !FindToken(line, "NOLINTEND", &pos)) {
      continue;
    }
    const int lineno = static_cast<int>(i) + 1;
    if (line.find("NOLINTBEGIN") != std::string::npos ||
        line.find("NOLINTEND") != std::string::npos) {
      findings->push_back(
          {"nolint-reason", relpath, lineno,
           "NOLINTBEGIN/END block suppression: suppress per line with "
           "NOLINT(check): reason so each exception stays justified"});
      continue;
    }
    std::smatch m;
    if (!std::regex_search(line, m, kGoodRe)) {
      findings->push_back(
          {"nolint-reason", relpath, lineno,
           "bare or unexplained NOLINT: write NOLINT(check-name): reason "
           "so the suppression names what it hides and why that is sound"});
    }
  }
}

// ---------------------------------------------------------------------------
// Doc-consistency rules
// ---------------------------------------------------------------------------

bool WordInText(const std::string& text, const std::string& word) {
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

int LineOfOffset(const std::string& text, size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() + offset, '\n'));
}

/// stats-doc: every `key=%...` field ExecuteStats formats must be documented
/// in docs/PROTOCOL.md, or clients discover counters by packet inspection.
void CheckStatsDoc(const std::string& root, std::vector<Finding>* findings) {
  std::string service;
  std::string protocol;
  if (!ReadFile(fs::path(root) / "src/service/eval_service.cc", &service) ||
      !ReadFile(fs::path(root) / "docs/PROTOCOL.md", &protocol)) {
    return;  // Inputs absent (fixture tree): rule not in play.
  }
  const size_t fn = service.find("ExecuteStats");
  if (fn == std::string::npos) return;
  const size_t open = service.find('{', fn);
  if (open == std::string::npos) return;
  int depth = 0;
  size_t end = open;
  for (; end < service.size(); ++end) {
    if (service[end] == '{') ++depth;
    if (service[end] == '}' && --depth == 0) break;
  }
  const std::string body = service.substr(open, end - open);
  static const std::regex kKeyRe(R"(([A-Za-z_][A-Za-z0-9_]*)=%)");
  auto begin = std::sregex_iterator(body.begin(), body.end(), kKeyRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string key = it->str(1);
    if (!WordInText(protocol, key)) {
      findings->push_back(
          {"stats-doc", "src/service/eval_service.cc",
           LineOfOffset(service, open + it->position(0)),
           "STATS field '" + key +
               "' is not documented in docs/PROTOCOL.md: every emitted "
               "counter needs an entry in the STATS section"});
    }
  }
}

/// err-doc: every ERR code the service can emit must appear backticked in
/// docs/PROTOCOL.md. Codes come from three shapes: EmitError(emit, "code"),
/// literal "ERR code" sends in the server, and command.cc's
/// InvalidArgument(StrFormat("code ...")) parse failures (the service
/// forwards the status message's first word as the code).
void CheckErrDoc(const std::string& root, std::vector<Finding>* findings) {
  std::string protocol;
  if (!ReadFile(fs::path(root) / "docs/PROTOCOL.md", &protocol)) return;
  struct Source {
    std::string relpath;
    std::regex re;
  };
  const std::vector<Source> sources = {
      {"src/service/eval_service.cc",
       std::regex(R"(EmitError\(\s*emit,\s*\"([a-z][a-z0-9-]*)\")")},
      {"src/service/eval_server.cc",
       std::regex(R"(\"ERR ([a-z][a-z0-9-]*))")},
      {"src/service/command.cc",
       std::regex(R"(InvalidArgument\(\s*StrFormat\(\s*\"([a-z][a-z0-9-]*) )")},
  };
  bool any_source = false;
  for (const Source& src : sources) {
    std::string content;
    if (!ReadFile(fs::path(root) / src.relpath, &content)) continue;
    any_source = true;
    auto begin = std::sregex_iterator(content.begin(), content.end(), src.re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string code = it->str(1);
      if (protocol.find("`" + code + "`") == std::string::npos) {
        findings->push_back(
            {"err-doc", src.relpath,
             LineOfOffset(content, it->position(0)),
             "ERR code '" + code +
                 "' is not in docs/PROTOCOL.md's error-code table: clients "
                 "dispatch on these codes, so each one is wire contract"});
      }
    }
  }
  (void)any_source;
}

/// fault-doc: every registered fault point must appear backticked in
/// docs/ARCHITECTURE.md — an undocumented injection point is untestable by
/// anyone who doesn't read fault.cc.
void CheckFaultDoc(const std::string& root, std::vector<Finding>* findings) {
  std::string fault;
  std::string arch;
  if (!ReadFile(fs::path(root) / "src/util/fault.cc", &fault) ||
      !ReadFile(fs::path(root) / "docs/ARCHITECTURE.md", &arch)) {
    return;
  }
  const size_t decl = fault.find("kFaultPoints");
  if (decl == std::string::npos) return;
  const size_t close = fault.find("};", decl);
  if (close == std::string::npos) return;
  const std::string body = fault.substr(decl, close - decl);
  static const std::regex kNameRe(R"(\"([a-z][a-z0-9_.]*)\")");
  auto begin = std::sregex_iterator(body.begin(), body.end(), kNameRe);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    const std::string name = it->str(1);
    if (arch.find("`" + name + "`") == std::string::npos) {
      findings->push_back(
          {"fault-doc", "src/util/fault.cc",
           LineOfOffset(fault, decl + it->position(0)),
           "fault point '" + name +
               "' is not documented in docs/ARCHITECTURE.md: list it in "
               "the fault-points table with its failure mode"});
    }
  }
}

// ---------------------------------------------------------------------------
// Reach rule
// ---------------------------------------------------------------------------

/// The quoted #includes of `content`, comments stripped.
std::vector<std::string> QuotedIncludes(const std::string& content) {
  static const std::regex kIncludeRe(R"(^\s*#\s*include\s*\"([^\"]+)\")");
  std::vector<std::string> includes;
  for (const std::string& line : SplitLines(StripComments(content, false))) {
    std::smatch m;
    if (std::regex_search(line, m, kIncludeRe)) includes.push_back(m.str(1));
  }
  return includes;
}

/// module-reach: every header under src/ must be reached, through quoted
/// #includes, from a shipped source: bench/, perfbench/, tools/ (not the
/// linter itself) or examples/. An include resolves against the including
/// file's directory, then src/, then the root (the build's include path).
/// Reaching a src/ header also follows its paired .cc, where the module's
/// own dependencies live. Code only tests reach is code no printed number
/// needs.
void CheckModuleReach(const std::string& root,
                      std::vector<Finding>* findings) {
  const fs::path base(root);
  const fs::path src = base / "src";
  std::vector<std::string> headers;
  if (fs::exists(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (entry.is_regular_file() && entry.path().extension() == ".h") {
        headers.push_back(
            fs::relative(entry.path(), base).generic_string());
      }
    }
  }
  if (headers.empty()) return;  // No library (fixture tree): not in play.

  std::vector<fs::path> queue;
  for (const char* dir : {"bench", "perfbench", "tools", "examples"}) {
    const fs::path top = base / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      const std::string rel =
          fs::relative(entry.path(), base).generic_string();
      const std::string ext = entry.path().extension().string();
      if (entry.is_regular_file() && !UnderDir(rel, "tools/lint") &&
          (ext == ".h" || ext == ".cc" || ext == ".cpp")) {
        queue.push_back(entry.path());
      }
    }
  }
  std::set<std::string> seen;
  while (!queue.empty()) {
    const fs::path file = queue.back();
    queue.pop_back();
    const std::string rel = fs::relative(file, base).generic_string();
    if (!seen.insert(rel).second) continue;
    std::string content;
    if (!ReadFile(file, &content)) continue;
    for (const std::string& include : QuotedIncludes(content)) {
      for (const fs::path& dir : {file.parent_path(), src, base}) {
        const fs::path target = dir / include;
        if (!fs::is_regular_file(target)) continue;
        queue.push_back(target.lexically_normal());
        break;
      }
    }
    if (UnderDir(rel, "src") && file.extension() == ".h") {
      fs::path paired = file;
      paired.replace_extension(".cc");
      if (fs::is_regular_file(paired)) queue.push_back(paired);
    }
  }
  for (const std::string& header : headers) {
    if (seen.count(header) == 0) {
      findings->push_back(
          {"module-reach", header, 1,
           "no source under bench/, perfbench/, tools/ or examples/ "
           "includes this header, directly or through other headers: "
           "delete the module, or give it a caller that ships"});
    }
  }
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"simd-containment",
       "SIMD headers and target attributes only in src/la/kernels/"},
      {"thread-containment",
       "raw std::thread only in src/sched, src/util, src/net; no detach"},
      {"determinism",
       "no rand/srand/random_device/time() in src/; seeded RNGs only"},
      {"fp-drift",
       "no fast-math or FP pragmas; fp-contract stays =off everywhere"},
      {"stats-doc", "every STATS field is documented in docs/PROTOCOL.md"},
      {"err-doc", "every ERR code is documented in docs/PROTOCOL.md"},
      {"fault-doc",
       "every fault point is documented in docs/ARCHITECTURE.md"},
      {"module-reach",
       "every src/ header is reached from bench/, perfbench/, tools/ or "
       "examples/"},
      {"nolint-reason", "clang-tidy NOLINTs take the form NOLINT(check): why"},
      {"suppression-reason",
       "kgeval-lint suppressions name a known rule and carry a reason"},
  };
  return kRules;
}

std::vector<Finding> LintSourceFile(const std::string& relpath,
                                    const std::string& content) {
  const bool cmake = IsCMakeFile(relpath);
  const std::vector<std::string> raw_lines = SplitLines(content);
  const std::vector<std::string> code_lines =
      SplitLines(StripComments(content, cmake));

  Suppressions sup = ParseSuppressions(relpath, raw_lines);
  std::vector<Finding> findings;
  CheckSimdContainment(relpath, code_lines, &findings);
  CheckThreadContainment(relpath, code_lines, &findings);
  CheckDeterminism(relpath, code_lines, &findings);
  CheckFpDrift(relpath, code_lines, &findings);
  CheckNolintReason(relpath, raw_lines, &findings);

  std::vector<Finding> kept;
  for (Finding& f : findings) {
    if (!IsSuppressed(sup, f.rule, f.line)) kept.push_back(std::move(f));
  }
  for (Finding& f : sup.findings) kept.push_back(std::move(f));
  SortFindings(&kept);
  return kept;
}

std::vector<Finding> LintDocConsistency(const std::string& root) {
  std::vector<Finding> findings;
  CheckStatsDoc(root, &findings);
  CheckErrDoc(root, &findings);
  CheckFaultDoc(root, &findings);
  CheckModuleReach(root, &findings);
  SortFindings(&findings);
  return findings;
}

std::vector<Finding> LintRepo(const std::string& root) {
  std::vector<Finding> findings;
  std::vector<fs::path> files;
  const fs::path src = fs::path(root) / "src";
  if (fs::exists(src)) {
    for (const auto& entry : fs::recursive_directory_iterator(src)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      // .inc: textual fragments (simd_sweep.inc) compiled into .cc files.
      if (ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".inc") {
        files.push_back(entry.path());
      }
    }
  }
  files.push_back(fs::path(root) / "CMakeLists.txt");
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    std::string content;
    if (!ReadFile(path, &content)) continue;
    const std::string rel =
        fs::relative(path, fs::path(root)).generic_string();
    std::vector<Finding> file_findings = LintSourceFile(rel, content);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  std::vector<Finding> doc_findings = LintDocConsistency(root);
  findings.insert(findings.end(),
                  std::make_move_iterator(doc_findings.begin()),
                  std::make_move_iterator(doc_findings.end()));
  SortFindings(&findings);
  return findings;
}

}  // namespace lint
}  // namespace kgeval
