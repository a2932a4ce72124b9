// udao_lint: domain-specific repo-invariant checker, run as a ctest.
//
// Generic tools (clang-tidy, sanitizers) cannot see project conventions, so
// this linter enforces the handful of invariants the codebase's correctness
// story depends on:
//
//   1. No std::thread / std::async outside src/common/thread_pool.* -- all
//      parallelism goes through the shared ThreadPool so thread counts are
//      bounded and WaitIdle semantics hold everywhere.
//   2. No rand()/srand()/std::random_device/raw engine construction outside
//      src/common/random.* -- every stochastic component takes an explicitly
//      seeded udao::Rng, which is what makes solver results bitwise
//      reproducible across reruns and thread counts.
//   3. No assert() in src/ -- invariants use UDAO_CHECK/UDAO_DCHECK, whose
//      keep-or-drop behavior under NDEBUG is a deliberate per-site decision
//      rather than a build-flag accident.
//   4. No printf/cout/cerr in library code outside designated reporting
//      files -- the library reports through Status values; only the CHECK
//      macros' abort path writes to stderr.
//   5. Include guards named UDAO_<PATH>_H_ after the file's path under src/,
//      so guards can never collide as files move or get copied.
//   6. No unbounded waits in src/serving/ -- ThreadPool::WaitIdle and plain
//      condition_variable::wait can stall a serving thread forever; the
//      serving layer owes every request a bounded-time answer, so waits
//      there must use a deadline overload (wait_for / wait_until).
//   7. No raw std::mutex / std::shared_mutex / std::condition_variable (or
//      std lock helpers) outside src/common/sync.h -- all locking goes
//      through the annotated udao::Mutex/CondVar/MutexLock wrappers so clang
//      thread-safety analysis sees every acquisition.
//   8. Every udao::Mutex / udao::SharedMutex member must guard something: at
//      least one sibling member tagged UDAO_GUARDED_BY / UDAO_PT_GUARDED_BY
//      with that mutex, or an explicit "// lint: standalone-mutex" tag on
//      the declaration line acknowledging a pure-serialization mutex. An
//      unguarded mutex is usually an annotation hole the analysis silently
//      ignores.
//   9. No raw SIMD intrinsics (_mm*/__m128/__m256/__m512, <immintrin.h>) or
//      `#pragma omp simd` outside src/nn/kernels.* -- vector code lives
//      behind the runtime-dispatched kernel table so every consumer honors
//      UDAO_KERNEL and the scalar/vector parity contracts, and so a machine
//      without AVX2 runs correct fallbacks everywhere.
//  10. No Optimize()/OptimizeAsync() in src/serving/ -- the pre-ticket
//      service entry points were removed in favor of Submit() +
//      RequestTicket (Wait/TryGet/Cancel); this quarantines the old names so
//      they cannot be reintroduced by a stale branch or a copy-paste.
//  11. No declaration or out-of-class definition of Predict /
//      InputGradient / PredictWithUncertainty outside
//      src/model/objective_model.* -- a model's only evaluation code is its
//      batch trio (PredictBatch / GradientBatch /
//      PredictWithUncertaintyBatch); the 1-row calls are base-class wrappers,
//      so a per-point override would be a second path to keep bitwise-equal.
//
// Usage: udao_lint <src-dir>
// Exits nonzero and prints one "file:line: rule: detail" per finding.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string detail;
};

// Files exempt from a rule, keyed by path relative to the scanned src dir.
bool IsThreadPoolFile(const std::string& rel) {
  return rel == "common/thread_pool.h" || rel == "common/thread_pool.cc";
}

bool IsRandomFile(const std::string& rel) {
  return rel == "common/random.h" || rel == "common/random.cc";
}

// Designated reporting files: the CHECK macros print before aborting.
bool IsReportingFile(const std::string& rel) {
  return rel == "common/check.h";
}

// Scope predicate for rules that only apply under one subtree.
bool IsServingFile(const std::string& rel) {
  return rel.rfind("serving/", 0) == 0;
}

// The annotated wrapper layer itself is built on the std primitives.
bool IsSyncFile(const std::string& rel) { return rel == "common/sync.h"; }

// The quarantine zone for vector code: the dispatched kernel layer.
bool IsKernelFile(const std::string& rel) {
  return rel == "nn/kernels.h" || rel == "nn/kernels.cc";
}

// The one place the 1-row model calls are declared and defined.
bool IsObjectiveModelFile(const std::string& rel) {
  return rel == "model/objective_model.h" || rel == "model/objective_model.cc";
}

// True if the '"' at `i` opens a raw string literal: it follows an R, uR,
// UR, LR, or u8R prefix that is itself not the tail of a longer identifier
// (fooR"..." is the identifier fooR followed by an ordinary string).
bool IsRawStringQuote(const std::string& in, size_t i) {
  if (i == 0 || in[i - 1] != 'R') return false;
  size_t start = i - 1;
  if (start >= 2 && in[start - 2] == 'u' && in[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 && (in[start - 1] == 'u' || in[start - 1] == 'U' ||
                            in[start - 1] == 'L')) {
    start -= 1;
  }
  if (start == 0) return true;
  const unsigned char before = in[start - 1];
  return !(std::isalnum(before) || before == '_');
}

// Strips // and /* */ comments plus string/char literals so tokens inside
// documentation or messages never count as code. Replaced bytes become
// spaces, keeping line numbers and column positions intact. Raw string
// literals (R"delim(...)delim") obey no escape rules, so their bodies are
// skipped verbatim up to the matching close sequence.
std::string StripCommentsAndStrings(const std::string& in) {
  std::string out = in;
  enum class St { kCode, kLine, kBlock, kStr, kChar } st = St::kCode;
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLine;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::kBlock;
          out[i] = ' ';
        } else if (c == '"' && IsRawStringQuote(in, i)) {
          const size_t open = in.find('(', i + 1);
          std::string term = ")\"";
          if (open != std::string::npos) {
            term = ')' + in.substr(i + 1, open - i - 1) + '"';
          }
          size_t end = open == std::string::npos
                           ? std::string::npos
                           : in.find(term, open + 1);
          const size_t stop =
              end == std::string::npos ? in.size() : end + term.size();
          for (size_t j = i + 1; j < stop; ++j) {
            if (in[j] != '\n') out[j] = ' ';
          }
          i = stop - 1;  // Closing quote consumed; stay in kCode.
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') {
          st = St::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case St::kBlock:
        if (c == '*' && next == '/') {
          st = St::kCode;
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// One token rule: any regex match on a (comment-stripped) line is a finding.
// `exempt` skips specific files; `applies` (when set) limits the rule to a
// subtree -- files where it returns false are never scanned for this rule.
struct TokenRule {
  std::string name;
  std::regex pattern;
  std::string detail;
  bool (*exempt)(const std::string& rel);
  bool (*applies)(const std::string& rel) = nullptr;
};

const std::vector<TokenRule>& Rules() {
  static const std::vector<TokenRule>* rules = new std::vector<TokenRule>{
      {"raw-thread", std::regex(R"(std\s*::\s*(thread|jthread|async)\b)"),
       "use udao::ThreadPool (src/common/thread_pool.h); raw threads bypass "
       "the pool's bounded-concurrency and WaitIdle guarantees",
       &IsThreadPoolFile},
      {"raw-random",
       std::regex(R"(\b(s?rand\s*\(|std\s*::\s*(random_device|mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b))"),
       "use udao::Rng with an explicit seed (src/common/random.h); ambient "
       "randomness breaks bitwise reproducibility of solver results",
       &IsRandomFile},
      {"assert", std::regex(R"((^|[^\w.:>])assert\s*\()"),
       "use UDAO_CHECK (kept in Release) or UDAO_DCHECK (debug-only); "
       "assert()'s NDEBUG behavior is a build accident, not a decision",
       nullptr},
      {"direct-print",
       std::regex(R"(\b(printf|fprintf|puts|fputs)\s*\(|std\s*::\s*(cout|cerr|clog)\b)"),
       "library code reports through udao::Status; stdout/stderr writes "
       "belong to tools/, bench/, and the CHECK abort path",
       &IsReportingFile},
      // "wait_for"/"wait_until" never match: the regex requires '(' (after
      // optional spaces) right behind "wait", and '_' is a word character.
      {"unbounded-wait",
       std::regex(R"(\bWaitIdle\s*\(|\.\s*wait\s*\()"),
       "serving code owes every request a bounded-time answer; use a "
       "deadline overload (wait_for/wait_until, or poll with a budget) so "
       "an overloaded or wedged dependency cannot wedge a serving thread",
       nullptr, &IsServingFile},
      {"raw-sync",
       std::regex(
           R"(std\s*::\s*(recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|mutex|condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b)"),
       "use the annotated udao::Mutex/SharedMutex/CondVar/MutexLock wrappers "
       "(src/common/sync.h); raw std primitives are invisible to clang "
       "thread-safety analysis, so locks taken through them go unchecked",
       &IsSyncFile},
      {"deprecated-optimize",
       std::regex(R"(\b(Optimize|OptimizeAsync)\s*\()"),
       "the pre-ticket serving entry points were deleted; use "
       "Submit(request) and the returned RequestTicket (Wait/TryGet/Cancel)",
       nullptr, &IsServingFile},
      {"raw-intrinsic",
       std::regex(
           R"(\b_mm\d*_\w+\s*\(|\b__m(128|256|512)[di]?\b|\bimmintrin\.h\b|#\s*pragma\s+omp\s+simd\b)"),
       "SIMD code belongs in src/nn/kernels.* behind the dispatched kernel "
       "table; inline intrinsics elsewhere bypass UDAO_KERNEL dispatch and "
       "the scalar/vector parity contracts the CI matrix enforces",
       &IsKernelFile},
      // A return type, an optional Class::, then the name and '(': calls
      // (".Predict(", "->Predict(", "= Predict(") and the *Batch names never
      // match.
      {"scalar-model-override",
       std::regex(
           R"(\b(double|void|Vector)\s+(\w+\s*::\s*)?(Predict|InputGradient|PredictWithUncertainty)\s*\()"),
       "a model's only evaluation code is its batch trio (PredictBatch, "
       "GradientBatch, PredictWithUncertaintyBatch); the 1-row calls are "
       "ObjectiveModel wrappers, and a per-point override is a second path",
       &IsObjectiveModelFile},
  };
  return *rules;
}

// Rule 8: a udao::Mutex/SharedMutex member that guards nothing. Scans
// (comment-stripped) member declarations; a mutex passes if any line of the
// file names it in UDAO_GUARDED_BY / UDAO_PT_GUARDED_BY, or if its raw
// declaration line carries the "lint: standalone-mutex" acknowledgment tag
// (tags live in comments, so the raw line is consulted for that).
void CheckStandaloneMutex(const std::string& rel,
                          const std::vector<std::string>& lines,
                          const std::vector<std::string>& raw_lines,
                          std::vector<Finding>* findings) {
  static const std::regex member_re(
      R"(^\s*(?:mutable\s+)?(?:udao\s*::\s*)?(?:Mutex|SharedMutex)\s+(\w+)\s*;)");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(lines[i], m, member_re)) continue;
    const std::string name = m[1].str();
    const std::regex guarded_re("UDAO(_PT)?_GUARDED_BY\\s*\\(\\s*" + name +
                                "\\s*\\)");
    bool guards_something = false;
    for (const std::string& line : lines) {
      if (std::regex_search(line, guarded_re)) {
        guards_something = true;
        break;
      }
    }
    if (guards_something) continue;
    if (i < raw_lines.size() &&
        raw_lines[i].find("lint: standalone-mutex") != std::string::npos) {
      continue;
    }
    findings->push_back(
        {rel, static_cast<int>(i) + 1, "standalone-mutex",
         "mutex member '" + name +
             "' has no UDAO_GUARDED_BY sibling; annotate what it guards, or "
             "tag the declaration '// lint: standalone-mutex' if it only "
             "serializes"});
  }
}

std::string ExpectedGuard(const std::string& rel) {
  std::string guard = "UDAO_";
  for (const char c : rel) {
    if (c == '/' || c == '.') {
      guard += '_';
    } else {
      guard += static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return guard + "_";
}

void CheckIncludeGuard(const std::string& rel,
                       const std::vector<std::string>& lines,
                       std::vector<Finding>* findings) {
  const std::string want = ExpectedGuard(rel);
  const std::regex ifndef_re(R"(^\s*#\s*ifndef\s+(\w+))");
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i], m, ifndef_re)) {
      if (m[1].str() != want) {
        findings->push_back({rel, static_cast<int>(i) + 1, "include-guard",
                             "guard is " + m[1].str() + ", expected " + want});
      }
      return;  // Only the first #ifndef is the guard.
    }
  }
  findings->push_back(
      {rel, 1, "include-guard", "no include guard found, expected " + want});
}

void LintFile(const fs::path& path, const std::string& rel,
              std::vector<Finding>* findings) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string raw = buf.str();
  const std::vector<std::string> raw_lines = SplitLines(raw);
  const std::vector<std::string> lines =
      SplitLines(StripCommentsAndStrings(raw));

  for (const TokenRule& rule : Rules()) {
    if (rule.exempt != nullptr && rule.exempt(rel)) continue;
    if (rule.applies != nullptr && !rule.applies(rel)) continue;
    for (size_t i = 0; i < lines.size(); ++i) {
      // static_assert never matches the assert rule: its regex requires the
      // char before "assert" to be outside [\w.:>], and '_' is a word char.
      if (std::regex_search(lines[i], rule.pattern)) {
        findings->push_back({rel, static_cast<int>(i) + 1, rule.name,
                             rule.detail});
      }
    }
  }
  CheckStandaloneMutex(rel, lines, raw_lines, findings);
  if (path.extension() == ".h") {
    CheckIncludeGuard(rel, raw_lines, findings);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <src-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "udao_lint: not a directory: %s\n", argv[1]);
    return 2;
  }

  // Sorted traversal keeps output deterministic across filesystems.
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".cc" || p.extension() == ".h") files.push_back(p);
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const fs::path& p : files) {
    LintFile(p, fs::relative(p, root).generic_string(), &findings);
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.detail.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "udao_lint: %zu finding(s) in %zu file(s) scanned\n",
                 findings.size(), files.size());
    return 1;
  }
  std::printf("udao_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}
