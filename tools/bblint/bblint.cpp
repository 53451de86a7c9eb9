#include "bblint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "project.h"
#include "source.h"

namespace bb::lint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

// All identifiers declared as float/double anywhere in the file. A cheap
// stand-in for real type information: good enough to recognize the usual
// `double scale = ...; ... static_cast<int>(x * scale)` shape.
std::set<std::string> FloatIdentifiers(const FileView& v) {
  std::set<std::string> idents;
  static const std::regex kDecl(R"(\b(?:float|double)\s+([A-Za-z_]\w*))");
  auto begin = std::sregex_iterator(v.stripped.begin(), v.stripped.end(),
                                    kDecl);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    idents.insert((*it)[1].str());
  }
  return idents;
}

// ---------------------------------------------------------------------------
// Rule: no-nondeterminism
// ---------------------------------------------------------------------------

void CheckNondeterminism(const FileView& v, std::vector<Finding>* out) {
  // All randomness flows through the seeded generator in src/synth/rng.h.
  if (v.path == "src/synth/rng.h") return;
  // Every sanctioned clock read in the tree flows through
  // trace::MonotonicSeconds (src/common/trace.cpp); benches time themselves
  // via bench::Stopwatch on top of it. Developer tools keep a blanket
  // exemption; everything else - library, app, bench, test code - may not
  // touch a clock directly.
  const bool timing_ok =
      v.path == "src/common/trace.cpp" || StartsWith(v.path, "tools/");

  struct Pattern {
    std::regex re;
    bool is_timing;
    const char* what;
  };
  static const std::vector<Pattern> kPatterns = {
      {std::regex(R"(\brand\s*\()"), false,
       "rand() is unseeded global state; use synth::Rng"},
      {std::regex(R"(\bsrand\s*\()"), false,
       "srand() mutates global RNG state; use synth::Rng"},
      {std::regex(R"(\brandom_device\b)"), false,
       "std::random_device is nondeterministic; use synth::Rng"},
      {std::regex(R"(\btime\s*\()"), true,
       "time() reads the wall clock; results become unreplayable"},
      {std::regex(R"(\b\w*_clock\s*::\s*now\b)"), true,
       "clock ::now() reads the wall clock; results become unreplayable"},
  };
  for (std::size_t i = 0; i < v.stripped_lines.size(); ++i) {
    for (const auto& p : kPatterns) {
      if (p.is_timing && timing_ok) continue;
      if (std::regex_search(v.stripped_lines[i], p.re)) {
        out->push_back({v.path, static_cast<int>(i + 1),
                        kRuleNondeterminism, p.what});
        break;  // one finding per line is enough
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-pixel-indexing
// ---------------------------------------------------------------------------

void CheckRawPixelIndexing(const FileView& v, std::vector<Finding>* out) {
  // The container itself is the one place allowed to do offset arithmetic.
  if (v.path == "src/imaging/image.h") return;

  static const std::regex kPixelsMember(R"(\bpixels_\s*\[)");
  static const std::regex kDataArith(R"(\.data\(\)\s*\+)");
  static const std::regex kWidthOffset(
      R"(\[[^\][]*\*\s*(?:w|width|width_|stride|cols)(?:\(\))?\s*\+[^\][]*\])");

  for (std::size_t i = 0; i < v.stripped_lines.size(); ++i) {
    const std::string& line = v.stripped_lines[i];
    const char* what = nullptr;
    if (std::regex_search(line, kPixelsMember)) {
      what = "direct pixels_[] access; use operator()/at()/row()";
    } else if (std::regex_search(line, kDataArith)) {
      what = ".data() pointer arithmetic; use operator()/at()/row()";
    } else if (std::regex_search(line, kWidthOffset)) {
      what = "manual y*width+x offset arithmetic; use operator()/at()/row()";
    }
    if (what != nullptr) {
      out->push_back(
          {v.path, static_cast<int>(i + 1), kRuleRawPixelIndexing, what});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-unshared-float-accumulation
// ---------------------------------------------------------------------------

// Character ranges of by-reference lambda bodies passed to ParallelFor /
// ParallelShards.
struct Region {
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<Region> ParallelLambdaRegions(const std::string& text) {
  std::vector<Region> regions;
  static const std::regex kCall(R"(\b(?:ParallelFor|ParallelShards)\s*\()");
  auto begin = std::sregex_iterator(text.begin(), text.end(), kCall);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::size_t pos = static_cast<std::size_t>(it->position());
    // Find the lambda capture list within the call.
    std::size_t lb = text.find('[', pos);
    if (lb == std::string::npos) continue;
    std::size_t rb = text.find(']', lb);
    if (rb == std::string::npos) continue;
    const std::string capture = text.substr(lb, rb - lb + 1);
    if (capture.find('&') == std::string::npos) continue;  // copies are safe
    std::size_t body = text.find('{', rb);
    if (body == std::string::npos) continue;
    int depth = 0;
    std::size_t j = body;
    for (; j < text.size(); ++j) {
      if (text[j] == '{') ++depth;
      if (text[j] == '}') {
        --depth;
        if (depth == 0) break;
      }
    }
    regions.push_back({body, j});
  }
  return regions;
}

void CheckFloatAccumulation(const FileView& v, std::vector<Finding>* out) {
  const auto regions = ParallelLambdaRegions(v.stripped);
  if (regions.empty()) return;
  const auto float_idents = FloatIdentifiers(v);

  static const std::regex kDecl(R"(\b(?:float|double)\s+([A-Za-z_]\w*))");
  static const std::regex kCompound(R"(\b([A-Za-z_]\w*)\s*[+-]=)");

  for (const auto& r : regions) {
    const std::string body = v.stripped.substr(r.begin, r.end - r.begin);
    std::set<std::string> locals;
    auto dbegin = std::sregex_iterator(body.begin(), body.end(), kDecl);
    for (auto it = dbegin; it != std::sregex_iterator(); ++it) {
      locals.insert((*it)[1].str());
    }
    auto cbegin = std::sregex_iterator(body.begin(), body.end(), kCompound);
    for (auto it = cbegin; it != std::sregex_iterator(); ++it) {
      const std::string ident = (*it)[1].str();
      if (locals.count(ident) > 0) continue;        // per-iteration state
      if (float_idents.count(ident) == 0) continue;  // not a float
      const std::size_t off = r.begin + static_cast<std::size_t>(it->position());
      out->push_back(
          {v.path, LineOfOffset(v.stripped, off), kRuleFloatAccumulation,
           "float accumulation into '" + ident +
               "' captured by reference in a parallel body; reduce through "
               "per-shard accumulators (ParallelShards) instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-float-truncation
// ---------------------------------------------------------------------------

// Extracts the balanced-paren argument starting at text[open] == '('.
// Returns the contents without the outer parens; empty when unbalanced.
std::string BalancedArg(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t j = open; j < text.size(); ++j) {
    if (text[j] == '(') ++depth;
    if (text[j] == ')') {
      --depth;
      if (depth == 0) return text.substr(open + 1, j - open - 1);
    }
  }
  return "";
}

bool HasFloatLiteral(const std::string& expr) {
  static const std::regex kFloatLit(R"((^|[^\w.])(\d+\.\d*|\.\d+)f?)");
  return std::regex_search(expr, kFloatLit);
}

bool ExplicitlyRounded(const std::string& expr) {
  static const std::regex kWrapped(
      R"(^\s*(?:std\s*::\s*)?(?:lround|llround|round|floor|ceil|trunc)\s*\()");
  return std::regex_search(expr, kWrapped);
}

void CheckFloatTruncation(const FileView& v, std::vector<Finding>* out) {
  const auto float_idents = FloatIdentifiers(v);

  auto arg_is_suspect = [&](const std::string& arg) {
    if (arg.empty() || ExplicitlyRounded(arg)) return false;
    if (arg.find('*') == std::string::npos &&
        arg.find('/') == std::string::npos) {
      return false;
    }
    if (HasFloatLiteral(arg)) return true;
    static const std::regex kIdent(R"([A-Za-z_]\w*)");
    auto begin = std::sregex_iterator(arg.begin(), arg.end(), kIdent);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      if (float_idents.count(it->str()) > 0) return true;
    }
    return false;
  };

  static const std::regex kStaticCast(R"(static_cast\s*<\s*int\s*>\s*\()");
  static const std::regex kCStyle(R"(\(\s*int\s*\)\s*\()");
  const std::string& text = v.stripped;

  auto scan = [&](const std::regex& re) {
    auto begin = std::sregex_iterator(text.begin(), text.end(), re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::size_t open =
          static_cast<std::size_t>(it->position() + it->length() - 1);
      if (arg_is_suspect(BalancedArg(text, open))) {
        out->push_back(
            {v.path, LineOfOffset(text, static_cast<std::size_t>(it->position())),
             kRuleFloatTruncation,
             "int cast truncates a floating multiply/divide; use std::lround "
             "(or an explicit std::floor/std::ceil/std::trunc)"});
      }
    }
  };
  scan(kStaticCast);
  scan(kCStyle);
}

// ---------------------------------------------------------------------------
// Rule: header-hygiene
// ---------------------------------------------------------------------------

void CheckHeaderHygiene(const FileView& v, std::vector<Finding>* out) {
  if (!v.is_header) return;
  bool has_pragma = false;
  static const std::regex kPragma(R"(^\s*#\s*pragma\s+once\b)");
  static const std::regex kUsingNs(R"(\busing\s+namespace\b)");
  static const std::regex kIostream(R"(^\s*#\s*include\s*<iostream>)");
  for (std::size_t i = 0; i < v.stripped_lines.size(); ++i) {
    const std::string& line = v.stripped_lines[i];
    if (std::regex_search(line, kPragma)) has_pragma = true;
    if (std::regex_search(line, kUsingNs)) {
      out->push_back({v.path, static_cast<int>(i + 1), kRuleHeaderHygiene,
                      "'using namespace' in a header leaks into every "
                      "includer; qualify names instead"});
    }
    if (std::regex_search(line, kIostream)) {
      out->push_back({v.path, static_cast<int>(i + 1), kRuleHeaderHygiene,
                      "<iostream> in a header pulls static init into every "
                      "TU; include it in the .cpp"});
    }
  }
  if (!has_pragma) {
    out->push_back({v.path, 1, kRuleHeaderHygiene,
                    "header is missing '#pragma once'"});
  }
}

// ---------------------------------------------------------------------------
// Rule: no-full-call-materialization
// ---------------------------------------------------------------------------

// The reconstruction core must stay O(window): it may borrow frames through
// `const VideoStream&` parameters or pull them one at a time through
// video::FrameSource, but never own a VideoStream or append frames to one -
// that silently reintroduces whole-call memory. The batch-compat wrapper
// (Reconstructor::Run) stays legal by construction: it adapts its borrowed
// call through video::VideoStreamSource, which this rule does not match.
void CheckFullCallMaterialization(const FileView& v,
                                  std::vector<Finding>* out) {
  if (!StartsWith(v.path, "src/core/")) return;

  // `VideoStream` not followed by &, * or :: - i.e. a by-value declaration,
  // construction, or data member rather than a borrowed reference/pointer.
  static const std::regex kOwnedStream(R"(\bVideoStream\b(?!\s*[&*:]))");
  static const std::regex kAccumulate(R"(\.\s*(?:Append|AddFrame)\s*\()");

  for (std::size_t i = 0; i < v.stripped_lines.size(); ++i) {
    const std::string& line = v.stripped_lines[i];
    const char* what = nullptr;
    if (std::regex_search(line, kOwnedStream)) {
      what = "owning a VideoStream in src/core/ materializes the whole call; "
             "pull frames through video::FrameSource + FrameWindow instead";
    } else if (std::regex_search(line, kAccumulate)) {
      what = "appending frames to a stream in src/core/ materializes the "
             "call; push frames through the streaming pass protocol instead";
    }
    if (what != nullptr) {
      out->push_back({v.path, static_cast<int>(i + 1),
                      kRuleFullCallMaterialization, what});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-per-pixel-loop
// ---------------------------------------------------------------------------

// The kernel catalog (src/imaging/kernels/) is the single home for flat
// per-pixel loops: one plain body per primitive, the simplest loop that
// states the operation. A loop over a .pixels() span anywhere else
// in src/ is either a migration candidate or a documented exception
// (neighborhood access, multi-plane state machines, serialization) - it may
// stay only with an allow() reason. Two shapes are recognized:
//   - a range-for directly over `<expr>.pixels()`;
//   - an index for-loop bounded by `<id>.size()` where `<id>` was assigned
//     from a .pixels() call earlier in the file.
void CheckPerPixelLoop(const FileView& v, std::vector<Finding>* out) {
  if (!StartsWith(v.path, "src/")) return;
  if (StartsWith(v.path, "src/imaging/kernels/")) return;

  // Identifiers aliasing a pixel span: `auto px = img.pixels()`, including
  // later declarators of a multi-declaration (`auto pa = a.pixels(), pb =
  // b.pixels();`).
  std::set<std::string> span_idents;
  static const std::regex kSpanAlias(
      R"(\b([A-Za-z_]\w*)\s*=\s*[^;=<>]*?\.\s*pixels\s*\(\s*\))");
  auto abegin = std::sregex_iterator(v.stripped.begin(), v.stripped.end(),
                                     kSpanAlias);
  for (auto it = abegin; it != std::sregex_iterator(); ++it) {
    span_idents.insert((*it)[1].str());
  }

  static const std::regex kRangeFor(
      R"(\bfor\s*\([^;()]*:\s*[^;]*\.\s*pixels\s*\(\s*\))");
  static const std::regex kIndexFor(
      R"(\bfor\s*\([^;]*;[^;]*<\s*([A-Za-z_]\w*)\s*\.\s*size\s*\(\s*\))");

  for (std::size_t i = 0; i < v.stripped_lines.size(); ++i) {
    const std::string& line = v.stripped_lines[i];
    bool hit = std::regex_search(line, kRangeFor);
    if (!hit) {
      std::smatch m;
      hit = std::regex_search(line, m, kIndexFor) &&
            span_idents.count(m[1].str()) > 0;
    }
    if (!hit) continue;
    out->push_back(
        {v.path, static_cast<int>(i + 1), kRulePerPixelLoop,
         "per-pixel loop outside src/imaging/kernels/; move it into the "
         "kernel catalog (one plain body per primitive) or keep it with a "
         "reason: // bblint: allow(no-per-pixel-loop) -- <why>"});
  }
}

// ---------------------------------------------------------------------------
// Rule: no-silent-error-drop
// ---------------------------------------------------------------------------

// bb::Status and bb::Result are [[nodiscard]] at the type level, so the
// compiler flags most dropped errors. This rule closes the remaining gap:
// a *bare statement* call to one of the curated must-check functions -
// the shape `LoadBbv(path);` where nothing consumes the result. The
// curated list names the error-returning entry points whose failure always
// matters; an intentional drop must say so with an explicit (void) cast
// (which also reads as intent) or a bblint allow(). The project-phase
// no-unchecked-result rule generalizes this to every declared Status/Result
// function; this line rule stays as the zero-setup fallback that also works
// on a single file.
void CheckSilentErrorDrop(const FileView& v, std::vector<Finding>* out) {
  static const std::regex kBareCall(
      R"(^\s*(?:\w+\s*::\s*)*)"
      R"((SaveCheckpoint|LoadCheckpoint|LoadBbv|LoadPpm|LoadPng|LoadImageAuto|Configure|PushBadFrame|WriteBbv|WriteBbv2|Seek)\s*\()");
  static const std::regex kBareWithContext(
      R"(^\s*[A-Za-z_][\w.]*(?:\.|->)\s*WithContext\s*\()");

  for (std::size_t i = 0; i < v.stripped_lines.size(); ++i) {
    const std::string& line = v.stripped_lines[i];
    // Anything that consumes the value: assignment/initialization (also
    // covers comparisons - conservative), return, an explicit void cast,
    // or a test macro wrapping the call.
    if (line.find('=') != std::string::npos) continue;
    if (line.find("return") != std::string::npos) continue;
    if (line.find("(void)") != std::string::npos) continue;
    if (line.find("EXPECT_") != std::string::npos ||
        line.find("ASSERT_") != std::string::npos) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(line, m, kBareCall)) {
      out->push_back(
          {v.path, static_cast<int>(i + 1), kRuleSilentErrorDrop,
           "result of " + m[1].str() +
               "() is dropped; check the Status/Result (or cast to (void) "
               "to document an intentional drop)"});
    } else if (std::regex_search(line, kBareWithContext)) {
      out->push_back(
          {v.path, static_cast<int>(i + 1), kRuleSilentErrorDrop,
           "WithContext() returns a new Status; calling it as a bare "
           "statement drops both the context and the error"});
    }
  }
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

struct LineRule {
  const char* name;
  void (*check)(const FileView&, std::vector<Finding>*);
};

const std::vector<LineRule>& LineRules() {
  static const std::vector<LineRule> kRules = {
      {kRuleNondeterminism, CheckNondeterminism},
      {kRuleRawPixelIndexing, CheckRawPixelIndexing},
      {kRuleFloatAccumulation, CheckFloatAccumulation},
      {kRuleFloatTruncation, CheckFloatTruncation},
      {kRuleHeaderHygiene, CheckHeaderHygiene},
      {kRuleFullCallMaterialization, CheckFullCallMaterialization},
      {kRulePerPixelLoop, CheckPerPixelLoop},
      {kRuleSilentErrorDrop, CheckSilentErrorDrop},
  };
  return kRules;
}

}  // namespace

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {kRuleNondeterminism, RulePhase::kLine,
       "no unseeded randomness or wall-clock reads; all randomness flows "
       "through synth::Rng, all timing through trace::MonotonicSeconds",
       "exempt: src/synth/rng.h; timing exempt: src/common/trace.cpp, "
       "tools/"},
      {kRuleRawPixelIndexing, RulePhase::kLine,
       "pixel access goes through the bounds-checked ImageT accessors, "
       "never y*width+x arithmetic",
       "exempt: src/imaging/image.h"},
      {kRuleFloatAccumulation, RulePhase::kLine,
       "no float += on by-reference captures inside ParallelFor/"
       "ParallelShards bodies; reduce through per-shard accumulators", ""},
      {kRuleFloatTruncation, RulePhase::kLine,
       "int casts of floating multiply/divide go through std::lround or an "
       "explicit floor/ceil/trunc", ""},
      {kRuleHeaderHygiene, RulePhase::kLine,
       "headers have #pragma once, no 'using namespace', no <iostream>",
       "headers only"},
      {kRuleFullCallMaterialization, RulePhase::kLine,
       "the reconstruction core stays O(window): never own or grow a "
       "VideoStream in src/core/",
       "src/core/ only"},
      {kRulePerPixelLoop, RulePhase::kLine,
       "per-pixel hot loops live once in the kernel catalog "
       "(src/imaging/kernels/); .pixels() span loops elsewhere need an "
       "allow() reason",
       "src/ only; exempt: src/imaging/kernels/"},
      {kRuleSilentErrorDrop, RulePhase::kLine,
       "no bare-statement calls to the curated must-check Status/Result "
       "functions (LoadBbv, SaveCheckpoint, ...)", ""},
      {kRuleLayering, RulePhase::kProject,
       "module includes follow the layer DAG common -> imaging/kernels -> "
       "imaging -> {video, segmentation, synth, vbg, detect, datasets} -> "
       "core -> {cli, apps, tools, bench, tests}; no back-edges, no include "
       "cycles", ""},
      {kRuleUncheckedResult, RulePhase::kProject,
       "no call site discards a declared bb::Status/Result<T> return; "
       "(void) casts need an allow() tag with a reason string", ""},
      {kRuleRegistryConsistency, RulePhase::kProject,
       "every trace counter/stage and fault-injection point is declared "
       "exactly once in tools/bblint/registry.manifest and spelled "
       "consistently at every use",
       "references scanned in src/, apps/, bench/"},
      {kRuleHeaderSelfContainment, RulePhase::kBuild,
       "every header compiles standalone (one generated TU per header; "
       "CMake target bb_header_selfcheck, ctest lint.HeaderSelfContainment)",
       "src/ headers"},
  };
  return kCatalog;
}

std::vector<std::string> RuleNames() {
  std::vector<std::string> names;
  for (const auto& r : RuleCatalog()) names.push_back(r.name);
  return names;
}

namespace {

bool RuleEnabled(const Options& options, const char* rule) {
  return options.only_rule.empty() || options.only_rule == rule;
}

}  // namespace

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const Options& options) {
  const FileView v = MakeFileView(path, content);
  std::vector<Finding> all;
  for (const auto& rule : LineRules()) {
    if (!RuleEnabled(options, rule.name)) continue;
    std::vector<Finding> found;
    rule.check(v, &found);
    for (auto& f : found) {
      if (!Suppressed(v, f.line, f.rule)) all.push_back(std::move(f));
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return all;
}

std::vector<Finding> LintFile(const std::string& rel_path,
                              const std::string& abs_path,
                              const Options& options) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) {
    return {{rel_path, 0, "lint-io", "could not read file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return LintContent(rel_path, ss.str(), options);
}

std::vector<Finding> LintTree(const std::string& root,
                              const Options& options) {
  namespace fs = std::filesystem;
  static const std::vector<std::string> kSubdirs = {"src", "apps", "bench",
                                                    "tools", "tests"};
  std::vector<std::pair<std::string, std::string>> files;  // rel, abs
  for (const auto& sub : kSubdirs) {
    const fs::path base = fs::path(root) / sub;
    if (!fs::exists(base)) continue;
    auto it = fs::recursive_directory_iterator(base);
    for (; it != fs::recursive_directory_iterator(); ++it) {
      const fs::path& p = it->path();
      const std::string name = p.filename().string();
      if (it->is_directory()) {
        if (name.empty() || name[0] == '.' ||
            name.rfind("build", 0) == 0 || name == "bblint_fixtures") {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = p.extension().string();
      if (ext != ".h" && ext != ".cpp") continue;
      const std::string rel =
          fs::relative(p, fs::path(root)).generic_string();
      files.emplace_back(rel, p.string());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> all;
  std::vector<SourceDoc> docs;
  docs.reserve(files.size());
  for (const auto& [rel, abs] : files) {
    std::ifstream in(abs, std::ios::binary);
    if (!in) {
      all.push_back({rel, 0, "lint-io", "could not read file"});
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    docs.push_back({rel, ss.str()});
  }

  // Phase 1: line rules per file.
  for (const auto& doc : docs) {
    auto found = LintContent(doc.path, doc.content, options);
    all.insert(all.end(), found.begin(), found.end());
  }

  // Phase 2: project rules over the whole tree. The registry manifest is
  // read from its checked-in location; a missing manifest is itself a
  // registry-consistency finding (emitted by LintProject).
  const Project project = BuildProjectFromDisk(root, std::move(docs));
  auto project_findings = LintProject(project, options);
  all.insert(all.end(), project_findings.begin(), project_findings.end());

  std::stable_sort(all.begin(), all.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return all;
}

}  // namespace bb::lint
