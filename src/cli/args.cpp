#include "cli/args.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace bb::cli {

Args Args::Parse(int argc, const char* const* argv,
                 const std::set<std::string>& boolean_flags) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command_ = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2 || token[2] == '-') {
      args.errors_.push_back("malformed argument: " + token);
      continue;
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      const std::string key = token.substr(0, eq);
      if (boolean_flags.count(key)) {
        args.errors_.push_back("flag --" + key + " does not take a value");
        continue;
      }
      args.values_[key] = token.substr(eq + 1);
      continue;
    }
    if (boolean_flags.count(token)) {
      // Declared switches never swallow the next token.
      args.values_[token] = "";
      continue;
    }
    // "--key value" unless the next token is another flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.values_[token] = argv[i + 1];
      ++i;
    } else {
      args.values_[token] = "";
    }
  }
  return args;
}

std::string Args::Get(const std::string& key,
                      const std::string& fallback) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

std::optional<std::string> Args::Get(const std::string& key) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::optional<long> Args::GetInt(const std::string& key) const {
  const auto s = Get(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s->c_str(), &end, 10);
  if (end == s->c_str() || *end != '\0' || errno == ERANGE) {
    errors_.push_back("--" + key + " expects an integer, got '" + *s + "'");
    return std::nullopt;
  }
  return v;
}

std::optional<double> Args::GetDouble(const std::string& key) const {
  const auto s = Get(key);
  if (!s) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s->c_str(), &end);
  if (end == s->c_str() || *end != '\0') {
    errors_.push_back("--" + key + " expects a number, got '" + *s + "'");
    return std::nullopt;
  }
  return v;
}

long Args::GetInt(const std::string& key, long fallback) const {
  return GetInt(key).value_or(fallback);
}

double Args::GetDouble(const std::string& key, double fallback) const {
  return GetDouble(key).value_or(fallback);
}

int Args::GetInt(const std::string& key, int fallback, int lo, int hi) const {
  const auto parsed = GetInt(key);
  if (!parsed) return fallback;
  const long v = parsed.value();
  if (v < lo || v > hi) {
    errors_.push_back("--" + key + " must be in [" + std::to_string(lo) +
                      ", " + std::to_string(hi) + "], got " +
                      std::to_string(v));
    return fallback;
  }
  return static_cast<int>(v);
}

std::vector<std::string> Args::UnconsumedKeys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!consumed_.count(key)) out.push_back(key);
  }
  return out;
}

int ReportErrors(const Args& args) {
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
  }
  return args.errors().empty() ? 0 : 2;
}

int RejectUnknown(const Args& args) {
  const std::vector<std::string> unknown = args.UnconsumedKeys();
  for (const auto& key : unknown) {
    std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
  }
  const int rc = ReportErrors(args);
  return unknown.empty() ? rc : 2;
}

}  // namespace bb::cli
