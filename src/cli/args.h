// Minimal command-line argument parsing for the backbuster CLI.
//
// Grammar: <command> [--flag] [--key value] ... Flags may be given as
// --key=value or --key value; unknown keys are collected so the caller can
// reject them with a helpful message.
#pragma once

#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace bb::cli {

// The bounds of a ranged GetInt that only has to fit an int.
inline constexpr int kIntMin = std::numeric_limits<int>::min();
inline constexpr int kIntMax = std::numeric_limits<int>::max();

class Args {
 public:
  // Parses argv[1..); argv[1] is the command unless it starts with "--".
  // Keys listed in `boolean_flags` are switches: they never consume the
  // following token as a value (so `--verbose out.bbv` leaves `out.bbv`
  // alone) and reject the `--flag=value` spelling. Undeclared keys keep
  // the permissive "--key value" grammar.
  static Args Parse(int argc, const char* const* argv,
                    const std::set<std::string>& boolean_flags = {});

  const std::string& command() const { return command_; }

  // Presence test; marks the key consumed (see UnconsumedKeys).
  bool Has(const std::string& key) const {
    consumed_[key] = true;
    return values_.count(key) > 0;
  }

  // Presence of a boolean switch; marks it consumed. Identical to Has()
  // today, spelled separately so call sites read as flag lookups.
  bool GetFlag(const std::string& key) const { return Has(key); }

  // String value; `fallback` when absent.
  std::string Get(const std::string& key, const std::string& fallback) const;

  // Typed accessors: nullopt (or `fallback`) when absent. A present value
  // that does not parse also yields nullopt (or `fallback`) and records an
  // error naming the key, so the caller's errors() check refuses it.
  std::optional<std::string> Get(const std::string& key) const;
  std::optional<long> GetInt(const std::string& key) const;
  std::optional<double> GetDouble(const std::string& key) const;
  long GetInt(const std::string& key, long fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  // Ranged integer: `fallback` when absent. A present value outside
  // [lo, hi] is refused like a malformed one - `fallback` and an error
  // naming the key and the range - so no value is ever narrowed.
  int GetInt(const std::string& key, int fallback, int lo, int hi) const;

  // Keys the caller never consumed; call after all Get()s to reject typos.
  // (Every Get/Has marks its key as consumed.)
  std::vector<std::string> UnconsumedKeys() const;

  // Parse-phase problems (e.g. "--key" at end expecting a value is fine -
  // it becomes a boolean flag - but "---x" is malformed), plus malformed
  // values met by the typed accessors so far.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
  mutable std::vector<std::string> errors_;
};

// Usage errors exit 2. ReportErrors prints every errors() entry met so far
// to stderr and returns 2 when there is any, else 0. RejectUnknown does the
// same and also names every unconsumed key; call it after the command's
// last Get.
int ReportErrors(const Args& args);
int RejectUnknown(const Args& args);

}  // namespace bb::cli
