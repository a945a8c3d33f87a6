// Command-line parsing shared by the example and bench executables: one
// declarative option table and the typed value parsers behind it.
#pragma once

#include <cstddef>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dnnlife::util {

/// Parse a decimal integer in 0..`max` into `out`. Returns false (leaving
/// `out` untouched) on empty input, any non-digit character (signs and
/// whitespace included), or a value above `max` or past 2^32.
bool parse_unsigned_flag(std::string_view text, unsigned& out,
                         unsigned max = std::numeric_limits<unsigned>::max());

/// Parse a finite decimal number into `out`. Returns false (leaving `out`
/// untouched) on empty input, whitespace, a leading '+', trailing garbage,
/// or a non-finite or out-of-range result.
bool parse_double_flag(std::string_view text, double& out);

/// The options of one executable, each declared once as a row: its name,
/// the value hint shown in `--name=HINT`, a help line and a typed target.
/// parse() matches `--name=value` (bare `--name` for switches), keeps the
/// positional arguments in order and reports every mistake in one format
/// — `--NAME expects <hint>, got 'VALUE'`, or `unknown flag ARG` —
/// followed by the usage generated from the rows.
class OptionTable {
 public:
  enum class Sign { kAny, kPositive };
  using Parser = std::function<bool(const std::string&)>;

  /// `synopses` are the usage lines after the program name (the first is
  /// printed as "usage:", later ones as "or:"); at most `max_positionals`
  /// positional arguments are accepted.
  OptionTable(std::string program, std::vector<std::string> synopses,
              std::size_t max_positionals =
                  std::numeric_limits<std::size_t>::max())
      : program_(std::move(program)),
        synopses_(std::move(synopses)),
        max_positionals_(max_positionals) {}

  /// An integer in 0..`max`.
  OptionTable& unsigned_option(
      const std::string& name, const std::string& hint,
      const std::string& help, unsigned& target,
      unsigned max = std::numeric_limits<unsigned>::max());
  /// A finite number; kPositive also rejects zero and negatives.
  OptionTable& double_option(const std::string& name, const std::string& hint,
                             const std::string& help, double& target,
                             Sign sign = Sign::kAny);
  /// A non-empty string.
  OptionTable& string_option(const std::string& name, const std::string& hint,
                             const std::string& help, std::string& target);
  /// A bare `--name`, which sets `target` to true.
  OptionTable& switch_option(const std::string& name, const std::string& help,
                             bool& target);
  /// A value read by `parse`, which returns false to reject it (the error
  /// message then names `hint`, e.g. "K/N").
  OptionTable& custom_option(const std::string& name, const std::string& hint,
                             const std::string& help, Parser parse);

  /// Parse argv[1..argc). On bad input writes the error line and the
  /// usage to `err` and returns false (callers exit 1).
  bool parse(int argc, const char* const* argv, std::ostream& err = std::cerr);

  const std::vector<std::string>& positionals() const { return positionals_; }
  /// Whether `--name` appeared on the command line.
  bool given(std::string_view name) const;
  std::string usage() const;

 private:
  struct Row {
    std::string name, hint, help;  // hint is empty for switches
    std::string expects;           // the "<hint>" of the error message
    Parser parse;
    bool given = false;
  };

  std::string program_;
  std::vector<std::string> synopses_;
  std::size_t max_positionals_;
  std::vector<Row> rows_;
  std::vector<std::string> positionals_;
};

}  // namespace dnnlife::util
