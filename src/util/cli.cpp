#include "util/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace dnnlife::util {

bool parse_unsigned_flag(std::string_view text, unsigned& out, unsigned max) {
  if (text.empty() || text.find_first_not_of("0123456789") != text.npos)
    return false;
  unsigned long long value = 0;
  for (const char digit : text)
    if ((value = value * 10 + static_cast<unsigned>(digit - '0')) > max)
      return false;  // also stops long digit runs overflowing
  out = static_cast<unsigned>(value);
  return true;
}

bool parse_double_flag(std::string_view text, double& out) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || !std::isfinite(value))
    return false;
  out = value;
  return true;
}

OptionTable& OptionTable::unsigned_option(const std::string& name,
                                          const std::string& hint,
                                          const std::string& help,
                                          unsigned& target, unsigned max) {
  rows_.push_back({name, hint, help,
                   max == std::numeric_limits<unsigned>::max()
                       ? hint + " (a whole number)"
                       : hint + " in 0.." + std::to_string(max),
                   [&target, max](const std::string& value) {
                     return parse_unsigned_flag(value, target, max);
                   }});
  return *this;
}

OptionTable& OptionTable::double_option(const std::string& name,
                                        const std::string& hint,
                                        const std::string& help,
                                        double& target, Sign sign) {
  const bool positive = sign == Sign::kPositive;
  rows_.push_back(
      {name, hint, help,
       hint + (positive ? " (a positive number)" : " (a finite number)"),
       [&target, positive](const std::string& value) {
         double parsed = 0.0;
         if (!parse_double_flag(value, parsed) || (positive && parsed <= 0.0))
           return false;
         target = parsed;
         return true;
       }});
  return *this;
}

OptionTable& OptionTable::string_option(const std::string& name,
                                        const std::string& hint,
                                        const std::string& help,
                                        std::string& target) {
  rows_.push_back({name, hint, help, hint + " (non-empty)",
                   [&target](const std::string& value) {
                     if (!value.empty()) target = value;
                     return !value.empty();
                   }});
  return *this;
}

OptionTable& OptionTable::switch_option(const std::string& name,
                                        const std::string& help,
                                        bool& target) {
  rows_.push_back({name, "", help, "no value",
                   [&target](const std::string&) { return target = true; }});
  return *this;
}

OptionTable& OptionTable::custom_option(const std::string& name,
                                        const std::string& hint,
                                        const std::string& help,
                                        Parser parse) {
  rows_.push_back({name, hint, help, hint, std::move(parse)});
  return *this;
}

bool OptionTable::parse(int argc, const char* const* argv, std::ostream& err) {
  const auto fail = [&](const std::string& message) {
    err << message << "\n" << usage();
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      if (positionals_.size() == max_positionals_)
        return fail("unexpected argument '" + arg + "' (at most " +
                    std::to_string(max_positionals_) + " positional)");
      positionals_.push_back(arg);
      continue;
    }
    const std::size_t equals = arg.find('=');
    const std::string name = arg.substr(2, equals - 2);
    const auto row = std::ranges::find(rows_, name, &Row::name);
    if (row == rows_.end()) return fail("unknown flag " + arg);
    const bool has_value = equals != std::string::npos;
    const std::string value = has_value ? arg.substr(equals + 1) : "";
    // A switch takes no value; a valued flag needs one (bare counts as '').
    if (row->hint.empty() == has_value || !row->parse(value))
      return fail("--" + name + " expects " + row->expects + ", got '" +
                  value + "'");
    row->given = true;
  }
  return true;
}

bool OptionTable::given(std::string_view name) const {
  return std::ranges::any_of(
      rows_, [&](const Row& row) { return row.given && row.name == name; });
}

std::string OptionTable::usage() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < synopses_.size(); ++i)
    out << (i == 0 ? "usage: " : "   or: ") << program_ << " " << synopses_[i]
        << "\n";
  const auto form = [](const Row& row) {
    return "--" + row.name + (row.hint.empty() ? "" : "=" + row.hint);
  };
  std::size_t width = 0;
  for (const Row& row : rows_) width = std::max(width, form(row).size());
  for (const Row& row : rows_)
    out << "  " << std::left << std::setw(static_cast<int>(width + 2))
        << form(row) << row.help << "\n";
  return out.str();
}

}  // namespace dnnlife::util
