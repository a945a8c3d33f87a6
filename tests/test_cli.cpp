// Unit tests for the command-line option table (util/cli.hpp) and the rows
// and stats lines the two runners share (core/runner_options.hpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner_options.hpp"
#include "util/cli.hpp"

namespace dnnlife::util {
namespace {

/// Run `table` over `args` (argv[0] is supplied); returns whether it
/// accepted them and leaves what it printed in `err`.
bool parse(OptionTable& table, std::vector<std::string> args,
           std::string* err = nullptr) {
  std::vector<const char*> argv{"prog"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  const bool ok =
      table.parse(static_cast<int>(argv.size()), argv.data(), out);
  if (err != nullptr) *err = out.str();
  return ok;
}

TEST(CliParsers, UnsignedAtItsBounds) {
  unsigned value = 7;
  EXPECT_TRUE(parse_unsigned_flag("0", value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(parse_unsigned_flag("4294967295", value));
  EXPECT_EQ(value, std::numeric_limits<unsigned>::max());
  EXPECT_FALSE(parse_unsigned_flag("4294967296", value));  // 2^32
  EXPECT_FALSE(parse_unsigned_flag("99999999999999999999999", value));
  EXPECT_EQ(value, std::numeric_limits<unsigned>::max());  // untouched

  EXPECT_TRUE(parse_unsigned_flag("4096", value, 4096));
  EXPECT_EQ(value, 4096u);
  EXPECT_FALSE(parse_unsigned_flag("4097", value, 4096));
  EXPECT_FALSE(parse_unsigned_flag("4294967297", value, 4096));
  EXPECT_EQ(value, 4096u);
}

TEST(CliParsers, UnsignedRejectsAnythingButDigits) {
  unsigned value = 3;
  for (const char* text : {"", "-5", "+5", " 5", "5 ", "12x", "0x10", "1.0"})
    EXPECT_FALSE(parse_unsigned_flag(text, value)) << "'" << text << "'";
  EXPECT_EQ(value, 3u);
}

TEST(CliParsers, DoubleMustBeFiniteAndConsumeAllTheText) {
  double value = 1.5;
  EXPECT_TRUE(parse_double_flag("-40.25", value));
  EXPECT_EQ(value, -40.25);
  EXPECT_TRUE(parse_double_flag("1e3", value));
  EXPECT_EQ(value, 1000.0);
  for (const char* text :
       {"", "85abc", " 85", "85 ", "inf", "-inf", "nan", "1e999", "abc"})
    EXPECT_FALSE(parse_double_flag(text, value)) << "'" << text << "'";
  EXPECT_EQ(value, 1000.0);
}

class OptionTableTest : public ::testing::Test {
 protected:
  OptionTableTest() : table_("prog", {"[file] [flags]"}, 2) {
    table_.unsigned_option("jobs", "N", "job budget", jobs_, 8)
        .double_option("deadline", "SEC", "soft deadline", deadline_,
                       OptionTable::Sign::kPositive)
        .double_option("temp", "C", "temperature", temp_)
        .string_option("csv", "PATH", "summary path", csv_)
        .switch_option("quiet", "no progress", quiet_)
        .custom_option("pair", "A/B", "two numbers",
                       [](const std::string& value) {
                         return value == "1/2";
                       });
  }

  /// The one error line of a rejected `args`.
  std::string error_of(std::vector<std::string> args) {
    std::string err;
    EXPECT_FALSE(parse(table_, std::move(args), &err));
    return err.substr(0, err.find('\n'));
  }

  OptionTable table_;
  unsigned jobs_ = 1;
  double deadline_ = 0.0;
  double temp_ = 55.0;
  std::string csv_;
  bool quiet_ = false;
};

TEST_F(OptionTableTest, FillsTargetsAndKeepsPositionalsInOrder) {
  ASSERT_TRUE(parse(table_, {"b.json", "--jobs=8", "--deadline=2.5",
                             "--temp=-10", "--csv=out.csv", "--quiet",
                             "a.json", "--pair=1/2"}));
  EXPECT_EQ(jobs_, 8u);
  EXPECT_EQ(deadline_, 2.5);
  EXPECT_EQ(temp_, -10.0);
  EXPECT_EQ(csv_, "out.csv");
  EXPECT_TRUE(quiet_);
  EXPECT_EQ(table_.positionals(),
            (std::vector<std::string>{"b.json", "a.json"}));
  EXPECT_TRUE(table_.given("pair"));
}

TEST_F(OptionTableTest, GivenTracksOnlyWhatAppeared) {
  ASSERT_TRUE(parse(table_, {"--jobs=0"}));
  EXPECT_TRUE(table_.given("jobs"));
  EXPECT_EQ(jobs_, 0u);
  EXPECT_FALSE(table_.given("csv"));
  EXPECT_FALSE(table_.given("quiet"));
  EXPECT_FALSE(table_.given("no-such-row"));
}

TEST_F(OptionTableTest, ErrorTextNamesTheFlagItsHintAndTheValue) {
  EXPECT_EQ(error_of({"--jobs=9"}), "--jobs expects N in 0..8, got '9'");
  EXPECT_EQ(error_of({"--jobs=4294967296"}),
            "--jobs expects N in 0..8, got '4294967296'");
  EXPECT_EQ(error_of({"--jobs=3x"}), "--jobs expects N in 0..8, got '3x'");
  EXPECT_EQ(error_of({"--jobs="}), "--jobs expects N in 0..8, got ''");
  EXPECT_EQ(error_of({"--deadline=0"}),
            "--deadline expects SEC (a positive number), got '0'");
  EXPECT_EQ(error_of({"--temp=85abc"}),
            "--temp expects C (a finite number), got '85abc'");
  EXPECT_EQ(error_of({"--temp=nan"}),
            "--temp expects C (a finite number), got 'nan'");
  EXPECT_EQ(error_of({"--csv="}),
            "--csv expects PATH (non-empty), got ''");
  EXPECT_EQ(error_of({"--pair=2/1"}), "--pair expects A/B, got '2/1'");
  EXPECT_EQ(error_of({"--frobnicate=1"}), "unknown flag --frobnicate=1");
  EXPECT_EQ(error_of({"a", "b", "c"}),
            "unexpected argument 'c' (at most 2 positional)");
  EXPECT_EQ(jobs_, 1u);  // no rejected value leaked into a target
  EXPECT_EQ(temp_, 55.0);
}

TEST_F(OptionTableTest, ValuedFlagBareAndSwitchWithValueAreRejected) {
  EXPECT_EQ(error_of({"--jobs"}), "--jobs expects N in 0..8, got ''");
  EXPECT_EQ(error_of({"--quiet=yes"}), "--quiet expects no value, got 'yes'");
  EXPECT_FALSE(quiet_);
}

TEST_F(OptionTableTest, ErrorsEndWithTheUsageGeneratedFromTheRows) {
  const std::string usage =
      "usage: prog [file] [flags]\n"
      "  --jobs=N        job budget\n"
      "  --deadline=SEC  soft deadline\n"
      "  --temp=C        temperature\n"
      "  --csv=PATH      summary path\n"
      "  --quiet         no progress\n"
      "  --pair=A/B      two numbers\n";
  EXPECT_EQ(table_.usage(), usage);
  std::string err;
  EXPECT_FALSE(parse(table_, {"--nope"}, &err));
  EXPECT_EQ(err, "unknown flag --nope\n" + usage);
}

TEST(OptionTable, UnboundedUnsignedSaysWholeNumber) {
  unsigned retries = 0;
  OptionTable table("prog", {"[flags]"}, 0);
  table.unsigned_option("retries", "N", "extra attempts", retries);
  std::string err;
  EXPECT_TRUE(parse(table, {"--retries=4294967295"}));
  EXPECT_EQ(retries, std::numeric_limits<unsigned>::max());
  EXPECT_FALSE(parse(table, {"--retries=-1"}, &err));
  EXPECT_EQ(err.substr(0, err.find('\n')),
            "--retries expects N (a whole number), got '-1'");
}

TEST(RunnerOptions, SessionRowsKeepTheirBounds) {
  core::SessionFlags flags;
  OptionTable table("runner", {"[flags]"});
  core::add_session_options(table, flags);
  EXPECT_TRUE(parse(table, {"--executor-threads=4096",
                            "--sim-cache-mb=1048576", "--sim-store=store"}));
  EXPECT_EQ(flags.executor_threads, 4096u);
  EXPECT_EQ(flags.sim_cache_mb, 1u << 20);
  EXPECT_EQ(flags.sim_store_dir, "store");
  EXPECT_FALSE(parse(table, {"--executor-threads=4097"}));
  EXPECT_FALSE(parse(table, {"--sim-cache-mb=1048577"}));
  EXPECT_FALSE(parse(table, {"--sim-store="}));
}

TEST(RunnerOptions, TierStatsLinesKeepTheSweepRunnerWording) {
  EXPECT_EQ(core::sim_tier_stats(nullptr, nullptr), "");
  const core::SimCache cache(std::size_t{1} << 20);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dnnlife_cli_store";
  std::filesystem::remove_all(dir);
  {
    const core::SimStore store(core::SimStore::Options{dir.string(), 0});
    // CI greps " 0 misses, 0 publishes" on a warm store.
    EXPECT_EQ(core::sim_tier_stats(&cache, &store),
              "sim cache: 0 hits, 0 misses, 0 evictions, 0 resident "
              "(0.0 MB)\n"
              "sim store: 0 hits, 0 misses, 0 publishes, 0 quarantined, "
              "0 evicted\n");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dnnlife::util
