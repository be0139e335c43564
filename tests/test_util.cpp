// Utility substrate: argument parser, tables, logging.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/arg_parser.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace dg::util {
namespace {

// --- ArgParser ---

TEST(ArgParser, ParsesOptionsAndDefaults) {
  ArgParser parser("prog", "test");
  parser.add_option("bots", "100", "number of bots");
  parser.add_option("policy", "RR", "policy");
  const char* argv[] = {"prog", "--bots", "25"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_unsigned("bots"), 25u);
  EXPECT_EQ(parser.get("policy"), "RR");
}

TEST(ArgParser, ParsesEqualsSyntax) {
  ArgParser parser("prog", "test");
  parser.add_option("rate", "1.0", "rate");
  const char* argv[] = {"prog", "--rate=2.5"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 2.5);
}

TEST(ArgParser, ParsesFlags) {
  ArgParser parser("prog", "test");
  parser.add_flag("verbose", "more output");
  parser.add_flag("quiet", "less output");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(parser.get_flag("verbose"));
  EXPECT_FALSE(parser.get_flag("quiet"));
}

TEST(ArgParser, CollectsPositionalArguments) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "alpha", "beta"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.positional(), (std::vector<std::string>{"alpha", "beta"}));
}

/// Parses `--name value` and returns the parser, for the getter checks below.
ArgParser parsed_with(const char* name, const char* value) {
  ArgParser parser("prog", "test");
  parser.add_option(name, "1", "option under test");
  const std::string flag = std::string("--") + name;
  const char* argv[] = {"prog", flag.c_str(), value};
  EXPECT_TRUE(parser.parse(3, argv));
  return parser;
}

TEST(ArgParser, UnsignedRejectsANegativeCount) {
  // "--bots -1" used to wrap and die on std::length_error inside the run.
  const ArgParser parser = parsed_with("bots", "-1");
  EXPECT_THROW((void)parser.get_unsigned("bots"), std::invalid_argument);
}

TEST(ArgParser, UnsignedRejectsAJunkSuffix) {
  // "--bots 5x" used to run 5 bags.
  const ArgParser parser = parsed_with("bots", "5x");
  EXPECT_THROW((void)parser.get_unsigned("bots"), std::invalid_argument);
}

TEST(ArgParser, UnsignedRejectsASignedSeed) {
  // "--seed -3" used to be accepted and wrap to 2^64 - 3.
  const ArgParser parser = parsed_with("seed", "-3");
  EXPECT_THROW((void)parser.get_unsigned("seed"), std::invalid_argument);
}

TEST(ArgParser, UnsignedHonorsItsBound) {
  const ArgParser parser = parsed_with("threshold", "2147483648");
  EXPECT_THROW((void)parser.get_unsigned("threshold", 2147483647), std::invalid_argument);
  EXPECT_EQ(parser.get_unsigned("threshold"), 2147483648u);
}

TEST(ArgParser, PositiveRejectsAZeroGranularity) {
  // "--granularity 0" used to reach a DG_ASSERT in the workload generator.
  const ArgParser parser = parsed_with("granularity", "0");
  EXPECT_THROW((void)parser.get_positive("granularity"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parser.get_double("granularity"), 0.0);
}

TEST(ArgParser, DoubleRejectsJunkAndNonFiniteValues) {
  for (const char* bad : {"2.5x", "nan", "inf", " 1", "", "+1"}) {
    SCOPED_TRACE(bad);
    const ArgParser parser = parsed_with("rate", bad);
    EXPECT_THROW((void)parser.get_double("rate"), std::invalid_argument);
  }
}

TEST(ArgParser, ErrorsNameTheOptionAndTheValue) {
  const ArgParser parser = parsed_with("bots", "5x");
  try {
    (void)parser.get_unsigned("bots");
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--bots"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("'5x'"), std::string::npos) << e.what();
  }
}

TEST(ArgParser, RejectsUnknownOption) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParser, RejectsMissingValue) {
  ArgParser parser("prog", "test");
  parser.add_option("n", "1", "count");
  const char* argv[] = {"prog", "--n"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, HelpReturnsFalse) {
  ArgParser parser("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, GetUndeclaredThrows) {
  ArgParser parser("prog", "test");
  EXPECT_THROW((void)parser.get("ghost"), std::invalid_argument);
}

TEST(ArgParser, UsageMentionsOptionsAndDefaults) {
  ArgParser parser("prog", "does things");
  parser.add_option("bots", "100", "number of bots");
  const std::string usage = parser.usage();
  EXPECT_NE(usage.find("--bots"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
}

// --- Table ---

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "12345"});
  std::ostringstream oss;
  table.render(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("| 12345"), std::string::npos);
  EXPECT_NE(out.find("+-"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) { EXPECT_THROW(Table({}), std::invalid_argument); }

TEST(Table, WritesCsv) {
  Table table({"x", "y"});
  table.add_row({"1", "hello, world"});
  std::ostringstream oss;
  table.write_csv(oss);
  EXPECT_EQ(oss.str(), "x,y\n1,\"hello, world\"\n");
}

TEST(CsvEscape, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(FormatDouble, RespectsPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1000.0, 0), "1000");
}

// --- logging ---

TEST(Logging, ParsesLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::kInfo);
}

TEST(Logging, LevelNamesRoundTrip) {
  EXPECT_EQ(to_string(LogLevel::kError), "ERROR");
  EXPECT_EQ(parse_log_level(std::string(to_string(LogLevel::kTrace))), LogLevel::kTrace);
}

TEST(Logging, EnabledRespectsThreshold) {
  Logger& logger = Logger::global();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kWarn);
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  logger.set_level(saved);
}

}  // namespace
}  // namespace dg::util
