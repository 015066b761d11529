#include "util/arg_parse.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "util/contracts.hpp"

namespace bnf {
namespace {

arg_parser make_parser() {
  arg_parser args("prog", "test parser");
  args.add_int("n", 8, "players");
  args.add_double("alpha", 1.5, "link cost");
  args.add_string("mode", "exhaustive", "census mode");
  args.add_flag("csv", "emit csv");
  return args;
}

TEST(ArgParseTest, DefaultsApply) {
  auto args = make_parser();
  const std::array argv{"prog"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_EQ(args.get_int("n"), 8);
  EXPECT_DOUBLE_EQ(args.get_double("alpha"), 1.5);
  EXPECT_EQ(args.get_string("mode"), "exhaustive");
  EXPECT_FALSE(args.get_flag("csv"));
  EXPECT_FALSE(args.was_set("n"));
}

TEST(ArgParseTest, SpaceSeparatedValues) {
  auto args = make_parser();
  const std::array argv{"prog", "--n", "10", "--alpha", "2.25", "--mode",
                        "dynamics"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_EQ(args.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(args.get_double("alpha"), 2.25);
  EXPECT_EQ(args.get_string("mode"), "dynamics");
  EXPECT_TRUE(args.was_set("n"));
}

TEST(ArgParseTest, EqualsSyntaxAndBoolFlag) {
  auto args = make_parser();
  const std::array argv{"prog", "--n=12", "--csv"};
  (void)args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("n"), 12);
  EXPECT_TRUE(args.get_flag("csv"));
}

TEST(ArgParseTest, ExplicitBoolValue) {
  auto args = make_parser();
  const std::array argv{"prog", "--csv=false"};
  (void)args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_FALSE(args.get_flag("csv"));
}

TEST(ArgParseTest, UnknownFlagThrows) {
  auto args = make_parser();
  const std::array argv{"prog", "--bogus", "1"};
  EXPECT_THROW((void)args.parse(static_cast<int>(argv.size()), argv.data()),
               precondition_error);
}

TEST(ArgParseTest, MalformedIntThrows) {
  auto args = make_parser();
  const std::array argv{"prog", "--n", "12x"};
  EXPECT_THROW((void)args.parse(static_cast<int>(argv.size()), argv.data()),
               precondition_error);
}

// std::stoll/std::stod failures must surface as the parser's own message
// naming the flag, never as the library's bare "stoll"/"stod".
std::string parse_error(const std::array<const char*, 3>& argv) {
  auto args = make_parser();
  try {
    (void)args.parse(static_cast<int>(argv.size()), argv.data());
  } catch (const precondition_error& error) {
    return error.what();
  }
  return "no error";
}

TEST(ArgParseTest, NonNumericIntNamesTheFlag) {
  EXPECT_EQ(parse_error({"prog", "--n", "abc"}),
            "arg_parser: bad integer for --n: abc");
  EXPECT_EQ(parse_error({"prog", "--n", ""}),
            "arg_parser: bad integer for --n: ");
}

TEST(ArgParseTest, OutOfRangeIntNamesTheFlag) {
  EXPECT_EQ(parse_error({"prog", "--n", "99999999999999999999999"}),
            "arg_parser: bad integer for --n: 99999999999999999999999");
}

TEST(ArgParseTest, NonNumericRealNamesTheFlag) {
  EXPECT_EQ(parse_error({"prog", "--alpha", "abc"}),
            "arg_parser: bad number for --alpha: abc");
  EXPECT_EQ(parse_error({"prog", "--alpha", "1e999999"}),
            "arg_parser: bad number for --alpha: 1e999999");
}

TEST(ArgParseTest, NegativeIntParses) {
  auto args = make_parser();
  const std::array argv{"prog", "--n", "-3"};
  (void)args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("n"), -3);
}

TEST(ArgParseTest, MissingValueThrows) {
  auto args = make_parser();
  const std::array argv{"prog", "--n"};
  EXPECT_THROW((void)args.parse(static_cast<int>(argv.size()), argv.data()),
               precondition_error);
}

TEST(ArgParseTest, TypeMismatchOnGetThrows) {
  auto args = make_parser();
  const std::array argv{"prog"};
  (void)args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW((void)args.get_int("alpha"), precondition_error);
  EXPECT_THROW((void)args.get_flag("n"), precondition_error);
}

TEST(ArgParseTest, HelpReturnsStatusInsteadOfExiting) {
  for (const char* token : {"--help", "-h"}) {
    auto args = make_parser();
    const std::array argv{"prog", token};
    EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
              parse_status::help_requested);
    // Defaults are untouched; the parser remains usable after help.
    EXPECT_EQ(args.get_int("n"), 8);
  }
}

TEST(ArgParseTest, HelpShortCircuitsBeforeLaterFlags) {
  auto args = make_parser();
  const std::array argv{"prog", "--help", "--bogus", "1"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::help_requested);
}

TEST(ArgParseTest, DuplicateFlagOnCommandLineThrows) {
  auto args = make_parser();
  const std::array argv{"prog", "--n", "1", "--n", "2"};
  EXPECT_THROW((void)args.parse(static_cast<int>(argv.size()), argv.data()),
               precondition_error);
}

TEST(ArgParseTest, ItemsListFlagsInRegistrationOrder) {
  auto args = make_parser();
  const std::array argv{"prog", "--alpha", "2.5"};
  (void)args.parse(static_cast<int>(argv.size()), argv.data());
  const auto items = args.items();
  ASSERT_EQ(items.size(), 4U);
  EXPECT_EQ(items[0], (std::pair<std::string, std::string>{"n", "8"}));
  EXPECT_EQ(items[1].first, "alpha");
  EXPECT_EQ(items[1].second, "2.5");
  EXPECT_EQ(items[3].first, "csv");
}

TEST(ArgParseTest, DuplicateRegistrationThrows) {
  arg_parser args("prog", "dup");
  args.add_int("n", 1, "x");
  EXPECT_THROW((void)args.add_double("n", 2.0, "y"), precondition_error);
}

TEST(ArgParseTest, UsageMentionsAllFlags) {
  const auto args = make_parser();
  const std::string usage = args.usage();
  for (const auto* flag : {"--n", "--alpha", "--mode", "--csv", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
}

arg_parser make_opt_parser() {
  arg_parser args("prog", "optional-value parser");
  args.add_opt_double("progress", 0, 5, "heartbeat seconds");
  args.add_flag("csv", "emit csv");
  return args;
}

TEST(ArgParseTest, OptDoubleAbsentUsesDefaultAndIsNotSet) {
  auto args = make_opt_parser();
  const std::array argv{"prog"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_DOUBLE_EQ(args.get_double("progress"), 0.0);
  EXPECT_FALSE(args.was_set("progress"));
}

TEST(ArgParseTest, OptDoubleBareTakesBareValue) {
  auto args = make_opt_parser();
  const std::array argv{"prog", "--progress"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_DOUBLE_EQ(args.get_double("progress"), 5.0);
  EXPECT_TRUE(args.was_set("progress"));
}

TEST(ArgParseTest, OptDoubleBareBeforeAnotherFlag) {
  auto args = make_opt_parser();
  const std::array argv{"prog", "--progress", "--csv"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_DOUBLE_EQ(args.get_double("progress"), 5.0);
  EXPECT_TRUE(args.get_flag("csv"));
}

TEST(ArgParseTest, OptDoubleSpaceSeparatedValue) {
  auto args = make_opt_parser();
  const std::array argv{"prog", "--progress", "2.5"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_DOUBLE_EQ(args.get_double("progress"), 2.5);
}

TEST(ArgParseTest, OptDoubleEqualsValue) {
  auto args = make_opt_parser();
  const std::array argv{"prog", "--progress=0.25"};
  EXPECT_EQ(args.parse(static_cast<int>(argv.size()), argv.data()),
            parse_status::ok);
  EXPECT_DOUBLE_EQ(args.get_double("progress"), 0.25);
}

TEST(ArgParseTest, OptDoubleRejectsMalformedValue) {
  auto args = make_opt_parser();
  const std::array argv{"prog", "--progress=1.5x"};
  EXPECT_THROW(
      (void)args.parse(static_cast<int>(argv.size()), argv.data()),
      precondition_error);
}

TEST(ArgParseTest, OptDoubleUsageShowsOptionalValue) {
  const auto args = make_opt_parser();
  EXPECT_NE(args.usage().find("--progress [value]"), std::string::npos);
}

}  // namespace
}  // namespace bnf
