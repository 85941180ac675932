#include "src/util/flags.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace minuet {
namespace {

bool ParseColor(const std::string& name, int* out) {
  if (name == "red" || name == "blue") {
    *out = name == "red" ? 1 : 2;
    return true;
  }
  return false;
}

// One field of every kind the parser sets.
struct Fields {
  std::string file;
  int count = -1;
  int64_t points = 10;
  uint64_t seed = 1;
  double rate = 1.0;
  bool bit = false;
  bool on = false;
  int color = 0;
};

FlagCommand Command(Fields* f, size_t max_positionals = 0) {
  return {"tool [flags]",
          {{"json", "FILE", "write a report", &f->file},
           {"warmup", "N", "unmeasured runs", &f->count, FlagBound::kZero},
           {"points", "N", "point count", &f->points, FlagBound::kPositive},
           {"seed", "N", "seed", &f->seed},
           {"rate", "RPS", "arrival rate", &f->rate, FlagBound::kPositive},
           {"functional", "0|1", "compute features", FlagBit{&f->bit}},
           {"layers", "", "print layers", FlagSwitch{&f->on}},
           {"color", "red|blue", "a choice", Choice(ParseColor, &f->color)}},
          0,
          max_positionals};
}

TEST(FlagsTest, BothSpellingsSetTheirFields) {
  Fields f;
  const ParsedFlags parsed =
      ParseFlags(Command(&f), {"--json=out.json", "--warmup", "3", "--points=7", "--seed", "9",
                               "--rate=2.5", "--functional", "1", "--color=blue"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(f.file, "out.json");
  EXPECT_EQ(f.count, 3);
  EXPECT_EQ(f.points, 7);
  EXPECT_EQ(f.seed, 9u);
  EXPECT_EQ(f.rate, 2.5);
  EXPECT_TRUE(f.bit);
  EXPECT_EQ(f.color, 2);
  EXPECT_FALSE(f.on);
}

TEST(FlagsTest, UnsetFlagsKeepTheirDefaults) {
  Fields f;
  ASSERT_TRUE(ParseFlags(Command(&f), {}).ok());
  EXPECT_EQ(f.count, -1);
  EXPECT_EQ(f.points, 10);
  EXPECT_TRUE(f.file.empty());
}

TEST(FlagsTest, SwitchTakesNoValue) {
  Fields f;
  ASSERT_TRUE(ParseFlags(Command(&f), {"--layers"}).ok());
  EXPECT_TRUE(f.on);

  Fields g;
  const ParsedFlags parsed = ParseFlags(Command(&g), {"--layers=1"});
  EXPECT_EQ(parsed.error, "--layers takes no value");
  EXPECT_FALSE(g.on);
}

TEST(FlagsTest, PositionalsMayStandAnywhere) {
  Fields f;
  const ParsedFlags parsed =
      ParseFlags(Command(&f, 3), {"a.jsonl", "--points", "5", "b.jsonl", "--layers", "c"});
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.positionals, (std::vector<std::string>{"a.jsonl", "b.jsonl", "c"}));
  EXPECT_EQ(f.points, 5);
  EXPECT_TRUE(f.on);
}

TEST(FlagsTest, PositionalCountIsChecked) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"stray"}).error, "unexpected argument stray");
  FlagCommand two = Command(&f, 2);
  two.min_positionals = 2;
  EXPECT_EQ(ParseFlags(two, {"a"}).error, "expects 2 argument(s), got 1");
  EXPECT_EQ(ParseFlags(two, {"a", "b", "c"}).error, "unexpected argument c");
  EXPECT_TRUE(ParseFlags(two, {"a", "b"}).ok());
}

TEST(FlagsTest, MissingValueIsAnError) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"--json"}).error, "--json needs a value");
  EXPECT_EQ(ParseFlags(Command(&f), {"--json="}).error, "--json needs a value");
}

TEST(FlagsTest, ValueStartingWithDashesIsNotAValue) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"--json", "--layers"}).error, "--json needs a value");
  EXPECT_EQ(ParseFlags(Command(&f), {"--json=--layers"}).error, "--json needs a value");
  EXPECT_FALSE(f.on);
}

TEST(FlagsTest, NumbersParseStrictly) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"--points", "12abc"}).error,
            "--points takes an integer > 0, not 12abc");
  EXPECT_EQ(ParseFlags(Command(&f), {"--points=abc"}).error,
            "--points takes an integer > 0, not abc");
  EXPECT_EQ(ParseFlags(Command(&f), {"--points", "1.5"}).error,
            "--points takes an integer > 0, not 1.5");
  EXPECT_EQ(ParseFlags(Command(&f), {"--seed=x"}).error, "--seed takes an integer >= 0, not x");
  EXPECT_EQ(ParseFlags(Command(&f), {"--seed=-1"}).error, "--seed takes an integer >= 0, not -1");
  EXPECT_EQ(ParseFlags(Command(&f), {"--rate", "2x"}).error, "--rate takes a number > 0, not 2x");
  EXPECT_EQ(ParseFlags(Command(&f), {"--rate", "inf"}).error,
            "--rate takes a number > 0, not inf");
  EXPECT_EQ(ParseFlags(Command(&f), {"--functional", "2"}).error,
            "--functional takes 0 or 1, not 2");
  EXPECT_EQ(ParseFlags(Command(&f), {"--color", "green"}).error,
            "--color takes one of red|blue, not green");
  // Out of the field's range: --warmup is an int.
  EXPECT_EQ(ParseFlags(Command(&f), {"--warmup=9999999999"}).error,
            "--warmup takes an integer >= 0, not 9999999999");
  EXPECT_EQ(f.points, 10);
  EXPECT_EQ(f.seed, 1u);
  EXPECT_EQ(f.rate, 1.0);
  EXPECT_EQ(f.count, -1);
}

TEST(FlagsTest, LowerBoundsAreEnforced) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"--points=0"}).error,
            "--points takes an integer > 0, not 0");
  EXPECT_EQ(ParseFlags(Command(&f), {"--rate", "0"}).error, "--rate takes a number > 0, not 0");
  EXPECT_EQ(ParseFlags(Command(&f), {"--warmup=-3"}).error,
            "--warmup takes an integer >= 0, not -3");
  ASSERT_TRUE(ParseFlags(Command(&f), {"--warmup=0", "--rate=1e-3"}).ok());
  EXPECT_EQ(f.count, 0);
  EXPECT_EQ(f.rate, 1e-3);
}

TEST(FlagsTest, FractionBoundIsEnforced) {
  double churn = 0.5;
  const FlagCommand command{
      "tool [flags]", {{"churn", "F", "a fraction", &churn, FlagBound::kFraction}}};
  EXPECT_EQ(ParseFlags(command, {"--churn=2"}).error, "--churn takes a number in [0, 1], not 2");
  EXPECT_EQ(ParseFlags(command, {"--churn=-0.1"}).error,
            "--churn takes a number in [0, 1], not -0.1");
  ASSERT_TRUE(ParseFlags(command, {"--churn=1"}).ok());
  EXPECT_EQ(churn, 1.0);
  ASSERT_TRUE(ParseFlags(command, {"--churn=0"}).ok());
  EXPECT_EQ(churn, 0.0);
}

TEST(FlagsTest, UnknownFlagIsAnError) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"--no-such-flag"}).error, "unknown flag --no-such-flag");
  EXPECT_EQ(ParseFlags(Command(&f), {"--no-such-flag=3"}).error, "unknown flag --no-such-flag");
}

TEST(FlagsTest, FirstErrorWins) {
  Fields f;
  EXPECT_EQ(ParseFlags(Command(&f), {"--points=0", "--bogus"}).error,
            "--points takes an integer > 0, not 0");
}

TEST(FlagsTest, HelpAnywhereWinsOverErrors) {
  Fields f;
  const ParsedFlags parsed = ParseFlags(Command(&f), {"--bogus", "--help"});
  EXPECT_TRUE(parsed.help);
  EXPECT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.error.empty());
}

TEST(FlagsTest, RequiredFlagMustBeGiven) {
  std::string out;
  const FlagCommand command{"tool gen --out=FILE",
                            {{"out", "FILE", "file to write", &out, FlagBound::kNone, true}}};
  EXPECT_EQ(ParseFlags(command, {}).error, "--out is required");
  ASSERT_TRUE(ParseFlags(command, {"--out=x"}).ok());
  EXPECT_EQ(out, "x");
}

TEST(FlagsTest, UsageIsGeneratedFromTheTable) {
  Fields f;
  FlagCommand command = Command(&f);
  command.flags.resize(2);
  command.flags.push_back({"layers", "", "print layers\nand more", FlagSwitch{&f.on}});
  command.flags.push_back({"a-very-long-flag-name", "VALUE", "help", &f.file});
  EXPECT_EQ(FlagUsage(command),
            "usage: tool [flags]\n"
            "  --json=FILE             write a report\n"
            "  --warmup=N              unmeasured runs\n"
            "  --layers                print layers\n"
            "                          and more\n"
            "  --a-very-long-flag-name=VALUE\n"
            "                          help\n");
}

TEST(FlagsTest, ExitStatusFollowsTheOutcome) {
  Fields f;
  const FlagCommand command = Command(&f);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(FlagExit(command, ParseFlags(command, {"--help"})), 0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), FlagUsage(command));

  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(FlagExit(command, ParseFlags(command, {"--bogus"})), 2);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "tool: unknown flag --bogus\n" + FlagUsage(command));
}

}  // namespace
}  // namespace minuet
