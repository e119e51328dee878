#include <gtest/gtest.h>

#include "common/flags.hpp"

namespace prophet {
namespace {

Flags parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  const auto flags = Flags::parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.has_value());
  return *flags;
}

TEST(Flags, SpaceSeparatedValues) {
  const Flags f = parse({"--model", "resnet50", "--batch", "64"});
  EXPECT_EQ(f.get("model", std::string{}), "resnet50");
  EXPECT_EQ(f.get("batch", std::int64_t{0}), 64);
}

TEST(Flags, EqualsSeparatedValues) {
  const Flags f = parse({"--gbps=2.5", "--strategy=prophet"});
  EXPECT_DOUBLE_EQ(f.get("gbps", 0.0), 2.5);
  EXPECT_EQ(f.get("strategy", std::string{}), "prophet");
}

TEST(Flags, BooleanForms) {
  const Flags f = parse({"--asp", "--trace", "out.json", "--verbose=yes"});
  EXPECT_TRUE(f.get("asp", false));
  EXPECT_TRUE(f.get("verbose", false));
  EXPECT_EQ(f.get("trace", std::string{}), "out.json");
  EXPECT_FALSE(f.get("absent", false));
  EXPECT_TRUE(f.get("absent", true));
}

TEST(Flags, TrailingBooleanFlag) {
  const Flags f = parse({"--workers", "4", "--asp"});
  EXPECT_EQ(f.get("workers", std::int64_t{0}), 4);
  EXPECT_TRUE(f.get("asp", false));
}

TEST(Flags, PositionalArguments) {
  const Flags f = parse({"first", "--x", "1", "second"});
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"first", "second"}));
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.get("model", std::string{"fallback"}), "fallback");
  EXPECT_DOUBLE_EQ(f.get("gbps", 3.5), 3.5);
  EXPECT_EQ(f.get("n", std::int64_t{7}), 7);
  EXPECT_FALSE(f.has("model"));
}

TEST(Flags, NamesLists) {
  const Flags f = parse({"--b", "2", "--a=1"});
  EXPECT_EQ(f.names(), (std::vector<std::string>{"a", "b"}));
}

TEST(Flags, BareDashDashIsError) {
  std::vector<const char*> args{"prog", "--"};
  std::string error;
  const auto flags =
      Flags::parse(static_cast<int>(args.size()), args.data(), &error);
  EXPECT_FALSE(flags.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Flags, NumbersParseWhole) {
  const Flags f = parse({"--workers", "-1", "--gbps", "-2.5", "--n", "+7"});
  EXPECT_EQ(f.get("workers", std::int64_t{0}), -1);
  EXPECT_DOUBLE_EQ(f.get("gbps", 0.0), -2.5);
  EXPECT_EQ(f.get("n", std::int64_t{0}), 7);
  EXPECT_EQ(f.get_count("n", 0), 7u);
  EXPECT_EQ(f.get_count("absent", 3), 3u);
}

TEST(FlagsDeathTest, IntegerWithTrailingCharactersAborts) {
  const Flags f = parse({"--workers", "3x"});
  EXPECT_DEATH((void)f.get("workers", std::int64_t{0}),
               "--workers '3x' is not an integer");
}

TEST(FlagsDeathTest, NonNumericIntegerAborts) {
  const Flags f = parse({"--workers", "abc", "--seed=0x10"});
  EXPECT_DEATH((void)f.get("workers", std::int64_t{0}), "--workers 'abc'");
  EXPECT_DEATH((void)f.get("seed", std::int64_t{0}), "--seed '0x10'");
}

TEST(FlagsDeathTest, EmptyOrMissingValueAborts) {
  // `--iterations=` carries an empty value; a bare `--workers` reads "true".
  const Flags f = parse({"--iterations=", "--workers"});
  EXPECT_DEATH((void)f.get("iterations", std::int64_t{0}), "--iterations ''");
  EXPECT_DEATH((void)f.get("workers", std::int64_t{0}), "--workers 'true'");
  EXPECT_DEATH((void)f.get("iterations", 0.0), "--iterations '' is not a number");
}

TEST(FlagsDeathTest, OutOfRangeAborts) {
  const Flags f =
      parse({"--seed", "99999999999999999999", "--gbps", "1e999", "--x", "inf"});
  EXPECT_DEATH((void)f.get("seed", std::int64_t{0}), "--seed");
  EXPECT_DEATH((void)f.get("gbps", 0.0), "--gbps '1e999' is not a number");
  EXPECT_DEATH((void)f.get("x", 0.0), "--x 'inf'");
}

TEST(FlagsDeathTest, DoubleWithTrailingCharactersAborts) {
  const Flags f = parse({"--gbps", "2.5Gb"});
  EXPECT_DEATH((void)f.get("gbps", 0.0), "--gbps '2.5Gb' is not a number");
}

TEST(Flags, BooleanSpellings) {
  // The bare `--smoke --out PATH` form the bench smoke tests use reads true.
  const Flags f = parse({"--smoke", "--out", "x.json", "--a=1", "--b=yes", "--c=false",
                         "--d=0", "--e=no"});
  EXPECT_TRUE(f.get("smoke", false));
  EXPECT_TRUE(f.get("a", false));
  EXPECT_TRUE(f.get("b", false));
  EXPECT_FALSE(f.get("c", true));
  EXPECT_FALSE(f.get("d", true));
  EXPECT_FALSE(f.get("e", true));
}

TEST(FlagsDeathTest, UnknownBooleanSpellingAborts) {
  // `--asp=on` once read as false and silently ran BSP.
  const Flags f = parse({"--asp=on", "--verbose=True", "--big="});
  EXPECT_DEATH((void)f.get("asp", false), "--asp 'on' is not a boolean");
  EXPECT_DEATH((void)f.get("verbose", false), "--verbose 'True' is not a boolean");
  EXPECT_DEATH((void)f.get("big", true), "--big '' is not a boolean");
}

TEST(FlagsDeathTest, BooleanFlagSwallowingAValueAborts) {
  // `--asp 4` takes "4" as the flag's value; it must not read as false.
  const Flags f = parse({"--asp", "4"});
  EXPECT_DEATH((void)f.get("asp", false), "--asp '4' is not a boolean");
}

TEST(FlagsDeathTest, NegativeCountAborts) {
  // What run_experiment reads --workers, --iterations, --jobs, ... through:
  // -1 must not wrap to 2^64 - 1 workers.
  const Flags f = parse({"--workers", "-1"});
  EXPECT_DEATH((void)f.get_count("workers", 3), "--workers must not be negative");
}

}  // namespace
}  // namespace prophet
