#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table.h"

namespace rfidclean {
namespace {

// --- Status / Result ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad input");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad input");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllConstructorsSetMatchingCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusTest, StreamOperatorPrintsToString) {
  std::ostringstream os;
  os << NotFoundError("missing");
  EXPECT_EQ(os.str(), "NOT_FOUND: missing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("nothing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string value = std::move(result).value();
  EXPECT_EQ(value, "payload");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RFID_ASSIGN_OR_RETURN(int half, Half(x));
  RFID_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(7).ok());
}

// --- Rng -------------------------------------------------------------------

TEST(RngTest, DeterministicUnderSameSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint32(), b.NextUint32());
  }
}

TEST(RngTest, DistinctStreamsDiffer) {
  Rng a(123, 1);
  Rng b(123, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint32() == b.NextUint32()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(5);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, BernoulliExtremesAreDeterministic) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateIsRoughlyCorrect) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, UniformIndexStaysInRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformIndex(7), 7u);
  }
}

// --- SmallVector ------------------------------------------------------------

TEST(SmallVectorTest, StartsEmpty) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.HeapBytes(), 0u);
}

TEST(SmallVectorTest, InlineStorageHoldsUpToN) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.HeapBytes(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVectorTest, SpillsToHeapBeyondN) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 6; ++i) v.push_back(i * 10);
  EXPECT_EQ(v.size(), 6u);
  EXPECT_GT(v.HeapBytes(), 0u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(v[static_cast<std::size_t>(i)], i * 10);
  }
}

TEST(SmallVectorTest, PopBackAcrossBoundary) {
  SmallVector<int, 2> v{1, 2, 3};
  v.pop_back();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
  v.pop_back();
  EXPECT_EQ(v.back(), 1);
}

TEST(SmallVectorTest, CopyPreservesElements) {
  SmallVector<int, 2> v{1, 2, 3, 4};
  SmallVector<int, 2> copy(v);
  EXPECT_EQ(copy, v);
  copy.push_back(5);
  EXPECT_FALSE(copy == v);
}

TEST(SmallVectorTest, MoveLeavesSourceEmpty) {
  SmallVector<int, 2> v{1, 2, 3};
  SmallVector<int, 2> moved(std::move(v));
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_TRUE(v.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(SmallVectorTest, EqualityIsElementWise) {
  SmallVector<int, 4> a{1, 2};
  SmallVector<int, 4> b{1, 2};
  SmallVector<int, 4> c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SmallVectorTest, ForEachVisitsAllElementsIncludingSpilled) {
  SmallVector<int, 2> v{1, 2, 3, 4, 5};
  int sum = 0;
  v.ForEach([&sum](int x) { sum += x; });
  EXPECT_EQ(sum, 15);
}

TEST(SmallVectorTest, IterationWorksWhileInline) {
  SmallVector<int, 4> v{7, 8, 9};
  int sum = 0;
  for (int x : v) sum += x;
  EXPECT_EQ(sum, 24);
}

TEST(SmallVectorTest, ClearResetsState) {
  SmallVector<int, 2> v{1, 2, 3};
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(9);
  EXPECT_EQ(v[0], 9);
}


class SmallVectorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SmallVectorPropertyTest, BehavesLikeStdVector) {
  // Reference-model property test: a random operation sequence applied to
  // SmallVector and std::vector must stay observationally identical across
  // the inline/heap boundary.
  Rng rng(static_cast<std::uint64_t>(GetParam()), /*stream=*/81);
  SmallVector<int, 3> actual;
  std::vector<int> expected;
  for (int step = 0; step < 200; ++step) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {
        int value = rng.UniformInt(-100, 100);
        actual.push_back(value);
        expected.push_back(value);
        break;
      }
      case 1:
        if (!expected.empty()) {
          actual.pop_back();
          expected.pop_back();
        }
        break;
      case 2:
        if (rng.Bernoulli(0.1)) {
          actual.clear();
          expected.clear();
        }
        break;
      default: {
        // Copy round trip must preserve contents.
        SmallVector<int, 3> copy(actual);
        ASSERT_EQ(copy, actual);
        break;
      }
    }
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "index " << i;
    }
    int sum_actual = 0;
    actual.ForEach([&sum_actual](int v) { sum_actual += v; });
    int sum_expected = 0;
    for (int v : expected) sum_expected += v;
    ASSERT_EQ(sum_actual, sum_expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmallVectorPropertyTest,
                         ::testing::Range(0, 15));

// --- Strings ----------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleToken) {
  auto parts = StrSplit("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(StrJoin(parts, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringsTest, HumanBytesScales) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(640 * 1024), "640.0 KiB");
  EXPECT_EQ(HumanBytes(25 * 1024 * 1024), "25.0 MiB");
}

TEST(StringsTest, TokenizeSplitsOnSpacesAndTabs) {
  EXPECT_EQ(Tokenize("  node 1\t2  3,4 "),
            (std::vector<std::string>{"node", "1", "2", "3,4"}));
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize(" \t ").empty());
}

TEST(ParseNumberTest, ReadsTheWholeToken) {
  int value = 0;
  EXPECT_TRUE(ParseNumber("42", &value));
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(ParseNumber("-7", &value));
  EXPECT_EQ(value, -7);
  for (const char* bad : {"", "abc", "4x", "1.5", " 1", "1 ", "+1", "--1"}) {
    EXPECT_FALSE(ParseNumber(bad, &value)) << "'" << bad << "'";
  }
}

TEST(ParseNumberTest, SignOnlyForSignedTypes) {
  std::uint64_t unsigned_value = 0;
  EXPECT_FALSE(ParseNumber("-1", &unsigned_value));
  EXPECT_TRUE(ParseNumber("18446744073709551615", &unsigned_value));
  EXPECT_EQ(unsigned_value, UINT64_MAX);
}

TEST(ParseNumberTest, ReportsOverflowSeparatelyFromMalformedText) {
  int narrow = 0;
  bool out_of_range = false;
  EXPECT_FALSE(ParseNumber("2147483648", &narrow, &out_of_range));
  EXPECT_TRUE(out_of_range);
  EXPECT_TRUE(ParseNumber("2147483647", &narrow, &out_of_range));
  EXPECT_FALSE(out_of_range);
  EXPECT_FALSE(ParseNumber("12ab", &narrow, &out_of_range));
  EXPECT_FALSE(out_of_range);
  std::int64_t wide = 0;
  EXPECT_TRUE(ParseNumber("5000000000", &wide));
  EXPECT_EQ(wide, 5000000000LL);
  EXPECT_FALSE(ParseNumber("99999999999999999999", &wide, &out_of_range));
  EXPECT_TRUE(out_of_range);
}

TEST(ParseNumberTest, DoublesPassInfAndNanThrough) {
  double value = 0.0;
  EXPECT_TRUE(ParseNumber("0.25", &value));
  EXPECT_EQ(value, 0.25);
  EXPECT_TRUE(ParseNumber("1e-3", &value));
  EXPECT_EQ(value, 1e-3);
  // Finiteness is the caller's check (io/ names the non-finite field).
  EXPECT_TRUE(ParseNumber("inf", &value));
  EXPECT_TRUE(std::isinf(value));
  EXPECT_TRUE(ParseNumber("nan", &value));
  EXPECT_TRUE(std::isnan(value));
  EXPECT_FALSE(ParseNumber("", &value));
  EXPECT_FALSE(ParseNumber("0.5x", &value));
  bool out_of_range = false;
  EXPECT_FALSE(ParseNumber("1e999", &value, &out_of_range));
  EXPECT_TRUE(out_of_range);
}

// --- Flags ------------------------------------------------------------------

const std::vector<FlagSpec> kTestFlags = {
    {"dir", FlagSpec::kText},        {"jobs", FlagSpec::kPositiveInt},
    {"tags", FlagSpec::kNonNegativeInt},     {"tag", FlagSpec::kInt64},
    {"audit", FlagSpec::kSwitch},    {"stats", FlagSpec::kOptional},
    {"time", FlagSpec::kInt}};

Result<Flags> ParseTestFlags(std::vector<const char*> args) {
  return Flags::Parse(kTestFlags, static_cast<int>(args.size()), args.data());
}

std::string ParseError(std::vector<const char*> args) {
  Result<Flags> flags = ParseTestFlags(std::move(args));
  return flags.ok() ? "ok" : flags.status().message();
}

TEST(FlagsTest, SpaceAndEqualsFormsTakeAValue) {
  Result<Flags> flags =
      ParseTestFlags({"--dir", "d1", "--jobs=4", "--tag", "5000000000"});
  ASSERT_TRUE(flags.ok()) << flags.status();
  EXPECT_EQ(flags->Get("dir"), "d1");
  EXPECT_EQ(flags->GetInt("jobs", 1), 4);
  EXPECT_EQ(flags->GetInt64("tag", 0), 5000000000LL);
  EXPECT_EQ(flags->GetInt("time", -3), -3);  // absent: the fallback
  EXPECT_EQ(flags->Get("absent", "x"), "x");
  EXPECT_FALSE(flags->help());
}

TEST(FlagsTest, SwitchesAreBare) {
  Result<Flags> flags = ParseTestFlags({"--audit", "--dir", "d"});
  ASSERT_TRUE(flags.ok()) << flags.status();
  EXPECT_TRUE(flags->Has("audit"));
  EXPECT_FALSE(flags->Has("stats"));
  EXPECT_EQ(ParseError({"--audit=1"}), "--audit takes no value");
  // A switch never swallows the next token, so this one is stray.
  EXPECT_EQ(ParseError({"--audit", "0"}), "unexpected argument '0'");
}

TEST(FlagsTest, OptionalValueIsBareOrGiven) {
  Result<Flags> bare = ParseTestFlags({"--stats", "--dir", "d"});
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_TRUE(bare->Has("stats"));
  EXPECT_EQ(bare->Get("stats", "stdout"), "stdout");
  Result<Flags> last = ParseTestFlags({"--dir", "d", "--stats"});
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(last->Get("stats", "stdout"), "stdout");
  Result<Flags> equals = ParseTestFlags({"--stats=s.json"});
  ASSERT_TRUE(equals.ok()) << equals.status();
  EXPECT_EQ(equals->Get("stats", "stdout"), "s.json");
  Result<Flags> spaced = ParseTestFlags({"--stats", "s.json"});
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ(spaced->Get("stats", "stdout"), "s.json");
}

TEST(FlagsTest, UsageErrorsNameTheFlag) {
  EXPECT_EQ(ParseError({"--job", "4"}), "unknown flag --job");
  EXPECT_EQ(ParseError({"--dir"}), "missing value for --dir");
  EXPECT_EQ(ParseError({"--dir", "--audit"}), "missing value for --dir");
  EXPECT_EQ(ParseError({"--dir", "d", "stray"}),
            "unexpected argument 'stray'");
  EXPECT_EQ(ParseError({"-x"}), "unexpected argument '-x'");
}

TEST(FlagsTest, NumbersAreStrictAndRangeChecked) {
  EXPECT_EQ(ParseError({"--time", "abc"}), "--time must be an integer");
  EXPECT_EQ(ParseError({"--time", "12x"}), "--time must be an integer");
  EXPECT_EQ(ParseError({"--time", "2147483648"}),
            "--time must be an integer");
  EXPECT_EQ(ParseError({"--jobs", "0"}), "--jobs must be a positive integer");
  EXPECT_EQ(ParseError({"--jobs=abc"}), "--jobs must be a positive integer");
  EXPECT_EQ(ParseError({"--tags", "-3"}),
            "--tags must be a non-negative integer");
  EXPECT_EQ(ParseError({"--tag", "99999999999999999999"}),
            "--tag must be an integer");
  // Negative values are values, not flags.
  Result<Flags> negative = ParseTestFlags({"--time", "-5"});
  ASSERT_TRUE(negative.ok()) << negative.status();
  EXPECT_EQ(negative->GetInt("time", 0), -5);
}

TEST(FlagsTest, HelpAndRepeatedFlags) {
  Result<Flags> flags = ParseTestFlags({"--jobs", "2", "-h", "--jobs", "3"});
  ASSERT_TRUE(flags.ok()) << flags.status();
  EXPECT_TRUE(flags->help());
  EXPECT_EQ(flags->GetInt("jobs", 1), 3);  // the last one wins
  Result<Flags> long_help = ParseTestFlags({"--help"});
  ASSERT_TRUE(long_help.ok());
  EXPECT_TRUE(long_help->help());
}

// --- Table ------------------------------------------------------------------

TEST(TableTest, PrintsAlignedColumns) {
  Table table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

// --- Stopwatch ---------------------------------------------------------------

TEST(StopwatchTest, ElapsedIsMonotonic) {
  Stopwatch stopwatch;
  double first = stopwatch.ElapsedMicros();
  double second = stopwatch.ElapsedMicros();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  stopwatch.Reset();
  EXPECT_GE(stopwatch.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace rfidclean
