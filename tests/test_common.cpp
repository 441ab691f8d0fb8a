#include <gtest/gtest.h>

#include "../bench/bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/field.hpp"
#include "common/str.hpp"
#include "common/timer.hpp"

namespace cosmo {
namespace {

TEST(Error, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "bad"), InvalidArgument);
  EXPECT_THROW(require_format(false, "bad"), FormatError);
  // Literal and built messages reach what() unchanged through either overload.
  const auto what = [](auto&& check) -> std::string {
    try {
      check();
    } catch (const Error& e) {
      return e.what();
    }
    return "no throw";
  };
  const std::string built = std::string("built ") + "message";
  EXPECT_EQ(what([] { require(false, "a literal longer than the small-string buffer"); }),
            "a literal longer than the small-string buffer");
  EXPECT_EQ(what([] { require_format(false, "a literal longer than the small-string buffer"); }),
            "a literal longer than the small-string buffer");
  EXPECT_EQ(what([&] { require(false, built); }), "built message");
  EXPECT_EQ(what([&] { require_format(false, built); }), "built message");
}

TEST(Error, HierarchyCatchableAsError) {
  try {
    throw IoError("disk on fire");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "disk on fire");
  }
}

TEST(Str, Printf) {
  EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strprintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strprintf("empty"), "empty");
}

TEST(Str, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Str, TrimAndCase) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(0), "0 B");
  EXPECT_EQ(human_bytes(999), "999 B");
  EXPECT_EQ(human_bytes(38000000000ull), "38 GB");
  EXPECT_EQ(human_bytes(6600000000ull), "6.6 GB");
}

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ":"), "a:b:c");
  EXPECT_EQ(join({}, ":"), "");
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 0.0);
}

TEST(RunningStats, MeanAndStddev) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Throughput, GbpsComputation) {
  EXPECT_DOUBLE_EQ(throughput_gbps(2000000000ull, 1.0), 2.0);
  EXPECT_EQ(throughput_gbps(100, 0.0), 0.0);
}

TEST(Cli, FlagForms) {
  // "--key value" consumes the next token, so bare flags must not precede
  // positionals; positionals go first (documented parser semantics).
  const char* argv[] = {"prog", "pos1", "--a=1", "--b", "2", "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_int("b", 0), 2);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(args.get_double("a", 0.0), 1.0);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, CountAcceptsWholeNonNegativeNumbers) {
  const char* argv[] = {"prog", "--threads", "4", "--seed=0", "--big", "18446744073709551615"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_count("threads", 1), 4u);
  EXPECT_EQ(args.get_count("seed", 42), 0u);
  EXPECT_EQ(args.get_count("big", 0), 18446744073709551615ull);
  EXPECT_EQ(args.get_count("missing", 7), 7u);
}

TEST(Cli, CountRejectsEverythingElseNamingTheFlag) {
  for (const char* bad : {"--probes=-1", "--probes=four", "--probes=12x", "--probes=",
                          "--probes=+3", "--probes= 3", "--probes=18446744073709551616"}) {
    const char* argv[] = {"prog", bad};
    CliArgs args(2, argv);
    try {
      (void)args.get_count("probes", 3);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--probes"), std::string::npos) << e.what();
    }
  }
}

TEST(Cli, IntAndDoubleRejectBadTextNamingTheFlag) {
  const char* argv[] = {"prog", "--priority", "-3", "--value=1e-3", "--tolerance", "2.5"};
  CliArgs good(6, argv);
  EXPECT_EQ(good.get_int("priority", 1), -3);
  EXPECT_DOUBLE_EQ(good.get_double("value", 0.1), 1e-3);
  EXPECT_DOUBLE_EQ(good.get_double("tolerance", 0.01), 2.5);
  EXPECT_EQ(good.get_int("missing", 7), 7);

  const auto expect_rejected = [](const char* bad, bool as_int) {
    const char* bad_argv[] = {"prog", bad};
    CliArgs args(2, bad_argv);
    try {
      if (as_int) {
        (void)args.get_int("flag", 1);
      } else {
        (void)args.get_double("flag", 0.1);
      }
      ADD_FAILURE() << bad << " was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--flag"), std::string::npos) << e.what();
    }
  };
  for (const char* bad : {"--flag=high", "--flag=", "--flag=12x", "--flag=1.5", "--flag= 3",
                          "--flag=99999999999999999999"}) {
    expect_rejected(bad, true);
  }
  for (const char* bad : {"--flag=abc", "--flag=", "--flag=1e-3x", "--flag=inf", "--flag=nan",
                          "--flag=1e999", "--flag= 1"}) {
    expect_rejected(bad, false);
  }
}

TEST(Env, FallbackBehaviour) {
  EXPECT_EQ(bench::env_size("COSMO_TEST_UNSET_VAR", 17u), 17u);
  ::setenv("COSMO_TEST_SET_VAR", "64", 1);
  EXPECT_EQ(bench::env_size("COSMO_TEST_SET_VAR", 17u), 64u);
  ::setenv("COSMO_TEST_BAD_VAR", "zzz", 1);
  EXPECT_EQ(bench::env_size("COSMO_TEST_BAD_VAR", 17u), 17u);
  EXPECT_EQ(bench::env_string("COSMO_TEST_UNSET_VAR", "x"), "x");
}

TEST(Dims, RankAndCount) {
  EXPECT_EQ(Dims::d1(10).rank(), 1);
  EXPECT_EQ(Dims::d2(4, 5).rank(), 2);
  EXPECT_EQ(Dims::d3(2, 3, 4).rank(), 3);
  EXPECT_EQ(Dims::d3(2, 3, 4).count(), 24u);
  EXPECT_EQ(Dims::d1(10).to_string(), "10");
  EXPECT_EQ(Dims::d3(2, 3, 4).to_string(), "2x3x4");
}

TEST(Dims, RowMajorIndexing) {
  const Dims d = Dims::d3(4, 3, 2);
  EXPECT_EQ(d.index(0, 0, 0), 0u);
  EXPECT_EQ(d.index(1, 0, 0), 1u);
  EXPECT_EQ(d.index(0, 1, 0), 4u);
  EXPECT_EQ(d.index(0, 0, 1), 12u);
  EXPECT_EQ(d.index(3, 2, 1), 23u);
}

TEST(Field, ConstructionAndReshape) {
  Field f("test", Dims::d1(6), {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(f.bytes(), 24u);
  const Field g = f.reshaped(Dims::d3(2, 2, 2));
  EXPECT_EQ(g.data.size(), 8u);
  EXPECT_FLOAT_EQ(g.data[5], 6.0f);
  EXPECT_FLOAT_EQ(g.data[7], 0.0f);  // padding
  EXPECT_THROW(f.reshaped(Dims::d1(3)), InvalidArgument);
}

TEST(Field, SizeMismatchRejected) {
  EXPECT_THROW(Field("bad", Dims::d1(5), {1.0f, 2.0f}), InvalidArgument);
}

TEST(Field, ValueRange) {
  const std::vector<float> v = {3.0f, -1.0f, 7.5f};
  const auto [lo, hi] = value_range(v);
  EXPECT_FLOAT_EQ(lo, -1.0f);
  EXPECT_FLOAT_EQ(hi, 7.5f);
  EXPECT_THROW(value_range(std::span<const float>()), InvalidArgument);
}

}  // namespace
}  // namespace cosmo
