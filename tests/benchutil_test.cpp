//===- tests/benchutil_test.cpp - Shared bench helper tests ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit coverage for the pure parts of bench/BenchUtil.h: the order
/// statistics and geometric mean every bench reports, the order
/// alternation of paired runs, repetition calibration (driven by a
/// synthetic cell, not the clock), argument parsing, and the JSON
/// writer's escaping (support/StringUtils' jsonEscape) and nesting.
///
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace effective;
using namespace effective::bench;

TEST(BenchStats, MedianOfOddCountIsTheMiddleValue) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(median({9, 2, 7, 4, 1}), 4);
}

TEST(BenchStats, MedianOfEvenCountAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({10, 20}), 15);
}

TEST(BenchStats, QuartilesInterpolateBetweenOrderStatistics) {
  Summary S = summarize({4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(S.Q1, 1.75);
  EXPECT_DOUBLE_EQ(S.Median, 2.5);
  EXPECT_DOUBLE_EQ(S.Q3, 3.25);
  EXPECT_DOUBLE_EQ(S.iqr(), 1.5);

  Summary Five = summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(Five.Q1, 2);
  EXPECT_DOUBLE_EQ(Five.Q3, 4);
  EXPECT_DOUBLE_EQ(summarize({7}).iqr(), 0);
}

TEST(BenchStats, GeomeanOfRatios) {
  EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
  EXPECT_NEAR(geomean({1, 10, 100}), 10, 1e-12);
  EXPECT_NEAR(geomean({3.5}), 3.5, 1e-12);
}

TEST(BenchPairing, FirstSideFlipsEveryPair) {
  std::string Order;
  double NextA = 1, NextB = 2;
  Paired P = runPaired(
      5, [&] { Order += 'A'; return NextA++; },
      [&] { Order += 'B'; return NextB *= 2; });
  EXPECT_EQ(Order, "AB" "BA" "AB" "BA" "AB");
  ASSERT_EQ(P.Ratios.size(), 5u);
  for (size_t I = 0; I < P.Ratios.size(); ++I)
    EXPECT_DOUBLE_EQ(P.Ratios[I], P.B[I] / P.A[I]);
  EXPECT_DOUBLE_EQ(P.A[1], 2);
  EXPECT_DOUBLE_EQ(P.B[1], 8);
}

TEST(BenchCalibration, ReachesTheMinimumTime) {
  // A synthetic cell costing 0.7 ms per repetition.
  std::vector<unsigned> Trials;
  auto Cell = [&](unsigned Reps) {
    Trials.push_back(Reps);
    return Reps * 0.0007;
  };
  unsigned Reps = calibrateReps(0.05, Cell);
  EXPECT_GE(Reps * 0.0007, 0.05);
  EXPECT_LE(Reps * 0.0007, 0.05 * 1.5); // Not wildly past the target.
  EXPECT_EQ(Trials.back(), Reps);
  for (size_t I = 1; I < Trials.size(); ++I)
    EXPECT_LE(Trials[I], Trials[I - 1] * 10); // At most tenfold a step.

  // A cell already past the minimum runs once.
  EXPECT_EQ(calibrateReps(0.05, [](unsigned R) { return R * 0.2; }), 1u);
  // A cell below timer resolution still converges.
  EXPECT_GE(calibrateReps(0.05,
                          [](unsigned R) { return R < 100 ? 0.0 : R * 1e-4; }),
            500u);
}

TEST(BenchArgs, CountJsonAndNamedFlags) {
  const char *Argv[] = {"bench", "--trace=t.json", "42", "--json=out.json"};
  unsigned N = 7;
  const char *Json = nullptr, *Trace = nullptr;
  ASSERT_TRUE(parseArgs(4, const_cast<char **>(Argv), "", &N, &Json,
                        {{"--trace=", &Trace}}));
  EXPECT_EQ(N, 42u);
  EXPECT_STREQ(Json, "out.json");
  EXPECT_STREQ(Trace, "t.json");

  const char *Zero[] = {"bench", "0"};
  ASSERT_TRUE(parseArgs(2, const_cast<char **>(Zero), "", &N, &Json));
  EXPECT_EQ(N, 1u);
}

TEST(BenchArgs, RejectsWhatTheBenchDoesNotTake) {
  unsigned N = 0;
  const char *Json = nullptr;
  const char *Count[] = {"bench", "10"};
  EXPECT_FALSE(parseArgs(2, const_cast<char **>(Count), "", nullptr, &Json));
  const char *Junk[] = {"bench", "12x"};
  EXPECT_FALSE(parseArgs(2, const_cast<char **>(Junk), "", &N, &Json));
  const char *Huge[] = {"bench", "-1"};
  EXPECT_FALSE(parseArgs(2, const_cast<char **>(Huge), "", &N, &Json));
  const char *NoJson[] = {"bench", "--json=x"};
  EXPECT_FALSE(parseArgs(2, const_cast<char **>(NoJson), "", &N, nullptr));
}

TEST(BenchJson, EscapesStrings) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9"); // UTF-8 passes.

  JsonWriter J;
  J.str("k\"ey", "v\\al\n");
  EXPECT_EQ(J.text(), "{\n  \"k\\\"ey\": \"v\\\\al\\n\"\n}\n");
}

TEST(BenchJson, WritesNestedDocument) {
  JsonWriter J;
  J.str("bench", "x\"y").count("n", 3).flag("ok", true);
  J.array("rows").object().num("r", 1.5, 1).end().object().end().end();
  J.object("empty").end().num("inf", 1.0 / 0.0);
  EXPECT_EQ(J.text(), "{\n"
                      "  \"bench\": \"x\\\"y\",\n"
                      "  \"n\": 3,\n"
                      "  \"ok\": true,\n"
                      "  \"rows\": [\n"
                      "    {\n"
                      "      \"r\": 1.5\n"
                      "    },\n"
                      "    {}\n"
                      "  ],\n"
                      "  \"empty\": {},\n"
                      "  \"inf\": null\n"
                      "}\n");
}
