//===- tests/support_test.cpp - PRNG, tables, timers ---------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "support/benchjson.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

using namespace etch;

namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng A(123), B(123), C(124);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  bool Differs = false;
  Rng A2(123);
  for (int I = 0; I < 100; ++I)
    Differs |= A2.next() != C.next();
  EXPECT_TRUE(Differs);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng R(1);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng R(2);
  std::vector<int> Counts(10, 0);
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    ++Counts[R.nextBelow(10)];
  for (int C : Counts) {
    EXPECT_GT(C, N / 10 - N / 50);
    EXPECT_LT(C, N / 10 + N / 50);
  }
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(3);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextInRange(-2, 2);
    EXPECT_GE(V, -2);
    EXPECT_LE(V, 2);
    SawLo |= V == -2;
    SawHi |= V == 2;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng R(4);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, SampleDistinctSortedProperties) {
  Rng R(5);
  for (auto [Count, Universe] :
       {std::pair<uint64_t, uint64_t>{0, 10},
        {1, 1},
        {10, 10},
        {5, 1000},
        {100, 120}}) {
    auto S = R.sampleDistinctSorted(Count, Universe);
    EXPECT_EQ(S.size(), Count);
    EXPECT_TRUE(std::is_sorted(S.begin(), S.end()));
    EXPECT_TRUE(std::adjacent_find(S.begin(), S.end()) == S.end());
    for (uint64_t V : S)
      EXPECT_LT(V, Universe);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng R(6);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  auto Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Table, AlignsColumns) {
  ResultTable T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.toString();
  EXPECT_NE(Out.find("name    value"), std::string::npos);
  EXPECT_NE(Out.find("longer  22"), std::string::npos);
}

TEST(Table, CsvEscapesNothingButDelimits) {
  ResultTable T({"a", "b"});
  T.addRow({"1", "2"});
  EXPECT_EQ(T.toCsv(), "a,b\n1,2\n");
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(ResultTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(ResultTable::num(int64_t{-42}), "-42");
}

TEST(Table, ShortRowsArePadded) {
  ResultTable T({"a", "b", "c"});
  T.addRow({"1"});
  EXPECT_NE(T.toString().find("1"), std::string::npos);
}

TEST(BenchJson, EmitsOneObjectPerRow) {
  BenchJson J;
  J.add("spmv", "density=0.01", 4, 0.00125);
  J.add("mttkrp", "serial", 1, 2.5);
  std::string Out = J.toJson();
  EXPECT_EQ(J.size(), 2u);
  EXPECT_NE(Out.find("{\"bench\": \"spmv\", \"config\": \"density=0.01\", "
                     "\"threads\": 4, \"best_seconds\": 0.00125}"),
            std::string::npos);
  EXPECT_NE(Out.find("\"bench\": \"mttkrp\""), std::string::npos);
  // Top-level shape: an object with the host block first, then the rows.
  EXPECT_EQ(Out.front(), '{');
  EXPECT_NE(Out.find("\"host\": {"), std::string::npos);
  EXPECT_NE(Out.find("\"rows\": ["), std::string::npos);
  EXPECT_EQ(Out[Out.size() - 2], '}');
}

TEST(BenchJson, HostBlockRecordsMachineMetadata) {
  std::string Host = BenchJson::hostJson();
  EXPECT_NE(Host.find("\"cpu\": \""), std::string::npos);
  EXPECT_NE(Host.find("\"cores\": "), std::string::npos);
}

TEST(BenchJson, AccessCostRowCarriesBothCostTerms) {
  BenchJson J;
  J.add("tiles", "spmv/tile=2048", 1, 0.25, 100.0, 12.5);
  std::string Out = J.toJson();
  EXPECT_NE(Out.find("\"planner_cost\": 100"), std::string::npos);
  EXPECT_NE(Out.find("\"planner_access_cost\": 12.5"), std::string::npos);
}

TEST(BenchJson, EscapesQuotesAndControlChars) {
  BenchJson J;
  J.add("a\"b", "c\\d\ne", 1, 0.0);
  std::string Out = J.toJson();
  EXPECT_NE(Out.find("a\\\"b"), std::string::npos);
  EXPECT_NE(Out.find("c\\\\d\\ne"), std::string::npos);
}

TEST(BenchJson, WritesFile) {
  BenchJson J;
  J.add("bench", "cfg", 2, 0.5);
  std::string Path = ::testing::TempDir() + "benchjson_test.json";
  ASSERT_TRUE(J.writeFile(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[512] = {0};
  size_t N = std::fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  std::remove(Path.c_str());
  EXPECT_EQ(std::string(Buf, N), J.toJson());
}

TEST(Timer, MeasuresElapsedTime) {
  Timer T;
  double First = T.seconds();
  EXPECT_GE(First, 0.0);
  // Monotone: later reads never go backwards (the clock may be coarse
  // enough that a short busy loop reads as zero, so only order is checked).
  volatile double X = 0;
  for (int I = 0; I < 100000; ++I)
    X += I;
  (void)X;
  EXPECT_GE(T.seconds(), First);
  T.reset();
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(Timer, TimeBestTakesMinimum) {
  int Calls = 0;
  double Best = timeBest([&] { ++Calls; }, 5);
  EXPECT_EQ(Calls, 5);
  EXPECT_GE(Best, 0.0);
}

} // namespace
