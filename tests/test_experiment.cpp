#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ntcsim::sim {
namespace {

Metrics with(double ipc) {
  Metrics m;
  m.ipc = ipc;
  m.tx_per_kilocycle = ipc * 10;
  return m;
}

Matrix tiny_matrix() {
  Matrix m;
  for (WorkloadKind wl : {WorkloadKind::kSps, WorkloadKind::kRbtree}) {
    m[wl][Mechanism::kOptimal] = with(4.0);
    m[wl][Mechanism::kTc] = with(3.9);
    m[wl][Mechanism::kKiln] = with(3.5);
    m[wl][Mechanism::kSp] = with(1.2);
  }
  return m;
}

TEST(PrintFigure, NormalizesToOptimal) {
  std::ostringstream oss;
  print_figure(oss, "Figure X", tiny_matrix(),
               [](const Metrics& m) { return m.ipc; }, "caption");
  const std::string out = oss.str();
  EXPECT_NE(out.find("Figure X"), std::string::npos);
  EXPECT_NE(out.find("0.975"), std::string::npos);  // 3.9 / 4.0
  EXPECT_NE(out.find("0.300"), std::string::npos);  // 1.2 / 4.0
  EXPECT_NE(out.find("1.000"), std::string::npos);  // Optimal column
  EXPECT_NE(out.find("gmean"), std::string::npos);
}

TEST(PrintFigure, GmeanRowIsGeometric) {
  Matrix m = tiny_matrix();
  // Make the two workloads differ so gmean != arithmetic mean.
  m[WorkloadKind::kSps][Mechanism::kSp] = with(4.0);     // 1.0 normalized
  m[WorkloadKind::kRbtree][Mechanism::kSp] = with(1.0);  // 0.25 normalized
  std::ostringstream oss;
  print_figure(oss, "F", m, [](const Metrics& x) { return x.ipc; }, "c");
  // gmean(1.0, 0.25) = 0.5; arithmetic would be 0.625.
  EXPECT_NE(oss.str().find("0.500"), std::string::npos);
}

TEST(PrintFigure, ZeroBaselineDoesNotDivide) {
  Matrix m = tiny_matrix();
  m[WorkloadKind::kSps][Mechanism::kOptimal] = with(0.0);
  std::ostringstream oss;
  print_figure(oss, "F", m, [](const Metrics& x) { return x.ipc; }, "c");
  EXPECT_NE(oss.str().find("0.000"), std::string::npos);
}

TEST(PrintPaperFigures, PrintsFigures6To10InOrderFromOneMatrix) {
  Matrix m = tiny_matrix();
  for (auto& [wl, row] : m) {
    row[Mechanism::kSp].nvm_writes = 2000;
    row[Mechanism::kTc].nvm_writes = 1100;
    row[Mechanism::kKiln].nvm_writes = 1050;
    row[Mechanism::kOptimal].nvm_writes = 1000;
  }
  std::ostringstream oss;
  print_paper_figures(oss, m);
  const std::string out = oss.str();
  std::size_t at = 0;
  for (const char* title :
       {"Figure 6: Performance improvements (IPC)\n",
        "Figure 7: Performance improvements (Throughput)\n",
        "Figure 8: LLC miss rate\n", "Figure 9: Write traffic to NVM\n",
        "Absolute NVM writes (lines) per workload:\n",
        "Figure 10: Persistent load latency\n"}) {
    at = out.find(title, at);
    ASSERT_NE(at, std::string::npos) << "missing or out of order: " << title;
  }
  EXPECT_EQ(out.find("Figure 6: "), 0u);
  // Fig. 9's absolute table: the raw counts of the paper's four
  // mechanisms, one row per workload, right before Fig. 10.
  const std::size_t abs = out.find("Absolute NVM writes");
  const std::string table = out.substr(abs, out.find("Figure 10: ") - abs);
  EXPECT_NE(table.find("\nworkload  SP    TC    Kiln  Optimal\n"),
            std::string::npos) << table;
  EXPECT_NE(table.find("\nsps       2000  1100  1050  1000   \n"),
            std::string::npos) << table;
  EXPECT_NE(table.find("\nrbtree    2000  1100  1050  1000   \n"),
            std::string::npos) << table;
  // ...and Fig. 9 itself is those counts normalized to Optimal.
  const std::size_t fig9 = out.find("Figure 9: ");
  EXPECT_NE(out.substr(fig9, abs - fig9).find("2.000"), std::string::npos);
}

TEST(ParseBenchArgs, ScaleFromArgvAndEnv) {
  char prog[] = "bench";
  char scale[] = "0.5";
  char* argv1[] = {prog, scale};
  EXPECT_DOUBLE_EQ(parse_bench_args(2, argv1).scale, 0.5);
  char* argv0[] = {prog};
  EXPECT_DOUBLE_EQ(parse_bench_args(1, argv0).scale, 1.0);
  char bad[] = "-3";
  char* argv2[] = {prog, bad};
  EXPECT_EXIT(parse_bench_args(2, argv2), ::testing::ExitedWithCode(1),
              "invalid value \"-3\"");  // rejected, never ignored
}

TEST(GeometricMeanEdge, RejectsNonPositive) {
  EXPECT_DEATH(geometric_mean({1.0, 0.0}), "positive");
}

}  // namespace
}  // namespace ntcsim::sim
