// Tables 2 and 3 — the simulated machine configuration and the workload
// suite, printed from the same structs the simulator actually runs with
// (so the tables cannot drift from the implementation).
#include <iostream>
#include <string>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"
#include "workload/workloads.hpp"

int main(int argc, char** argv) {
  using namespace ntcsim;
  sim::parse_bench_args(argc, argv);  // no knobs, but argv is still checked
  const SystemConfig c = SystemConfig::paper();

  auto ns = [&](unsigned cycles) {
    return Table::fmt(static_cast<double>(cycles) / c.ghz, 1) + " ns";
  };

  Table t({"Device", "Description"});
  t.add_row({"CPU", std::to_string(c.cores) + " cores, " +
                        Table::fmt(c.ghz, 1) + " GHz, " +
                        std::to_string(c.core.issue_width) +
                        " issue, out of order (" +
                        std::to_string(c.core.rob_entries) + "-entry window)"});
  t.add_row({"L1 I/D", "Private, " + std::to_string(c.l1.size_bytes >> 10) +
                           " KB/core, " +
                           ns(c.l1.latency_cycles) + ", " +
                           std::to_string(c.l1.ways) + "-way"});
  t.add_row({"L2", "Private, " + std::to_string(c.l2.size_bytes >> 10) +
                       " KB/core, " +
                       ns(c.l2.latency_cycles) + ", " +
                       std::to_string(c.l2.ways) + "-way"});
  t.add_row({"L3 (LLC)", "Shared, " + std::to_string(c.llc.size_bytes >> 20) +
                             " MB, " +
                             ns(c.llc.latency_cycles) + ", " + std::to_string(c.llc.ways) + "-way"});
  t.add_row({"Transaction cache",
             "Private, " + std::to_string(c.ntc.size_bytes >> 10) +
                 " KB/core, fully-associative CAM FIFO (STT-RAM), " +
                 ns(c.ntc.latency_cycles)});
  t.add_row({"Memory controllers",
             std::to_string(c.nvm.read_queue) + "/" +
                 std::to_string(c.nvm.write_queue) +
                 "-entry read/write queue, read-first, write drain at " +
                 std::to_string(static_cast<int>(
                     c.nvm.drain_high_watermark * 100)) +
                 " % full; 2 controllers (DRAM + NVM)"});
  t.add_row({"NVM memory (STT-RAM)",
             std::to_string(c.address_space.nvm_bytes >> 30) + " GB, " +
                 std::to_string(c.nvm.ranks) + " ranks, " +
                 std::to_string(c.nvm.banks_per_rank) + " banks/rank, " +
                 std::to_string(c.nvm.timing.row_miss / 2) + "-ns read, " +
                 std::to_string((c.nvm.timing.row_miss +
                                 c.nvm.timing.write_extra) / 2) +
                 "-ns write"});
  t.add_row({"DRAM memory", std::to_string(c.address_space.dram_bytes >> 30) +
                                " GB, " + std::to_string(c.dram.ranks) +
                                " ranks, " +
                                std::to_string(c.dram.banks_per_rank) +
                                " banks/rank"});
  std::cout << "Table 2: Machine Configuration\n";
  t.print(std::cout);

  std::cout << "\nTable 3: Workloads\n";
  Table w({"Name", "Description", "setup", "measured ops"});
  for (WorkloadKind kind :
       {WorkloadKind::kGraph, WorkloadKind::kRbtree, WorkloadKind::kSps,
        WorkloadKind::kBtree, WorkloadKind::kHashtable}) {
    const auto p = workload::default_params(kind);
    w.add_row({std::string(to_string(kind)), std::string(workload::description(kind)),
               std::to_string(p.setup_elems), std::to_string(p.ops)});
  }
  w.print(std::cout);
  return 0;
}
