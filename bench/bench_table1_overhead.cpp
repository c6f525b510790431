// Table 1 — summary of major hardware overhead, computed from the machine
// configuration exactly as §4.4 does: a 4 KB per-core transaction cache
// with one line per transaction bounds TxIDs at 64, so all TxID state is
// 16 bits; P/V and entry-state flags are single bits.
#include <cmath>
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ntcsim;
  sim::parse_bench_args(argc, argv);  // no knobs, but argv is still checked
  const SystemConfig cfg = SystemConfig::paper();

  const std::uint64_t ntc_entries = cfg.ntc.entries();
  // §4.4: "4 * 1024 / 64 = 64 executed transactions on a core" -> 16-bit
  // TxID registers and array fields (the paper rounds 6 bits up to a
  // 16-bit architectural register).
  const unsigned txid_bits = 16;

  Table t({"Component", "Type", "Size"});
  t.add_row({"CPU TxID/Mode register", "flip-flops",
             std::to_string(txid_bits) + " bits"});
  t.add_row({"CPU Next TxID register", "flip-flops",
             std::to_string(txid_bits) + " bits"});
  t.add_row({"Cache P/V flag (per line)", "SRAM", "1 bit"});
  t.add_row({"NTC TxID in data array (per entry)", "STTRAM",
             std::to_string(txid_bits) + " bits"});
  t.add_row({"NTC State in data array (per entry)", "STTRAM", "1 bit"});
  t.add_row({"NTC head/tail pointer", "flip-flops",
             "2 x " + std::to_string(static_cast<int>(
                          std::ceil(std::log2(ntc_entries)))) +
                 " bits"});
  t.add_row({"NTC data array (per core)", "STTRAM",
             std::to_string(cfg.ntc.size_bytes >> 10) + " KB (" +
                 std::to_string(ntc_entries) + " x 64 B entries)"});
  std::cout << "Table 1: Summary of major hardware overhead\n";
  t.print(std::cout);

  // Derived totals, mirroring the §4.4 prose.
  const std::uint64_t cache_lines =
      cfg.cores * (cfg.l1.lines() + cfg.l2.lines()) + cfg.llc.lines();
  const std::uint64_t pv_bits = cache_lines;  // 1 bit per line
  const std::uint64_t ntc_meta_bits = cfg.cores * ntc_entries * (txid_bits + 1);
  const std::uint64_t ntc_bytes = cfg.cores * cfg.ntc.size_bytes;
  std::cout << "\nDerived totals for the Table 2 machine (" << cfg.cores
            << " cores):\n"
            << "  P/V flags across the cache hierarchy: " << pv_bits
            << " bits (" << pv_bits / 8 / 1024 << " KB)\n"
            << "  NTC per-entry metadata (TxID+state):  " << ntc_meta_bits
            << " bits (" << ntc_meta_bits / 8 << " B)\n"
            << "  NTC data arrays:                      " << (ntc_bytes >> 10)
            << " KB total vs " << (cfg.llc.size_bytes >> 20)
            << " MB LLC (" << 100.0 * static_cast<double>(ntc_bytes) /
                                 static_cast<double>(cfg.llc.size_bytes)
            << " %)\n";
  return 0;
}
