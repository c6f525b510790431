#include "sim/config_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace ntcsim::sim {
namespace {

TEST(ConfigIo, GeometryOfThePresetsIsValid) {
  for (const SystemConfig& cfg : {SystemConfig::paper(),
                                  SystemConfig::experiment(),
                                  SystemConfig::tiny()}) {
    EXPECT_EQ(check_geometry(cfg), "");
  }
}

TEST(ConfigIo, GeometryErrorsNameTheKeys) {
  const std::pair<const char*, const char*> cases[] = {
      {"l1.size_kb=48", "l1.size_kb=48 with l1.ways="},
      {"l2.ways=3", "l2.ways=3 makes"},
      {"llc.size_kb=3000", "llc.size_kb=3000"},
      {"l1.ways=1024", "makes 0 sets"},
      {"nvm.ranks=3", "nvm.ranks=3: must be a power of two"},
      {"dram.banks=6", "dram.banks=6: must be a power of two"},
  };
  for (const auto& [line, expect] : cases) {
    SystemConfig cfg = SystemConfig::experiment();
    ASSERT_TRUE(apply_config_line(line, cfg).ok) << line;
    const std::string error = check_geometry(cfg);
    EXPECT_NE(error.find(expect), std::string::npos) << line << ": " << error;
  }
}

TEST(ConfigIo, AppliesNumericKeys) {
  SystemConfig cfg = SystemConfig::paper();
  std::istringstream is(
      "cores = 2\n"
      "llc.size_kb = 1024\n"
      "ntc.size_bytes = 2048\n"
      "nvm.write_queue = 32\n");
  const auto r = apply_config(is, cfg);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(cfg.cores, 2u);
  EXPECT_EQ(cfg.llc.size_bytes, 1024ULL * 1024);
  EXPECT_EQ(cfg.ntc.size_bytes, 2048u);
  EXPECT_EQ(cfg.nvm.write_queue, 32u);
}

TEST(ConfigIo, CommentsAndBlanksIgnored) {
  SystemConfig cfg = SystemConfig::paper();
  std::istringstream is(
      "# a machine\n"
      "\n"
      "cores = 8   # eight of them\n");
  ASSERT_TRUE(apply_config(is, cfg).ok);
  EXPECT_EQ(cfg.cores, 8u);
}

TEST(ConfigIo, UnknownKeyIsAnError) {
  SystemConfig cfg = SystemConfig::paper();
  std::istringstream is("cores = 2\nllc.size_mb = 4\n");
  const auto r = apply_config(is, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("line 2"), std::string::npos);
  EXPECT_NE(r.error.find("llc.size_mb"), std::string::npos);
  EXPECT_EQ(cfg.cores, 2u);  // earlier lines applied
}

TEST(ConfigIo, BadValueIsAnError) {
  SystemConfig cfg = SystemConfig::paper();
  EXPECT_FALSE(apply_config_line("cores = many", cfg).ok);
  EXPECT_FALSE(apply_config_line("mechanism = maglev", cfg).ok);
  EXPECT_FALSE(apply_config_line("just-some-text", cfg).ok);
}

TEST(ConfigIo, UnknownMechanismErrorListsTheRegistry) {
  SystemConfig cfg = SystemConfig::paper();
  const auto r = apply_config_line("mechanism = maglev", cfg);
  ASSERT_FALSE(r.ok);
  // The error is self-serve: it enumerates every registered domain name.
  EXPECT_NE(r.error.find("known mechanisms"), std::string::npos) << r.error;
  for (const char* name : {"optimal", "sp", "sp-adr", "tc", "kiln",
                           "tc-nodrain"}) {
    EXPECT_NE(r.error.find(name), std::string::npos) << name;
  }
}

TEST(ConfigIo, MechanismNamesRoundTrip) {
  SystemConfig cfg = SystemConfig::paper();
  // Includes registry-only extensions: any registered domain must survive
  // a write_config/apply_config round trip under its canonical name.
  for (const char* name : {"tc", "sp", "kiln", "optimal", "sp-adr",
                           "tc-nodrain"}) {
    ASSERT_TRUE(apply_config_line(std::string("mechanism = ") + name, cfg).ok);
    std::ostringstream os;
    write_config(os, cfg);
    EXPECT_NE(os.str().find(std::string("mechanism = ") + name),
              std::string::npos);
  }
}

TEST(ConfigIo, WriteConfigRoundTrips) {
  SystemConfig a = SystemConfig::experiment();
  a.cores = 3;
  a.ntc.size_bytes = 8192;
  a.nvm.drain_high_watermark = 0.75;
  a.mechanism = Mechanism::kKiln;
  std::ostringstream os;
  write_config(os, a);

  SystemConfig b = SystemConfig::paper();  // different starting point
  std::istringstream is(os.str());
  ASSERT_TRUE(apply_config(is, b).ok);
  EXPECT_EQ(b.cores, a.cores);
  EXPECT_EQ(b.ntc.size_bytes, a.ntc.size_bytes);
  EXPECT_DOUBLE_EQ(b.nvm.drain_high_watermark, a.nvm.drain_high_watermark);
  EXPECT_EQ(b.mechanism, a.mechanism);
  EXPECT_EQ(b.llc.size_bytes, a.llc.size_bytes);
  EXPECT_EQ(b.dram.refresh_interval, a.dram.refresh_interval);
}

TEST(ConfigIo, ParseWorkload) {
  WorkloadKind wl = WorkloadKind::kSps;
  EXPECT_TRUE(parse_workload("rbtree", wl));
  EXPECT_EQ(wl, WorkloadKind::kRbtree);
  EXPECT_FALSE(parse_workload("redblack", wl));
  EXPECT_EQ(wl, WorkloadKind::kRbtree);  // unchanged on failure
}

TEST(ConfigIo, RefreshKeys) {
  SystemConfig cfg = SystemConfig::paper();
  ASSERT_TRUE(apply_config_line("dram.refresh_interval = 7800", cfg).ok);
  ASSERT_TRUE(apply_config_line("dram.refresh_cycles = 260", cfg).ok);
  EXPECT_EQ(cfg.dram.refresh_interval, 7800u);
  EXPECT_EQ(cfg.dram.refresh_cycles, 260u);
}

TEST(ConfigIo, ShippedConfigFilesApplyToEveryPreset) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(NTC_CONFIG_DIR)) {
    if (entry.path().extension() != ".cfg") continue;
    ++files;
    for (SystemConfig cfg : {SystemConfig::paper(),
                             SystemConfig::experiment(),
                             SystemConfig::tiny()}) {
      std::ifstream f(entry.path());
      const ConfigParseResult r = apply_config(f, cfg);
      EXPECT_TRUE(r.ok) << entry.path() << ": " << r.error;
      EXPECT_EQ(check_geometry(cfg), "") << entry.path();
    }
  }
  EXPECT_GT(files, 0u);
}

TEST(ConfigIo, PaperFileRestatesThePaperPreset) {
  // `--preset=paper --config=configs/paper.cfg` dumps exactly what
  // `--preset=paper` dumps.
  const SystemConfig preset = SystemConfig::paper();
  SystemConfig overlaid = preset;
  std::ifstream f(std::filesystem::path(NTC_CONFIG_DIR) / "paper.cfg");
  ASSERT_TRUE(f);
  const ConfigParseResult r = apply_config(f, overlaid);
  ASSERT_TRUE(r.ok) << r.error;
  std::ostringstream want, got;
  write_config(want, preset);
  write_config(got, overlaid);
  EXPECT_EQ(got.str(), want.str());
}

}  // namespace
}  // namespace ntcsim::sim
