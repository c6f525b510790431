// End-to-end input handling of the real binaries: every config key, every
// numeric ntcsim flag, the NTCSIM_SCALE / NTCSIM_JOBS / NTCSIM_CHECK
// variables and a bench binary's arguments get junk, a negative, zero and
// an overflow. Each case must exit 1 with exactly one line on stderr — or,
// for a zero the input accepts, run a tiny cell and exit 0. Cache and
// memory geometries that pass each key's bounds but not the limits across
// keys exit 1 the same way, and so do more cores than the address space
// has regions for, crash-sweep op and setup counts that overflow once
// scaled, and a single cell, --matrix or --crash-sweep with a flag it does
// not read.
// Nothing may die on a signal or run into the timeout. Also checks that
// --profile writes its report from a single ntcsim cell and from a bench
// binary, and that --stats dumps every node.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

constexpr unsigned kTimeoutSeconds = 10;

// Sanitizer runtimes reserve terabytes of address space up front, so an
// address-space cap cannot apply to a sanitized binary.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

const char* const kBadValues[] = {"abc", "4abc", "-1", "0",
                                  "1e30", "99999999999999999999"};

/// The cheap run an accepted zero must complete.
const std::vector<std::string> kTinyCell = {
    "--preset=tiny", "--workload=sps", "--ops=20", "--setup=100"};

struct Outcome {
  int exit_code = -1;  ///< -1 when the process died on a signal
  int signal = 0;
  std::string out;  ///< everything written to stdout
  std::string err;  ///< everything written to stderr
  bool timed_out() const { return signal == SIGALRM; }
};

/// Working directory of the runs (crash sweeps and profiles write files),
/// removed when the test process exits.
const fs::path& scratch_dir() {
  struct Dir {
    fs::path path = fs::temp_directory_path() /
                    ("ntcsim_cli_inputs_" + std::to_string(::getpid()));
    Dir() { fs::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

std::string read_file(const fs::path& p) {
  std::ifstream f(p);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Run `argv` in a scratch directory with the NTCSIM_* variables cleared
/// and `env` set, stdout and stderr captured. The child arms an alarm
/// before exec, so a hang ends in SIGALRM; a nonzero `address_space_cap`
/// (bytes, ignored under sanitizers) turns a huge allocation into a
/// bad_alloc instead of a host out of memory.
Outcome run(const std::vector<std::string>& argv,
            const std::vector<std::pair<std::string, std::string>>& env = {},
            rlim_t address_space_cap = 0) {
  const fs::path& dir = scratch_dir();
  const fs::path out_path = dir / "stdout.txt";
  const fs::path err_path = dir / "stderr.txt";
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const char* var : {"NTCSIM_JOBS", "NTCSIM_SCALE", "NTCSIM_CHECK"}) {
      ::unsetenv(var);
    }
    for (const auto& [k, v] : env) ::setenv(k.c_str(), v.c_str(), 1);
    const int out =
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err =
        ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0 || ::chdir(dir.c_str()) != 0) ::_exit(127);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    if (address_space_cap > 0 && !kSanitized) {
      const rlimit cap{address_space_cap, address_space_cap};
      ::setrlimit(RLIMIT_AS, &cap);
    }
    ::alarm(kTimeoutSeconds);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  Outcome o;
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFEXITED(status)) o.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) o.signal = WTERMSIG(status);
  o.out = read_file(out_path);
  o.err = read_file(err_path);
  return o;
}

std::size_t line_count(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n')) +
         (!s.empty() && s.back() != '\n' ? 1 : 0);
}

/// "" when `o` is a clean rejection (exit 1, one stderr line) or, if
/// `zero_may_run`, a completed run; otherwise what went wrong.
std::string verdict(const Outcome& o, bool zero_may_run) {
  if (o.timed_out()) return "timed out";
  if (o.signal != 0) return "killed by signal " + std::to_string(o.signal);
  if (zero_may_run && o.exit_code == 0) return "";
  if (o.exit_code != 1) return "exit code " + std::to_string(o.exit_code);
  if (line_count(o.err) != 1) {
    return std::to_string(line_count(o.err)) + " stderr lines";
  }
  return "";
}

/// Collects one failure line per bad case so a single test reports all of
/// them at once.
class Cases {
 public:
  void check(const std::string& what, const Outcome& o, bool zero_may_run) {
    ++count_;
    const std::string v = verdict(o, zero_may_run);
    if (!v.empty()) failures_ += "  " + what + ": " + v + "\n" + o.err;
  }
  void expect_clean() const {
    EXPECT_GT(count_, 0u);
    EXPECT_TRUE(failures_.empty()) << failures_;
  }

 private:
  std::size_t count_ = 0;
  std::string failures_;
};

std::vector<std::string> with(std::vector<std::string> args,
                              const std::vector<std::string>& extra) {
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(BadInput, EveryConfigKey) {
  // The key list comes from the binary, so new keys are covered as added.
  // The count is exact, so that adding a key is a visible decision: each
  // key needs a caller outside the tests (the knob audit in ROADMAP.md).
  const fs::path dump = scratch_dir() / "dump.txt";
  ASSERT_EQ(std::system((std::string(NTC_NTCSIM_BIN) + " --dump-config > " +
                         dump.string()).c_str()),
            0);
  std::ifstream f(dump);
  std::vector<std::string> keys;
  for (std::string line; std::getline(f, line);) {
    keys.push_back(line.substr(0, line.find(' ')));
  }
  ASSERT_EQ(keys.size(), 49u);
  Cases cases;
  for (const std::string& key : keys) {
    for (const char* value : kBadValues) {
      const std::string set = key + "=" + value;
      cases.check("--set " + set,
                  run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--set", set}))),
                  std::string(value) == "0");
    }
  }
  cases.expect_clean();
}

TEST(BadInput, EveryNumericFlag) {
  Cases cases;
  for (const char* flag :
       {"--ops", "--setup", "--lookup", "--seed", "--crash-at",
        "--crash-points", "--rate", "--requests", "--nodes", "--jobs",
        "--scale"}) {
    for (const char* value : kBadValues) {
      const std::string arg = std::string(flag) + "=" + value;
      cases.check(arg, run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {arg}))),
                  std::string(value) == "0");
    }
  }
  // The spaced spellings and the one bounded percentage.
  for (const char* flag : {"--jobs", "--scale"}) {
    for (const char* value : kBadValues) {
      cases.check(std::string(flag) + " " + value,
                  run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {flag, value}))),
                  std::string(value) == "0");
    }
  }
  cases.check("--lookup=101",
              run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--lookup=101"}))),
              false);
  cases.expect_clean();
}

TEST(BadInput, EnvironmentVariables) {
  Cases cases;
  // NTCSIM_CHECK takes off/0, collect/1 or fatal: "0" runs the cell.
  for (const char* var : {"NTCSIM_JOBS", "NTCSIM_SCALE", "NTCSIM_CHECK"}) {
    for (const char* value : kBadValues) {
      const bool zero = std::string(value) == "0";
      const std::string what = std::string(var) + "=" + value;
      cases.check("ntcsim " + what,
                  run(with({NTC_NTCSIM_BIN}, kTinyCell), {{var, value}}),
                  zero);
      cases.check("bench " + what, run({NTC_BENCH_BIN}, {{var, value}}),
                  zero);
    }
  }
  cases.expect_clean();
}

TEST(BadInput, CacheAndMemoryGeometry) {
  Cases cases;
  for (const char* set :
       {"l1.size_kb=48", "l2.ways=3", "llc.size_kb=3000", "l1.ways=1024",
        "nvm.ranks=3", "nvm.banks=6", "dram.ranks=5", "dram.banks=12"}) {
    cases.check(std::string("--set ") + set,
                run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--set", set}))),
                false);
    cases.check(std::string("--matrix --set ") + set,
                run({NTC_NTCSIM_BIN, "--matrix", "--set", set}), false);
  }
  cases.expect_clean();
}

TEST(BadInput, QueueSizesThatPreallocate) {
  // core.rob and core.store_buffer size rings that are allocated whole
  // when a core is built (2^32 - 1 ROB entries would be ~200 GB). Both stop
  // at 65536, and that bound itself runs. Capped at 4 GiB of address space.
  constexpr rlim_t kCap = rlim_t{4} << 30;
  Cases cases;
  for (const std::string key : {"core.rob", "core.store_buffer"}) {
    for (const char* value : {"4294967295", "65537"}) {
      const std::string set = key + "=" + value;
      cases.check("--set " + set,
                  run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--set", set})),
                      {}, kCap),
                  false);
    }
    const Outcome o = run(
        with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--set", key + "=65536"})),
        {}, kCap);
    EXPECT_EQ(o.exit_code, 0) << key << "=65536\n" << o.err;
  }
  cases.expect_clean();
}

TEST(BadInput, CoresBeyondTheReservedRegions) {
  // Every core owns a log and a shadow region in NVM and a bit of the LLC
  // presence mask; 16 cores fill them, and that bound itself runs.
  Cases cases;
  for (const char* value : {"17", "33", "100000"}) {
    const std::string set = std::string("cores=") + value;
    const Outcome o =
        run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--set", set})));
    cases.check("--set " + set, o, false);
    EXPECT_NE(o.err.find("cores"), std::string::npos) << set << "\n" << o.err;
  }
  cases.expect_clean();
  const Outcome o =
      run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {"--set", "cores=16"})));
  EXPECT_EQ(o.exit_code, 0) << "cores=16\n" << o.err;
}

TEST(BadInput, CrashSweepCountsThatOverflow) {
  // Each count overflows 64 bits on its way into the campaign: the op
  // count as a double (2^64 even at scale 1, and 2^63 x --scale=1000) and
  // the sps setup size, seven times crash.setup.
  const std::vector<std::string> sweep = {
      NTC_NTCSIM_BIN, "--crash-sweep", "--preset=tiny", "--mechanism=tc",
      "--workload=sps", "--seed=1"};
  Cases cases;
  for (const std::vector<std::string>& extra :
       std::vector<std::vector<std::string>>{
           {"--set", "crash.ops=18446744073709551615"},
           {"--ops=9223372036854775807", "--scale=1000"},
           {"--set", "crash.setup=2635249153387078803"}}) {
    cases.check(extra.front() + " " + extra.back(), run(with(sweep, extra)),
                false);
  }
  cases.expect_clean();
}

TEST(BadInput, MatrixWithAFlagItDoesNotRead) {
  // --matrix runs every cell at its default size, so a flag that picks,
  // sizes or inspects one cell, a crash-sweep flag and a second run mode
  // exit 1 with one line naming the flag before any cell starts (a tiny
  // matrix that started would run into the timeout).
  Cases cases;
  for (const char* flag :
       {"--workload=btree", "--mechanism=sp", "--ops=5", "--setup=200",
        "--lookup=10", "--crash-at=5000", "--stats", "--crash-sweep",
        "--crash-points=8", "--minimize", "--crash-report=y.json"}) {
    const Outcome o =
        run({NTC_NTCSIM_BIN, "--matrix", "--preset=tiny", flag});
    cases.check(std::string("--matrix ") + flag, o, false);
    const std::string given(flag);
    const std::string name = given.substr(0, given.find('='));
    EXPECT_NE(o.err.find(name), std::string::npos) << flag << "\n" << o.err;
  }
  cases.expect_clean();
}

TEST(BadInput, CrashSweepWithAFlagItDoesNotRead) {
  // --crash-sweep picks its own crash points and writes its own report, so
  // a flag that picks a crash point, a lookup share or a single-cell
  // output would be silently ignored: each exits 1 with one line naming
  // the flag before any cell runs.
  Cases cases;
  for (const char* flag :
       {"--lookup=10", "--crash-at=5000", "--stats", "--csv"}) {
    const Outcome o = run({NTC_NTCSIM_BIN, "--crash-sweep", "--preset=tiny",
                           "--crash-report=", flag});
    cases.check(std::string("--crash-sweep ") + flag, o, false);
    const std::string given(flag);
    const std::string name = given.substr(0, given.find('='));
    EXPECT_NE(o.err.find(name), std::string::npos) << flag << "\n" << o.err;
  }
  cases.expect_clean();
}

TEST(BadInput, SingleCellWithABatchFlag) {
  // A single cell sizes itself by its own flags, runs on the calling
  // thread and writes no crash report, so a flag only --matrix or
  // --crash-sweep reads would be silently ignored: each exits 1 with one
  // line naming the flag before the cell runs.
  Cases cases;
  for (const char* flag :
       {"--minimize", "--crash-report=x.json", "--scale=0.01", "--jobs=3"}) {
    const Outcome o = run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {flag})));
    cases.check(flag, o, false);
    const std::string given(flag);
    const std::string name = given.substr(0, given.find('='));
    EXPECT_NE(o.err.find(name), std::string::npos) << flag << "\n" << o.err;
  }
  cases.expect_clean();
}

TEST(BadInput, BenchArguments) {
  Cases cases;
  for (const char* value : kBadValues) {
    const bool zero = std::string(value) == "0";
    cases.check(std::string("scale ") + value, run({NTC_BENCH_BIN, value}),
                zero);
    for (const char* flag : {"--scale", "--jobs"}) {
      cases.check(std::string(flag) + "=" + value,
                  run({NTC_BENCH_BIN, std::string(flag) + "=" + value}), zero);
      cases.check(std::string(flag) + " " + value,
                  run({NTC_BENCH_BIN, flag, value}), zero);
    }
  }
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {NTC_BENCH_BIN, "--bogus"},
           {NTC_BENCH_BIN, "0.5", "0.5"},
           {NTC_BENCH_BIN, "junk", "--scale=-1", "--jobs=abc", "--bogus"}}) {
    cases.check(args.back(), run(args), false);
  }
  cases.expect_clean();
}

TEST(CliProfile, SingleCellReportsItsCellAndPhases) {
  const fs::path report = scratch_dir() / "cell_profile.json";
  fs::remove(report);
  const std::string flag = "--profile=" + report.string();
  const Outcome o = run(with({NTC_NTCSIM_BIN}, with(kTinyCell, {flag})));
  ASSERT_EQ(o.exit_code, 0) << o.err;
  const std::string json = read_file(report);
  EXPECT_NE(json.find("\"cells\": 1,"), std::string::npos) << json;
  for (const char* phase : {"cell.generate", "cell.setup", "cell.measured"}) {
    EXPECT_NE(json.find(std::string("\"") + phase + "\""), std::string::npos)
        << phase << " missing from\n" << json;
  }
}

TEST(CliStats, EveryNodeDumpsItsStatistics) {
  const Outcome o = run({NTC_NTCSIM_BIN, "--preset=tiny", "--nodes=2",
                         "--serve", "--rate=2", "--requests=20",
                         "--setup=64", "--workload=hashtable", "--stats"});
  ASSERT_EQ(o.exit_code, 0) << o.err;
  std::size_t retired_lines = 0;
  std::istringstream lines(o.out);
  for (std::string line; std::getline(lines, line);) {
    retired_lines += line.rfind("core0.retired = ", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(retired_lines, 2u) << o.out;
}

TEST(CliProfile, BenchBinaryWritesItsReport) {
  const fs::path report = scratch_dir() / "bench_profile.json";
  fs::remove(report);
  const Outcome o = run({NTC_BENCH_BIN, "--profile=" + report.string()});
  ASSERT_EQ(o.exit_code, 0) << o.err;
  EXPECT_NE(read_file(report).find("\"phases\""), std::string::npos);
}

}  // namespace
