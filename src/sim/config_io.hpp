// Textual configuration for the simulator: a small INI-style `key = value`
// format covering the knobs an experimenter actually sweeps, so machines
// can be described in files instead of recompiled code. `#` starts a
// comment; unknown keys are hard errors (silent typos corrupt experiments),
// and so are out-of-range values: each numeric key carries its bounds.
//
//   mechanism      = tc            # any registered domain; see
//                                  # `ntcsim --list-mechanisms`
//   cores          = 4
//   ghz            = 2.0
//   l1.size_kb     = 32
//   l1.ways        = 4
//   l1.latency     = 1             # CPU cycles
//   l2.size_kb     = 256
//   llc.size_kb    = 2048
//   ntc.size_bytes = 4096
//   ntc.latency    = 1
//   ntc.threshold  = 0.9
//   nvm.read_queue = 8
//   nvm.write_queue= 64
//   nvm.drain_high = 0.8
//   dram.refresh_interval = 15600
//   ...
#pragma once

#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>

#include "common/config.hpp"

namespace ntcsim::sim {

/// Accepted range of a number: [min, max], or (min, max] with `above_min`.
template <typename T>
struct Bounds {
  T min{};
  T max = std::numeric_limits<T>::max();
  bool above_min = false;
};

/// The one numeric parser behind every config key, ntcsim value flag,
/// bench argument and NTCSIM_SCALE / NTCSIM_JOBS. The whole of `text` must
/// parse, be finite, lie within `bounds` and fit T: integer types
/// (unsigned, std::uint64_t) take plain digits only, so no parsed double
/// is cast into an integer field and no negative value wraps. Returns ""
/// and sets `out`, or a one-line error naming `what`:
/// `--jobs: invalid value "abc"; expected an integer from 0 to 4294967295`.
template <typename T>
std::string parse_number(std::string_view what, std::string_view text,
                         const Bounds<T>& bounds, T& out);

/// Environment variable `name` through parse_number: unset leaves `out`
/// alone; a malformed value prints the error and exits 1.
template <typename T>
void parse_env_number(const char* name, const Bounds<T>& bounds, T& out);

struct ConfigParseResult {
  bool ok = true;
  std::string error;  ///< First problem, with line number.
};

/// Apply `key = value` lines from `is` on top of `cfg` (so files are
/// overlays over a preset). Returns the first error, if any.
ConfigParseResult apply_config(std::istream& is, SystemConfig& cfg);

/// Apply a single `key=value` assignment (the CLI's `--set key=value`).
ConfigParseResult apply_config_line(const std::string& line,
                                    SystemConfig& cfg);

/// The limits across keys that no single key's bounds can express: each
/// cache level's set count (size / line / ways) and each memory's ranks
/// and banks per rank must be powers of two. "" when `cfg` meets them,
/// else a one-line error naming the keys. The drivers check once every
/// config source is applied and exit 1; CacheArray and AddressMap keep
/// their invariant checks for library callers.
std::string check_geometry(const SystemConfig& cfg);

/// Serialize every supported key with its current value — the output
/// round-trips through apply_config.
void write_config(std::ostream& os, const SystemConfig& cfg);

/// Parse a mechanism name or alias against the persist::DomainRegistry
/// (case-insensitive); false and an unmodified `out` on unknown names.
bool parse_mechanism(const std::string& name, Mechanism& out);
bool parse_workload(const std::string& name, WorkloadKind& out);

/// The one checker-mode parser shared by `--check=MODE`, the `check`
/// config key and the NTCSIM_CHECK environment override, so all three
/// agree on accepted spellings: "off"/"0", "collect"/"1", "fatal".
/// False and an unmodified `out` on anything else.
bool parse_check_mode(const std::string& value, CheckMode& out);

/// `configured` with the NTCSIM_CHECK environment override applied
/// (parse_check_mode spellings; unset leaves the configured mode in
/// force). A malformed value prints one line and exits 1, as
/// parse_env_number does.
CheckMode check_mode_from_env(CheckMode configured);

}  // namespace ntcsim::sim
