#include "sim/config_io.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <type_traits>
#include <utility>

#include "persist/domain.hpp"

namespace ntcsim::sim {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Shortest text that reads back as exactly `v` (integers print as
/// integers, 0.9 as "0.9").
template <typename T>
std::string format_number(T v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

template <typename T>
std::string describe(const Bounds<T>& b) {
  const char* what = std::is_integral_v<T> ? "an integer" : "a number";
  if (b.above_min) {
    return std::string(what) + " > " + format_number(b.min) + " and <= " +
           format_number(b.max);
  }
  return std::string(what) + " from " + format_number(b.min) + " to " +
         format_number(b.max);
}

struct Key {
  std::function<bool(SystemConfig&, const std::string&)> set;
  std::function<std::string(const SystemConfig&)> get;
  /// Optional: appended to the invalid-value error ("known mechanisms:
  /// ..."), for keys whose value space is not obvious from the name.
  std::function<std::string()> hint{};
};

/// Accessors for the config field a key stores into, usable on const and
/// mutable configs alike.
template <typename Base, typename T>
auto field(T Base::* member) {
  return [member](auto& c) -> auto& { return c.*member; };
}
template <typename Base, typename Sub, typename T>
auto field(Sub Base::* sub, T Sub::* member) {
  return [sub, member](auto& c) -> auto& { return (c.*sub).*member; };
}

/// A numeric key over the field `at` selects, parsed as that field's type.
/// The field holds `value * unit` (the size_kb keys store bytes), so the
/// upper bound shrinks until every accepted value scales without overflow.
template <typename At, typename T = std::remove_cvref_t<
                           decltype(std::declval<At>()(
                               std::declval<SystemConfig&>()))>>
Key number(At at, Bounds<T> bounds, std::type_identity_t<T> unit = 1) {
  bounds.max = std::min(bounds.max, std::numeric_limits<T>::max() / unit);
  return Key{[at, bounds, unit](SystemConfig& c, const std::string& v) {
               T parsed{};
               if (!parse_number("", v, bounds, parsed).empty()) return false;
               at(c) = parsed * unit;
               return true;
             },
             [at, unit](const SystemConfig& c) {
               return format_number(at(c) / unit);
             },
             [bounds] { return "expected " + describe(bounds); }};
}

/// A 0/1 switch.
template <typename At>
Key flag(At at) {
  return Key{[at](SystemConfig& c, const std::string& v) {
               if (v != "0" && v != "1") return false;
               at(c) = v == "1";
               return true;
             },
             [at](const SystemConfig& c) {
               return std::string(at(c) ? "1" : "0");
             },
             [] { return std::string("0 or 1"); }};
}

const std::map<std::string, Key>& registry() {
  static const std::map<std::string, Key> keys = [] {
    std::map<std::string, Key> k;
    // Lower bounds keep every single-field value the model can run: a
    // size, way, MSHR, queue, rank, bank, channel, width or drain-rate of 0
    // divides by zero, trips an invariant or never drains. Fractions stay
    // in [0, 1]; the other double knobs are capped so the cycle counts
    // derived from them stay in range.
    k["cores"] =
        number(field(&SystemConfig::cores), {1, AddressSpace::kMaxCores});
    k["ghz"] = number(field(&SystemConfig::ghz), {0.0, 1000.0, true});
    k["mechanism"] = Key{
        [](SystemConfig& c, const std::string& v) {
          return parse_mechanism(v, c.mechanism);
        },
        [](const SystemConfig& c) {
          // Canonical registry name (already lower-case), e.g. "sp-adr".
          return persist::DomainRegistry::instance().info(c.mechanism).name;
        },
        [] {
          return "known mechanisms: " +
                 persist::DomainRegistry::instance().known_names();
        }};
    k["track_recovery"] = flag(field(&SystemConfig::track_recovery_state));
    k["check"] = Key{
        [](SystemConfig& c, const std::string& v) {
          return parse_check_mode(v, c.check);
        },
        [](const SystemConfig& c) { return std::string(to_string(c.check)); },
        [] { return std::string("one of: off, collect, fatal"); }};

    k["topo.nodes"] =
        number(field(&SystemConfig::topo, &TopoConfig::nodes), {1});
    k["topo.hop_ns"] =
        number(field(&SystemConfig::topo, &TopoConfig::hop_ns), {0.0, 1e9});
    k["topo.link_gbps"] = number(
        field(&SystemConfig::topo, &TopoConfig::link_gbps), {0.0, 1e6, true});
    k["topo.msg_bytes"] =
        number(field(&SystemConfig::topo, &TopoConfig::msg_bytes), {1});

    k["skip.enabled"] = flag(field(&SystemConfig::skip, &SkipConfig::enabled));
    k["skip.verify"] = flag(field(&SystemConfig::skip, &SkipConfig::verify));

    auto cache_keys = [&k](const std::string& prefix,
                           CacheConfig NodeConfig::* level) {
      k[prefix + ".size_kb"] =
          number(field(level, &CacheConfig::size_bytes), {1}, 1024);
      k[prefix + ".ways"] = number(field(level, &CacheConfig::ways), {1});
      k[prefix + ".latency"] =
          number(field(level, &CacheConfig::latency_cycles), {});
      k[prefix + ".mshrs"] = number(field(level, &CacheConfig::mshrs), {1});
      k[prefix + ".replacement"] = Key{
          [level](SystemConfig& c, const std::string& v) {
            if (v == "lru") {
              (c.*level).replacement = ReplacementPolicy::kLru;
            } else if (v == "random") {
              (c.*level).replacement = ReplacementPolicy::kRandom;
            } else if (v == "srrip") {
              (c.*level).replacement = ReplacementPolicy::kSrrip;
            } else {
              return false;
            }
            return true;
          },
          [level](const SystemConfig& c) {
            return std::string(to_string((c.*level).replacement));
          }};
    };
    cache_keys("l1", &SystemConfig::l1);
    cache_keys("l2", &SystemConfig::l2);
    cache_keys("llc", &SystemConfig::llc);

    k["core.issue_width"] =
        number(field(&SystemConfig::core, &CoreConfig::issue_width), {1});
    // The ROB and store buffer are rings allocated whole at construction.
    k["core.rob"] = number(
        field(&SystemConfig::core, &CoreConfig::rob_entries), {1, 65536});
    k["core.store_buffer"] = number(
        field(&SystemConfig::core, &CoreConfig::store_buffer_entries),
        {1, 65536});

    // The NTC needs at least two entries of kLineBytes.
    k["ntc.size_bytes"] =
        number(field(&SystemConfig::ntc, &TxCacheConfig::size_bytes),
               {2 * kLineBytes});
    k["ntc.latency"] =
        number(field(&SystemConfig::ntc, &TxCacheConfig::latency_cycles), {});
    k["ntc.threshold"] = number(
        field(&SystemConfig::ntc, &TxCacheConfig::overflow_threshold),
        {0.0, 1.0});
    k["ntc.drain_per_cycle"] = number(
        field(&SystemConfig::ntc, &TxCacheConfig::drain_per_cycle), {1});

    k["serve.enabled"] =
        flag(field(&SystemConfig::service, &ServiceConfig::enabled));
    k["serve.open_loop"] =
        flag(field(&SystemConfig::service, &ServiceConfig::open_loop));
    k["serve.poisson"] =
        flag(field(&SystemConfig::service, &ServiceConfig::poisson));
    // At most one request per cycle per core.
    k["serve.rate"] =
        number(field(&SystemConfig::service, &ServiceConfig::rate),
               {0.0, 1000.0, true});
    k["serve.requests"] =
        number(field(&SystemConfig::service, &ServiceConfig::requests), {});

    k["crash.points"] =
        number(field(&SystemConfig::crash, &CrashCampaignConfig::points), {});
    k["crash.seeds"] =
        number(field(&SystemConfig::crash, &CrashCampaignConfig::seeds), {});
    k["crash.ops"] =
        number(field(&SystemConfig::crash, &CrashCampaignConfig::ops), {});
    k["crash.setup"] =
        number(field(&SystemConfig::crash, &CrashCampaignConfig::setup), {1});
    k["crash.minimize"] =
        flag(field(&SystemConfig::crash, &CrashCampaignConfig::minimize));

    auto mc_keys = [&k](const std::string& prefix,
                        MemCtrlConfig NodeConfig::* mc) {
      k[prefix + ".read_queue"] =
          number(field(mc, &MemCtrlConfig::read_queue), {1});
      k[prefix + ".write_queue"] =
          number(field(mc, &MemCtrlConfig::write_queue), {1});
      k[prefix + ".drain_high"] =
          number(field(mc, &MemCtrlConfig::drain_high_watermark), {0.0, 1.0});
      k[prefix + ".drain_low"] =
          number(field(mc, &MemCtrlConfig::drain_low_watermark), {0.0, 1.0});
      k[prefix + ".ranks"] = number(field(mc, &MemCtrlConfig::ranks), {1});
      k[prefix + ".banks"] =
          number(field(mc, &MemCtrlConfig::banks_per_rank), {1});
      k[prefix + ".channels"] =
          number(field(mc, &MemCtrlConfig::channels), {1});
      k[prefix + ".bus_latency"] =
          number(field(mc, &MemCtrlConfig::bus_latency), {});
      k[prefix + ".refresh_interval"] =
          number(field(mc, &MemCtrlConfig::refresh_interval), {});
      k[prefix + ".refresh_cycles"] =
          number(field(mc, &MemCtrlConfig::refresh_cycles), {});
      k[prefix + ".tfaw"] = number(field(mc, &MemCtrlConfig::tfaw), {});
      k[prefix + ".twtr"] = number(field(mc, &MemCtrlConfig::twtr), {});
    };
    mc_keys("nvm", &SystemConfig::nvm);
    mc_keys("dram", &SystemConfig::dram);
    return k;
  }();
  return keys;
}

}  // namespace

template <typename T>
std::string parse_number(std::string_view what, std::string_view text,
                         const Bounds<T>& bounds, T& out) {
  T v{};
  const char* const end = text.data() + text.size();
  // from_chars takes no sign for unsigned types, no leading '+' or
  // whitespace, and for integers no fraction or exponent; it reports
  // values that do not fit T instead of wrapping them.
  const auto r = std::from_chars(text.data(), end, v);
  bool ok = r.ec == std::errc() && r.ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  ok = ok && v <= bounds.max &&
       (bounds.above_min ? v > bounds.min : v >= bounds.min);
  if (!ok) {
    return std::string(what) + ": invalid value \"" + std::string(text) +
           "\"; expected " + describe(bounds);
  }
  out = v;
  return {};
}

template <typename T>
void parse_env_number(const char* name, const Bounds<T>& bounds, T& out) {
  const char* env = std::getenv(name);
  if (env == nullptr) return;
  const std::string error = parse_number(name, env, bounds, out);
  if (error.empty()) return;
  std::fprintf(stderr, "%s\n", error.c_str());
  std::exit(1);
}

template std::string parse_number(std::string_view, std::string_view,
                                  const Bounds<unsigned>&, unsigned&);
template std::string parse_number(std::string_view, std::string_view,
                                  const Bounds<std::uint64_t>&,
                                  std::uint64_t&);
template std::string parse_number(std::string_view, std::string_view,
                                  const Bounds<double>&, double&);
template void parse_env_number(const char*, const Bounds<unsigned>&,
                               unsigned&);
template void parse_env_number(const char*, const Bounds<double>&, double&);

bool parse_mechanism(const std::string& name, Mechanism& out) {
  return persist::DomainRegistry::instance().parse(name, out);
}

bool parse_check_mode(const std::string& value, CheckMode& out) {
  if (value == "off" || value == "0") {
    out = CheckMode::kOff;
  } else if (value == "collect" || value == "1") {
    out = CheckMode::kCollect;
  } else if (value == "fatal") {
    out = CheckMode::kFatal;
  } else {
    return false;
  }
  return true;
}

CheckMode check_mode_from_env(CheckMode configured) {
  const char* env = std::getenv("NTCSIM_CHECK");
  if (env == nullptr) return configured;
  CheckMode mode = configured;
  if (parse_check_mode(env, mode)) return mode;
  std::fprintf(stderr,
               "NTCSIM_CHECK: invalid value \"%s\"; expected one of: off, "
               "collect, fatal\n",
               env);
  std::exit(1);
}

bool parse_workload(const std::string& name, WorkloadKind& out) {
  for (WorkloadKind k :
       {WorkloadKind::kGraph, WorkloadKind::kRbtree, WorkloadKind::kSps,
        WorkloadKind::kBtree, WorkloadKind::kHashtable,
        WorkloadKind::kQueue, WorkloadKind::kSkiplist}) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

ConfigParseResult apply_config_line(const std::string& raw,
                                    SystemConfig& cfg) {
  const std::string no_comment = raw.substr(0, raw.find('#'));
  const std::string line = trim(no_comment);
  if (line.empty()) return {};
  const std::size_t eq = line.find('=');
  if (eq == std::string::npos) {
    return {false, "expected `key = value`: \"" + line + "\""};
  }
  const std::string key = trim(line.substr(0, eq));
  const std::string value = trim(line.substr(eq + 1));
  const auto& keys = registry();
  auto it = keys.find(key);
  if (it == keys.end()) {
    return {false, "unknown configuration key \"" + key + "\""};
  }
  if (!it->second.set(cfg, value)) {
    std::string error =
        "invalid value \"" + value + "\" for key \"" + key + "\"";
    if (it->second.hint) error += "; " + it->second.hint();
    return {false, std::move(error)};
  }
  return {};
}

ConfigParseResult apply_config(std::istream& is, SystemConfig& cfg) {
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    ConfigParseResult r = apply_config_line(line, cfg);
    if (!r.ok) {
      r.error = "line " + std::to_string(lineno) + ": " + r.error;
      return r;
    }
  }
  return {};
}

std::string check_geometry(const SystemConfig& cfg) {
  const std::pair<const char*, const CacheConfig*> caches[] = {
      {"l1", &cfg.l1}, {"l2", &cfg.l2}, {"llc", &cfg.llc}};
  for (const auto& [name, c] : caches) {
    if (!std::has_single_bit(c->sets())) {
      const std::string n = name;
      return n + ".size_kb=" + format_number(c->size_bytes >> 10) + " with " +
             n + ".ways=" + format_number(c->ways) + " makes " +
             format_number(c->sets()) +
             " sets; the set count must be a power of two";
    }
  }
  const std::pair<const char*, const MemCtrlConfig*> mems[] = {
      {"nvm", &cfg.nvm}, {"dram", &cfg.dram}};
  for (const auto& [name, m] : mems) {
    for (const auto& [key, v] : {std::pair{".ranks", m->ranks},
                                 std::pair{".banks", m->banks_per_rank}}) {
      if (!std::has_single_bit(v)) {
        return std::string(name) + key + "=" + format_number(v) +
               ": must be a power of two";
      }
    }
  }
  return {};
}

void write_config(std::ostream& os, const SystemConfig& cfg) {
  for (const auto& [key, accessors] : registry()) {
    os << key << " = " << accessors.get(cfg) << '\n';
  }
}

}  // namespace ntcsim::sim
