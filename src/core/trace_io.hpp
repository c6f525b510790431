// Binary trace serialization: capture a generated workload once and replay
// it across machines, mechanisms, or simulator versions (the determinism
// anchor for regression comparisons).
//
// Format: 16-byte header (magic "NTCT", u32 version, u64 op count), then
// one 24-byte record per micro-op, little-endian host layout. A compute
// run is written as `count` records and read back as one run.
#pragma once

#include <iosfwd>
#include <string>

#include "core/trace.hpp"

namespace ntcsim::core {

struct TraceIoResult {
  bool ok = true;
  std::string error;
};

TraceIoResult write_trace(std::ostream& os, const Trace& trace);
TraceIoResult read_trace(std::istream& is, Trace& trace);

TraceIoResult save_trace(const std::string& path, const Trace& trace);
TraceIoResult load_trace(const std::string& path, Trace& trace);

}  // namespace ntcsim::core
