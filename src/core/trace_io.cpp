#include "core/trace_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

namespace ntcsim::core {

namespace {

constexpr char kMagic[4] = {'N', 'T', 'C', 'T'};
constexpr std::uint32_t kVersion = 1;

struct Record {
  std::uint8_t kind;
  std::uint8_t flush;
  std::uint8_t persistent;
  std::uint8_t pad[5];
  std::uint64_t addr;
  std::uint64_t value;
};
static_assert(sizeof(Record) == 24, "trace record layout drifted");

constexpr std::uint8_t kMaxKind = static_cast<std::uint8_t>(OpKind::kPcommit);
constexpr std::uint8_t kMaxFlush = static_cast<std::uint8_t>(FlushKind::kLog);

}  // namespace

TraceIoResult write_trace(std::ostream& os, const Trace& trace) {
  os.write(kMagic, sizeof kMagic);
  const std::uint32_t version = kVersion;
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint64_t count = trace.size();
  os.write(reinterpret_cast<const char*>(&count), sizeof count);
  for (const MicroOp& op : trace.ops()) {
    Record r{};
    r.kind = static_cast<std::uint8_t>(op.kind);
    r.flush = static_cast<std::uint8_t>(op.flush);
    r.persistent = op.persistent ? 1 : 0;
    r.addr = op.addr;
    r.value = op.value;
    // The file keeps one record per µop: a compute run writes `count`.
    for (std::uint32_t i = 0; i < op.count; ++i) {
      os.write(reinterpret_cast<const char*>(&r), sizeof r);
    }
  }
  if (!os) return {false, "write failed"};
  return {};
}

TraceIoResult read_trace(std::istream& is, Trace& trace) {
  char magic[4];
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return {false, "not an ntcsim trace (bad magic)"};
  }
  std::uint32_t version = 0;
  is.read(reinterpret_cast<char*>(&version), sizeof version);
  if (!is || version != kVersion) {
    return {false, "unsupported trace version " + std::to_string(version)};
  }
  std::uint64_t count = 0;
  is.read(reinterpret_cast<char*>(&count), sizeof count);
  if (!is) return {false, "truncated header"};

  // The header count is untrusted, so nothing is reserved from it: a
  // corrupt count ends in a truncation error, not a huge allocation.
  // push() folds the per-µop compute records back into runs.
  Trace out;
  for (std::uint64_t i = 0; i < count; ++i) {
    Record r{};
    is.read(reinterpret_cast<char*>(&r), sizeof r);
    if (!is) {
      return {false, "truncated at op " + std::to_string(i) + " of " +
                         std::to_string(count)};
    }
    if (r.kind > kMaxKind) {
      return {false, "corrupt op kind " + std::to_string(r.kind) + " at op " +
                         std::to_string(i)};
    }
    if (r.flush > kMaxFlush) {
      return {false, "corrupt flush kind " + std::to_string(r.flush) +
                         " at op " + std::to_string(i)};
    }
    MicroOp op;
    op.kind = static_cast<OpKind>(r.kind);
    op.flush = static_cast<FlushKind>(r.flush);
    op.persistent = r.persistent != 0;
    op.addr = r.addr;
    op.value = r.value;
    out.push(op);
  }
  trace = std::move(out);
  return {};
}

TraceIoResult save_trace(const std::string& path, const Trace& trace) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return {false, "cannot open " + path + " for writing"};
  return write_trace(f, trace);
}

TraceIoResult load_trace(const std::string& path, Trace& trace) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return {false, "cannot open " + path};
  return read_trace(f, trace);
}

}  // namespace ntcsim::core
