#include "core/trace.hpp"

namespace ntcsim::core {

std::size_t Trace::count(OpKind kind) const {
  std::size_t n = 0;
  for (const MicroOp& op : ops_) {
    if (op.kind == kind) n += op.count;
  }
  return n;
}

}  // namespace ntcsim::core
