#include "core/trace.hpp"

#include <cstdint>
#include <limits>

#include "common/assert.hpp"

namespace ntcsim::core {

void Trace::push(MicroOp op) {
  NTC_ASSERT(op.kind == OpKind::kCompute ? op.count > 0 : op.count == 1,
             "trace record with a bad uop count");
  uops_ += op.count;
  if (op.kind == OpKind::kCompute && !ops_.empty()) {
    MicroOp& back = ops_.back();
    if (back.kind == OpKind::kCompute &&
        back.count <= std::numeric_limits<std::uint32_t>::max() - op.count) {
      back.count += op.count;
      return;
    }
  }
  ops_.push_back(op);
}

std::size_t Trace::count(OpKind kind) const {
  std::size_t n = 0;
  for (const MicroOp& op : ops_) {
    if (op.kind == kind) n += op.count;
  }
  return n;
}

}  // namespace ntcsim::core
