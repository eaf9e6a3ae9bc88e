#include "src/router/message_pool.hpp"

#include <stdexcept>
#include <string>

namespace swft {

MsgId MessagePool::allocate() {
  if (!freeList_.empty()) {
    ++live_;
    const MsgId id = freeList_.back();
    freeList_.pop_back();
    slots_[id] = Message{};
    return id;
  }
  if (slots_.size() > kMaxMsgId) {
    throw std::length_error("MessagePool: more than kMaxMsgId + 1 = " +
                            std::to_string(std::uint64_t{kMaxMsgId} + 1) +
                            " live messages; a packed flit slot holds a 30-bit id");
  }
  ++live_;
  slots_.emplace_back();
  return static_cast<MsgId>(slots_.size() - 1);
}

void MessagePool::release(MsgId id) {
  --live_;
  freeList_.push_back(id);
}

}  // namespace swft
