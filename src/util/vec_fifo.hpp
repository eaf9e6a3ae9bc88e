// Vector-backed FIFO for the per-node message queues.
//
// A default-constructed std::deque allocates a 64-byte map and a 512-byte
// chunk before its first push. With two queues per node that was ~43 MB of
// heap on a 32,768-node torus whose queues are almost always empty. This FIFO
// owns no heap until its first push. A pop advances a head index; the
// consumed prefix is dropped for free when the queue drains, and otherwise
// when a push finds the buffer full with at least half of it consumed: the
// live suffix (no longer than the consumed prefix) slides to the front, so
// every moved element is paid for by an earlier pop — amortised O(1).
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

namespace swft {

template <typename T>
class VecFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size() - head_; }
  /// Heap slots held (0 until the first push; kept across drains).
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.capacity(); }

  [[nodiscard]] const T& front() const noexcept {
    assert(!empty());
    return buf_[head_];
  }

  void push_back(const T& v) {
    if (head_ != 0 && buf_.size() == buf_.capacity() && 2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    buf_.push_back(v);
  }

  void pop_front() noexcept {
    assert(!empty());
    if (++head_ == buf_.size()) clear();
  }

  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;  // consumed prefix of buf_
};

}  // namespace swft
