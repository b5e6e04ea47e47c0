// Bounded multi-producer multi-consumer queue: the hand-off between request
// submitters and the EstimatorService worker pool. Mutex + two condition
// variables — simple, fair enough, and the per-item cost is dwarfed by an
// estimate's compute, so a lock-free ring would buy nothing here. Strict
// FIFO: items pop in the order they were pushed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace fj {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `item`) if the
  /// queue was closed before space became available. Thread-safe: any number
  /// of producers may push concurrently with consumers and Close().
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed AND drained, so consumers finish all accepted work before
  /// exiting. Thread-safe for any number of concurrent consumers.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// After Close(), Push rejects new items and Pop drains the backlog then
  /// returns nullopt. Idempotent and thread-safe.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Current backlog length. Thread-safe; a snapshot that may be stale by
  /// the time the caller acts on it.
  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  const size_t capacity_;
  bool closed_ = false;
};

}  // namespace fj
