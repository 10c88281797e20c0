// Synchronization primitives for the epoch-based execution engine. Workers
// meet at a barrier between epochs; spinning (not parking) keeps the
// per-epoch overhead low for the short epochs of scaled-down datasets.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "util/logging.h"

namespace dw {

/// Reusable sense-reversing spin barrier for a fixed set of participants.
class SpinBarrier {
 public:
  /// `parties` threads must call Wait() before any is released.
  explicit SpinBarrier(uint32_t parties) : parties_(parties) {
    DW_CHECK_GT(parties, 0u);
  }

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all parties arrive. Safe to reuse across generations.
  void Wait() {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
    } else {
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        if (++spins > 1024) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }

  /// Number of participating threads.
  uint32_t parties() const { return parties_; }

 private:
  const uint32_t parties_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<bool> sense_{false};
};

/// Tiny test-and-test-and-set spinlock for short critical sections:
/// metrics aggregation, and the row-block patches of a shared column-wise
/// aux vector (models::AuxLocks). Model updates stay lock-free by design.
class SpinLock {
 public:
  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (locked_hint_.load(std::memory_order_relaxed)) {
      }
    }
    locked_hint_.store(true, std::memory_order_relaxed);
  }

  /// Takes the lock only if it is free; never waits.
  bool try_lock() {
    if (locked_hint_.load(std::memory_order_relaxed)) return false;
    if (flag_.test_and_set(std::memory_order_acquire)) return false;
    locked_hint_.store(true, std::memory_order_relaxed);
    return true;
  }

  void unlock() {
    locked_hint_.store(false, std::memory_order_relaxed);
    flag_.clear(std::memory_order_release);
  }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  std::atomic<bool> locked_hint_{false};
};

}  // namespace dw
