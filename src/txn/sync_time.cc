#include "src/txn/sync_time.h"

#include <chrono>

#include "src/common/clock.h"
#include "src/htm/htm.h"

namespace drtm {
namespace txn {

SyncTime::SyncTime(rdma::Fabric* fabric, uint64_t update_interval_us)
    : fabric_(fabric),
      interval_us_(update_interval_us),
      skews_(static_cast<size_t>(fabric->num_nodes())),
      epoch_ns_(MonotonicNanos()) {
  offsets_.reserve(static_cast<size_t>(fabric->num_nodes()));
  for (int i = 0; i < fabric->num_nodes(); ++i) {
    // A dedicated cache line per softtime word: the conflict footprint of
    // the timer thread should be exactly this word (Fig. 11).
    offsets_.push_back(fabric->memory(i).Allocate(64, 64));
    skews_[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
  }
  PublishNow();
}

SyncTime::~SyncTime() { Stop(); }

void SyncTime::PublishNow() {
  const uint64_t now_us = (MonotonicNanos() - epoch_ns_) / 1000 + 1;
  for (int i = 0; i < fabric_->num_nodes(); ++i) {
    if (!fabric_->IsAlive(i)) {
      continue;
    }
    const int64_t skew = skews_[static_cast<size_t>(i)].load(
        std::memory_order_relaxed);
    const uint64_t value =
        static_cast<uint64_t>(static_cast<int64_t>(now_us) + skew);
    uint64_t* word = static_cast<uint64_t*>(
        fabric_->memory(i).At(offsets_[static_cast<size_t>(i)]));
    htm::StrongStore(word, value);
  }
}

void SyncTime::Start() {
  if (running_.exchange(true)) {
    return;
  }
  // Cluster construction can take tens of milliseconds after the
  // constructor's publish; refresh the word before returning so the
  // first transactions do not take leases against a stale clock.
  PublishNow();
  timer_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      PublishNow();
      // Sleep rather than spin: the simulation oversubscribes cores, and
      // the paper's timer thread is idle between updates anyway.
      std::this_thread::sleep_for(std::chrono::microseconds(interval_us_));
    }
  });
}

void SyncTime::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  if (timer_.joinable()) {
    timer_.join();
  }
}

uint64_t SyncTime::ReadStrong(int node) const {
  return htm::StrongLoad(Word(node));
}

}  // namespace txn
}  // namespace drtm
