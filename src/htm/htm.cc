#include "src/htm/htm.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/common/cacheline.h"
#include "src/stat/abort_taxonomy.h"

namespace drtm {
namespace htm {

// The taxonomy mirrors the RTM status layout instead of including this
// header; keep the two definitions in lockstep.
static_assert(kAbortExplicit == stat::kRtmExplicitBit);
static_assert(kAbortRetry == stat::kRtmRetryBit);
static_assert(kAbortConflict == stat::kRtmConflictBit);
static_assert(kAbortCapacity == stat::kRtmCapacityBit);

namespace {

thread_local HtmThread* g_current_tx = nullptr;

// Replay seam (SetReplayHooks). The armed flag is the only thing commits
// load on the fast path; the pointers themselves are written only while
// workloads are quiesced.
std::atomic<bool> g_replay_armed{false};
ReplayHooks g_replay_hooks;

// Enumerates the version-table slot of every cache line in [addr, addr+len).
template <typename Fn>
void ForEachLineSlot(VersionTable* table, const void* addr, size_t len,
                     Fn&& fn) {
  const uintptr_t first = reinterpret_cast<uintptr_t>(addr) >> kCacheLineShift;
  const uintptr_t last =
      (reinterpret_cast<uintptr_t>(addr) + len - 1) >> kCacheLineShift;
  for (uintptr_t line = first; line <= last; ++line) {
    fn(table->SlotFor(reinterpret_cast<const void*>(line << kCacheLineShift)));
  }
}

// Locks a slot's seqlock (even -> odd). Returns the pre-lock (even) base
// version. Spins without bound: strong-access critical sections are a few
// instructions long.
uint64_t LockSlot(std::atomic<uint64_t>* slot) {
  while (true) {
    uint64_t v = slot->load(std::memory_order_acquire);
    if (!VersionTable::IsLocked(v) &&
        slot->compare_exchange_weak(v, v + 1, std::memory_order_acq_rel)) {
      return v;
    }
  }
}

// Scratch for one strong access's (slot, version) pairs. Strong accesses
// run for every simulated RDMA verb and all bulk loading, so they reuse a
// per-thread buffer rather than allocating. They never nest.
thread_local std::vector<std::pair<std::atomic<uint64_t>*, uint64_t>>
    t_strong_lines;

// Initial line-table size: 32 lines before the first doubling.
constexpr size_t kInitialLines = 64;

}  // namespace

HtmThread::HtmThread(Config config, VersionTable* table)
    : config_(config), table_(table), lines_(kInitialLines, Line{}) {
  read_lines_.reserve(256);
  write_slots_.reserve(64);
  redo_log_.reserve(64);
  redo_data_.reserve(4096);
  locked_.reserve(64);
}

HtmThread::~HtmThread() {
  assert(depth_ == 0 && "HtmThread destroyed inside a transaction");
}

HtmThread* HtmThread::Current() {
  return (g_current_tx != nullptr && g_current_tx->depth_ > 0) ? g_current_tx
                                                               : nullptr;
}

void HtmThread::Begin() {
  assert(depth_ == 0);
  assert(g_current_tx == nullptr && "another HtmThread active on this thread");
  depth_ = 1;
  g_current_tx = this;
  ++epoch_;  // empties the line table without touching it
  live_lines_ = 0;
  read_lines_.clear();
  write_slots_.clear();
  redo_log_.clear();
  redo_data_.clear();
}

void HtmThread::AbortWith(unsigned status) { throw AbortException{status}; }

void HtmThread::Abort(uint8_t user_code) {
  assert(depth_ > 0);
  AbortWith(kAbortExplicit | (static_cast<unsigned>(user_code) << 24));
}

void HtmThread::Rollback(unsigned status) {
  depth_ = 0;
  g_current_tx = nullptr;
  if (g_replay_armed.load(std::memory_order_relaxed) &&
      g_replay_hooks.on_abort != nullptr) {
    g_replay_hooks.on_abort(status);
  }
  if (status & kAbortCapacity) {
    ++stats_.aborts_capacity;
  } else if (status & kAbortExplicit) {
    ++stats_.aborts_explicit;
  } else {
    ++stats_.aborts_conflict;
  }
  stat::RecordHtmOutcome(status);
}

HtmThread::Line& HtmThread::LineFor(std::atomic<uint64_t>* slot) {
  const uint64_t live = epoch_ << 2;
  while (true) {
    // Slot addresses are already hashed by the version table.
    const size_t mask = lines_.size() - 1;
    size_t i = (reinterpret_cast<uintptr_t>(slot) >> 3) & mask;
    for (;; i = (i + 1) & mask) {
      Line& line = lines_[i];
      if ((line.tag & ~(kLineRead | kLineWritten)) != live) {
        break;
      }
      if (line.slot == slot) {
        return line;
      }
    }
    if (2 * (live_lines_ + 1) <= lines_.size()) {
      ++live_lines_;
      lines_[i] = Line{slot, 0, live};
      return lines_[i];
    }
    GrowLines();
  }
}

void HtmThread::GrowLines() {
  std::vector<Line> old(2 * lines_.size(), Line{});
  old.swap(lines_);
  live_lines_ = 0;
  for (const Line& line : old) {
    if ((line.tag >> 2) == epoch_) {
      LineFor(line.slot) = line;
    }
  }
}

void HtmThread::TrackRead(const void* addr, size_t len) {
  ForEachLineSlot(table_, addr, len, [&](std::atomic<uint64_t>* slot) {
    Line& line = LineFor(slot);
    if (line.tag & kLineRead) {
      // Already tracked; freshness is verified by the post-copy check in
      // Read() and by commit validation.
      return;
    }
    uint64_t v = slot->load(std::memory_order_acquire);
    int spins = 0;
    while (VersionTable::IsLocked(v)) {
      if (++spins > config_.lock_spin_limit) {
        AbortWith(kAbortConflict | kAbortRetry);
      }
      v = slot->load(std::memory_order_acquire);
    }
    if (read_lines_.size() >= config_.max_read_lines) {
      AbortWith(kAbortCapacity);
    }
    line.version = v;
    line.tag |= kLineRead;
    read_lines_.emplace_back(slot, v);
  });
}

void HtmThread::Read(void* dst, const void* src, size_t len) {
  assert(depth_ > 0);
  if (len == 0) {
    return;
  }
  TrackRead(src, len);
  std::atomic_thread_fence(std::memory_order_acquire);
  std::memcpy(dst, src, len);
  std::atomic_thread_fence(std::memory_order_acquire);
  // Seqlock re-check: every line must still carry the version this
  // transaction first observed, otherwise a concurrent commit or strong
  // write raced with the copy. The same lookup tells whether the region
  // has written any of these lines.
  bool written = false;
  ForEachLineSlot(table_, src, len, [&](std::atomic<uint64_t>* slot) {
    const Line& line = LineFor(slot);
    if (slot->load(std::memory_order_acquire) != line.version) {
      AbortWith(kAbortConflict | kAbortRetry);
    }
    written |= (line.tag & kLineWritten) != 0;
  });
  if (!written) {
    return;
  }
  // Read-your-writes: overlay buffered writes, in program order.
  const uintptr_t lo = reinterpret_cast<uintptr_t>(src);
  const uintptr_t hi = lo + len;
  for (const RedoEntry& e : redo_log_) {
    const uintptr_t elo = e.dst;
    const uintptr_t ehi = e.dst + e.len;
    if (ehi <= lo || elo >= hi) {
      continue;
    }
    const uintptr_t olo = std::max(lo, elo);
    const uintptr_t ohi = std::min(hi, ehi);
    std::memcpy(static_cast<uint8_t*>(dst) + (olo - lo),
                redo_data_.data() + e.offset + (olo - elo), ohi - olo);
  }
}

void HtmThread::Write(void* dst, const void* src, size_t len) {
  assert(depth_ > 0);
  if (len == 0) {
    return;
  }
  ForEachLineSlot(table_, dst, len, [&](std::atomic<uint64_t>* slot) {
    Line& line = LineFor(slot);
    if (line.tag & kLineWritten) {
      return;
    }
    if (write_slots_.size() >= config_.max_write_lines) {
      AbortWith(kAbortCapacity);
    }
    line.tag |= kLineWritten;
    write_slots_.push_back(slot);
  });
  if (!redo_log_.empty()) {
    // Coalescing: a byte-adjacent append (the common pattern when a large
    // value is written as consecutive slices) extends the previous redo
    // entry instead of growing the log. Program order is preserved — only
    // the latest entry ever extends.
    RedoEntry& last = redo_log_.back();
    if (last.dst + last.len == reinterpret_cast<uintptr_t>(dst) &&
        last.offset + last.len == redo_data_.size()) {
      redo_data_.insert(redo_data_.end(), static_cast<const uint8_t*>(src),
                        static_cast<const uint8_t*>(src) + len);
      last.len += static_cast<uint32_t>(len);
      return;
    }
  }
  const uint32_t offset = static_cast<uint32_t>(redo_data_.size());
  redo_data_.insert(redo_data_.end(), static_cast<const uint8_t*>(src),
                    static_cast<const uint8_t*>(src) + len);
  redo_log_.push_back(RedoEntry{reinterpret_cast<uintptr_t>(dst), offset,
                                static_cast<uint32_t>(len)});
}

void HtmThread::Commit() {
  assert(depth_ > 0);
  if (depth_ > 1) {
    // Flattened inner region; the outer Transact() commits.
    --depth_;
    return;
  }
  auto unlock_and_abort = [this]() {
    for (auto& [held, base] : locked_) {
      held->store(base, std::memory_order_release);
    }
    AbortWith(kAbortConflict | kAbortRetry);
  };

  // Phase 1: lock the written lines in global (slot-address) order.
  std::sort(write_slots_.begin(), write_slots_.end());
  locked_.clear();
  for (std::atomic<uint64_t>* slot : write_slots_) {
    int spins = 0;
    while (true) {
      uint64_t v = slot->load(std::memory_order_acquire);
      if (!VersionTable::IsLocked(v) &&
          slot->compare_exchange_weak(v, v + 1, std::memory_order_acq_rel)) {
        locked_.emplace_back(slot, v);
        break;
      }
      if (++spins > config_.lock_spin_limit) {
        unlock_and_abort();
      }
    }
  }

  // Phase 2: validate the read lines against their first-read versions.
  // A line this region locked now reads base + 1, and it is valid iff
  // that pre-lock base is the version it first read; a line locked by
  // anyone else, or moved on, is a conflict.
  for (const auto& [slot, recorded] : read_lines_) {
    const uint64_t current = slot->load(std::memory_order_acquire);
    if (current != recorded &&
        !(current == recorded + 1 && (LineFor(slot).tag & kLineWritten))) {
      unlock_and_abort();
    }
  }

  // Phase 3: install buffered writes, then release with a version bump.
  std::atomic_thread_fence(std::memory_order_release);
  for (const RedoEntry& e : redo_log_) {
    std::memcpy(reinterpret_cast<void*>(e.dst), redo_data_.data() + e.offset,
                e.len);
  }
  std::atomic_thread_fence(std::memory_order_release);
  if (g_replay_armed.load(std::memory_order_relaxed) &&
      g_replay_hooks.on_publish != nullptr && !locked_.empty()) {
    // Inside the critical section (slots still locked): the hook's
    // observation order is the serialization order of conflicting
    // commits. Read-only regions (no locked lines) publish nothing.
    published_.clear();
    for (const auto& [slot, base] : locked_) {
      published_.push_back(PublishedLine{
          static_cast<uint32_t>(table_->IndexOf(slot)), base + 2});
    }
    g_replay_hooks.on_publish(published_.data(), published_.size(), table_);
  }
  for (auto& [slot, base] : locked_) {
    slot->store(base + 2, std::memory_order_release);
  }

  ++stats_.commits;
  stat::RecordHtmOutcome(kCommitted);
  depth_ = 0;
  g_current_tx = nullptr;
}

void SetReplayHooks(const ReplayHooks& hooks) {
  const bool arm =
      hooks.on_publish != nullptr || hooks.on_abort != nullptr;
  if (arm) {
    g_replay_hooks = hooks;
    g_replay_armed.store(true, std::memory_order_release);
  } else {
    g_replay_armed.store(false, std::memory_order_release);
    g_replay_hooks = ReplayHooks{};
  }
}

void AbortCurrentTransactionOrDie(const char* what) {
  if (HtmThread::Current() != nullptr) {
    throw AbortException{kAbortConflict | kAbortRetry};
  }
  std::fprintf(stderr, "invariant violated outside a transaction: %s\n",
               what);
  std::abort();
}

// --- Strong accesses --------------------------------------------------------

void StrongRead(void* dst, const void* src, size_t len, VersionTable* table) {
  if (len == 0) {
    return;
  }
  auto& observed = t_strong_lines;
  while (true) {
    observed.clear();
    ForEachLineSlot(table, src, len, [&](std::atomic<uint64_t>* slot) {
      uint64_t v = slot->load(std::memory_order_acquire);
      while (VersionTable::IsLocked(v)) {
        v = slot->load(std::memory_order_acquire);
      }
      observed.emplace_back(slot, v);
    });
    std::atomic_thread_fence(std::memory_order_acquire);
    std::memcpy(dst, src, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    bool stable = true;
    for (const auto& [slot, v] : observed) {
      if (slot->load(std::memory_order_acquire) != v) {
        stable = false;
        break;
      }
    }
    if (stable) {
      return;
    }
  }
}

void StrongWrite(void* dst, const void* src, size_t len, VersionTable* table) {
  if (len == 0) {
    return;
  }
  // (slot, pre-lock base), locked in sorted slot order.
  auto& locked = t_strong_lines;
  locked.clear();
  ForEachLineSlot(table, dst, len, [&](std::atomic<uint64_t>* slot) {
    locked.emplace_back(slot, 0);
  });
  std::sort(locked.begin(), locked.end());
  locked.erase(std::unique(locked.begin(), locked.end()), locked.end());
  for (auto& [slot, base] : locked) {
    base = LockSlot(slot);
  }
  std::atomic_thread_fence(std::memory_order_release);
  std::memcpy(dst, src, len);
  std::atomic_thread_fence(std::memory_order_release);
  for (const auto& [slot, base] : locked) {
    slot->store(base + 2, std::memory_order_release);
  }
}

uint64_t StrongCas64(uint64_t* addr, uint64_t expected, uint64_t desired,
                     VersionTable* table) {
  assert(reinterpret_cast<uintptr_t>(addr) % 8 == 0);
  std::atomic<uint64_t>* slot = table->SlotFor(addr);
  const uint64_t base = LockSlot(slot);
  std::atomic_thread_fence(std::memory_order_acquire);
  const uint64_t observed = *addr;
  if (observed == expected) {
    *addr = desired;
    std::atomic_thread_fence(std::memory_order_release);
    slot->store(base + 2, std::memory_order_release);
  } else {
    slot->store(base, std::memory_order_release);
  }
  return observed;
}

uint64_t StrongFaa64(uint64_t* addr, uint64_t delta, VersionTable* table) {
  assert(reinterpret_cast<uintptr_t>(addr) % 8 == 0);
  std::atomic<uint64_t>* slot = table->SlotFor(addr);
  const uint64_t base = LockSlot(slot);
  std::atomic_thread_fence(std::memory_order_acquire);
  const uint64_t observed = *addr;
  *addr = observed + delta;
  std::atomic_thread_fence(std::memory_order_release);
  slot->store(base + 2, std::memory_order_release);
  return observed;
}

}  // namespace htm
}  // namespace drtm
