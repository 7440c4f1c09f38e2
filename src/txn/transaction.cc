#include "src/txn/transaction.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/chaos/injector.h"
#include "src/common/clock.h"
#include "src/rdma/phase_scatter.h"
#include "src/replay/recorder.h"
#include "src/rdma/verbs_batch.h"
#include "src/stat/metrics.h"
#include "src/stat/scatter_stats.h"
#include "src/stat/timer.h"
#include "src/store/kv_layout.h"
#include "src/store/remote_kv.h"
#include "src/txn/lock_state.h"

namespace drtm {
namespace txn {

namespace {

constexpr int kFallbackAttempts = 512;
constexpr int kWaitTriesLimit = 4096;
constexpr int kWriteBackRetries = 2000;
// Start-phase conflicts (a remote lock or lease not taken) an HTM-path
// transaction retries before the fallback serializes it.
constexpr int kStartRetryLimit = 64;
// Lock-observed XABORTs (the body saw a 2PL write lock) mean the holder
// is mid-commit: stretch the retry budget by up to this many extra
// attempts with a stronger bounded-exponential backoff instead of
// falling through to the ~1000x-costlier 2PL fallback.
constexpr int kLockAbortExtraRetries = 8;

void SleepUs(uint64_t us) {
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// A WRITE of a committed transaction (write-back or unlock), retried
// while the target is down: the paper's surviving workers wait for
// recovery (Fig. 7(d)); recovery also clears locks from lock-ahead logs.
void WriteUntilDelivered(rdma::Fabric& fabric, int node, uint64_t off,
                         const void* data, size_t len) {
  for (int attempt = 0; attempt < kWriteBackRetries; ++attempt) {
    if (fabric.Write(node, off, data, len) == rdma::OpStatus::kOk) {
      return;
    }
    SleepUs(1000);
  }
}

// RAII bracket around one transaction attempt so the elastic tier's
// DrainTxnWindows() can wait out every attempt that sampled hook or
// routing state from before a toggle.
class WindowGuard {
 public:
  explicit WindowGuard(Cluster& cluster)
      : cluster_(cluster), token_(cluster.BeginTxnWindow()) {}
  ~WindowGuard() { cluster_.EndTxnWindow(token_); }

  WindowGuard(const WindowGuard&) = delete;
  WindowGuard& operator=(const WindowGuard&) = delete;

 private:
  Cluster& cluster_;
  uint64_t token_;
};

// The elastic freeze gate: false while a live migration has the key's
// bucket frozen mid-switch. Gated acquisitions fail as conflicts; the
// retry re-resolves the owner and lands on the new one after the flip.
bool GateAllows(Cluster& cluster, int table, uint64_t key) {
  Cluster::ElasticHooks* hooks = cluster.elastic_hooks();
  return hooks == nullptr || hooks->AllowAcquire(table, key);
}

// Remembers which ref (or other tag) posted each verb of a scatter
// round, so that a completion, which carries only its target node and
// wr_id, maps back to it.
template <typename Tag>
class VerbOwners {
 public:
  void Add(int target, rdma::WrId id, Tag tag) {
    owners_.push_back(Owner{target, id, tag});
  }
  const Tag& Of(const rdma::ScatterCompletion& sc) const {
    for (const Owner& owner : owners_) {
      if (owner.target == sc.target && owner.id == sc.comp.wr_id) {
        return owner.tag;
      }
    }
    assert(false && "completion of a verb that was never posted");
    return owners_.front().tag;
  }

 private:
  struct Owner {
    int target;
    rdma::WrId id;
    Tag tag;
  };
  std::vector<Owner> owners_;
};

// Registry ids for the transaction-layer counters and phase timers,
// resolved once per process.
struct TxnMetricIds {
  uint32_t commit = 0;
  uint32_t user_abort = 0;
  uint32_t start_conflict = 0;
  uint32_t fallback = 0;
  uint32_t exhausted = 0;
  uint32_t node_failure = 0;
  uint32_t lease_abort = 0;
  uint32_t lock_abort = 0;
  uint32_t ro_commit = 0;
  uint32_t ro_retry = 0;
  uint32_t ro_htm_commit = 0;
  uint32_t lock_backoff = 0;
  uint32_t fallback_optimistic_hit = 0;
  uint32_t fallback_fallthrough = 0;
  uint32_t adaptive_budget_gauge = 0;
  uint32_t htm_attempt_ns = 0;
  uint32_t fallback_ns = 0;
  uint32_t lock_acquire_ns = 0;
  uint32_t lease_wait_ns = 0;
  uint32_t commit_ns = 0;
};

const TxnMetricIds& Ids() {
  static const TxnMetricIds ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    TxnMetricIds t;
    t.commit = reg.CounterId("txn.commit");
    t.user_abort = reg.CounterId("txn.user_abort");
    t.start_conflict = reg.CounterId("txn.start_conflict");
    t.fallback = reg.CounterId("txn.fallback");
    t.exhausted = reg.CounterId("txn.fallback_exhausted");
    t.node_failure = reg.CounterId("txn.node_failure");
    t.lease_abort = reg.CounterId("txn.lease_abort");
    t.lock_abort = reg.CounterId("txn.lock_abort");
    t.ro_commit = reg.CounterId("txn.readonly.commit");
    t.ro_retry = reg.CounterId("txn.readonly.retry");
    t.ro_htm_commit = reg.CounterId("txn.readonly.htm_commit");
    t.lock_backoff = reg.CounterId("txn.lock_backoff");
    t.fallback_optimistic_hit = reg.CounterId("txn.fallback.optimistic_hit");
    t.fallback_fallthrough =
        reg.CounterId("txn.fallback.ordered_fallthrough");
    t.adaptive_budget_gauge = reg.GaugeId("txn.adaptive.retry_budget");
    t.htm_attempt_ns = reg.TimerId("phase.htm_attempt_ns");
    t.fallback_ns = reg.TimerId("phase.fallback_ns");
    t.lock_acquire_ns = reg.TimerId("phase.lock_acquire_ns");
    t.lease_wait_ns = reg.TimerId("phase.lease_wait_ns");
    t.commit_ns = reg.TimerId("phase.commit_ns");
    return t;
  }();
  return ids;
}

}  // namespace

void TxnStats::Add(const TxnStats& o) {
  committed += o.committed;
  user_aborts += o.user_aborts;
  start_conflicts += o.start_conflicts;
  htm_conflict_aborts += o.htm_conflict_aborts;
  htm_capacity_aborts += o.htm_capacity_aborts;
  htm_lock_aborts += o.htm_lock_aborts;
  htm_lease_aborts += o.htm_lease_aborts;
  fallbacks += o.fallbacks;
  node_failures += o.node_failures;
  read_only_committed += o.read_only_committed;
  read_only_retries += o.read_only_retries;
}

Worker::Worker(Cluster* cluster, int node, int worker_id)
    : cluster_(cluster),
      node_(node),
      worker_id_(worker_id),
      htm_(cluster->config().htm),
      rng_(0x5bd1e995u * static_cast<uint64_t>(node * 131 + worker_id + 7)),
      backoff_rng_(0xb5297a4db432ca99ULL ^
                   (0x9e3779b9u * static_cast<uint64_t>(node * 131 +
                                                        worker_id + 7))) {}

void Worker::WaitDurable(uint64_t txn_id) {
  if (!cluster_->config().logging) {
    return;
  }
  cluster_->log(node_)->WaitDurable(worker_id_, txn_id);
}

void Worker::Backoff(int attempt) {
  const int shift = attempt < 8 ? attempt : 8;
  const uint64_t ceiling = uint64_t{1} << shift;
  SleepUs(1 + backoff_rng_.NextBounded(ceiling));
}

void Worker::LockBackoff(int consecutive_lock_aborts) {
  // Ceiling grows 8 -> 256 us: enough for the holder's two-WRITE
  // write-back (a few us modeled) plus queueing, bounded so a stuck
  // holder still sends us to the fallback reasonably fast.
  const int shift =
      consecutive_lock_aborts < 6 ? consecutive_lock_aborts : 6;
  const uint64_t ceiling = uint64_t{4} << shift;
  SleepUs(2 + backoff_rng_.NextBounded(ceiling));
}

int Worker::MixRegime() const {
  if (abort_mix_.total() < AbortMixWindow::kMinSamples) {
    return -1;
  }
  if (abort_mix_.capacity * 2 >= abort_mix_.total()) {
    return 0;  // capacity-dominant
  }
  if ((abort_mix_.conflict + abort_mix_.lock) * 4 >=
      abort_mix_.total() * 3) {
    return 1;  // contention-dominant
  }
  return -1;
}

int Worker::AdaptiveRetryLimit() {
  const int base = cluster_->config().htm_retry_limit;
  int chosen = base;
  if (cluster_->config().adaptive_retry_budget && base > 0) {
    switch (MixRegime()) {
      case 0:
        chosen = std::max(1, base / 2);
        break;
      case 1:
        chosen = base * 2;
        break;
      default:
        break;
    }
  }
  stat::Registry::Global().GaugeSet(Ids().adaptive_budget_gauge, chosen);
  return chosen;
}

int Worker::AdaptiveLockExtraRetries() const {
  if (!cluster_->config().adaptive_retry_budget) {
    return kLockAbortExtraRetries;
  }
  switch (MixRegime()) {
    case 0:
      return kLockAbortExtraRetries / 2;
    case 1:
      return kLockAbortExtraRetries * 2;
    default:
      return kLockAbortExtraRetries;
  }
}

Transaction::Transaction(Worker* worker)
    : worker_(worker),
      cluster_(worker->cluster()),
      cfg_(worker->cluster().config()) {}

int Transaction::home_node() const { return worker_->node(); }

void Transaction::AddRead(int table, uint64_t key) {
  // Without read leases (the Fig. 17 ablation) a read is locked like a
  // write.
  AddRef(table, key, /*write=*/!cfg_.enable_read_lease);
}

void Transaction::AddWrite(int table, uint64_t key) {
  AddRef(table, key, /*write=*/true);
}

void Transaction::AddRef(int table, uint64_t key, bool write) {
  if (Ref* existing = FindRef(table, key)) {
    existing->write |= write;  // a write subsumes a read
    return;
  }
  Ref ref;
  ref.table = table;
  ref.key = key;
  ref.write = write;
  ref.node = cluster_.PartitionOf(table, key);
  ref.local = (ref.node == worker_->node());
  ref.value_size = cluster_.table(table).value_size;
  refs_.push_back(std::move(ref));
}

void Transaction::MarkChainLocked(int table, uint64_t key) {
  if (Ref* ref = FindRef(table, key)) {
    ref->chain_locked = true;
  }
}

Transaction::Ref* Transaction::FindRef(int table, uint64_t key) {
  for (Ref& ref : refs_) {
    if (ref.table == table && ref.key == key) {
      return &ref;
    }
  }
  return nullptr;
}

void Transaction::SortRefs() {
  std::sort(refs_.begin(), refs_.end(), [](const Ref& a, const Ref& b) {
    return a.table != b.table ? a.table < b.table : a.key < b.key;
  });
}

// --- lock helpers ------------------------------------------------------------

rdma::OpStatus Transaction::StateCas(const Ref& ref, uint64_t expected,
                                     uint64_t desired, uint64_t* observed) {
  const uint64_t state_off = ref.entry_off + store::kEntryStateOffset;
  if (ref.local &&
      cluster_.fabric().atomic_level() == rdma::AtomicLevel::kGlob) {
    // GLOB-level NICs keep RDMA CAS coherent with processor CAS, so the
    // cheap local atomic is allowed (section 6.3).
    SpinFor(cfg_.latency.LocalCasNs());
    uint64_t* addr =
        cluster_.hash_table(ref.node, ref.table)->StatePtr(ref.entry_off);
    // drtm-lint: allow(TX03 local stand-in for an RDMA CAS verb on GLOB-coherent NICs)
    *observed = htm::StrongCas64(addr, expected, desired);
    return rdma::OpStatus::kOk;
  }
  return cluster_.fabric().Cas(ref.node, state_off, expected, desired,
                               observed);
}

void Transaction::UnlockRef(const Ref& ref) {
  if (ref.local &&
      cluster_.fabric().atomic_level() == rdma::AtomicLevel::kGlob) {
    // drtm-lint: allow(TX03 lock release on a state word we own, stands in for an RDMA WRITE)
    htm::StrongStore(
        cluster_.hash_table(ref.node, ref.table)->StatePtr(ref.entry_off),
        kStateInit);
    return;
  }
  const uint64_t init = kStateInit;
  WriteUntilDelivered(cluster_.fabric(), ref.node,
                      ref.entry_off + store::kEntryStateOffset, &init,
                      sizeof(init));
}

Transaction::StartResult Transaction::AcquireExclusive(Ref& ref, bool wait) {
  if (!GateAllows(cluster_, ref.table, ref.key)) {
    return StartResult::kConflict;
  }
  stat::ScopedTimer phase(Ids().lock_acquire_ns);
  const uint64_t locked_val =
      MakeWriteLocked(static_cast<uint8_t>(worker_->node()));
  uint64_t expected = kStateInit;
  int tries = 0;
  while (true) {
    uint64_t observed = 0;
    if (StateCas(ref, expected, locked_val, &observed) !=
        rdma::OpStatus::kOk) {
      return StartResult::kNodeDown;
    }
    if (observed == expected) {
      ref.locked = true;
      return StartResult::kOk;
    }
    if (IsWriteLocked(observed)) {
      if (!wait || ++tries > kWaitTriesLimit) {
        return StartResult::kConflict;
      }
      SleepUs(10 + worker_->backoff_rng().NextBounded(50));
      expected = kStateInit;
      continue;
    }
    // A read lease is present; writers must wait for expiry (Fig. 5).
    const uint64_t end = LeaseEnd(observed);
    while (true) {
      const uint64_t now = cluster_.synctime().ReadStrong(worker_->node());
      if (LeaseExpired(end, now, cfg_.delta_us)) {
        break;
      }
      if (!wait || ++tries > kWaitTriesLimit) {
        return StartResult::kConflict;
      }
      SleepUs(20);
    }
    expected = observed;  // CAS the expired lease away
  }
}

Transaction::StartResult Transaction::AcquireLease(Ref& ref) {
  if (!GateAllows(cluster_, ref.table, ref.key)) {
    return StartResult::kConflict;
  }
  stat::ScopedTimer phase(Ids().lease_wait_ns);
  // An 8-byte READ of the state word first, so that a healthy lease is
  // shared without any CAS (section 6.3).
  uint64_t observed = 0;
  if (cluster_.fabric().Read(ref.node,
                             ref.entry_off + store::kEntryStateOffset,
                             &observed,
                             sizeof(observed)) != rdma::OpStatus::kOk) {
    return StartResult::kNodeDown;
  }
  if (IsWriteLocked(observed)) {
    observed = kStateInit;  // CAS at once; the loop waits the lock out
  }
  return LeaseCasLoop(ref, /*wait=*/true, observed, lease_end_,
                      cfg_.lease_rw_us);
}

bool Transaction::LeaseShareable(uint64_t end, uint64_t now,
                                 uint64_t lease_us) const {
  // Enough of the lease must remain for the sharer to confirm it at
  // commit; sharing never extends a lease, so writers wait no longer.
  return end > now + 2 * cfg_.delta_us + lease_us / 8;
}

uint64_t Transaction::LeaseReplacement(uint64_t observed, uint64_t end,
                                       uint64_t now) const {
  if (LeaseExpired(LeaseEnd(observed), now, cfg_.delta_us)) {
    return MakeLease(end);  // steal
  }
  // Renew in place: readers of the old end stay valid, but each renewal
  // delays waiting writers, so a lease is renewed only once.
  return IsRenewedLease(observed) ? kStateInit : MakeRenewedLease(end);
}

Transaction::StartResult Transaction::LeaseCasLoop(Ref& ref, bool wait,
                                                   uint64_t observed,
                                                   uint64_t end,
                                                   uint64_t lease_us) {
  int tries = 0;
  while (true) {
    uint64_t expected = observed;
    uint64_t desired = MakeLease(end);
    if (IsWriteLocked(observed)) {
      if (!wait || ++tries > kWaitTriesLimit) {
        return StartResult::kConflict;
      }
      SleepUs(10 + worker_->backoff_rng().NextBounded(50));
      expected = kStateInit;
    } else if (HasLease(observed)) {
      // Read-read sharing adopts the existing lease and its end time —
      // unless too little of it remains, in which case it is renewed or
      // stolen (LeaseReplacement).
      const uint64_t now = cluster_.synctime().ReadStrong(worker_->node());
      if (LeaseShareable(LeaseEnd(observed), now, lease_us)) {
        ref.leased = true;
        ref.lease_end = LeaseEnd(observed);
        return StartResult::kOk;
      }
      desired = LeaseReplacement(observed, end, now);
      if (desired == kStateInit) {
        // Renewed once already: wait it out like a writer, then steal.
        if (!wait || ++tries > kWaitTriesLimit) {
          return StartResult::kConflict;
        }
        SleepUs(20);
        continue;
      }
    }
    if (StateCas(ref, expected, desired, &observed) != rdma::OpStatus::kOk) {
      return StartResult::kNodeDown;
    }
    if (observed == expected) {
      ref.leased = true;
      ref.lease_end = end;
      return StartResult::kOk;
    }
  }
}

Transaction::StartResult Transaction::AcquireRound(
    const std::vector<Ref*>& refs, uint64_t lease_us,
    const stat::ScatterPhaseIds& ids) {
  // One CAS or probe of a ref's state word. `done` is set once the op
  // ran (a posted op whose target was down stays false).
  struct StateOp {
    Ref* ref;
    bool cas;
    uint64_t expected;
    uint64_t desired;
    uint64_t observed = 0;
    bool done = false;
  };
  const uint64_t locked_val =
      MakeWriteLocked(static_cast<uint8_t>(worker_->node()));
  std::vector<StateOp> ops;
  bool any_lease = false;
  for (Ref* ref : refs) {
    if (!ref->found || ref->chain_locked) {
      continue;  // a chain-locked ref's lock is held by its chain
    }
    if (ref->write) {
      // The blind CAS below bypasses AcquireExclusive's freeze gate.
      if (!GateAllows(cluster_, ref->table, ref->key)) {
        return StartResult::kConflict;
      }
      ops.push_back(StateOp{ref, true, kStateInit, locked_val});
    } else {
      ops.push_back(StateOp{ref, false, 0, 0});
      any_lease = true;
    }
  }
  if (ops.empty()) {
    return StartResult::kOk;
  }
  stat::ScopedTimer phase(Ids().lock_acquire_ns);
  const bool glob =
      cluster_.fabric().atomic_level() == rdma::AtomicLevel::kGlob;
  rdma::PhaseScatter scatter(cluster_.fabric(), SqConfig(), &ids);
  // Runs `round` as one overlapped scatter: every target's doorbell is
  // rung before any completion is polled, so k nodes cost ~1 round trip.
  // A local record's CAS on a GLOB NIC and a local probe run inline.
  // False if a target is down.
  auto run = [&](std::vector<StateOp>& round) {
    VerbOwners<size_t> owners;
    for (size_t i = 0; i < round.size(); ++i) {
      StateOp& op = round[i];
      const Ref& ref = *op.ref;
      const uint64_t state_off = ref.entry_off + store::kEntryStateOffset;
      if (ref.local && (glob || !op.cas)) {
        if (op.cas) {
          StateCas(ref, op.expected, op.desired, &op.observed);
        } else {
          store::ClusterHashTable* host =
              cluster_.hash_table(ref.node, ref.table);
          // drtm-lint: allow(TX03 lease probe of a local record, stands in for a one-sided RDMA READ)
          op.observed = htm::StrongLoad(host->StatePtr(ref.entry_off));
        }
        op.done = true;
      } else if (op.cas) {
        owners.Add(ref.node,
                   scatter.To(ref.node).PostCas(state_off, op.expected,
                                                op.desired),
                   i);
      } else {
        owners.Add(ref.node,
                   scatter.To(ref.node).PostRead(state_off, &op.observed,
                                                 sizeof(op.observed)),
                   i);
      }
    }
    std::vector<rdma::ScatterCompletion> comps;
    scatter.Gather(&comps);
    bool ok = true;
    for (const rdma::ScatterCompletion& sc : comps) {
      StateOp& op = round[owners.Of(sc)];
      if (sc.comp.status != rdma::OpStatus::kOk) {
        ok = false;
        continue;
      }
      if (op.cas) {
        op.observed = sc.comp.observed;
      }
      op.done = true;
    }
    return ok;
  };

  // Round 1: a blind INIT -> locked CAS for every lock and a state-word
  // probe for every lease. Acquisition order is arbitrary, which is safe
  // because nothing in this round waits. Every lock taken is booked
  // before any failure is acted on, so the caller's release sees it.
  const bool round1_ok = run(ops);
  std::vector<Ref*> contended;
  for (const StateOp& op : ops) {
    if (op.cas && op.done) {
      if (op.observed == kStateInit) {
        op.ref->locked = true;
      } else {
        contended.push_back(op.ref);
      }
    }
  }
  if (!round1_ok) {
    return StartResult::kNodeDown;
  }
  if (any_lease) {
    stat::ScopedTimer lease_phase(Ids().lease_wait_ns);
    // A healthy lease is shared as is, CAS-free (an RDMA CAS costs an
    // order of magnitude more than a small READ, section 6.3). Every
    // other lease is installed, renewed or stolen by one CAS, all of
    // them riding one more round.
    const uint64_t now = cluster_.synctime().ReadStrong(worker_->node());
    std::vector<StateOp> lease_cas;
    for (const StateOp& op : ops) {
      if (op.cas) {
        continue;
      }
      Ref& ref = *op.ref;
      const uint64_t seen = op.observed;
      if (HasLease(seen) && LeaseShareable(LeaseEnd(seen), now, lease_us)) {
        ref.leased = true;
        ref.lease_end = LeaseEnd(seen);
        continue;
      }
      const uint64_t desired = HasLease(seen)
                                   ? LeaseReplacement(seen, lease_end_, now)
                                   : MakeLease(lease_end_);
      // A write lock or a lease renewed once already can only be waited
      // out. Sharing above is safe on a bucket the elastic tier froze
      // (it never extends a lease), but installing or renewing one would
      // stretch the revocation wait.
      if (IsWriteLocked(seen) || desired == kStateInit ||
          !GateAllows(cluster_, ref.table, ref.key)) {
        return StartResult::kConflict;
      }
      lease_cas.push_back(StateOp{&ref, true, seen, desired});
    }
    if (!run(lease_cas)) {
      return StartResult::kNodeDown;
    }
    for (const StateOp& op : lease_cas) {
      if (op.observed == op.expected) {
        op.ref->leased = true;
        op.ref->lease_end = lease_end_;
        continue;
      }
      const StartResult result = LeaseCasLoop(*op.ref, /*wait=*/false,
                                              op.observed, lease_end_,
                                              lease_us);
      if (result != StartResult::kOk) {
        return result;
      }
    }
  }
  // Lock CASes that lost in round 1: the scalar continuation steals an
  // expired lease and fails on anything else.
  for (Ref* ref : contended) {
    const StartResult result = AcquireExclusive(*ref, /*wait=*/false);
    if (result != StartResult::kOk) {
      return result;
    }
  }
  return StartResult::kOk;
}

Transaction::StartResult Transaction::AcquireInOrder(
    const std::vector<Ref*>& refs) {
  // Waiting while holding earlier locks is deadlock-free only because
  // every waiter acquires in the one global <table, key> order (§6.2).
  assert(std::is_sorted(refs.begin(), refs.end(),
                        [](const Ref* a, const Ref* b) {
                          return a->table != b->table ? a->table < b->table
                                                      : a->key < b->key;
                        }));
  for (Ref* ref : refs) {
    if (!ref->found || ref->chain_locked) {
      continue;
    }
    const StartResult result =
        ref->write ? AcquireExclusive(*ref, /*wait=*/true) : AcquireLease(*ref);
    if (result != StartResult::kOk) {
      return result;
    }
  }
  return StartResult::kOk;
}

Transaction::StartResult Transaction::PrefetchFromRaw(Ref& ref,
                                                      const uint8_t* raw) {
  store::EntryHeader header;
  std::memcpy(&header, raw, sizeof(header));
  if (header.key != ref.key) {
    // The entry was deleted (and possibly recycled) between lookup and
    // lock; undo and let the retry re-resolve.
    if (ref.locked) {
      UnlockRef(ref);
      ref.locked = false;
    }
    ref.leased = false;
    ref.found = false;
    return StartResult::kConflict;
  }
  ref.version = header.version;
  ref.buf.resize(ref.value_size);
  std::memcpy(ref.buf.data(), raw + sizeof(header), ref.value_size);
  return StartResult::kOk;
}

Transaction::StartResult Transaction::PrefetchRefs(
    const std::vector<Ref*>& refs) {
  std::vector<std::vector<uint8_t>> raws(refs.size());
  {
    rdma::PhaseScatter scatter(cluster_.fabric(), SqConfig(),
                               &stat::ScatterPrefetchIds());
    for (size_t i = 0; i < refs.size(); ++i) {
      const Ref& ref = *refs[i];
      if (!ref.found) {
        continue;
      }
      raws[i].resize(sizeof(store::EntryHeader) + ref.value_size);
      scatter.To(ref.node).PostRead(ref.entry_off, raws[i].data(),
                                    raws[i].size());
    }
    std::vector<rdma::ScatterCompletion> comps;
    scatter.Gather(&comps);
    for (const rdma::ScatterCompletion& sc : comps) {
      if (sc.comp.status != rdma::OpStatus::kOk) {
        return StartResult::kNodeDown;
      }
    }
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    if (raws[i].empty()) {
      continue;
    }
    const StartResult sr = PrefetchFromRaw(*refs[i], raws[i].data());
    if (sr != StartResult::kOk) {
      return sr;
    }
  }
  return StartResult::kOk;
}

bool Transaction::ResolveRefs(const std::vector<Ref*>& refs) {
  std::vector<Ref*> remote;
  for (Ref* ref : refs) {
    if (ref->local) {
      ref->entry_off =
          cluster_.hash_table(ref->node, ref->table)->FindEntry(ref->key);
      ref->found = ref->entry_off != store::kInvalidOffset;
    } else {
      remote.push_back(ref);
    }
  }
  if (remote.empty()) {
    return true;
  }
  // One RemoteKv per ref (geometry is per <node, table>); the scatter
  // dedups queues per target node, so all chains walk in lockstep with
  // one overlapped doorbell per node per round.
  std::vector<store::RemoteKv> clients;
  std::vector<store::RemoteKv::LookupTask> tasks(remote.size());
  clients.reserve(remote.size());
  for (size_t i = 0; i < remote.size(); ++i) {
    const Ref& ref = *remote[i];
    clients.emplace_back(&cluster_.fabric(), ref.node,
                         cluster_.hash_table(ref.node, ref.table)->geometry(),
                         cluster_.cache(worker_->node(), ref.node));
    tasks[i].client = &clients.back();
    tasks[i].key = ref.key;
  }
  rdma::PhaseScatter scatter(cluster_.fabric(), SqConfig(),
                             &stat::ScatterLookupIds());
  store::RemoteKv::ScatterLookup(scatter, &tasks);
  for (size_t i = 0; i < remote.size(); ++i) {
    Ref& ref = *remote[i];
    if (!cluster_.fabric().IsAlive(ref.node)) {
      return false;
    }
    ref.found = tasks[i].result.found;
    ref.entry_off = tasks[i].result.entry_off;
  }
  return true;
}

void Transaction::BeginAttempt(uint64_t lease_us) {
  now_start_ = cluster_.synctime().ReadStrong(worker_->node());
  lease_end_ = now_start_ + lease_us;
  // Re-resolve every ref's owner: the elastic tier can flip bucket
  // ownership between attempts (live migration), and a stale node would
  // acquire against the old owner's copy after the switch.
  for (Ref& ref : refs_) {
    ref.node = cluster_.PartitionOf(ref.table, ref.key);
    ref.local = (ref.node == worker_->node());
  }
}

bool Transaction::LeasesValid(const std::vector<Ref>& refs) const {
  const uint64_t now = cluster_.synctime().ReadStrong(worker_->node());
  for (const Ref& ref : refs) {
    if (ref.leased && !LeaseValid(ref.lease_end, now, cfg_.delta_us)) {
      return false;
    }
  }
  return true;
}

void Transaction::AppendComplete() {
  // Dropping a Complete is benign (redo is version-gated and lock
  // release idempotent), so a final failure is ignored; but the record
  // is what lets the epoch recycle, so a full segment is ridden out.
  cluster_.log(worker_->node())
      ->AppendOutsideHtm(worker_->worker_id(), LogType::kComplete, txn_id_,
                         nullptr, 0);
}

bool Transaction::AppendLockAhead(const std::vector<Ref*>& refs) {
  // Chain-locked refs are excluded: their lock belongs to the chain
  // (logged once under the chain id), and a per-piece lock-ahead entry
  // would let recovery release the chain lock after a mere piece crash.
  std::vector<LogLock> locks;
  for (const Ref* ref : refs) {
    if (cfg_.logging && ref->write && !ref->chain_locked) {
      locks.push_back(LogLock{ref->node, ref->table, ref->key,
                              ref->entry_off + store::kEntryStateOffset});
    }
  }
  if (locks.empty()) {
    return true;
  }
  const std::vector<uint8_t> payload = NvramLog::EncodeLocks(locks);
  NvramLog* log = cluster_.log(worker_->node());
  if (log->AppendOutsideHtm(worker_->worker_id(), LogType::kLockAhead,
                            txn_id_, payload.data(),
                            payload.size()) != AppendStatus::kOk) {
    // Log full even after reclaiming, or the append itself faulted:
    // without a lock-ahead record a crash would strand the locks, so
    // none may be acquired.
    return false;
  }
  lock_ahead_logged_ = true;
  // Externalization barrier: the lock-ahead record must be
  // recovery-visible (sealed) before any lock CAS lands, or a crash
  // inside the locked window could not be repaired (§4.6).
  log->Externalize(worker_->worker_id());
  return true;
}

void Transaction::CloseLockAhead() {
  if (lock_ahead_logged_) {
    AppendComplete();
  }
}

// --- HTM path ----------------------------------------------------------------

Transaction::StartResult Transaction::StartPhase() {
  BeginAttempt(cfg_.lease_rw_us);
  std::vector<Ref*> remote;
  for (Ref& ref : refs_) {
    if (!ref.local) {
      remote.push_back(&ref);
    }
  }
  if (!ResolveRefs(remote)) {
    return StartResult::kNodeDown;
  }
  std::erase_if(remote, [](const Ref* ref) { return !ref->found; });
  if (!AppendLockAhead(remote)) {
    return StartResult::kConflict;  // retried; nothing is locked yet
  }
  const StartResult sr =
      AcquireRound(remote, cfg_.lease_rw_us, stat::ScatterStartLockIds());
  return sr == StartResult::kOk ? PrefetchRefs(remote) : sr;
}

void Transaction::ConfirmLeasesInHtm() {
  bool any_lease = false;
  for (const Ref& ref : refs_) {
    if (ref.leased) {
      any_lease = true;
      break;
    }
  }
  if (!any_lease) {
    return;
  }
  // Fresh softtime via a *transactional* read: this is the only place the
  // timer thread's word enters the HTM working set (Fig. 11(c)).
  const uint64_t now =
      worker_->htm().Load(cluster_.synctime().Word(worker_->node()));
  for (const Ref& ref : refs_) {
    if (ref.leased && !LeaseValid(ref.lease_end, now, cfg_.delta_us)) {
      worker_->htm().Abort(kCodeLease);
    }
  }
}

void Transaction::RecordWalUpdate(const Ref& ref, const void* value) {
  if (replay::Armed()) {
    // Wrapping sum of per-update digests: order-insensitive, so the HTM
    // path (locals logged in program order, remotes gathered at commit)
    // and the fallback path (everything gathered in sorted ref order)
    // produce the same digest for the same logical updates. Deliberately
    // excludes entry_off — entry allocation is not replay-stable.
    replay_wal_sum_ +=
        replay::WalUpdateDigest(ref.node, ref.table, ref.key,
                                ref.version + 1, value, ref.value_size);
  }
  if (!cfg_.logging) {
    return;
  }
  LogUpdate update;
  update.node = ref.node;
  update.table = ref.table;
  update.key = ref.key;
  update.entry_off = ref.entry_off;
  update.version = ref.version + 1;
  update.value_len = ref.value_size;
  NvramLog::EncodeUpdate(&wal_buffer_, update, value);
}

std::vector<replay::WriteRec> Transaction::ReplayGatherWrites() const {
  std::vector<replay::WriteRec> writes;
  for (const Ref& ref : refs_) {
    if (ref.dirty) {
      writes.push_back(replay::WriteRec{ref.node, ref.table, ref.key,
                                        ref.version + 1});
    }
  }
  return writes;
}

// Split from the fallback variant on purpose: this one runs inside the
// HTM region, so it must only touch thread-local recorder state (no ring
// mutex on an abortable path).
void Transaction::ReplayStageCommitHtm() {
  std::vector<replay::WriteRec> writes = ReplayGatherWrites();
  if (writes.empty()) {
    // Zero-write commit (e.g. smallbank's insufficient-funds success):
    // nothing observable changed, so there is nothing to validate.
    return;
  }
  replay::Recorder::Global().StageCommit(txn_id_, std::move(writes),
                                         replay_wal_sum_);
}

void Transaction::ReplayRecordFallbackCommit() {
  std::vector<replay::WriteRec> writes = ReplayGatherWrites();
  if (writes.empty()) {
    return;
  }
  replay::Recorder::Global().RecordFallbackCommit(txn_id_, std::move(writes),
                                                  replay_wal_sum_);
}

void Transaction::WriteWalInHtm() {
  if (!cfg_.logging && !replay::Armed()) {
    return;
  }
  // Local updates were recorded as they happened (LocalWriteInHtm);
  // remote updates sit in their prefetch buffers until write-back, so
  // log their final values here. With replay recording armed this also
  // folds the remote updates into the replay WAL digest even when
  // durability logging itself is off.
  for (const Ref& ref : refs_) {
    if (!ref.local && ref.dirty) {
      RecordWalUpdate(ref, ref.buf.data());
    }
  }
  if (!cfg_.logging || wal_buffer_.empty()) {
    return;
  }
  // Inside the HTM region: the record becomes durable iff XEND commits
  // (all-or-nothing), which is what recovery keys off (§4.6). A full
  // segment cannot be reclaimed here (reclamation takes the flush
  // mutex), so abort; the retry path reclaims outside the region.
  if (!cluster_.log(worker_->node())
           ->Append(worker_->worker_id(), LogType::kWriteAhead, txn_id_,
                    wal_buffer_.data(), wal_buffer_.size())) {
    worker_->htm().Abort(kCodeLogFull);
  }
}

std::vector<uint8_t> Transaction::WriteBackBlob(const Ref& ref) const {
  // Version, the still-held lock word, then the value: the entry's
  // header and value are contiguous from kEntryVersionOffset.
  const uint64_t locked_val =
      MakeWriteLocked(static_cast<uint8_t>(worker_->node()));
  const uint32_t new_version = ref.version + 1;
  std::vector<uint8_t> blob(12 + ref.value_size);
  std::memcpy(blob.data(), &new_version, 4);
  std::memcpy(blob.data() + 4, &locked_val, 8);
  std::memcpy(blob.data() + 12, ref.buf.data(), ref.value_size);
  return blob;
}

bool Transaction::WriteBackAndUnlock() {
  const uint64_t init = kStateInit;
  // Chaos crash point: a machine dying here posts no further write-backs
  // or unlocks and never writes its Complete record — recovery must redo
  // the WAL updates and release the remaining locks.
  static const uint32_t kUnlockPoint =
      chaos::Injector::Global().Point("txn.fallback.unlock");
  bool release_abandoned = false;
  // Per ref: one WRITE for version + (still-held) state + value, then
  // one WRITE to unlock — the two-op commit of REMOTE_WRITE_BACK
  // (Fig. 5). All of a node's WRITEs ride one doorbell and every
  // target's doorbell is rung before any is polled (PhaseScatter), so k
  // commit targets overlap into ~1 round trip. Each per-target send
  // queue executes in post order, so each unlock still lands after its
  // write-back exactly as in the scalar sequence. Local records were
  // written already (HTM region or fallback StrongWrite); their locks
  // are released here too.
  std::vector<std::vector<uint8_t>> blobs(refs_.size());
  struct Posted {
    size_t ref_idx;
    bool unlock;
  };
  VerbOwners<Posted> owners;  // for failure handling
  rdma::PhaseScatter scatter(cluster_.fabric(), SqConfig(),
                             &stat::ScatterWritebackIds());
  const bool glob =
      cluster_.fabric().atomic_level() == rdma::AtomicLevel::kGlob;
  for (size_t i = 0; i < refs_.size(); ++i) {
    Ref& ref = refs_[i];
    // Chain-locked dirty remote refs are written back here too — the
    // state-word field of the blob re-writes the chain's own lock word
    // (a no-op) — but their unlock belongs to the chain, not this piece.
    const bool write_back =
        ref.dirty && !ref.local && (ref.locked || ref.chain_locked);
    if (!ref.locked && !write_back) {
      continue;
    }
    if (!release_abandoned &&
        chaos::Check(kUnlockPoint, ref.node).kind ==
            chaos::Decision::Kind::kAbandon) {
      release_abandoned = true;
    }
    if (release_abandoned) {
      continue;  // simulated death mid-release: lock stays held
    }
    if (write_back) {
      blobs[i] = WriteBackBlob(ref);
      const rdma::WrId id = scatter.To(ref.node).PostWrite(
          ref.entry_off + store::kEntryVersionOffset, blobs[i].data(),
          blobs[i].size());
      owners.Add(ref.node, id, Posted{i, false});
    }
    if (ref.locked && ref.local && glob) {
      UnlockRef(ref);  // a processor store, no verb
    } else if (ref.locked) {
      const rdma::WrId id = scatter.To(ref.node).PostWrite(
          ref.entry_off + store::kEntryStateOffset, &init, sizeof(init));
      owners.Add(ref.node, id, Posted{i, true});
    }
  }
  std::vector<rdma::ScatterCompletion> comps;
  scatter.Gather(&comps);
  for (const rdma::ScatterCompletion& sc : comps) {
    if (sc.comp.status == rdma::OpStatus::kOk) {
      continue;
    }
    // Target down mid-commit: the transaction has committed, so retry
    // until the node recovers (§4.6(e)), preserving per-ref order
    // (scatter completions come back in per-target post order, so a
    // write-back failure is retried before its unlock, which also
    // failed and follows later in `comps`).
    const Posted& p = owners.Of(sc);
    const Ref& ref = refs_[p.ref_idx];
    if (p.unlock) {
      UnlockRef(ref);
    } else {
      WriteUntilDelivered(cluster_.fabric(), ref.node,
                          ref.entry_off + store::kEntryVersionOffset,
                          blobs[p.ref_idx].data(), blobs[p.ref_idx].size());
    }
  }
  if (!release_abandoned) {
    for (Ref& ref : refs_) {
      ref.locked = false;
    }
  }
  return !release_abandoned;
}

TxnStatus Transaction::FinishCommit(bool held_locks, bool release_clean) {
  if (replay::Armed() && held_locks) {
    replay::Recorder::Global().RecordLockRelease(txn_id_, !release_clean);
  }
  // A chaos-abandoned release simulates the machine dying mid-commit; a
  // dead machine logs and reports nothing more.
  if (release_clean) {
    if (cfg_.logging) {
      AppendComplete();
      cluster_.log(worker_->node())->NoteCommit(worker_->worker_id(), txn_id_);
    }
    NotifyCommittedWrites();
  }
  ++worker_->stats().committed;
  stat::Registry::Global().Add(Ids().commit);
  return TxnStatus::kCommitted;
}

bool Transaction::HoldsLocks() const {
  return std::any_of(refs_.begin(), refs_.end(),
                     [](const Ref& ref) { return ref.locked; });
}

void Transaction::ReleaseAndReset() {
  for (Ref& ref : refs_) {
    if (ref.locked) {
      UnlockRef(ref);
    }
    ref.found = false;
    ref.entry_off = ~uint64_t{0};
    ref.locked = false;
    ref.leased = false;
    ref.dirty = false;
    ref.version = 0;
    ref.lease_end = 0;
  }
  wal_buffer_.clear();
  replay_wal_sum_ = 0;
}

TxnStatus Transaction::Run(const Body& body) {
  assert(!ran_ && "a Transaction object runs once");
  ran_ = true;
  SortRefs();
  txn_id_ = cluster_.NextTxnId(worker_->node(), worker_->worker_id());
  TxnStats& stats = worker_->stats();

  int start_conflicts = 0;
  int attempt = 0;
  int lock_aborts = 0;
  // The retry budget and its lock-abort extension come from the live
  // abort-cause mix (AdaptiveRetryLimit); with adaptive_retry_budget off
  // or too few samples they equal the static knobs.
  const int base_budget = worker_->AdaptiveRetryLimit();
  const int lock_extra = worker_->AdaptiveLockExtraRetries();
  int retry_budget = base_budget;
  while (attempt < retry_budget) {
    WindowGuard window(cluster_);
    const StartResult sr = StartPhase();
    if (sr == StartResult::kNodeDown) {
      ReleaseAndReset();
      ++stats.node_failures;
      stat::Registry::Global().Add(Ids().node_failure);
      return TxnStatus::kNodeFailure;
    }
    if (sr == StartResult::kConflict) {
      ReleaseAndReset();
      ++stats.start_conflicts;
      stat::Registry::Global().Add(Ids().start_conflict);
      if (++start_conflicts > kStartRetryLimit) {
        break;  // heavy remote contention: let the fallback serialize us
      }
      worker_->Backoff(start_conflicts);
      continue;
    }

    user_abort_ = false;
    wal_buffer_.clear();
    replay_wal_sum_ = 0;
    // HTM-mode structural ops append notification-only records here;
    // an aborted attempt's records must not survive into the retry
    // (plain heap state is not rolled back by the HTM emulator).
    pending_local_ops_.clear();
    htm::HtmThread& htm = worker_->htm();
    unsigned hstatus;
    {
      stat::ScopedTimer attempt_phase(Ids().htm_attempt_ns);
      hstatus = htm.Transact([&] {
        if (!body(*this)) {
          user_abort_ = true;
          htm.Abort(kCodeUser);
        }
        if (replay::Armed() &&
            !replay::Recorder::Global().CommitAllowed()) {
          // Replay mode: the recording says this op committed fewer
          // transactions than the body just tried to — suppress the
          // extra commit so the replayed schedule matches the log.
          user_abort_ = true;
          htm.Abort(kCodeUser);
        }
        ConfirmLeasesInHtm();
        WriteWalInHtm();
        if (replay::Armed()) {
          // Stage inside the region: the publish hook turns this into a
          // kTxnCommit stamped with the critical-section sequence iff
          // XEND actually commits; a rollback discards it.
          ReplayStageCommitHtm();
        }
      });
    }

    if (hstatus == htm::kCommitted) {
      stat::ScopedTimer commit_phase(Ids().commit_ns);
      const bool held_locks = HoldsLocks();
      if (cfg_.logging &&
          (held_locks ||
           std::any_of(refs_.begin(), refs_.end(), [](const Ref& ref) {
             return ref.chain_locked && ref.dirty && !ref.local;
           }))) {
        // Externalization barrier: the WAL staged inside the HTM region
        // must be sealed (recovery-visible) before the first remote
        // write-back, or a crash mid-write-back could not be redone.
        // Local-only commits skip this — their effects live in
        // whole-system-persistent memory and need no redo — so their
        // epochs keep batching.
        cluster_.log(worker_->node())->Externalize(worker_->worker_id());
      }
      return FinishCommit(held_locks, WriteBackAndUnlock());
    }

    ReleaseAndReset();
    if (user_abort_) {
      CloseLockAhead();
      ++stats.user_aborts;
      stat::Registry::Global().Add(Ids().user_abort);
      return TxnStatus::kUserAbort;
    }
    bool lock_observed = false;
    AbortMixWindow& mix = worker_->abort_mix();
    if (hstatus & htm::kAbortCapacity) {
      ++stats.htm_capacity_aborts;
      mix.Observe(&mix.capacity);
    } else if (hstatus & htm::kAbortExplicit) {
      const unsigned code = htm::AbortUserCode(hstatus);
      if (code == kCodeLogFull) {
        // The in-HTM WAL append found the segment full; reclaim durable
        // completed epochs out here and retry. Deterministic like a
        // capacity overflow, so it feeds that bucket.
        cluster_.log(worker_->node())->ReclaimSpace(worker_->worker_id());
        ++stats.htm_capacity_aborts;
        mix.Observe(&mix.capacity);
      } else if (code == kCodeLease) {
        ++stats.htm_lease_aborts;
        stat::Registry::Global().Add(Ids().lease_abort);
        mix.Observe(&mix.conflict);
      } else {
        ++stats.htm_lock_aborts;
        stat::Registry::Global().Add(Ids().lock_abort);
        lock_observed = true;
        mix.Observe(&mix.lock);
      }
    } else {
      ++stats.htm_conflict_aborts;
      mix.Observe(&mix.conflict);
    }
    ++attempt;
    if (lock_observed && lock_extra > 0) {
      // A lock-observed XABORT means the holder is mid-commit: grant up
      // to lock_extra extra attempts and wait it out with the stronger
      // bounded backoff, rather than burning straight through the budget
      // into the ~1000x-costlier 2PL fallback.
      ++lock_aborts;
      retry_budget = base_budget + std::min(lock_aborts, lock_extra);
      stat::Registry::Global().Add(Ids().lock_backoff);
      worker_->LockBackoff(lock_aborts);
    } else {
      worker_->Backoff(attempt);
    }
  }

  ++stats.fallbacks;
  stat::Registry::Global().Add(Ids().fallback);
  const TxnStatus status = RunFallback(body);
  if (status == TxnStatus::kUserAbort || status == TxnStatus::kAborted) {
    CloseLockAhead();  // every lock the HTM attempts took is released
  }
  return status;
}

// --- body accessors ----------------------------------------------------------

bool Transaction::LocalReadInHtm(Ref& ref, void* out) {
  store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
  const uint64_t entry = table->FindEntry(ref.key);
  if (entry == store::kInvalidOffset) {
    return false;
  }
  htm::HtmThread& htm = worker_->htm();
  // LOCAL_READ (Fig. 6): a write lock by a distributed transaction means
  // we must abort; a read lease is fine for readers. The state word is
  // subscribed AFTER the value read (lazy lock subscription, rtmseq):
  // probing first would keep the word in the HTM read set across the
  // value copy, so a holder's unlock store aborts this reader
  // needlessly. Reordering is safe inside the region — if the word turns
  // out write-locked we abort and the speculative read is discarded
  // before the body can observe it.
  htm.Read(out, table->ValuePtr(entry), ref.value_size);
  const uint64_t state = htm.Load(table->StatePtr(entry));
  if (IsWriteLocked(state) && !ref.chain_locked) {
    // A chain-locked ref's write lock is necessarily our own chain's
    // (held continuously across the pieces), never a conflict.
    htm.Abort(kCodeLocked);
  }
  return true;
}

bool Transaction::LocalWriteInHtm(Ref& ref, const void* value) {
  store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
  const uint64_t entry = table->FindEntry(ref.key);
  if (entry == store::kInvalidOffset) {
    return false;
  }
  htm::HtmThread& htm = worker_->htm();
  // Elastic freeze gate: local HTM writes take no lock at all, so a
  // frozen bucket must abort the attempt here or a post-catch-up local
  // commit would race the ownership flip.
  if (!GateAllows(cluster_, ref.table, ref.key)) {
    htm.Abort(kCodeLocked);
  }
  // LOCAL_WRITE (Fig. 6): write the version bump and the value
  // speculatively, then subscribe the state word as late as possible
  // (lazy lock subscription, rtmseq): probing before the data writes
  // would hold the word in the HTM read set across the value copy and
  // abort needlessly on the holder's unlock store. Safe to defer — if
  // the word turns out locked/leased we abort and the region's stores
  // are discarded wholesale.
  const uint32_t version = htm.Load(table->VersionPtr(entry));
  htm.Store(table->VersionPtr(entry), version + 1);
  htm.Write(table->ValuePtr(entry), value, ref.value_size);
  // Abort on a write lock or an unexpired lease; actively clear an
  // expired lease (side effect: the state word joins the HTM write set,
  // which is why LOCAL_READ does not do this). A chain-locked ref's
  // write lock is our own chain's — tolerated, and left in place.
  const uint64_t state = htm.Load(table->StatePtr(entry));
  if (IsWriteLocked(state) && !ref.chain_locked) {
    htm.Abort(kCodeLocked);
  }
  if (HasLease(state)) {
    // Fig. 11: the default reuses the Start-phase softtime; the (b)
    // strategy reads it transactionally here, making every local write
    // conflict-prone against the timer thread.
    const uint64_t now =
        cfg_.softtime_read_every_local_op
            ? htm.Load(cluster_.synctime().Word(worker_->node()))
            : now_start_;
    if (!LeaseExpired(LeaseEnd(state), now, cfg_.delta_us)) {
      htm.Abort(kCodeLocked);
    }
    htm.Store(table->StatePtr(entry), kStateInit);
  }
  ref.entry_off = entry;
  ref.version = version;
  // Local HTM refs are never `locked`, so WriteBackAndUnlock ignores
  // them; the dirty flag is what NotifyCommittedWrites keys off.
  ref.dirty = true;
  RecordWalUpdate(ref, value);
  return true;
}

bool Transaction::LocalWriteRangeInHtm(Ref& ref, uint32_t offset,
                                       const void* data, uint32_t len) {
  store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
  const uint64_t entry = table->FindEntry(ref.key);
  if (entry == store::kInvalidOffset) {
    return false;
  }
  htm::HtmThread& htm = worker_->htm();
  if (!GateAllows(cluster_, ref.table, ref.key)) {
    htm.Abort(kCodeLocked);
  }
  // The sliced LOCAL_WRITE: only the slice's lines (plus the header)
  // enter the HTM write set — this is what lets a chopped piece update
  // one slice of a value whose full footprint overflows the budget.
  const uint32_t version = htm.Load(table->VersionPtr(entry));
  htm.Store(table->VersionPtr(entry), version + 1);
  htm.Write(static_cast<uint8_t*>(table->ValuePtr(entry)) + offset, data,
            len);
  // Lazy state subscription, identical to LocalWriteInHtm. The WAL
  // image composed below reads lines the slice write already owns.
  // drtm-lint: allow(LS01 WAL/replay full-image compose after the lazy state probe is logging/recording-only; probing later would defeat lazy lock subscription for sliced writes)
  const uint64_t state = htm.Load(table->StatePtr(entry));
  if (IsWriteLocked(state) && !ref.chain_locked) {
    htm.Abort(kCodeLocked);
  }
  if (HasLease(state)) {
    const uint64_t now =
        cfg_.softtime_read_every_local_op
            ? htm.Load(cluster_.synctime().Word(worker_->node()))
            : now_start_;
    if (!LeaseExpired(LeaseEnd(state), now, cfg_.delta_us)) {
      htm.Abort(kCodeLocked);
    }
    htm.Store(table->StatePtr(entry), kStateInit);
  }
  ref.entry_off = entry;
  ref.version = version;
  ref.dirty = true;
  if (cfg_.logging || replay::Armed()) {
    // The WAL (and the replay digest) record full values; compose the
    // post-write image (the transactional read overlays our buffered
    // slice). Logging/recording-only cost.
    std::vector<uint8_t> full(ref.value_size);
    htm.Read(full.data(), table->ValuePtr(entry), ref.value_size);
    RecordWalUpdate(ref, full.data());
  }
  return true;
}

void Transaction::NotifyCommittedWrites() {
  Cluster::ElasticHooks* hooks = cluster_.elastic_hooks();
  if (hooks == nullptr) {
    return;
  }
  for (Ref& ref : refs_) {
    if (!ref.dirty) {
      continue;
    }
    if (ref.local && mode_ == Mode::kHtm) {
      // Local HTM writes landed directly in the table; read the
      // committed version/value back with strong accesses. A concurrent
      // later writer may bump them again in between — harmless, the
      // dual-write install keeps the max version.
      store::ClusterHashTable* table = cluster_.hash_table(ref.node, ref.table);
      const uint64_t entry = table->FindEntry(ref.key);
      if (entry == store::kInvalidOffset) {
        continue;  // removed since; the remove's own report covers it
      }
      const uint32_t version = htm::Load(table->VersionPtr(entry));
      std::vector<uint8_t> value(ref.value_size);
      htm::ReadBytes(value.data(), table->ValuePtr(entry), ref.value_size);
      hooks->OnCommittedWrite(ref.node, ref.table, ref.key, version,
                              value.data(), ref.value_size);
    } else {
      hooks->OnCommittedWrite(ref.node, ref.table, ref.key, ref.version + 1,
                              ref.buf.data(), ref.value_size);
    }
  }
  for (const PendingOp& op : pending_local_ops_) {
    switch (op.op) {
      case PendingOp::kHashInsert:
        hooks->OnStructuralOp(worker_->node(), op.table, op.key,
                              /*inserted=*/true, op.value.data(),
                              static_cast<uint32_t>(op.value.size()));
        break;
      case PendingOp::kHashRemove:
        hooks->OnStructuralOp(worker_->node(), op.table, op.key,
                              /*inserted=*/false, nullptr, 0);
        break;
      default:
        break;  // ordered stores are not elastic-managed
    }
  }
}

bool Transaction::Read(int table, uint64_t key, void* out) {
  Ref* ref = FindRef(table, key);
  assert(ref != nullptr && "record accessed without declaration");
  if (mode_ == Mode::kFallback || !ref->local) {
    if (!ref->found) {
      return false;
    }
    std::memcpy(out, ref->buf.data(), ref->value_size);
    return true;
  }
  return LocalReadInHtm(*ref, out);
}

bool Transaction::Write(int table, uint64_t key, const void* value) {
  Ref* ref = FindRef(table, key);
  assert(ref != nullptr && ref->write && "write requires AddWrite");
  if (mode_ == Mode::kFallback || !ref->local) {
    if (!ref->found) {
      return false;
    }
    std::memcpy(ref->buf.data(), value, ref->value_size);
    if (!ref->dirty) {
      ref->dirty = true;
    }
    return true;
  }
  return LocalWriteInHtm(*ref, value);
}

bool Transaction::WriteRange(int table, uint64_t key, uint32_t offset,
                             const void* data, uint32_t len) {
  Ref* ref = FindRef(table, key);
  assert(ref != nullptr && ref->write && "write requires AddWrite");
  assert(offset + len <= ref->value_size && "range outside the value");
  if (mode_ == Mode::kFallback || !ref->local) {
    if (!ref->found) {
      return false;
    }
    // Overlay the slice on the prefetched image; write-back ships the
    // composed full value.
    std::memcpy(ref->buf.data() + offset, data, len);
    ref->dirty = true;
    return true;
  }
  return LocalWriteRangeInHtm(*ref, offset, data, len);
}

bool Transaction::ReadDynamic(int table, uint64_t key, void* out) {
  assert(cluster_.PartitionOf(table, key) == worker_->node() &&
         "ReadDynamic is for locally hosted records");
  if (mode_ == Mode::kHtm) {
    Ref scratch;
    scratch.table = table;
    scratch.key = key;
    scratch.node = worker_->node();
    scratch.local = true;
    scratch.value_size = cluster_.table(table).value_size;
    return LocalReadInHtm(scratch, out);
  }
  // Fallback: lease-as-discovered. The lease is confirmed together with
  // the static ones before any update is applied.
  Ref ref;
  ref.table = table;
  ref.key = key;
  ref.write = false;
  ref.node = worker_->node();
  ref.local = true;
  ref.value_size = cluster_.table(table).value_size;
  const std::vector<Ref*> one = {&ref};
  if (!ResolveRefs(one) || !ref.found) {
    return false;
  }
  if (AcquireInOrder(one) != StartResult::kOk ||
      PrefetchRefs(one) != StartResult::kOk) {
    dynamic_conflict_ = true;
    return false;
  }
  std::memcpy(out, ref.buf.data(), ref.value_size);
  dynamic_refs_.push_back(std::move(ref));
  return true;
}

bool Transaction::Insert(int table, uint64_t key, const void* value) {
  assert(cluster_.PartitionOf(table, key) == worker_->node() &&
         "in-transaction INSERT must target the local partition; remote "
         "inserts are shipped outside transactions (paper footnote 5)");
  store::ClusterHashTable* host = cluster_.hash_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    const bool ok = host->Insert(key, value);
    if (ok && cluster_.elastic_hooks() != nullptr) {
      // Notification-only record: the insert already landed in the
      // table; NotifyCommittedWrites replays it to the elastic hooks
      // after commit (aborted attempts clear pending_local_ops_).
      pending_local_ops_.push_back(
          PendingOp{PendingOp::kHashInsert, table, key,
                    std::vector<uint8_t>(
                        static_cast<const uint8_t*>(value),
                        static_cast<const uint8_t*>(value) +
                            cluster_.table(table).value_size)});
    }
    return ok;
  }
  pending_local_ops_.push_back(
      PendingOp{PendingOp::kHashInsert, table, key,
                std::vector<uint8_t>(static_cast<const uint8_t*>(value),
                                     static_cast<const uint8_t*>(value) +
                                         cluster_.table(table).value_size)});
  return true;
}

bool Transaction::Remove(int table, uint64_t key) {
  assert(cluster_.PartitionOf(table, key) == worker_->node());
  store::ClusterHashTable* host = cluster_.hash_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    const bool ok = host->Remove(key);
    if (ok && cluster_.elastic_hooks() != nullptr) {
      pending_local_ops_.push_back(
          PendingOp{PendingOp::kHashRemove, table, key, {}});
    }
    return ok;
  }
  pending_local_ops_.push_back(
      PendingOp{PendingOp::kHashRemove, table, key, {}});
  return true;
}

bool Transaction::OrderedInsert(int table, uint64_t key, const void* value) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->Insert(key, value);
  }
  pending_local_ops_.push_back(
      PendingOp{PendingOp::kOrderedInsert, table, key,
                std::vector<uint8_t>(static_cast<const uint8_t*>(value),
                                     static_cast<const uint8_t*>(value) +
                                         cluster_.table(table).value_size)});
  return true;
}

bool Transaction::OrderedPut(int table, uint64_t key, const void* value) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->Put(key, value);
  }
  pending_local_ops_.push_back(
      PendingOp{PendingOp::kOrderedPut, table, key,
                std::vector<uint8_t>(static_cast<const uint8_t*>(value),
                                     static_cast<const uint8_t*>(value) +
                                         cluster_.table(table).value_size)});
  return true;
}

bool Transaction::OrderedRemove(int table, uint64_t key) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->Remove(key);
  }
  pending_local_ops_.push_back(
      PendingOp{PendingOp::kOrderedRemove, table, key, {}});
  return true;
}

bool Transaction::OrderedGet(int table, uint64_t key, void* out) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->Get(key, out);
  }
  bool found = false;
  htm::HtmThread& htm = worker_->htm();
  while (htm.Transact([&] { found = tree->Get(key, out); }) !=
         htm::kCommitted) {
  }
  return found;
}

size_t Transaction::OrderedScan(
    int table, uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t, const void*)>& fn) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->Scan(lo, hi, fn);
  }
  size_t count = 0;
  htm::HtmThread& htm = worker_->htm();
  // Buffer results so a conflict-retry does not re-invoke fn.
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> rows;
  const uint32_t value_size = cluster_.table(table).value_size;
  while (true) {
    rows.clear();
    const unsigned status = htm.Transact([&] {
      tree->Scan(lo, hi, [&](uint64_t key, const void* value) {
        rows.emplace_back(key,
                          std::vector<uint8_t>(
                              static_cast<const uint8_t*>(value),
                              static_cast<const uint8_t*>(value) + value_size));
        return true;
      });
    });
    if (status == htm::kCommitted) {
      break;
    }
  }
  for (const auto& [key, value] : rows) {
    ++count;
    if (!fn(key, value.data())) {
      break;
    }
  }
  return count;
}

bool Transaction::OrderedFindFloor(int table, uint64_t lo, uint64_t bound,
                                   uint64_t* key_out, void* value_out) {
  store::BPlusTree* tree = cluster_.ordered_table(worker_->node(), table);
  if (mode_ == Mode::kHtm) {
    return tree->FindFloor(lo, bound, key_out, value_out);
  }
  bool found = false;
  htm::HtmThread& htm = worker_->htm();
  while (htm.Transact([&] {
           found = tree->FindFloor(lo, bound, key_out, value_out);
         }) != htm::kCommitted) {
  }
  return found;
}

// --- fallback path -------------------------------------------------------------

TxnStatus Transaction::RunFallback(const Body& body) {
  mode_ = Mode::kFallback;
  stat::ScopedTimer fallback_phase(Ids().fallback_ns);
  TxnStats& stats = worker_->stats();
  htm::HtmThread& htm = worker_->htm();
  std::vector<Ref*> all;
  for (Ref& ref : refs_) {
    all.push_back(&ref);
  }

  for (int attempt = 0; attempt < kFallbackAttempts; ++attempt) {
    WindowGuard window(cluster_);
    BeginAttempt(cfg_.lease_rw_us);
    pending_local_ops_.clear();
    wal_buffer_.clear();
    replay_wal_sum_ = 0;

    // First round: resolve every chain in lockstep and take the whole
    // lock/lease set in one non-blocking round (local records too).
    StartResult fail =
        ResolveRefs(all)
            ? AcquireRound(all, cfg_.lease_rw_us, stat::ScatterFallbackIds())
            : StartResult::kNodeDown;
    if (fail == StartResult::kOk) {
      stat::Registry::Global().Add(Ids().fallback_optimistic_hit);
    } else if (fail == StartResult::kConflict) {
      // Contention releases everything, then re-resolves and waits for
      // every lock and lease in the global <table, key> order (refs_ is
      // sorted); no worker waits while holding out-of-order locks, which
      // keeps the fallback deadlock-free.
      stat::Registry::Global().Add(Ids().fallback_fallthrough);
      ReleaseAndReset();
      fail = ResolveRefs(all) ? AcquireInOrder(all) : StartResult::kNodeDown;
    }
    if (fail == StartResult::kOk) {
      fail = PrefetchRefs(all);
    }
    // Leases must be valid before any irreversible update (§6.2): the
    // confirmation is the serialization point of the fallback.
    if (fail == StartResult::kOk && !LeasesValid(refs_)) {
      fail = StartResult::kConflict;
    }
    if (fail != StartResult::kOk) {
      ReleaseAndReset();
      if (fail == StartResult::kNodeDown) {
        ++stats.node_failures;
        stat::Registry::Global().Add(Ids().node_failure);
        return TxnStatus::kNodeFailure;
      }
      worker_->Backoff(attempt);
      continue;
    }

    user_abort_ = false;
    dynamic_conflict_ = false;
    dynamic_refs_.clear();
    const bool body_ok = body(*this);
    if (dynamic_conflict_) {
      ReleaseAndReset();
      worker_->Backoff(attempt);
      continue;
    }
    // Replay mode: when the recording committed fewer transactions in
    // this op, the extra commit is suppressed (see the HTM-path gate).
    if (!body_ok ||
        (replay::Armed() && !replay::Recorder::Global().CommitAllowed())) {
      ReleaseAndReset();
      ++stats.user_aborts;
      stat::Registry::Global().Add(Ids().user_abort);
      return TxnStatus::kUserAbort;
    }
    if (!LeasesValid(dynamic_refs_) ||
        (!dynamic_refs_.empty() && !LeasesValid(refs_))) {
      // Dynamic leases move the serialization point past the body: every
      // lease, static and dynamic, must still be valid before any
      // update, or the reads need not form one snapshot.
      ReleaseAndReset();
      worker_->Backoff(attempt);
      continue;
    }

    // Gather WAL updates for buffered hash writes (local ones were
    // buffered, not applied through LocalWriteInHtm).
    for (Ref& ref : refs_) {
      if (ref.dirty) {
        RecordWalUpdate(ref, ref.buf.data());
      }
    }
    if (cfg_.logging && !wal_buffer_.empty()) {
      NvramLog* log = cluster_.log(worker_->node());
      if (log->AppendOutsideHtm(worker_->worker_id(), LogType::kWriteAhead,
                                txn_id_, wal_buffer_.data(),
                                wal_buffer_.size()) != AppendStatus::kOk) {
        // Log full even after reclaiming (or the append faulted): nothing
        // has been applied yet, so release the locks and retry the attempt
        // instead of committing writes that recovery could not redo.
        ReleaseAndReset();
        worker_->Backoff(attempt);
        continue;
      }
      // The fallback always externalizes effects (strong write-backs and
      // remote lock releases below), so the WAL epoch must be sealed before
      // any of them become visible to other nodes.
      log->Externalize(worker_->worker_id());
    }

    // Commit: local effects first — dirty local records (strong writes
    // abort conflicting HTM readers; the state word stays locked so
    // local transactions stay away), then the buffered local structural
    // operations. They must land before the first unlock: recovery
    // never redoes a crashed node's own records.
    stat::ScopedTimer commit_phase(Ids().commit_ns);
    for (const Ref& ref : refs_) {
      if (ref.local && ref.dirty) {
        const std::vector<uint8_t> blob = WriteBackBlob(ref);
        // drtm-lint: allow(TX03 commit write-back of a locked entry, the lock serializes it like an RDMA WRITE)
        htm::StrongWrite(cluster_.hash_table(ref.node, ref.table)
                                 ->EntryPtr(ref.entry_off) +
                             store::kEntryVersionOffset,
                         blob.data(), blob.size());
      }
    }
    for (const PendingOp& op : pending_local_ops_) {
      store::ClusterHashTable* hash =
          op.op == PendingOp::kHashInsert || op.op == PendingOp::kHashRemove
              ? cluster_.hash_table(worker_->node(), op.table)
              : nullptr;
      store::BPlusTree* tree =
          hash == nullptr ? cluster_.ordered_table(worker_->node(), op.table)
                          : nullptr;
      while (true) {
        const unsigned status = htm.Transact([&] {
          switch (op.op) {
            case PendingOp::kHashInsert:
              hash->Insert(op.key, op.value.data());
              break;
            case PendingOp::kHashRemove:
              hash->Remove(op.key);
              break;
            case PendingOp::kOrderedInsert:
              tree->Insert(op.key, op.value.data());
              break;
            case PendingOp::kOrderedPut:
              tree->Put(op.key, op.value.data());
              break;
            case PendingOp::kOrderedRemove:
              tree->Remove(op.key);
              break;
          }
        });
        if (status == htm::kCommitted) {
          break;
        }
      }
    }
    if (replay::Armed()) {
      // Every 2PL lock is still held, so the sequence number this
      // records lands inside the critical section — totally ordering the
      // fallback commit against concurrent HTM publishes on its lines.
      ReplayRecordFallbackCommit();
    }
    // Then the same tail as the HTM path: remote write-backs and every
    // unlock in one scatter round.
    const bool held_locks = HoldsLocks();
    return FinishCommit(held_locks, WriteBackAndUnlock());
  }
  stat::Registry::Global().Add(Ids().exhausted);
  return TxnStatus::kAborted;
}

// --- read-only transactions ----------------------------------------------------

ReadOnlyTransaction::ReadOnlyTransaction(Worker* worker) : txn_(worker) {}

void ReadOnlyTransaction::AddRead(int table, uint64_t key) {
  txn_.AddRef(table, key, /*write=*/false);  // leased even without read leases
}

TxnStatus ReadOnlyTransaction::Execute() {
  using StartResult = Transaction::StartResult;
  using Ref = Transaction::Ref;
  TxnStats& stats = txn_.worker_->stats();
  htm::HtmThread& htm = txn_.worker_->htm();
  txn_.SortRefs();
  // Attempts left that read the local records in one HTM region; once
  // none are left (at once in fallback-only mode) every record is
  // leased, Fig. 8 exactly.
  int htm_attempts = txn_.worker_->AdaptiveRetryLimit();
  for (int attempt = 0; attempt < kFallbackAttempts; ++attempt) {
    WindowGuard window(txn_.cluster_);
    // The leased records share one common end time (Fig. 8): resolve
    // them in lockstep, lease them, then prefetch in one round.
    txn_.BeginAttempt(txn_.cfg_.lease_ro_us);
    const bool in_htm = htm_attempts > 0;
    std::vector<Ref*> leased;
    std::vector<Ref*> local;
    for (Ref& ref : txn_.refs_) {
      (in_htm && ref.local ? local : leased).push_back(&ref);
    }
    StartResult sr = txn_.ResolveRefs(leased)
                         ? txn_.AcquireRound(leased, txn_.cfg_.lease_ro_us,
                                             stat::ScatterRoLeaseIds())
                         : StartResult::kNodeDown;
    if (sr == StartResult::kOk) {
      sr = txn_.PrefetchRefs(leased);
    }
    if (sr == StartResult::kNodeDown) {
      ++stats.node_failures;
      stat::Registry::Global().Add(Ids().node_failure);
      return TxnStatus::kNodeFailure;
    }
    bool committed = false;
    if (sr == StartResult::kOk && in_htm) {
      // The local records are read as LOCAL_READs (Fig. 6) and the
      // remote leases confirmed in one region, whose XEND is the
      // serialization point, as on the read-write HTM path: no local
      // record is leased or CASed.
      for (Ref* ref : local) {
        ref->buf.resize(ref->value_size);
      }
      unsigned hstatus;
      {
        stat::ScopedTimer attempt_phase(Ids().htm_attempt_ns);
        hstatus = htm.Transact([&] {
          for (Ref* ref : local) {
            ref->found = txn_.LocalReadInHtm(*ref, ref->buf.data());
          }
          txn_.ConfirmLeasesInHtm();
        });
      }
      committed = hstatus == htm::kCommitted;
      if (committed) {
        stat::Registry::Global().Add(Ids().ro_htm_commit);
      } else {
        // A capacity overflow recurs on every retry: lease instead.
        htm_attempts = (hstatus & htm::kAbortCapacity) ? 0 : htm_attempts - 1;
      }
    } else if (sr == StartResult::kOk) {
      // Confirmation: all leases still valid at one instant (Fig. 8).
      committed = txn_.LeasesValid(txn_.refs_);
    }
    if (committed) {
      ++stats.read_only_committed;
      stat::Registry::Global().Add(Ids().ro_commit);
      return TxnStatus::kCommitted;
    }
    txn_.ReleaseAndReset();
    ++stats.read_only_retries;
    stat::Registry::Global().Add(Ids().ro_retry);
    txn_.worker_->Backoff(attempt);
  }
  return TxnStatus::kAborted;
}

bool ReadOnlyTransaction::Get(int table, uint64_t key, void* out) const {
  const Transaction::Ref* ref = txn_.FindRef(table, key);
  if (ref == nullptr || !ref->found) {
    return false;
  }
  std::memcpy(out, ref->buf.data(), ref->value_size);
  return true;
}

uint64_t ReadOnlyTransaction::LeaseEndOf(int table, uint64_t key) const {
  const Transaction::Ref* ref = txn_.FindRef(table, key);
  return ref != nullptr && ref->found ? ref->lease_end : 0;
}

}  // namespace txn
}  // namespace drtm
