// The DrTM transaction layer (paper sections 4 and 6) — the core
// contribution: HTM for local concurrency control, glued to strict 2PL
// across machines with one-sided RDMA.
//
// A transaction runs in three phases (Fig. 2(a) / Fig. 3):
//   Start    — remote records in the declared read/write sets are leased
//              (shared) or CAS-locked (exclusive) and prefetched;
//   LocalTX  — the body runs inside an HTM region; local records are
//              read/written transactionally with the Fig. 6 state checks;
//   Commit   — leases are confirmed against a fresh softtime, the HTM
//              region commits (XEND), then remote updates are written
//              back and exclusive locks released.
//
// Contention management (section 6.2): after the HTM retry budget is
// exhausted, the fallback handler reruns the transaction under pure 2PL,
// locking *all* records (local ones via RDMA CAS when the NIC only has
// HCA-level atomicity, section 6.3) in a global <table, key> order.
//
// Read-only transactions (Fig. 8) skip HTM entirely: every record is
// leased with one common end time, read, and the leases confirmed.
#ifndef SRC_TXN_TRANSACTION_H_
#define SRC_TXN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/htm/htm.h"
#include "src/rdma/verbs_batch.h"
#include "src/replay/replay_log.h"
#include "src/stat/scatter_stats.h"
#include "src/txn/cluster.h"

namespace drtm {
namespace txn {

enum class TxnStatus {
  kCommitted,
  kAborted,      // retry budget exhausted (should be rare: fallback wins)
  kUserAbort,    // body returned false
  kNodeFailure,  // a required remote node is down
};

// XABORT user codes used by the protocol.
inline constexpr uint8_t kCodeUser = 1;
inline constexpr uint8_t kCodeLocked = 2;   // local access hit a 2PL lock
inline constexpr uint8_t kCodeLease = 3;    // lease confirmation failed
inline constexpr uint8_t kCodeMissing = 4;  // record vanished mid-run
inline constexpr uint8_t kCodeLogFull = 5;  // WAL append hit a full log
                                            // segment; reclaim + retry

struct TxnStats {
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  uint64_t start_conflicts = 0;  // remote lock/lease acquisition failures
  uint64_t htm_conflict_aborts = 0;
  uint64_t htm_capacity_aborts = 0;
  uint64_t htm_lock_aborts = 0;   // kCodeLocked
  uint64_t htm_lease_aborts = 0;  // kCodeLease
  uint64_t fallbacks = 0;
  uint64_t node_failures = 0;
  uint64_t read_only_committed = 0;
  uint64_t read_only_retries = 0;

  void Add(const TxnStats& o);
};

// Decayed per-worker window of recent HTM abort causes — the input to
// the adaptive retry budget (ClusterConfig::adaptive_retry_budget).
// Counts halve once the window fills, so the mix tracks the live
// workload rather than process history.
struct AbortMixWindow {
  static constexpr uint64_t kWindow = 512;
  // Below this many observed aborts the static knobs are used verbatim.
  static constexpr uint64_t kMinSamples = 32;

  uint64_t capacity = 0;  // read/write-set overflow: retries are futile
  uint64_t conflict = 0;  // data conflicts + lease-confirm failures
  uint64_t lock = 0;      // lock-observed XABORTs: holder mid-commit

  uint64_t total() const { return capacity + conflict + lock; }
  void Observe(uint64_t* bucket) {
    ++*bucket;
    if (total() >= kWindow) {
      capacity /= 2;
      conflict /= 2;
      lock /= 2;
    }
  }
};

class Worker {
 public:
  Worker(Cluster* cluster, int node, int worker_id);

  Cluster& cluster() { return *cluster_; }
  int node() const { return node_; }
  int worker_id() const { return worker_id_; }
  htm::HtmThread& htm() { return htm_; }
  Xoshiro256& rng() { return rng_; }
  // Retry/wait jitter stream, deliberately separate from rng(): workload
  // key draws come from rng(), and contention-dependent retry counts
  // must not desynchronize them between a threaded recording and its
  // single-threaded replay.
  Xoshiro256& backoff_rng() { return backoff_rng_; }
  TxnStats& stats() { return stats_; }
  Histogram& latency_us() { return latency_us_; }

  // Blocks until txn_id — a transaction this worker committed — is
  // durably acknowledged: its epoch sealed and its flush completed
  // (NvramLog::WaitDurable). No-op when logging is off, when group
  // commit is off (commit already waited), or for unknown ids.
  void WaitDurable(uint64_t txn_id);

  // Randomized exponential backoff used between transaction retries.
  void Backoff(int attempt);

  // Stronger bounded-exponential backoff (with jitter) applied after a
  // lock-observed XABORT: the lock holder is mid-commit and needs real
  // time (an RDMA write-back) to finish, so waiting beats burning HTM
  // retries and falling through to the 2PL fallback.
  void LockBackoff(int consecutive_lock_aborts);

  // Adaptive contention management: the HTM retry budget and the
  // lock-abort extension derived from this worker's live abort-cause
  // mix. With too few samples (or adaptive_retry_budget off) these are
  // htm_retry_limit and a fixed extension of 8; a capacity-dominant mix
  // halves them (retrying a deterministic overflow only delays the
  // fallback), a contention-dominant mix doubles them (retries are
  // ~1000x cheaper than a 2PL rerun). htm_retry_limit == 0
  // (fallback-only mode) is never touched. The chosen budget is exported
  // as gauge txn.adaptive.retry_budget.
  int AdaptiveRetryLimit();
  int AdaptiveLockExtraRetries() const;
  AbortMixWindow& abort_mix() { return abort_mix_; }

 private:
  // -1 neutral, 0 capacity-dominant (shrink), 1 contention-dominant
  // (stretch); computed from abort_mix_.
  int MixRegime() const;

  Cluster* cluster_;
  int node_;
  int worker_id_;
  htm::HtmThread htm_;
  Xoshiro256 rng_;
  Xoshiro256 backoff_rng_;
  TxnStats stats_;
  Histogram latency_us_;
  AbortMixWindow abort_mix_;
};

class Transaction {
 public:
  using Body = std::function<bool(Transaction&)>;
  // Read-only transactions reuse the refs and the resolve, lease and
  // prefetch phases of this class; chopped transactions hold their chain
  // locks as the refs of a never-run instance.
  friend class ReadOnlyTransaction;
  friend class ChoppedTransaction;

  explicit Transaction(Worker* worker);

  // --- declaration (before Run) --------------------------------------------
  // A read is leased, or locked when read leases are off (Fig. 17).
  void AddRead(int table, uint64_t key);
  void AddWrite(int table, uint64_t key);
  // Marks a declared record as covered by a chain lock held by the
  // enclosing chopped transaction: this piece neither acquires nor
  // releases it, and a write lock observed on it is (necessarily) our
  // own chain lock, not a conflict.
  void MarkChainLocked(int table, uint64_t key);

  // Runs the body to commit (HTM path with retries, then fallback). The
  // body may execute several times and must be idempotent in its effects
  // outside this transaction; it returns false to user-abort.
  TxnStatus Run(const Body& body);

  // --- accessors usable inside the body -------------------------------------
  // Declared hash-table records:
  bool Read(int table, uint64_t key, void* out);
  bool Write(int table, uint64_t key, const void* value);
  // Partial write of [offset, offset+len) within a declared record's
  // value. The workhorse of chopped large-value updates: each piece
  // writes only its slice, so the piece's HTM write set holds the
  // slice's lines instead of the whole value's.
  bool WriteRange(int table, uint64_t key, uint32_t offset, const void* data,
                  uint32_t len);

  // Dynamic (undeclared) read of a *local* hash record, for read sets
  // discovered during execution (paper section 4.1 pairs this with a
  // reconnaissance query; stock-level uses it directly). In HTM mode this
  // is a plain LOCAL_READ; in fallback mode it takes a lease on the spot,
  // which is confirmed with the static leases before any update.
  bool ReadDynamic(int table, uint64_t key, void* out);

  // Local dynamic operations (the key's partition must be this node):
  bool Insert(int table, uint64_t key, const void* value);
  bool Remove(int table, uint64_t key);

  // Local ordered-store operations (HTM-protected; in fallback mode each
  // runs as its own small HTM transaction while the 2PL locks on the
  // declared records serialize the logical transaction):
  bool OrderedInsert(int table, uint64_t key, const void* value);
  bool OrderedGet(int table, uint64_t key, void* out);
  bool OrderedPut(int table, uint64_t key, const void* value);
  size_t OrderedScan(int table, uint64_t lo, uint64_t hi,
                     const std::function<bool(uint64_t, const void*)>& fn);
  bool OrderedFindFloor(int table, uint64_t lo, uint64_t bound,
                        uint64_t* key_out, void* value_out);
  bool OrderedRemove(int table, uint64_t key);

  // Softtime captured at Start (reused for all local checks, Fig. 11(c)).
  uint64_t start_time_us() const { return now_start_; }

  bool in_fallback() const { return mode_ == Mode::kFallback; }
  int home_node() const;

 private:
  enum class Mode { kHtm, kFallback };
  enum class StartResult { kOk, kConflict, kNodeDown };

  struct Ref {
    int table;
    uint64_t key;
    bool write;  // exclusively locked; otherwise leased
    int node;
    bool local;
    bool found = false;
    uint64_t entry_off = ~uint64_t{0};
    uint32_t value_size = 0;
    std::vector<uint8_t> buf;  // prefetched value (remote; fallback: all)
    uint32_t version = 0;
    uint64_t lease_end = 0;
    bool locked = false;  // exclusive lock held by us
    bool leased = false;
    bool dirty = false;
    // Covered by an enclosing chain lock: skip acquire/release, and an
    // observed write lock is our own (the chain holds it continuously).
    bool chain_locked = false;
  };

  // Local structural operations buffered by the fallback path until after
  // lease confirmation (its serialization point), then applied inside
  // small HTM transactions.
  struct PendingOp {
    enum Kind {
      kHashInsert,
      kHashRemove,
      kOrderedInsert,
      kOrderedPut,
      kOrderedRemove,
    };
    Kind op;
    int table;
    uint64_t key;
    std::vector<uint8_t> value;
  };

  // Declares a record, or upgrades a declared one to a write.
  void AddRef(int table, uint64_t key, bool write);
  Ref* FindRef(int table, uint64_t key);
  const Ref* FindRef(int table, uint64_t key) const {
    return const_cast<Transaction*>(this)->FindRef(table, key);
  }
  void SortRefs();
  rdma::SendQueue::Config SqConfig() const {
    return rdma::SendQueue::Config{cfg_.rdma_batch_window};
  }

  // --- phases shared by the HTM start, the fallback, read-only
  // transactions and chain locks: resolve -> lock/lease -> prefetch.
  // Starts an attempt: captures the softtime, sets our lease end to
  // now + lease_us and re-resolves every ref's owner node.
  void BeginAttempt(uint64_t lease_us);
  // Resolves the entry_off of every ref in `refs`: local ones by a local
  // lookup, remote ones scatter-resolved (one overlapped doorbell per
  // target node per chain round). Returns false if a target died
  // mid-walk.
  bool ResolveRefs(const std::vector<Ref*>& refs);
  // The one non-blocking lock/lease acquire, for every found ref in
  // `refs` that no chain lock covers: round 1 is a blind INIT -> locked
  // CAS per write ref and a state-word probe per read ref; a healthy
  // lease is then shared with no CAS, and every other lease is
  // installed, renewed or stolen by one CAS, all in round 2. Each round
  // is one overlapped scatter (counted under `ids`). A CAS that lost
  // goes to the non-waiting scalar continuation (AcquireExclusive /
  // LeaseCasLoop); kConflict leaves the acquired refs marked for the
  // caller's release. Leases we install end at lease_end_; lease_us is
  // this path's lease length, which decides what is shareable
  // (LeaseShareable).
  StartResult AcquireRound(const std::vector<Ref*>& refs, uint64_t lease_us,
                           const stat::ScatterPhaseIds& ids);
  // The one waiting acquire: locks or leases every found, not
  // chain-locked ref of `refs`, which must be in <table, key> order,
  // waiting out holders one ref at a time.
  StartResult AcquireInOrder(const std::vector<Ref*>& refs);
  // Reads the header+value image of every found ref in `refs` in one
  // overlapped scatter round, then parses each (PrefetchFromRaw).
  StartResult PrefetchRefs(const std::vector<Ref*>& refs);
  // True if a lease ending at `end` leaves a sharer with a lease of
  // length lease_us enough time to confirm it at commit.
  bool LeaseShareable(uint64_t end, uint64_t now, uint64_t lease_us) const;
  // The word that replaces a lease too short to share with a lease of
  // ours ending at `end`: a fresh lease once it expired, a renewed one
  // while it is valid, or kStateInit when it was renewed once already
  // and must be waited out.
  uint64_t LeaseReplacement(uint64_t observed, uint64_t end,
                            uint64_t now) const;
  // Drives a state word last seen as `observed` to a lease we hold:
  // shares a healthy lease, renews a short one once, steals an expired
  // one, and (with `wait`) waits out a write lock or a renewed lease; a
  // lease we install ends at `end`. kConflict on a write lock or a
  // renewed short lease without `wait`.
  StartResult LeaseCasLoop(Ref& ref, bool wait, uint64_t observed,
                           uint64_t end, uint64_t lease_us);
  // True if every leased ref's lease is still valid now.
  bool LeasesValid(const std::vector<Ref>& refs) const;
  // Logs which of `refs` this transaction is about to write-lock
  // (logging on), so recovery can release them after a crash (§4.6),
  // and seals the record before any lock is taken. False if the record
  // could not be logged: then no lock may be taken.
  bool AppendLockAhead(const std::vector<Ref*>& refs);
  // Appends this transaction's Complete record (logging on).
  void AppendComplete();
  // Closes this transaction's lock-ahead records, if any were logged,
  // once the locks they name are all released without a commit.
  void CloseLockAhead();

  // HTM path: resolves, locks/leases (AcquireRound) and prefetches the
  // remote refs, each phase overlapped across the target nodes.
  StartResult StartPhase();
  void ConfirmLeasesInHtm();
  void WriteWalInHtm();

  // --- the commit tail shared by the HTM path and the fallback ---------------
  // The version + locked state + value image a commit writes back.
  std::vector<uint8_t> WriteBackBlob(const Ref& ref) const;
  // Writes back every dirty remote record and releases every lock we
  // hold in one scatter round (REMOTE_WRITE_BACK, Fig. 5). Returns false
  // when a chaos crash point abandoned the release (simulated death
  // mid-commit): remaining locks stay held and no Complete is written.
  bool WriteBackAndUnlock();
  // The commit epilogue: the replay release event (when locks were
  // held), the Complete record and durability ack, the elastic
  // notification (both only after a clean release), and the stats.
  TxnStatus FinishCommit(bool held_locks, bool release_clean);
  bool HoldsLocks() const;
  // Releases every lock we hold, drops our leases and clears the refs
  // per-attempt state for a retry.
  void ReleaseAndReset();
  TxnStatus RunHtmPath(const Body& body, bool* out_committed);

  // Scalar helpers of AcquireRound (wait = false) and AcquireInOrder.
  StartResult AcquireExclusive(Ref& ref, bool wait);
  // Probes the state word with a READ, then LeaseCasLoop, waiting.
  StartResult AcquireLease(Ref& ref);
  // Parses a prefetched header+value image into ref (key check, version,
  // value copy); undoes the ref's lock on a key mismatch.
  StartResult PrefetchFromRaw(Ref& ref, const uint8_t* raw);
  rdma::OpStatus StateCas(const Ref& ref, uint64_t expected, uint64_t desired,
                          uint64_t* observed);
  // The one unlock: a processor store for a local record on a
  // GLOB-coherent NIC (as in StateCas), otherwise a WRITE, retried while
  // the owner is down.
  void UnlockRef(const Ref& ref);

  // Fallback path (section 6.2).
  TxnStatus RunFallback(const Body& body);

  // In-body helpers.
  bool LocalReadInHtm(Ref& ref, void* out);
  bool LocalWriteInHtm(Ref& ref, const void* value);
  bool LocalWriteRangeInHtm(Ref& ref, uint32_t offset, const void* data,
                            uint32_t len);
  void RecordWalUpdate(const Ref& ref, const void* value);

  // Replay taps (src/replay): hand the recorder this commit's logical
  // write set and WAL digest. The HTM variant stages inside the region
  // (the seqlock publish hook emits the event with the critical-section
  // sequence) and touches only thread-local state; the fallback variant
  // emits directly while its 2PL locks are still held. Zero-write
  // commits stage nothing.
  std::vector<replay::WriteRec> ReplayGatherWrites() const;
  void ReplayStageCommitHtm();
  void ReplayRecordFallbackCommit();

  // After a commit became visible: reports every written record (and
  // buffered structural op) to the installed ElasticHooks, driving the
  // dual-write phase of a live migration. No-op without hooks.
  void NotifyCommittedWrites();

  Worker* worker_;
  Cluster& cluster_;
  const ClusterConfig& cfg_;
  Mode mode_ = Mode::kHtm;
  std::vector<Ref> refs_;
  uint64_t txn_id_ = 0;
  uint64_t now_start_ = 0;
  uint64_t lease_end_ = 0;
  bool user_abort_ = false;
  std::vector<uint8_t> wal_buffer_;
  // Order-insensitive digest of this attempt's WAL updates (replay
  // recording); reset wherever wal_buffer_ is.
  uint64_t replay_wal_sum_ = 0;
  std::vector<PendingOp> pending_local_ops_;
  // Leases taken by ReadDynamic in fallback mode (confirmed post-body).
  std::vector<Ref> dynamic_refs_;
  bool dynamic_conflict_ = false;
  bool ran_ = false;
  // A lock-ahead record was appended under txn_id_; an exit without a
  // commit must close it (CloseLockAhead), or it pins the log ring.
  bool lock_ahead_logged_ = false;
};

// Read-only transactions (paper section 4.5, Fig. 8).
class ReadOnlyTransaction {
 public:
  explicit ReadOnlyTransaction(Worker* worker);

  void AddRead(int table, uint64_t key);

  // Leases every declared record with one common end time, prefetches,
  // and confirms. Retries internally on conflicts.
  TxnStatus Execute();

  // Valid after a kCommitted Execute(). Returns false if the key did not
  // exist at snapshot time.
  bool Get(int table, uint64_t key, void* out) const;

  // Lease end time (synctime µs) of a record read by a kCommitted
  // Execute(), or 0 if the key was absent. The elastic hot-key replica
  // cache serves a cached value only while this lease is still valid —
  // writers wait out the lease, so the cached value cannot go stale
  // within it (paper section 4.5).
  uint64_t LeaseEndOf(int table, uint64_t key) const;

 private:
  // Holds the declared refs; never Run().
  Transaction txn_;
};

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_TRANSACTION_H_
