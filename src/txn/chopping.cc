#include "src/txn/chopping.h"

#include <cassert>

#include "src/chaos/injector.h"
#include "src/stat/metrics.h"

namespace drtm {
namespace txn {

namespace {

struct ChopInfo {
  uint32_t piece;  // next piece to run; pieces < piece have committed
  uint32_t total;
};

// Chain markers that could not be made durable even after riding out a
// full segment (NvramLog::AppendOutsideHtm) — each one is a chain that
// aborted mid-way or completed without its {total, total} record.
uint32_t MarkerDroppedId() {
  static const uint32_t id =
      stat::Registry::Global().CounterId("txn.chop.marker_dropped");
  return id;
}

}  // namespace

TxnStatus ChoppedTransaction::AcquireChainLocks(Transaction& chain) {
  using StartResult = Transaction::StartResult;
  // AcquireInOrder needs the global <table, key> order.
  chain.SortRefs();
  std::vector<Transaction::Ref*> all;
  for (Transaction::Ref& ref : chain.refs_) {
    all.push_back(&ref);
  }
  if (!chain.ResolveRefs(all)) {
    return TxnStatus::kNodeFailure;
  }
  for (const Transaction::Ref* ref : all) {
    if (!ref->found) {
      return TxnStatus::kAborted;
    }
  }
  // One lock-ahead record for the whole chain, under the chain id: if
  // this machine dies mid-chain, recovery releases the chain locks it
  // still owns (the resumed chain re-acquires them).
  if (!chain.AppendLockAhead(all)) {
    return TxnStatus::kAborted;
  }
  const StartResult result = chain.AcquireInOrder(all);
  if (result == StartResult::kNodeDown) {
    chain.ReleaseAndReset();
    return TxnStatus::kNodeFailure;
  }
  if (result == StartResult::kConflict) {
    AbortChain(chain);
    return TxnStatus::kAborted;
  }
  return TxnStatus::kCommitted;
}

void ChoppedTransaction::AbortChain(Transaction& chain) {
  chain.ReleaseAndReset();
  if (chain.cfg_.logging) {
    // Nothing of the chain stays pending, so its lock-ahead and resume
    // markers are closed: recovery then leaves the chain alone, and
    // ReclaimSpace can drop their epochs.
    chain.AppendComplete();
  }
}

TxnStatus ChoppedTransaction::RunFrom(Worker* worker, size_t first_piece) {
  Cluster& cluster = worker->cluster();
  const bool logging = cluster.config().logging;
  const bool chained = pieces_.size() > 1;
  Transaction chain(worker);
  chain.txn_id_ = cluster.NextTxnId(worker->node(), worker->worker_id());
  for (const auto& [table, key] : chain_locks_) {
    chain.AddWrite(table, key);
  }

  // All chain locks are acquired before the first piece runs and held
  // until after the last (§4.6). A resumed chain re-acquires them —
  // recovery released the crashed node's.
  if (chained && !chain_locks_.empty()) {
    const TxnStatus lock_status = AcquireChainLocks(chain);
    if (lock_status != TxnStatus::kCommitted) {
      return lock_status;
    }
  }

  // Chaos point on the chop log path: fires between the remaining-piece
  // record and the piece body, simulating a power-cut at the resume
  // point. Chain locks stay held (recovery releases them) and the piece
  // has not started, so recovery resumes exactly here.
  static const uint32_t kChopPoint =
      chaos::Injector::Global().Point("log.chop");
  // Logs a {next_piece, total} marker under the chain id and seals it, so
  // that it is recovery-visible before anything after it becomes
  // visible. A marker that cannot be logged is counted as dropped.
  auto log_marker = [&](size_t next_piece) {
    const ChopInfo info{static_cast<uint32_t>(next_piece),
                        static_cast<uint32_t>(pieces_.size())};
    NvramLog* log = cluster.log(worker->node());
    if (log->AppendOutsideHtm(worker->worker_id(), LogType::kChopInfo,
                              chain.txn_id_, &info,
                              sizeof(info)) != AppendStatus::kOk) {
      stat::Registry::Global().Add(MarkerDroppedId());
      return false;
    }
    log->Externalize(worker->worker_id());
    return true;
  };

  for (size_t i = first_piece; i < pieces_.size(); ++i) {
    if (chained) {
      // Remaining-piece record ahead of each piece: on recovery, the
      // highest logged index is the chain's resume point (§4.6). It must
      // be recoverable before the piece makes any of its effects visible
      // (it runs under already-held chain locks).
      if (logging && !log_marker(i)) {
        // No resume marker can be made durable even with the flush
        // pipeline drained and every completed epoch reclaimed. Never
        // keep the chain locks on a live node — no caller resumes an
        // aborted chain, so the keys would stay write-locked until a
        // crash. Release and surface a retryable abort; mid-chain
        // (pieces < i committed) the retried chain re-runs those
        // pieces, which catalog pieces after the first are written to
        // tolerate — the same idempotence contract recovery's resume
        // path relies on.
        AbortChain(chain);
        return TxnStatus::kAborted;
      }
      if (chaos::Check(kChopPoint, worker->node()).kind ==
          chaos::Decision::Kind::kAbandon) {
        return TxnStatus::kNodeFailure;  // simulated death: locks stay held
      }
    }
    Transaction txn(worker);
    pieces_[i].declare(txn);
    for (const auto& [table, key] : chain_locks_) {
      txn.MarkChainLocked(table, key);
    }
    const TxnStatus status = txn.Run(pieces_[i].body);
    assert((status != TxnStatus::kUserAbort || i == 0) &&
           "only the first piece of a chopped transaction may user-abort");
    if (status == TxnStatus::kUserAbort ||
        (i == first_piece && status == TxnStatus::kAborted)) {
      // Nothing from this (possibly resumed) chain segment committed;
      // release so the caller can retry the chain from scratch.
      if (chained) {
        AbortChain(chain);
      }
      return status;
    }
    if (status != TxnStatus::kCommitted) {
      // Earlier pieces committed: the chain locks stay held, and
      // recovery (or the caller) finishes the chain.
      return status;
    }
  }
  if (chained) {
    // Chain-complete marker: {total, total} tells recovery there is
    // nothing left to resume. It must be durable before the chain locks
    // are released — resuming a "finished" chain would re-run its last
    // piece — so a full segment is ridden out (drain + reclaim + retry)
    // rather than the marker being dropped. If it still cannot be
    // persisted (segment pinned by unfinished transactions even after
    // draining, or an injected append fault), the locks are released
    // anyway: holding them forever would wedge every later writer on
    // these keys, and if this node later crashes, recovery resumes at
    // the final piece and re-runs it, which catalog pieces after the
    // first are written to tolerate.
    if (logging) {
      log_marker(pieces_.size());
    }
    chain.ReleaseAndReset();
  }
  return TxnStatus::kCommitted;
}

}  // namespace txn
}  // namespace drtm
