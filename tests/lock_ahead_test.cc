// Lock-ahead closure (paper section 4.6): every exit that releases the
// locks a lock-ahead record names must also close that record with a
// kComplete under the same id. NvramLog::ReclaimSpace never drops an
// epoch holding an open lock-ahead, so one left open pins the log ring:
// once the ring wraps, every later logged transaction finds the segment
// full and the node stops committing.
#include <gtest/gtest.h>

#include <memory>

#include "src/txn/chopping.h"
#include "src/txn/cluster.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

class LockAheadTest : public ::testing::TestWithParam<bool> {
 protected:
  static constexpr uint64_t kAccounts = 16;
  static constexpr uint64_t kInitialBalance = 1000;
  static constexpr size_t kSegmentBytes = size_t{8} << 10;
  // Each user-aborted attempt logs one ~80-byte lock-ahead record, so
  // this many wraps the 8 KB ring about ten times over.
  static constexpr int kAbortedTxns = 1000;

  void SetUp() override {
    ClusterConfig config;
    config.num_nodes = 2;
    config.workers_per_node = 1;
    config.region_bytes = 32 << 20;
    config.logging = true;
    config.group_commit = GetParam();
    config.log_segment_bytes = kSegmentBytes;
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.main_buckets = 1 << 8;
    spec.capacity = 1 << 12;
    spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
    for (uint64_t k = 0; k < kAccounts; ++k) {
      const uint64_t balance = kInitialBalance;
      ASSERT_TRUE(cluster_->hash_table(cluster_->PartitionOf(table_, k), table_)
                      ->Insert(k, &balance));
    }
    worker_ = std::make_unique<Worker>(cluster_.get(), 0, 0);
  }

  void TearDown() override { cluster_->Stop(); }

  // Transfers between two node-1 accounts from a node-0 worker: both
  // writes are remote, so the Start phase logs a lock-ahead.
  TxnStatus RemoteTransfer(uint64_t amount, bool user_abort) {
    Transaction txn(worker_.get());
    txn.AddWrite(table_, 1);
    txn.AddWrite(table_, 3);
    return txn.Run([&](Transaction& t) {
      uint64_t a = 0;
      uint64_t b = 0;
      if (!t.Read(table_, 1, &a) || !t.Read(table_, 3, &b)) {
        return false;
      }
      a -= amount;
      b += amount;
      return t.Write(table_, 1, &a) && t.Write(table_, 3, &b) && !user_abort;
    });
  }

  // After draining the flushes, reclaiming must free everything but
  // the open tail: no epoch may stay pinned by an unclosed lock-ahead.
  void ExpectLogReclaimable() {
    NvramLog* log = cluster_->log(0);
    log->DrainFlushes(0);
    log->ReclaimSpace(0);
    EXPECT_LT(log->UsedBytes(0), kSegmentBytes / 4);
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Worker> worker_;
  int table_ = -1;
};

TEST_P(LockAheadTest, UserAbortsAfterLockAheadDoNotPinTheLog) {
  for (int i = 0; i < kAbortedTxns; ++i) {
    ASSERT_EQ(RemoteTransfer(1, /*user_abort=*/true), TxnStatus::kUserAbort)
        << "aborted transfer " << i;
  }
  ExpectLogReclaimable();
  ASSERT_EQ(RemoteTransfer(10, /*user_abort=*/false), TxnStatus::kCommitted);
  uint64_t a = 0;
  uint64_t b = 0;
  cluster_->hash_table(1, table_)->Get(1, &a);
  cluster_->hash_table(1, table_)->Get(3, &b);
  EXPECT_EQ(a, kInitialBalance - 10);
  EXPECT_EQ(b, kInitialBalance + 10);
}

TEST_P(LockAheadTest, ChainUserAbortsDoNotPinTheLog) {
  // A two-piece chain whose first piece user-aborts (like a TPC-C
  // new-order rollback): the chain's lock-ahead is logged under the
  // chain id before the pieces run, then the locks are released.
  for (int i = 0; i < kAbortedTxns; ++i) {
    ChoppedTransaction chain;
    chain.AddChainLock(table_, 1);
    chain.AddPiece([this](Transaction& t) { t.AddWrite(table_, 1); },
                   [](Transaction&) { return false; });
    chain.AddPiece([this](Transaction& t) { t.AddWrite(table_, 1); },
                   [](Transaction&) { return true; });
    ASSERT_EQ(chain.Run(worker_.get()), TxnStatus::kUserAbort)
        << "aborted chain " << i;
  }
  ExpectLogReclaimable();
  ASSERT_EQ(RemoteTransfer(10, /*user_abort=*/false), TxnStatus::kCommitted);
}

INSTANTIATE_TEST_SUITE_P(SyncAndGroupCommit, LockAheadTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "GroupCommit" : "Sync";
                         });

}  // namespace
}  // namespace txn
}  // namespace drtm
