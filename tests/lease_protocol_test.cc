// Lease protocol state-machine tests (paper sections 4.2/4.3): sharing,
// renewal, expiry stealing, writer waiting, DELTA's indeterminate zone,
// and clock-skew behaviour — exercised through the Transaction layer
// with direct inspection of the state word.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/htm/htm.h"
#include "src/stat/metrics.h"
#include "src/store/kv_layout.h"
#include "src/txn/cluster.h"
#include "src/txn/lock_state.h"
#include "src/txn/transaction.h"

namespace drtm {
namespace txn {
namespace {

class LeaseProtocolTest : public ::testing::Test {
 protected:
  void SetUpCluster(ClusterConfig config) {
    config.num_nodes = 2;
    config.workers_per_node = 1;
    config.region_bytes = 16 << 20;
    cluster_ = std::make_unique<Cluster>(config);
    TableSpec spec;
    spec.value_size = 8;
    spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
    table_ = cluster_->AddTable(spec);
    cluster_->Start();
    const uint64_t v = 1;
    // Record 0 lives on node 0; accessed remotely from node 1.
    cluster_->hash_table(0, table_)->Insert(0, &v);
    host_ = cluster_->hash_table(0, table_);
    entry_ = host_->FindEntry(0);
  }
  void TearDown() override {
    if (cluster_ != nullptr) {
      cluster_->Stop();
    }
  }

  uint64_t State() { return htm::StrongLoad(host_->StatePtr(entry_)); }

  TxnStatus RemoteRead(Worker* worker, uint64_t* lease_end_out = nullptr) {
    Transaction txn(worker);
    txn.AddRead(table_, 0);
    const TxnStatus status = txn.Run([&](Transaction& t) {
      uint64_t v;
      return t.Read(table_, 0, &v);
    });
    if (lease_end_out != nullptr) {
      *lease_end_out = LeaseEnd(State());
    }
    return status;
  }

  std::unique_ptr<Cluster> cluster_;
  int table_;
  store::ClusterHashTable* host_;
  uint64_t entry_;
};

TEST_F(LeaseProtocolTest, FirstReaderInstallsLease) {
  ClusterConfig config;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  uint64_t end = 0;
  ASSERT_EQ(RemoteRead(&reader, &end), TxnStatus::kCommitted);
  EXPECT_TRUE(HasLease(State()));
  const uint64_t now = cluster_->synctime().ReadStrong(1);
  EXPECT_GT(end, now);
  EXPECT_LE(end, now + cluster_->config().lease_rw_us + 10000);
}

TEST_F(LeaseProtocolTest, SecondReaderSharesWithoutNewEnd) {
  ClusterConfig config;
  config.lease_rw_us = 200000;  // long: the second read lands well inside
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  uint64_t end1 = 0;
  uint64_t end2 = 0;
  ASSERT_EQ(RemoteRead(&reader, &end1), TxnStatus::kCommitted);
  ASSERT_EQ(RemoteRead(&reader, &end2), TxnStatus::kCommitted);
  EXPECT_EQ(end1, end2) << "sharing must keep the original end time";
}

TEST_F(LeaseProtocolTest, NearlyExpiredLeaseIsRenewed) {
  ClusterConfig config;
  config.lease_rw_us = 30000;
  config.delta_us = 500;
  config.softtime_interval_us = 200;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  uint64_t end1 = 0;
  ASSERT_EQ(RemoteRead(&reader, &end1), TxnStatus::kCommitted);
  // Sleep until inside the renewal margin (but before expiry).
  std::this_thread::sleep_for(std::chrono::microseconds(27000));
  uint64_t end2 = 0;
  ASSERT_EQ(RemoteRead(&reader, &end2), TxnStatus::kCommitted);
  EXPECT_GT(end2, end1) << "a nearly-expired lease must be renewed";
}

TEST_F(LeaseProtocolTest, RereadLeaseDoesNotStarveWaitingWriter) {
  // A reader re-reading a leased record in a tight loop renews its lease
  // at most once, so a writer waiting the lease out gets in within a few
  // lease lengths rather than whenever the reader is descheduled.
  ClusterConfig config;
  config.lease_ro_us = 2000;
  config.delta_us = 300;
  SetUpCluster(config);
  using Clock = std::chrono::steady_clock;
  const auto lease = std::chrono::microseconds(config.lease_ro_us);
  std::atomic<bool> stop{false};
  std::thread observer([&] {
    Worker reader(cluster_.get(), 1, 0);
    // Bounded, so that a starved writer still finishes and the elapsed
    // time below reports the starvation.
    const auto give_up = Clock::now() + 400 * lease;
    while (!stop.load(std::memory_order_acquire) && Clock::now() < give_up) {
      ReadOnlyTransaction ro(&reader);
      ro.AddRead(table_, 0);
      ro.Execute();
    }
  });
  while (!HasLease(State())) {
    std::this_thread::yield();
  }
  Worker writer(cluster_.get(), 0, 0);
  const auto start = Clock::now();
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  const TxnStatus status = txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  });
  const auto elapsed = Clock::now() - start;
  stop.store(true, std::memory_order_release);
  observer.join();
  ASSERT_EQ(status, TxnStatus::kCommitted);
  EXPECT_LT(elapsed, 100 * lease)
      << "writer waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms behind a re-read lease";
}

TEST_F(LeaseProtocolTest, ExpiredLeaseIsStolenByWriter) {
  ClusterConfig config;
  config.lease_rw_us = 2000;
  config.delta_us = 300;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  ASSERT_EQ(RemoteRead(&reader), TxnStatus::kCommitted);
  ASSERT_TRUE(HasLease(State()));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire
  // A remote writer takes the record despite the (expired) lease.
  Worker writer(cluster_.get(), 1, 0);
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  EXPECT_EQ(State(), kStateInit);  // unlocked after write-back
  uint64_t value = 0;
  host_->Get(0, &value);
  EXPECT_EQ(value, 2u);
}

TEST_F(LeaseProtocolTest, WriterWaitsOutLeaseViaRetries) {
  ClusterConfig config;
  config.lease_rw_us = 20000;  // 20 ms
  config.delta_us = 500;
  SetUpCluster(config);
  Worker reader(cluster_.get(), 1, 0);
  ASSERT_EQ(RemoteRead(&reader), TxnStatus::kCommitted);
  const uint64_t t0 = MonotonicNanos();
  Worker writer(cluster_.get(), 1, 0);
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  const uint64_t waited_us = (MonotonicNanos() - t0) / 1000;
  // The writer could not commit before the lease expired.
  EXPECT_GE(waited_us, 10000u);
  EXPECT_GE(writer.stats().start_conflicts, 1u);
}

TEST_F(LeaseProtocolTest, SkewedClockWithinDeltaStaysSerializable) {
  ClusterConfig config;
  config.lease_rw_us = 10000;
  config.delta_us = 2000;  // generous DELTA absorbing the injected skew
  SetUpCluster(config);
  cluster_->synctime().SetSkew(1, -1000);  // node 1 runs 1 ms behind
  cluster_->synctime().PublishNow();

  // Reader from node 1 (slow clock) leases; writer on node 0's clock must
  // still respect the lease (DELTA covers the skew).
  Worker reader(cluster_.get(), 1, 0);
  ASSERT_EQ(RemoteRead(&reader), TxnStatus::kCommitted);
  Worker writer(cluster_.get(), 1, 0);
  Transaction txn(&writer);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t v;
    if (!t.Read(table_, 0, &v)) {
      return false;
    }
    ++v;
    return t.Write(table_, 0, &v);
  }),
            TxnStatus::kCommitted);
  uint64_t value = 0;
  host_->Get(0, &value);
  EXPECT_EQ(value, 2u);
}

TEST_F(LeaseProtocolTest, ReadOnlyLeasesAllowConcurrentReaders) {
  ClusterConfig config;
  config.lease_ro_us = 100000;
  SetUpCluster(config);
  const uint64_t v = 5;
  cluster_->hash_table(1, table_)->Insert(1, &v);

  // Two read-only transactions from different nodes read both records
  // concurrently; both commit (shared leases everywhere).
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Worker worker(cluster_.get(), t, 0);
      for (int i = 0; i < 50; ++i) {
        ReadOnlyTransaction ro(&worker);
        ro.AddRead(table_, 0);
        ro.AddRead(table_, 1);
        if (ro.Execute() == TxnStatus::kCommitted) {
          uint64_t a = 0;
          uint64_t b = 0;
          EXPECT_TRUE(ro.Get(table_, 0, &a));
          EXPECT_TRUE(ro.Get(table_, 1, &b));
          ++committed;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(committed.load(), 100);
}

TEST_F(LeaseProtocolTest, AllLocalReadOnlyTakesNoLeaseAndBlocksNoWriter) {
  ClusterConfig config;
  config.lease_ro_us = 200000;  // a lease would stall the writer 200 ms
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  const stat::Snapshot before = stat::Registry::Global().TakeSnapshot();
  ReadOnlyTransaction ro(&worker);
  ro.AddRead(table_, 0);
  ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
  const stat::Snapshot after = stat::Registry::Global().TakeSnapshot();
  uint64_t v = 0;
  ASSERT_TRUE(ro.Get(table_, 0, &v));
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(State(), kStateInit) << "a local read in HTM must not lease";
  EXPECT_EQ(ro.LeaseEndOf(table_, 0), 0u);
  EXPECT_EQ(after.Counter("txn.readonly.htm_commit") -
                before.Counter("txn.readonly.htm_commit"),
            1u);
  EXPECT_EQ(after.Counter("rdma.cas.ops") - before.Counter("rdma.cas.ops"),
            0u);

  const uint64_t t0 = MonotonicNanos();
  Transaction txn(&worker);
  txn.AddWrite(table_, 0);
  ASSERT_EQ(txn.Run([&](Transaction& t) {
    uint64_t value = 0;
    if (!t.Read(table_, 0, &value)) {
      return false;
    }
    ++value;
    return t.Write(table_, 0, &value);
  }),
            TxnStatus::kCommitted);
  const uint64_t waited_us = (MonotonicNanos() - t0) / 1000;
  EXPECT_LT(waited_us, config.lease_ro_us / 10);
}

TEST_F(LeaseProtocolTest, ReadOnlyWaitsOutRemoteWriteLockOnLocalRecord) {
  ClusterConfig config;
  SetUpCluster(config);
  // Node 1 write-locks node 0's record through the NIC, as a remote
  // writer's Start does; its pre-commit value stays 1.
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(0, entry_ + store::kEntryStateOffset,
                                   kStateInit, MakeWriteLocked(1), &observed),
            rdma::OpStatus::kOk);
  ASSERT_EQ(observed, kStateInit);
  std::atomic<bool> done{false};
  TxnStatus status = TxnStatus::kAborted;
  uint64_t seen = 0;
  std::thread reader([&] {
    Worker worker(cluster_.get(), 0, 0);
    ReadOnlyTransaction ro(&worker);
    ro.AddRead(table_, 0);
    status = ro.Execute();
    if (status == TxnStatus::kCommitted) {
      ro.Get(table_, 0, &seen);
    }
    done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(done.load(std::memory_order_acquire))
      << "read-only returned while the record was write-locked";
  // The writer's commit: write back the new value, then unlock.
  const uint64_t committed = 42;
  ASSERT_EQ(cluster_->fabric().Write(0, entry_ + sizeof(store::EntryHeader),
                                     &committed, sizeof(committed)),
            rdma::OpStatus::kOk);
  const uint64_t init = kStateInit;
  ASSERT_EQ(cluster_->fabric().Write(0, entry_ + store::kEntryStateOffset,
                                     &init, sizeof(init)),
            rdma::OpStatus::kOk);
  reader.join();
  ASSERT_EQ(status, TxnStatus::kCommitted);
  EXPECT_EQ(seen, committed);
}

TEST_F(LeaseProtocolTest, FallbackOnlyReadOnlyLeasesLocalRecord) {
  ClusterConfig config;
  config.htm_retry_limit = 0;  // the paper's Fig. 8: every record leased
  SetUpCluster(config);
  Worker worker(cluster_.get(), 0, 0);
  ReadOnlyTransaction ro(&worker);
  ro.AddRead(table_, 0);
  ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
  EXPECT_TRUE(HasLease(State()));
  EXPECT_EQ(ro.LeaseEndOf(table_, 0), LeaseEnd(State()));
  EXPECT_GT(ro.LeaseEndOf(table_, 0), 0u);
}

TEST_F(LeaseProtocolTest, MixedReadOnlyLeasesOnlyTheRemoteRecord) {
  ClusterConfig config;
  SetUpCluster(config);
  const uint64_t v = 5;
  store::ClusterHashTable* remote = cluster_->hash_table(1, table_);
  ASSERT_TRUE(remote->Insert(1, &v));
  const uint64_t remote_entry = remote->FindEntry(1);
  Worker worker(cluster_.get(), 0, 0);
  ReadOnlyTransaction ro(&worker);
  ro.AddRead(table_, 0);
  ro.AddRead(table_, 1);
  ASSERT_EQ(ro.Execute(), TxnStatus::kCommitted);
  uint64_t a = 0;
  uint64_t b = 0;
  ASSERT_TRUE(ro.Get(table_, 0, &a));
  ASSERT_TRUE(ro.Get(table_, 1, &b));
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 5u);
  EXPECT_EQ(State(), kStateInit);
  EXPECT_EQ(ro.LeaseEndOf(table_, 0), 0u);
  const uint64_t remote_state =
      htm::StrongLoad(remote->StatePtr(remote_entry));
  EXPECT_TRUE(HasLease(remote_state));
  EXPECT_EQ(ro.LeaseEndOf(table_, 1), LeaseEnd(remote_state));
}

TEST_F(LeaseProtocolTest, OwnerIdSurvivesInLockWord) {
  ClusterConfig config;
  SetUpCluster(config);
  // Take an exclusive lock "from node 1" and verify the owner bits (used
  // by recovery, section 4.6) carry the machine id.
  uint64_t observed = 0;
  ASSERT_EQ(cluster_->fabric().Cas(0, entry_ + store::kEntryStateOffset,
                                   kStateInit, MakeWriteLocked(1), &observed),
            rdma::OpStatus::kOk);
  const uint64_t state = State();
  EXPECT_TRUE(IsWriteLocked(state));
  EXPECT_EQ(LockOwner(state), 1);
  htm::StrongStore(host_->StatePtr(entry_), kStateInit);
}

}  // namespace
}  // namespace txn
}  // namespace drtm
