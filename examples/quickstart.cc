// Quickstart: a two-node DrTM cluster, one table, one distributed
// transaction, one read-only transaction.
//
//   $ ./quickstart
//
// Demonstrates the public API end to end: cluster setup, table
// registration with a partition function, loading, Transaction with
// declared read/write sets, and ReadOnlyTransaction.
#include <cstdio>

#include "src/txn/cluster.h"
#include "src/txn/transaction.h"

int main() {
  using namespace drtm;

  // 1. A cluster of two simulated machines connected by "RDMA".
  txn::ClusterConfig config;
  config.num_nodes = 2;
  config.workers_per_node = 1;
  config.region_bytes = 32 << 20;
  // Paper-calibrated network latency, scaled 10x down for the host.
  config.latency = rdma::LatencyModel::Calibrated(0.1);
  txn::Cluster cluster(config);

  // 2. One key-value table, partitioned by key parity.
  txn::TableSpec spec;
  spec.value_size = sizeof(uint64_t);
  spec.partition = [](uint64_t key) { return static_cast<int>(key % 2); };
  const int kAccounts = cluster.AddTable(spec);

  cluster.Start();

  // 3. Load two accounts, one per node.
  const uint64_t alice = 0;  // node 0
  const uint64_t bob = 1;    // node 1
  const uint64_t initial = 100;
  cluster.hash_table(0, kAccounts)->Insert(alice, &initial);
  cluster.hash_table(1, kAccounts)->Insert(bob, &initial);

  // 4. A distributed transaction from node 0: alice (local record, HTM)
  //    pays bob (remote record: RDMA CAS lock + prefetch + write-back).
  txn::Worker worker(&cluster, /*node=*/0, /*worker_id=*/0);
  txn::Transaction txn(&worker);
  txn.AddWrite(kAccounts, alice);
  txn.AddWrite(kAccounts, bob);
  const txn::TxnStatus status = txn.Run([&](txn::Transaction& t) {
    uint64_t a = 0;
    uint64_t b = 0;
    if (!t.Read(kAccounts, alice, &a) || !t.Read(kAccounts, bob, &b)) {
      return false;
    }
    a -= 30;
    b += 30;
    return t.Write(kAccounts, alice, &a) && t.Write(kAccounts, bob, &b);
  });
  std::printf("transfer committed: %s\n",
              status == txn::TxnStatus::kCommitted ? "yes" : "no");

  // 5. A read-only transaction: a consistent snapshot of both balances.
  //    The remote record is leased and prefetched; the local one is read
  //    in an HTM region that also confirms the lease.
  txn::ReadOnlyTransaction ro(&worker);
  ro.AddRead(kAccounts, alice);
  ro.AddRead(kAccounts, bob);
  if (ro.Execute() == txn::TxnStatus::kCommitted) {
    uint64_t a = 0;
    uint64_t b = 0;
    ro.Get(kAccounts, alice, &a);
    ro.Get(kAccounts, bob, &b);
    std::printf("alice=%llu bob=%llu (sum %llu)\n",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(a + b));
  }

  cluster.Stop();
  return 0;
}
