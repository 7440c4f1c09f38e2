#include "src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <utility>

#include "src/common/rand.h"
#include "src/probes.h"
#include "src/workload/smallbank.h"
#include "src/workload/tpcc.h"
#include "src/workload/ycsb.h"

namespace perfbench {

namespace {

using drtm::Xoshiro256;
using drtm::txn::Cluster;
using drtm::txn::ClusterConfig;
using drtm::txn::ReadOnlyTransaction;
using drtm::txn::TxnStatus;
using drtm::txn::Worker;
using drtm::workload::SmallBankDb;
using drtm::workload::TpccDb;
using drtm::workload::YcsbDb;

constexpr size_t kProbeKeys = 2000;

const std::vector<std::string> kTpccClasses = {
    "new_order", "payment", "order_status", "delivery", "stock_level"};
const std::vector<std::string> kSmallBankClasses = {
    "send_payment", "balance",          "deposit_checking",
    "write_check",  "transact_savings", "amalgamate"};
const std::vector<std::string> kYcsbClasses = {"read", "update"};

ClusterConfig BaseConfig(double wire_scale, size_t region_mb) {
  ClusterConfig config;
  config.num_nodes = kNodes;
  config.workers_per_node = kWorkersPerNode;
  config.region_bytes = region_mb << 20;
  config.latency = drtm::rdma::LatencyModel::Calibrated(wire_scale);
  return config;
}

// The probes every workload runs: an empty HTM region, a local hash Get
// on node 0, and an uncached remote lookup + READ into node 1, over keys
// the workload's distribution drew on each node.
void ProbeHashAndRemote(Cluster& cluster, int table,
                        const std::vector<uint64_t>& local_keys,
                        const std::vector<uint64_t>& remote_keys,
                        MetricMap* out) {
  (*out)["probe.htm_empty_region_ns"] = ProbeHtmEmptyRegionNs();
  (*out)["probe.hash_get_ns"] =
      ProbeHashGetNs(*cluster.hash_table(0, table), local_keys);
  const RemoteProbe remote = ProbeRemote(cluster, 1, table, remote_keys);
  (*out)["probe.remote_lookup_ns"] = remote.lookup_ns;
  (*out)["probe.rdma_read_ns"] = remote.read_ns;
  (*out)["store.reads_per_remote_lookup"] = remote.reads_per_lookup;
  (*out)["probe.btree_get_ns"] = 0;  // only TPC-C has ordered tables
}

// --- tpcc-nolog --------------------------------------------------------------

class TpccNoLog : public Workload {
 public:
  static constexpr int kWarehousesPerNode = 4;

  TpccNoLog() {
    cluster_ = std::make_unique<Cluster>(BaseConfig(0.1, 96));
    TpccDb::Params params;
    params.warehouses = kNodes * kWarehousesPerNode;
    params.customers_per_district = 100;
    params.items = 400;
    params.name_count = 30;
    params.initial_orders_per_district = 8;
    params.cross_warehouse_new_order = 0.01;
    params.cross_warehouse_payment = 0.15;
    db_ = std::make_unique<TpccDb>(cluster_.get(), params);
    cluster_->Start();
    db_->Load();
  }
  ~TpccNoLog() override { cluster_->Stop(); }

  Cluster& cluster() override { return *cluster_; }
  const std::vector<std::string>& classes() const override {
    return kTpccClasses;
  }

  StepOutcome Step(Worker& worker) override {
    const TpccDb::MixResult r = db_->RunMix(&worker);
    return StepOutcome{static_cast<int>(r.type), r.status};
  }

  bool Check(const std::vector<uint64_t>& class_attempts, uint64_t seed,
             std::string* error) override {
    if (!db_->CheckConsistency()) {
      *error = "TpccDb::CheckConsistency failed";
      return false;
    }
    // The standard mix (45/43/4/4/4). With >= 10k attempts one standard
    // deviation of a class share is <= 0.5 pp, so 2 pp is a loose bound
    // that still catches a wrong mix.
    static const double kMix[] = {45, 43, 4, 4, 4};
    double total = 0;
    for (const uint64_t n : class_attempts) {
      total += static_cast<double>(n);
    }
    for (size_t i = 0; i < class_attempts.size(); ++i) {
      const double share =
          100 * Ratio(static_cast<double>(class_attempts[i]), total);
      if (std::fabs(share - kMix[i]) > 2.0) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      " share %.2f%% is off the %.0f%% mix (%.0f attempts)",
                      share, kMix[i], total);
        *error = classes()[i] + buf;
        return false;
      }
    }
    return true;
  }

  MetricMap Probe(uint64_t seed) override {
    // Customer keys by the workload's NURand(1023) on a warehouse of the
    // node; order keys (B+ tree) over the loaded orders.
    const TpccDb::Params& p = db_->params();
    Xoshiro256 rng(MixSeed(seed, kNodes, 0));
    auto customers_on = [&](int node) {
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < kProbeKeys; ++i) {
        const uint64_t w = static_cast<uint64_t>(node) +
                           kNodes * rng.NextBounded(kWarehousesPerNode);
        const uint64_t d =
            rng.NextBounded(drtm::workload::kDistrictsPerWarehouse);
        const uint64_t n = static_cast<uint64_t>(p.customers_per_district);
        const uint64_t c = ((rng.NextBounded(1024) | rng.NextBounded(n)) +
                            42) % n;
        keys.push_back(drtm::workload::CustomerKey(w, d, c));
      }
      return keys;
    };
    MetricMap out;
    const std::vector<uint64_t> local = customers_on(0);
    ProbeHashAndRemote(*cluster_, db_->customer_table(), local,
                       customers_on(1), &out);
    std::vector<uint64_t> orders;
    for (size_t i = 0; i < kProbeKeys; ++i) {
      const uint64_t w = kNodes * rng.NextBounded(kWarehousesPerNode);
      orders.push_back(drtm::workload::OrderKey(
          w, rng.NextBounded(drtm::workload::kDistrictsPerWarehouse),
          rng.NextBounded(
              static_cast<uint64_t>(p.initial_orders_per_district))));
    }
    out["probe.btree_get_ns"] =
        ProbeBtreeGetNs(*cluster_->ordered_table(0, db_->order_table()), orders);
    return out;
  }

  uint64_t OrderedKeys() override {
    uint64_t keys = 0;
    for (int table = 0; table < cluster_->num_tables(); ++table) {
      if (!cluster_->table(table).ordered) {
        continue;
      }
      for (int node = 0; node < kNodes; ++node) {
        keys += cluster_->ordered_table(node, table)->size();
      }
    }
    return keys;
  }

 private:
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<TpccDb> db_;
};

// --- smallbank-contended, smallbank-durable ----------------------------------

class SmallBank : public Workload {
 public:
  // durable: the NVRAM log and group commit on, with the 64 KB / 200 us
  // epochs and a flush device priced as in bench_table6's epoch sweep
  // (3 ms raw base, 0.05 ns/B; 0.3 ms on the 0.1-scale wire).
  explicit SmallBank(bool durable) {
    ClusterConfig config = BaseConfig(durable ? 0.1 : 1.0, 32);
    if (durable) {
      config.logging = true;
      config.group_commit = true;
      config.durability_epoch_bytes = size_t{64} << 10;
      config.durability_epoch_us = 200;
      config.latency.flush_base_ns = 3000000;
      config.latency.flush_per_byte_ns = 0.05;
    }
    cluster_ = std::make_unique<Cluster>(config);
    SmallBankDb::Params params;
    params.accounts_per_node = 20000;
    params.hot_accounts_per_node = 200;
    params.hot_probability = durable ? 0.0 : 0.9;
    params.cross_node_probability = 0.1;
    db_ = std::make_unique<SmallBankDb>(cluster_.get(), params);
    cluster_->Start();
    db_->Load();
    durable_ = durable;
  }
  ~SmallBank() override { cluster_->Stop(); }

  Cluster& cluster() override { return *cluster_; }
  const std::vector<std::string>& classes() const override {
    return kSmallBankClasses;
  }

  StepOutcome Step(Worker& worker) override {
    const SmallBankDb::MixResult r = db_->RunMix(&worker);
    return StepOutcome{static_cast<int>(r.type), r.status};
  }

  // Every account's savings and checking rows must read back through a
  // committed read-only transaction: a leaked lock or lease fails this.
  // With the log on, every transaction in a worker's log must also have
  // its kComplete record once the worker's flushes are drained.
  bool Check(const std::vector<uint64_t>& class_attempts, uint64_t seed,
             std::string* error) override {
    if (durable_ && !CheckLog(error)) {
      return false;
    }
    for (int node = 0; node < kNodes; ++node) {
      Worker checker(cluster_.get(), node, 0);
      for (uint64_t i = 0; i < db_->params().accounts_per_node; ++i) {
        const uint64_t key = SmallBankDb::AccountKey(node, i);
        ReadOnlyTransaction ro(&checker);
        ro.AddRead(db_->savings_table(), key);
        ro.AddRead(db_->checking_table(), key);
        int64_t balance = 0;
        if (ro.Execute() != TxnStatus::kCommitted ||
            !ro.Get(db_->savings_table(), key, &balance) ||
            !ro.Get(db_->checking_table(), key, &balance)) {
          *error = "account " + std::to_string(i) + " on node " +
                   std::to_string(node) + " did not read back";
          return false;
        }
      }
    }
    return true;
  }

  MetricMap Probe(uint64_t seed) override {
    const SmallBankDb::Params& p = db_->params();
    Xoshiro256 rng(MixSeed(seed, kNodes, 0));
    auto accounts_on = [&](int node) {
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < kProbeKeys; ++i) {
        const uint64_t index = rng.Bernoulli(p.hot_probability)
                                   ? rng.NextBounded(p.hot_accounts_per_node)
                                   : rng.NextBounded(p.accounts_per_node);
        keys.push_back(SmallBankDb::AccountKey(node, index));
      }
      return keys;
    };
    MetricMap out;
    const std::vector<uint64_t> local = accounts_on(0);
    ProbeHashAndRemote(*cluster_, db_->checking_table(), local,
                       accounts_on(1), &out);
    return out;
  }

 private:
  // A transaction that logged records but no kComplete would pin its
  // epoch against NvramLog::ReclaimSpace, so the check also fails on a
  // log that holds no completed transaction at all.
  bool CheckLog(std::string* error) {
    for (int node = 0; node < kNodes; ++node) {
      drtm::txn::NvramLog& log = *cluster_->log(node);
      for (int w = 0; w < kWorkersPerNode; ++w) {
        log.DrainFlushes(w);
      }
      std::set<std::pair<int, uint64_t>> open;
      size_t completed = 0;
      log.ForEach([&](int worker, const drtm::txn::LogRecord& r) {
        if (r.type == drtm::txn::LogType::kComplete) {
          completed += open.erase({worker, r.txn_id});
        } else {
          open.insert({worker, r.txn_id});
        }
      });
      if (completed == 0 || !open.empty()) {
        *error = "node " + std::to_string(node) + " log: " +
                 std::to_string(completed) + " completed transactions, " +
                 std::to_string(open.size()) + " without kComplete";
        return false;
      }
    }
    return true;
  }

  bool durable_ = false;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<SmallBankDb> db_;
};

// --- ycsb-b-uniform ----------------------------------------------------------

class YcsbBUniform : public Workload {
 public:
  YcsbBUniform() {
    ClusterConfig config = BaseConfig(1.0, 64);
    // The paper's 16 MB cache for ~1M locations, scaled with the data:
    // ~3.6k frames against ~65k main buckets per remote node.
    config.location_cache_bytes = size_t{512} << 10;
    cluster_ = std::make_unique<Cluster>(config);
    YcsbDb::Params params;
    params.records_per_node = 200000;
    params.value_size = 96;
    params.mix = YcsbDb::Mix::kB;
    params.distribution = YcsbDb::Distribution::kUniform;
    db_ = std::make_unique<YcsbDb>(cluster_.get(), params);
    cluster_->Start();
    db_->Load();
  }
  ~YcsbBUniform() override { cluster_->Stop(); }

  Cluster& cluster() override { return *cluster_; }
  const std::vector<std::string>& classes() const override {
    return kYcsbClasses;
  }

  StepOutcome Step(Worker& worker) override {
    const YcsbDb::OpResult r = db_->RunTxn(&worker);
    return StepOutcome{r.was_read_only ? 0 : 1,
                       r.committed ? TxnStatus::kCommitted
                                   : TxnStatus::kAborted};
  }

  // A seeded eighth of the records (50k) must read back through
  // committed read-only transactions and hold either their loaded bytes
  // or a whole-value update stamp (one odd byte repeated).
  bool Check(const std::vector<uint64_t>& class_attempts, uint64_t seed,
             std::string* error) override {
    constexpr size_t kBatch = 16;
    std::vector<uint8_t> value(db_->params().value_size);
    for (int node = 0; node < kNodes; ++node) {
      Worker checker(cluster_.get(), node, 0);
      Xoshiro256 sample(MixSeed(seed, node, kWorkersPerNode));
      std::vector<uint64_t> keys;
      for (uint64_t k = static_cast<uint64_t>(node); k < db_->total_records();
           k += kNodes) {
        if (sample.NextBounded(8) == 0) {
          keys.push_back(k);
        }
      }
      for (size_t first = 0; first < keys.size(); first += kBatch) {
        const size_t last = std::min(keys.size(), first + kBatch);
        ReadOnlyTransaction ro(&checker);
        for (size_t i = first; i < last; ++i) {
          ro.AddRead(db_->table(), keys[i]);
        }
        if (ro.Execute() != TxnStatus::kCommitted) {
          *error = "read-only check of keys from " +
                   std::to_string(keys[first]) + " did not commit";
          return false;
        }
        for (size_t i = first; i < last; ++i) {
          if (!ro.Get(db_->table(), keys[i], value.data()) ||
              !ValidValue(keys[i], value)) {
            *error = "record " + std::to_string(keys[i]) +
                     " is missing or holds a torn value";
            return false;
          }
        }
      }
    }
    return true;
  }

  MetricMap Probe(uint64_t seed) override {
    Xoshiro256 rng(MixSeed(seed, kNodes, 0));
    auto keys_on = [&](int node) {
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < kProbeKeys; ++i) {
        keys.push_back(rng.NextBounded(db_->params().records_per_node) *
                           kNodes +
                       static_cast<uint64_t>(node));
      }
      return keys;
    };
    MetricMap out;
    const std::vector<uint64_t> local = keys_on(0);
    ProbeHashAndRemote(*cluster_, db_->table(), local, keys_on(1), &out);
    return out;
  }

 private:
  static bool ValidValue(uint64_t key, const std::vector<uint8_t>& value) {
    bool loaded = true;
    bool stamped = (value[0] & 1) != 0;
    for (size_t i = 0; i < value.size(); ++i) {
      loaded &= value[i] == static_cast<uint8_t>((key + i) & 0xff);
      stamped &= value[i] == value[0];
    }
    return loaded || stamped;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<YcsbDb> db_;
};

}  // namespace

const std::vector<std::string>& AllClasses() {
  static const std::vector<std::string> kAll = [] {
    std::vector<std::string> all;
    for (const auto* list : {&kTpccClasses, &kSmallBankClasses, &kYcsbClasses}) {
      all.insert(all.end(), list->begin(), list->end());
    }
    return all;
  }();
  return kAll;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpcc-nolog") {
    return std::make_unique<TpccNoLog>();
  }
  if (name == "smallbank-contended") {
    return std::make_unique<SmallBank>(false);
  }
  if (name == "smallbank-durable") {
    return std::make_unique<SmallBank>(true);
  }
  if (name == "ycsb-b-uniform") {
    return std::make_unique<YcsbBUniform>();
  }
  return nullptr;
}

}  // namespace perfbench
