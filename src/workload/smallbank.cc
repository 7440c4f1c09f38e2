#include "src/workload/smallbank.h"

#include <array>
#include <cstring>
#include <string>
#include <utility>

#include "src/stat/metrics.h"

namespace drtm {
namespace workload {

namespace {

const char* SmallBankTxnName(SmallBankDb::TxnType type) {
  switch (type) {
    case SmallBankDb::TxnType::kSendPayment:
      return "send_payment";
    case SmallBankDb::TxnType::kBalance:
      return "balance";
    case SmallBankDb::TxnType::kDepositChecking:
      return "deposit_checking";
    case SmallBankDb::TxnType::kWriteCheck:
      return "write_check";
    case SmallBankDb::TxnType::kTransactSavings:
      return "transact_savings";
    case SmallBankDb::TxnType::kAmalgamate:
      return "amalgamate";
  }
  return "unknown";
}

void RecordSmallBankOutcome(SmallBankDb::TxnType type, txn::TxnStatus status) {
  // Two counters per mix type, resolved lazily into one table.
  constexpr int kTypes = 6;
  static const std::array<std::pair<uint32_t, uint32_t>, kTypes> ids = [] {
    stat::Registry& reg = stat::Registry::Global();
    std::array<std::pair<uint32_t, uint32_t>, kTypes> out{};
    for (int i = 0; i < kTypes; ++i) {
      const std::string base =
          std::string("txn.smallbank.") +
          SmallBankTxnName(static_cast<SmallBankDb::TxnType>(i));
      out[static_cast<size_t>(i)] = {reg.CounterId(base + ".committed"),
                                     reg.CounterId(base + ".aborted")};
    }
    return out;
  }();
  const auto& [committed, aborted] = ids[static_cast<size_t>(type)];
  stat::Registry::Global().Add(
      status == txn::TxnStatus::kCommitted ? committed : aborted);
}

}  // namespace

SmallBankDb::SmallBankDb(txn::Cluster* cluster, const Params& params)
    : cluster_(cluster), params_(params) {
  txn::TableSpec spec;
  spec.value_size = 8;  // int64 balance in cents
  spec.capacity = params.accounts_per_node + 64;
  spec.main_buckets = 1;
  while (spec.main_buckets * 6 < spec.capacity) {
    spec.main_buckets <<= 1;
  }
  spec.indirect_buckets = spec.main_buckets / 2 + 16;
  spec.partition = [](uint64_t key) { return static_cast<int>(key >> 32); };
  savings_ = cluster->AddTable(spec);
  checking_ = cluster->AddTable(spec);
}

void SmallBankDb::Load() {
  for (int node = 0; node < cluster_->num_nodes(); ++node) {
    for (uint64_t i = 0; i < params_.accounts_per_node; ++i) {
      const uint64_t key = AccountKey(node, i);
      const int64_t balance = params_.initial_balance;
      cluster_->hash_table(node, savings_)->Insert(key, &balance);
      cluster_->hash_table(node, checking_)->Insert(key, &balance);
    }
  }
}

uint64_t SmallBankDb::PickLocalAccount(txn::Worker* worker) {
  Xoshiro256& rng = worker->rng();
  const uint64_t index =
      rng.Bernoulli(params_.hot_probability)
          ? rng.NextBounded(params_.hot_accounts_per_node)
          : rng.NextBounded(params_.accounts_per_node);
  return AccountKey(worker->node(), index);
}

uint64_t SmallBankDb::PickSecondAccount(txn::Worker* worker) {
  Xoshiro256& rng = worker->rng();
  int node = worker->node();
  if (cluster_->num_nodes() > 1 &&
      rng.Bernoulli(params_.cross_node_probability)) {
    do {
      node = static_cast<int>(
          rng.NextBounded(static_cast<uint64_t>(cluster_->num_nodes())));
    } while (node == worker->node());
  }
  const uint64_t index =
      rng.Bernoulli(params_.hot_probability)
          ? rng.NextBounded(params_.hot_accounts_per_node)
          : rng.NextBounded(params_.accounts_per_node);
  return AccountKey(node, index);
}

txn::TxnStatus SmallBankDb::RunSendPayment(txn::Worker* worker) {
  const uint64_t from = PickLocalAccount(worker);
  uint64_t to = PickSecondAccount(worker);
  if (to == from) {
    to = AccountKey(worker->node(),
                    ((from & 0xffffffff) + 1) % params_.accounts_per_node);
  }
  const int64_t amount =
      1 + static_cast<int64_t>(worker->rng().NextBounded(100));
  txn::Transaction txn(worker);
  txn.AddWrite(checking_, from);
  txn.AddWrite(checking_, to);
  return txn.Run([&](txn::Transaction& t) {
    int64_t a = 0;
    int64_t b = 0;
    if (!t.Read(checking_, from, &a) || !t.Read(checking_, to, &b)) {
      return false;
    }
    if (a < amount) {
      return true;  // insufficient funds: committed no-op
    }
    a -= amount;
    b += amount;
    return t.Write(checking_, from, &a) && t.Write(checking_, to, &b);
  });
}

txn::TxnStatus SmallBankDb::RunBalance(txn::Worker* worker) {
  const uint64_t account = PickLocalAccount(worker);
  // Read-only: both records are local, so they are read in one HTM
  // region and never leased (ReadOnlyTransaction::Execute).
  txn::ReadOnlyTransaction ro(worker);
  ro.AddRead(savings_, account);
  ro.AddRead(checking_, account);
  const txn::TxnStatus status = ro.Execute();
  if (status == txn::TxnStatus::kCommitted) {
    int64_t savings = 0;
    int64_t checking = 0;
    ro.Get(savings_, account, &savings);
    ro.Get(checking_, account, &checking);
    (void)(savings + checking);
  }
  return status;
}

txn::TxnStatus SmallBankDb::RunDepositChecking(txn::Worker* worker) {
  const uint64_t account = PickLocalAccount(worker);
  const int64_t amount =
      1 + static_cast<int64_t>(worker->rng().NextBounded(100));
  txn::Transaction txn(worker);
  txn.AddWrite(checking_, account);
  return txn.Run([&](txn::Transaction& t) {
    int64_t balance = 0;
    if (!t.Read(checking_, account, &balance)) {
      return false;
    }
    balance += amount;
    return t.Write(checking_, account, &balance);
  });
}

txn::TxnStatus SmallBankDb::RunWriteCheck(txn::Worker* worker) {
  const uint64_t account = PickLocalAccount(worker);
  const int64_t amount =
      1 + static_cast<int64_t>(worker->rng().NextBounded(100));
  txn::Transaction txn(worker);
  txn.AddRead(savings_, account);
  txn.AddWrite(checking_, account);
  return txn.Run([&](txn::Transaction& t) {
    int64_t savings = 0;
    int64_t checking = 0;
    if (!t.Read(savings_, account, &savings) ||
        !t.Read(checking_, account, &checking)) {
      return false;
    }
    // Overdraft penalty per the H-Store definition.
    checking -= (savings + checking < amount) ? amount + 1 : amount;
    return t.Write(checking_, account, &checking);
  });
}

txn::TxnStatus SmallBankDb::RunTransactSavings(txn::Worker* worker) {
  const uint64_t account = PickLocalAccount(worker);
  const int64_t amount =
      1 + static_cast<int64_t>(worker->rng().NextBounded(100));
  txn::Transaction txn(worker);
  txn.AddWrite(savings_, account);
  return txn.Run([&](txn::Transaction& t) {
    int64_t balance = 0;
    if (!t.Read(savings_, account, &balance)) {
      return false;
    }
    balance += amount;
    return t.Write(savings_, account, &balance);
  });
}

txn::TxnStatus SmallBankDb::RunAmalgamate(txn::Worker* worker) {
  const uint64_t from = PickLocalAccount(worker);
  uint64_t to = PickSecondAccount(worker);
  if (to == from) {
    to = AccountKey(worker->node(),
                    ((from & 0xffffffff) + 1) % params_.accounts_per_node);
  }
  txn::Transaction txn(worker);
  txn.AddWrite(savings_, from);
  txn.AddWrite(checking_, from);
  txn.AddWrite(checking_, to);
  return txn.Run([&](txn::Transaction& t) {
    int64_t savings = 0;
    int64_t checking = 0;
    int64_t target = 0;
    if (!t.Read(savings_, from, &savings) ||
        !t.Read(checking_, from, &checking) ||
        !t.Read(checking_, to, &target)) {
      return false;
    }
    target += savings + checking;
    savings = 0;
    checking = 0;
    return t.Write(savings_, from, &savings) &&
           t.Write(checking_, from, &checking) &&
           t.Write(checking_, to, &target);
  });
}

SmallBankDb::MixResult SmallBankDb::RunMix(txn::Worker* worker) {
  const uint64_t roll = worker->rng().NextBounded(100);
  TxnType type;
  if (roll < 25) {
    type = TxnType::kSendPayment;
  } else if (roll < 40) {
    type = TxnType::kBalance;
  } else if (roll < 55) {
    type = TxnType::kDepositChecking;
  } else if (roll < 70) {
    type = TxnType::kWriteCheck;
  } else if (roll < 85) {
    type = TxnType::kTransactSavings;
  } else {
    type = TxnType::kAmalgamate;
  }
  txn::TxnStatus status;
  switch (type) {
    case TxnType::kSendPayment:
      status = RunSendPayment(worker);
      break;
    case TxnType::kBalance:
      status = RunBalance(worker);
      break;
    case TxnType::kDepositChecking:
      status = RunDepositChecking(worker);
      break;
    case TxnType::kWriteCheck:
      status = RunWriteCheck(worker);
      break;
    case TxnType::kTransactSavings:
      status = RunTransactSavings(worker);
      break;
    case TxnType::kAmalgamate:
      status = RunAmalgamate(worker);
      break;
  }
  RecordSmallBankOutcome(type, status);
  return MixResult{type, status};
}

int64_t SmallBankDb::TotalMoney() {
  int64_t sum = 0;
  for (int node = 0; node < cluster_->num_nodes(); ++node) {
    for (uint64_t i = 0; i < params_.accounts_per_node; ++i) {
      const uint64_t key = AccountKey(node, i);
      int64_t savings = 0;
      int64_t checking = 0;
      cluster_->hash_table(node, savings_)->Get(key, &savings);
      cluster_->hash_table(node, checking_)->Get(key, &checking);
      sum += savings + checking;
    }
  }
  return sum;
}

}  // namespace workload
}  // namespace drtm
