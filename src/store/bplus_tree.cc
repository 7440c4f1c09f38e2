#include "src/store/bplus_tree.h"

#include <cassert>
#include <cstring>

#include "src/htm/htm.h"

namespace drtm {
namespace store {

namespace {
constexpr uint64_t kControlRoot = 0;
constexpr uint64_t kControlBump = 1;
constexpr uint64_t kControlLive = 2;
constexpr size_t kControlBytes = 64;

// Node header layout (byte offsets into a node).
constexpr size_t kIsLeafOff = 0;    // uint16_t
constexpr size_t kNumKeysOff = 2;   // uint16_t
constexpr size_t kNextLeafOff = 4;  // uint32_t

// Typed field access at a byte offset, with memcpy semantics through
// the htm dispatch layer: no typed pointer into the pool is ever
// formed, so there is no alignment or strict-aliasing UB for UBSan to
// find, and every access is tracked by the transaction (TX01).
template <typename T>
T LoadField(const uint8_t* base, size_t off) {
  T value;
  htm::ReadBytes(&value, base + off, sizeof(T));
  return value;
}

template <typename T>
void StoreField(uint8_t* base, size_t off, const T& value) {
  htm::WriteBytes(base + off, &value, sizeof(T));
}
}  // namespace

BPlusTree::BPlusTree(const Config& config) : config_(config) {
  keys_off_ = 8;
  payload_off_ = keys_off_ + sizeof(uint64_t) * kFanout;
  const size_t internal_payload = sizeof(uint32_t) * (kFanout + 1);
  const size_t leaf_payload =
      static_cast<size_t>(config.value_size) * kFanout;
  node_bytes_ = payload_off_ +
                (internal_payload > leaf_payload ? internal_payload
                                                 : leaf_payload);
  node_bytes_ = (node_bytes_ + 63) & ~size_t{63};
  // Only the control block starts zeroed. AllocateNode writes a node's
  // header and every key, child and value is stored before it is read, so
  // node memory is left untouched until handed out: a pool costs resident
  // memory for the nodes in use, not for max_nodes.
  pool_ = std::make_unique_for_overwrite<uint8_t[]>(
      kControlBytes + node_bytes_ * config.max_nodes);
  std::memset(pool_.get(), 0, kControlBytes);
}

uint64_t BPlusTree::ControlLoad(uint64_t which) {
  return LoadField<uint64_t>(pool_.get(), which * sizeof(uint64_t));
}

void BPlusTree::ControlStore(uint64_t which, uint64_t value) {
  StoreField<uint64_t>(pool_.get(), which * sizeof(uint64_t), value);
}

uint8_t* BPlusTree::NodeAt(uint32_t id) {
  if (id == 0 || id > config_.max_nodes) {
    // A torn read inside a doomed transaction produced a bogus node id;
    // abort it instead of dereferencing out of the pool.
    htm::AbortCurrentTransactionOrDie("B+ tree node id out of range");
  }
  return pool_.get() + kControlBytes +
         node_bytes_ * static_cast<size_t>(id - 1);
}

BPlusTree::NodeRef BPlusTree::AllocateNode(bool leaf) {
  const uint64_t bump = ControlLoad(kControlBump);
  if (bump >= config_.max_nodes) {
    return NodeRef{};
  }
  ControlStore(kControlBump, bump + 1);
  const uint32_t id = static_cast<uint32_t>(bump + 1);
  uint8_t* node = NodeAt(id);
  StoreField<uint16_t>(node, kIsLeafOff, leaf ? uint16_t{1} : uint16_t{0});
  StoreField<uint16_t>(node, kNumKeysOff, uint16_t{0});
  StoreField<uint32_t>(node, kNextLeafOff, uint32_t{0});
  return NodeRef{id};
}

uint16_t BPlusTree::IsLeaf(uint32_t id) {
  return LoadField<uint16_t>(NodeAt(id), kIsLeafOff);
}
uint16_t BPlusTree::NumKeys(uint32_t id) {
  const uint16_t n = LoadField<uint16_t>(NodeAt(id), kNumKeysOff);
  if (n > kFanout) {
    htm::AbortCurrentTransactionOrDie("B+ tree key count out of range");
  }
  return n;
}
void BPlusTree::SetNumKeys(uint32_t id, uint16_t n) {
  StoreField<uint16_t>(NodeAt(id), kNumKeysOff, n);
}
uint32_t BPlusTree::NextLeaf(uint32_t id) {
  return LoadField<uint32_t>(NodeAt(id), kNextLeafOff);
}
void BPlusTree::SetNextLeaf(uint32_t id, uint32_t next) {
  StoreField<uint32_t>(NodeAt(id), kNextLeafOff, next);
}
uint64_t BPlusTree::KeyAt(uint32_t id, int i) {
  return LoadField<uint64_t>(NodeAt(id),
                             keys_off_ + sizeof(uint64_t) * static_cast<size_t>(i));
}
void BPlusTree::SetKeyAt(uint32_t id, int i, uint64_t key) {
  StoreField<uint64_t>(NodeAt(id),
                       keys_off_ + sizeof(uint64_t) * static_cast<size_t>(i),
                       key);
}
uint32_t BPlusTree::ChildAt(uint32_t id, int i) {
  return LoadField<uint32_t>(
      NodeAt(id), payload_off_ + sizeof(uint32_t) * static_cast<size_t>(i));
}
void BPlusTree::SetChildAt(uint32_t id, int i, uint32_t child) {
  StoreField<uint32_t>(NodeAt(id),
                       payload_off_ + sizeof(uint32_t) * static_cast<size_t>(i),
                       child);
}
void BPlusTree::ReadValueAt(uint32_t id, int i, void* out) {
  htm::ReadBytes(out,
                 NodeAt(id) + payload_off_ +
                     static_cast<size_t>(i) * config_.value_size,
                 config_.value_size);
}
void BPlusTree::WriteValueAt(uint32_t id, int i, const void* value) {
  htm::WriteBytes(NodeAt(id) + payload_off_ +
                      static_cast<size_t>(i) * config_.value_size,
                  value, config_.value_size);
}

int BPlusTree::LowerBound(uint32_t id, uint64_t key) {
  const int n = NumKeys(id);
  int i = 0;
  while (i < n && KeyAt(id, i) < key) {
    ++i;
  }
  return i;
}

// Internal routing: child index = number of keys <= key (keys[i] is the
// smallest key reachable under child[i+1]).
uint32_t BPlusTree::DescendToLeaf(uint64_t key, uint32_t* path,
                                  int* path_child, int* depth) {
  uint32_t node = static_cast<uint32_t>(ControlLoad(kControlRoot));
  int d = 0;
  while (node != 0 && !IsLeaf(node)) {
    if (d > 64) {
      htm::AbortCurrentTransactionOrDie("B+ tree descent too deep");
    }
    const int n = NumKeys(node);
    int i = 0;
    while (i < n && KeyAt(node, i) <= key) {
      ++i;
    }
    if (path != nullptr) {
      // drtm-lint: allow(TX01 out-params point at the caller's stack, not tree memory)
      path[d] = node;
      path_child[d] = i;  // drtm-lint: allow(TX01 out-param, caller's stack)
    }
    ++d;
    node = ChildAt(node, i);
  }
  if (depth != nullptr) {
    *depth = d;  // drtm-lint: allow(TX01 out-param, caller's stack)
  }
  return node;
}

void BPlusTree::InsertIntoLeaf(uint32_t leaf, int pos, uint64_t key,
                               const void* value) {
  const int n = NumKeys(leaf);
  for (int i = n; i > pos; --i) {
    SetKeyAt(leaf, i, KeyAt(leaf, i - 1));
    uint8_t tmp[512];
    assert(config_.value_size <= sizeof(tmp));
    ReadValueAt(leaf, i - 1, tmp);
    WriteValueAt(leaf, i, tmp);
  }
  SetKeyAt(leaf, pos, key);
  WriteValueAt(leaf, pos, value);
  SetNumKeys(leaf, static_cast<uint16_t>(n + 1));
}

bool BPlusTree::Insert(uint64_t key, const void* value) {
  uint32_t root = static_cast<uint32_t>(ControlLoad(kControlRoot));
  if (root == 0) {
    const NodeRef leaf = AllocateNode(true);
    if (!leaf.valid()) {
      return false;
    }
    SetKeyAt(leaf.id, 0, key);
    WriteValueAt(leaf.id, 0, value);
    SetNumKeys(leaf.id, 1);
    ControlStore(kControlRoot, static_cast<uint64_t>(leaf.id));
    ControlStore(kControlLive, ControlLoad(kControlLive) + 1);
    return true;
  }

  // Top-down preemptive splitting: any full node on the path is split
  // before descending so parents always have room.
  auto split_child = [&](uint32_t parent, int idx) -> bool {
    const uint32_t child = ChildAt(parent, idx);
    const int n = NumKeys(child);  // == kFanout
    const int mid = n / 2;
    const NodeRef right = AllocateNode(IsLeaf(child) != 0);
    if (!right.valid()) {
      return false;
    }
    uint64_t promote;
    if (IsLeaf(child) != 0) {
      // Copy-up: right gets keys[mid..n), promote right's first key.
      for (int i = mid; i < n; ++i) {
        SetKeyAt(right.id, i - mid, KeyAt(child, i));
        uint8_t tmp[512];
        ReadValueAt(child, i, tmp);
        WriteValueAt(right.id, i - mid, tmp);
      }
      SetNumKeys(right.id, static_cast<uint16_t>(n - mid));
      SetNumKeys(child, static_cast<uint16_t>(mid));
      SetNextLeaf(right.id, NextLeaf(child));
      SetNextLeaf(child, right.id);
      promote = KeyAt(right.id, 0);
    } else {
      // Push-up: keys[mid] moves to the parent.
      promote = KeyAt(child, mid);
      for (int i = mid + 1; i < n; ++i) {
        SetKeyAt(right.id, i - mid - 1, KeyAt(child, i));
      }
      for (int i = mid + 1; i <= n; ++i) {
        SetChildAt(right.id, i - mid - 1, ChildAt(child, i));
      }
      SetNumKeys(right.id, static_cast<uint16_t>(n - mid - 1));
      SetNumKeys(child, static_cast<uint16_t>(mid));
    }
    // Make room in the parent at idx.
    const int pn = NumKeys(parent);
    for (int i = pn; i > idx; --i) {
      SetKeyAt(parent, i, KeyAt(parent, i - 1));
      SetChildAt(parent, i + 1, ChildAt(parent, i));
    }
    SetKeyAt(parent, idx, promote);
    SetChildAt(parent, idx + 1, right.id);
    SetNumKeys(parent, static_cast<uint16_t>(pn + 1));
    return true;
  };

  if (NumKeys(root) == kFanout) {
    const NodeRef new_root = AllocateNode(false);
    if (!new_root.valid()) {
      return false;
    }
    SetChildAt(new_root.id, 0, root);
    if (!split_child(new_root.id, 0)) {
      return false;
    }
    ControlStore(kControlRoot, static_cast<uint64_t>(new_root.id));
    root = new_root.id;
  }

  uint32_t node = root;
  while (IsLeaf(node) == 0) {
    const int n = NumKeys(node);
    int i = 0;
    while (i < n && KeyAt(node, i) <= key) {
      ++i;
    }
    uint32_t child = ChildAt(node, i);
    if (NumKeys(child) == kFanout) {
      if (!split_child(node, i)) {
        return false;
      }
      if (key >= KeyAt(node, i)) {
        ++i;
      }
      child = ChildAt(node, i);
    }
    node = child;
  }

  const int pos = LowerBound(node, key);
  if (pos < NumKeys(node) && KeyAt(node, pos) == key) {
    return false;  // duplicate
  }
  InsertIntoLeaf(node, pos, key, value);
  ControlStore(kControlLive, ControlLoad(kControlLive) + 1);
  return true;
}

bool BPlusTree::Get(uint64_t key, void* value_out) {
  const uint32_t leaf = DescendToLeaf(key, nullptr, nullptr, nullptr);
  if (leaf == 0) {
    return false;
  }
  const int pos = LowerBound(leaf, key);
  if (pos >= NumKeys(leaf) || KeyAt(leaf, pos) != key) {
    return false;
  }
  ReadValueAt(leaf, pos, value_out);
  return true;
}

bool BPlusTree::Put(uint64_t key, const void* value) {
  const uint32_t leaf = DescendToLeaf(key, nullptr, nullptr, nullptr);
  if (leaf == 0) {
    return false;
  }
  const int pos = LowerBound(leaf, key);
  if (pos >= NumKeys(leaf) || KeyAt(leaf, pos) != key) {
    return false;
  }
  WriteValueAt(leaf, pos, value);
  return true;
}

bool BPlusTree::Remove(uint64_t key) {
  const uint32_t leaf = DescendToLeaf(key, nullptr, nullptr, nullptr);
  if (leaf == 0) {
    return false;
  }
  const int pos = LowerBound(leaf, key);
  const int n = NumKeys(leaf);
  if (pos >= n || KeyAt(leaf, pos) != key) {
    return false;
  }
  for (int i = pos; i < n - 1; ++i) {
    SetKeyAt(leaf, i, KeyAt(leaf, i + 1));
    uint8_t tmp[512];
    ReadValueAt(leaf, i + 1, tmp);
    WriteValueAt(leaf, i, tmp);
  }
  SetNumKeys(leaf, static_cast<uint16_t>(n - 1));
  ControlStore(kControlLive, ControlLoad(kControlLive) - 1);
  return true;
}

size_t BPlusTree::Scan(uint64_t lo, uint64_t hi,
                       const std::function<bool(uint64_t, const void*)>& fn) {
  uint32_t leaf = DescendToLeaf(lo, nullptr, nullptr, nullptr);
  size_t visited = 0;
  size_t hops = 0;
  uint8_t tmp[512];
  assert(config_.value_size <= sizeof(tmp));
  while (leaf != 0) {
    if (++hops > config_.max_nodes) {
      htm::AbortCurrentTransactionOrDie("B+ tree leaf chain cycle");
    }
    const int n = NumKeys(leaf);
    for (int i = 0; i < n; ++i) {
      const uint64_t key = KeyAt(leaf, i);
      if (key < lo) {
        continue;
      }
      if (key > hi) {
        return visited;
      }
      ReadValueAt(leaf, i, tmp);
      ++visited;
      if (!fn(key, tmp)) {
        return visited;
      }
    }
    leaf = NextLeaf(leaf);
  }
  return visited;
}

bool BPlusTree::FindFloor(uint64_t lo, uint64_t bound, uint64_t* key_out,
                          void* value_out) {
  bool found = false;
  Scan(lo, bound, [&](uint64_t key, const void* value) {
    found = true;
    // drtm-lint: allow(TX01 key_out is a caller-owned out-parameter, not store memory)
    *key_out = key;
    std::memcpy(value_out, value, config_.value_size);
    return true;  // keep going; the last visited is the floor
  });
  return found;
}

size_t BPlusTree::size() {
  return static_cast<size_t>(ControlLoad(kControlLive));
}

}  // namespace store
}  // namespace drtm
