// The 64-bit lock/lease state word guarding every record (paper Fig. 4):
//
//   bit 0      : write (exclusive) lock
//   bits 1..8  : owner machine id (kept for durability/recovery, §4.6);
//                a lease has no owner, so bit 1 marks a renewed lease
//   bits 9..63 : read-lease end time, microseconds (shared lock)
//
// INIT (0) means unlocked and unleased. The word is manipulated only by
// RDMA CAS from remote machines (and, per §6.3, also for local records in
// the fallback handler and read-only transactions when the NIC provides
// only HCA-level atomicity); local transactional code merely reads it
// inside an HTM region, which is safe against RDMA CAS because RDMA
// memory is cache-coherent.
#ifndef SRC_TXN_LOCK_STATE_H_
#define SRC_TXN_LOCK_STATE_H_

#include <cstdint>

namespace drtm {
namespace txn {

inline constexpr uint64_t kStateInit = 0;
inline constexpr uint64_t kLeaseShift = 9;
inline constexpr uint64_t kOwnerMask = 0xff;

inline bool IsWriteLocked(uint64_t state) { return (state & 1) != 0; }

inline uint64_t MakeWriteLocked(uint8_t owner_machine) {
  return 1 | (static_cast<uint64_t>(owner_machine) << 1);
}

inline uint8_t LockOwner(uint64_t state) {
  return static_cast<uint8_t>((state >> 1) & kOwnerMask);
}

inline uint64_t MakeLease(uint64_t end_time_us) {
  return end_time_us << kLeaseShift;
}

inline uint64_t LeaseEnd(uint64_t state) { return state >> kLeaseShift; }

inline bool HasLease(uint64_t state) {
  return !IsWriteLocked(state) && LeaseEnd(state) != 0;
}

// A lease is renewed in place at most once: a writer waiting one out then
// sees it expire within about two lease lengths, however often readers
// come back for it.
inline constexpr uint64_t kLeaseRenewed = 2;

inline uint64_t MakeRenewedLease(uint64_t end_time_us) {
  return MakeLease(end_time_us) | kLeaseRenewed;
}

inline bool IsRenewedLease(uint64_t state) {
  return HasLease(state) && (state & kLeaseRenewed) != 0;
}

// EXPIRED / VALID from Fig. 4. DELTA absorbs the clock skew between
// machines; in between the two bounds the lease state is indeterminate
// and treated pessimistically by both sides.
inline bool LeaseExpired(uint64_t end_time_us, uint64_t now_us,
                         uint64_t delta_us) {
  return now_us > end_time_us + delta_us;
}

inline bool LeaseValid(uint64_t end_time_us, uint64_t now_us,
                       uint64_t delta_us) {
  return now_us + delta_us < end_time_us;
}

}  // namespace txn
}  // namespace drtm

#endif  // SRC_TXN_LOCK_STATE_H_
