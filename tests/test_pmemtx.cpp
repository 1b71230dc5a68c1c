// Unit tests for the undo-log transaction system.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "pmemtx/tx.hpp"

namespace adcc::pmemtx {
namespace {

nvm::PerfModel& model() {
  static nvm::PerfModel m(
      nvm::PerfConfig{.dram_bw_bytes_per_s = 10e9, .bandwidth_slowdown = 1.0, .enabled = false});
  return m;
}

TEST(PersistentHeap, AllocationsComeFromArena) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto s = h.allocate<double>(8);
  EXPECT_TRUE(h.contains(s.data()));
}

TEST(UndoLog, CommitKeepsNewValues) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(4);
  UndoLog log(h);
  log.begin();
  log.add_range(v.data(), v.size_bytes());
  v[0] = 10.0;
  log.commit();
  EXPECT_DOUBLE_EQ(v[0], 10.0);
  EXPECT_EQ(log.stats().commits, 1u);
}

TEST(UndoLog, AbortRestoresOldValues) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(4);
  v[1] = 5.0;
  UndoLog log(h);
  log.begin();
  log.add_range(v.data(), v.size_bytes());
  v[1] = 99.0;
  log.abort();
  EXPECT_DOUBLE_EQ(v[1], 5.0);
}

TEST(UndoLog, RecoverRollsBackUncommittedTx) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(4);
  v[0] = 1.0;
  UndoLog log(h);
  log.begin();
  log.add_range(v.data(), v.size_bytes());
  v[0] = 2.0;
  // Simulated restart: the process dies without commit; a fresh recovery pass
  // over the (persistent) log must undo the update.
  const std::size_t rolled = log.recover();
  EXPECT_EQ(rolled, 1u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_FALSE(log.in_tx());
}

TEST(UndoLog, RecoverOnCleanLogIsNoop) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  UndoLog log(h);
  EXPECT_EQ(log.recover(), 0u);
}

TEST(UndoLog, ReverseOrderRollbackForOverlappingSnapshots) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(2);
  v[0] = 1.0;
  UndoLog log(h);
  log.begin();
  log.add_range(v.data(), sizeof(double));  // snapshot: 1.0
  v[0] = 2.0;
  log.add_range(v.data(), sizeof(double));  // snapshot: 2.0
  v[0] = 3.0;
  log.abort();  // must apply 2.0 then 1.0
  EXPECT_DOUBLE_EQ(v[0], 1.0);
}

TEST(UndoLog, NestedBeginThrows) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  UndoLog log(h);
  log.begin();
  EXPECT_THROW(log.begin(), ContractViolation);
}

TEST(UndoLog, AddRangeOutsideTxThrows) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(1);
  UndoLog log(h);
  EXPECT_THROW(log.add_range(v.data(), 8), ContractViolation);
}

TEST(UndoLog, AddRangeOutsideHeapThrows) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  UndoLog log(h);
  log.begin();
  double x = 0;
  EXPECT_THROW(log.add_range(&x, sizeof(x)), ContractViolation);
}

TEST(UndoLog, AddRangeCrossingTheHeapEndThrows) {
  PersistentHeap h(4096, 4096, model());
  const std::size_t free_bytes = h.region().capacity() - h.region().used();
  auto v = h.allocate<std::byte>(free_bytes);
  UndoLog log(h);
  log.begin();
  EXPECT_THROW(log.add_range(v.data() + free_bytes - 64, 256), ContractViolation);
  log.add_range(v.data() + free_bytes - 64, 64);
  log.commit();
}

TEST(UndoLog, LogExhaustionThrows) {
  PersistentHeap h(1u << 16, 4 * kCacheLine, model());
  auto v = h.allocate<double>(512);
  UndoLog log(h);
  log.begin();
  EXPECT_THROW(log.add_range(v.data(), v.size_bytes()), ContractViolation);
}

TEST(UndoLog, StatsTrackLoggedBytes) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(16);
  UndoLog log(h);
  log.begin();
  log.add_range(v.data(), 128);
  log.commit();
  EXPECT_EQ(log.stats().ranges_logged, 1u);
  EXPECT_EQ(log.stats().bytes_logged, 128u);
  EXPECT_EQ(log.stats().transactions, 1u);
}

TEST(Transaction, RaiiAbortsOnScopeExit) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(1);
  v[0] = 7.0;
  UndoLog log(h);
  {
    Transaction tx(log);
    tx.add(v);
    v[0] = 8.0;
    // No commit: destructor must roll back (exception-safety path).
  }
  EXPECT_DOUBLE_EQ(v[0], 7.0);
  EXPECT_EQ(log.stats().aborts, 1u);
}

TEST(Transaction, CommitSticksThroughScopeExit) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(1);
  UndoLog log(h);
  {
    Transaction tx(log);
    tx.add(v);
    v[0] = 8.0;
    tx.commit();
  }
  EXPECT_DOUBLE_EQ(v[0], 8.0);
}

TEST(Transaction, TransactionalStoreHelper) {
  PersistentHeap h(1u << 16, 1u << 16, model());
  auto v = h.allocate<double>(1);
  UndoLog log(h);
  Transaction tx(log);
  tx.store(v[0], 4.5);
  tx.commit();
  EXPECT_DOUBLE_EQ(v[0], 4.5);
}

TEST(Transaction, SequentialTransactionsReuseLog) {
  PersistentHeap h(1u << 20, 1u << 18, model());
  auto v = h.allocate<double>(64);
  UndoLog log(h);
  for (int it = 0; it < 50; ++it) {
    Transaction tx(log);
    tx.add(v);
    for (auto& x : v) x += 1.0;
    tx.commit();
  }
  EXPECT_DOUBLE_EQ(v[0], 50.0);
  EXPECT_EQ(log.stats().transactions, 50u);
}

}  // namespace
}  // namespace adcc::pmemtx
