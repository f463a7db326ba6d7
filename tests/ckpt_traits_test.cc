// Inductive checkpoint derivation: round-trip identity for every supported
// shape, and the Rc/Arc alias semantics in all three dedup modes.
#include "src/ckpt/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lin/arc.h"
#include "src/lin/mutex.h"
#include "src/lin/own.h"
#include "src/lin/rc.h"
#include "src/util/panic.h"

namespace ckpt {
namespace {

template <Checkpointable T>
T RoundTrip(const T& value, DedupMode mode = DedupMode::kLinearMark) {
  return Restore<T>(Checkpoint(value, mode));
}

TEST(Traits, Scalars) {
  EXPECT_EQ(RoundTrip(42), 42);
  EXPECT_EQ(RoundTrip(-7L), -7L);
  EXPECT_EQ(RoundTrip(true), true);
  EXPECT_EQ(RoundTrip(3.25), 3.25);
  EXPECT_EQ(RoundTrip<std::uint8_t>(255), 255);
}

TEST(Traits, Strings) {
  EXPECT_EQ(RoundTrip(std::string("")), "");
  EXPECT_EQ(RoundTrip(std::string("hello world")), "hello world");
  std::string binary("\x00\x01\xff", 3);
  EXPECT_EQ(RoundTrip(binary), binary);
}

TEST(Traits, Vectors) {
  EXPECT_EQ(RoundTrip(std::vector<int>{}), std::vector<int>{});
  EXPECT_EQ(RoundTrip(std::vector<int>{1, 2, 3}),
            (std::vector<int>{1, 2, 3}));
  std::vector<std::vector<std::string>> nested{{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(RoundTrip(nested), nested);
}

TEST(Traits, UniquePtr) {
  auto restored = RoundTrip(std::make_unique<int>(9));
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(*restored, 9);
  EXPECT_EQ(RoundTrip(std::unique_ptr<int>()), nullptr);
}

TEST(Traits, LinOwn) {
  auto restored = RoundTrip(lin::Make<std::string>("owned"));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored.Borrow(), "owned");
  lin::Own<std::string> empty;
  EXPECT_FALSE(RoundTrip(std::move(empty)).has_value());
}

struct Inner {
  int a = 0;
  std::string name;
  LINSYS_CHECKPOINT_FIELDS(a, name)
  bool operator==(const Inner&) const = default;
};

struct Outer {
  Inner inner;
  std::vector<int> values;
  bool flag = false;
  LINSYS_CHECKPOINT_FIELDS(inner, values, flag)
  bool operator==(const Outer&) const = default;
};

TEST(Traits, DerivedStructsNest) {
  Outer o{Inner{5, "x"}, {1, 2}, true};
  EXPECT_EQ(RoundTrip(o), o);
}

TEST(Traits, MutexLocksAndRoundTrips) {
  lin::Mutex<std::vector<int>> m(std::vector<int>{1, 2, 3});
  lin::Mutex<std::vector<int>> restored =
      RoundTrip<lin::Mutex<std::vector<int>>>(std::move(m));
  EXPECT_EQ(*restored.Lock(), (std::vector<int>{1, 2, 3}));
}

// ---- Rc alias semantics -----------------------------------------------------

struct Pair {
  lin::Rc<std::string> left;
  lin::Rc<std::string> right;
  LINSYS_CHECKPOINT_FIELDS(left, right)
};

TEST(RcCkpt, AliasedPairSerializedOnce) {
  auto shared = lin::Rc<std::string>::Make("shared-rule");
  Pair p{shared, shared};

  CheckpointStats stats;
  Snapshot snap = Checkpoint(p, DedupMode::kLinearMark, &stats);
  EXPECT_EQ(stats.payload_copies, 1u) << "one payload for two aliases";
  EXPECT_EQ(stats.back_refs, 1u);

  Pair restored = Restore<Pair>(snap);
  EXPECT_EQ(*restored.left, "shared-rule");
  EXPECT_TRUE(restored.left.SameObject(restored.right))
      << "sharing must survive the round trip";
  EXPECT_FALSE(restored.left.SameObject(p.left))
      << "but the restored object is a fresh copy";
}

TEST(RcCkpt, AddressSetModeSameResultDifferentMechanism) {
  auto shared = lin::Rc<std::string>::Make("rule");
  Pair p{shared, shared};
  CheckpointStats stats;
  Snapshot snap = Checkpoint(p, DedupMode::kAddressSet, &stats);
  EXPECT_EQ(stats.payload_copies, 1u);
  EXPECT_EQ(stats.back_refs, 1u);
  Pair restored = Restore<Pair>(snap);
  EXPECT_TRUE(restored.left.SameObject(restored.right));
}

TEST(RcCkpt, NaiveModeDuplicatesAndLosesSharing) {
  auto shared = lin::Rc<std::string>::Make("rule");
  Pair p{shared, shared};
  CheckpointStats stats;
  Snapshot snap = Checkpoint(p, DedupMode::kNone, &stats);
  EXPECT_EQ(stats.payload_copies, 2u) << "Figure 3b: one copy per alias";
  EXPECT_EQ(stats.back_refs, 0u);
  Pair restored = Restore<Pair>(snap);
  EXPECT_EQ(*restored.left, "rule");
  EXPECT_EQ(*restored.right, "rule");
  EXPECT_FALSE(restored.left.SameObject(restored.right))
      << "naive restore silently splits shared state";
}

TEST(RcCkpt, DistinctObjectsStayDistinct) {
  Pair p{lin::Rc<std::string>::Make("a"), lin::Rc<std::string>::Make("b")};
  Pair restored = RoundTrip(p);
  EXPECT_EQ(*restored.left, "a");
  EXPECT_EQ(*restored.right, "b");
  EXPECT_FALSE(restored.left.SameObject(restored.right));
}

TEST(RcCkpt, EmptyHandleRoundTrips) {
  Pair p{lin::Rc<std::string>(), lin::Rc<std::string>::Make("only")};
  Pair restored = RoundTrip(p);
  EXPECT_FALSE(restored.left.has_value());
  ASSERT_TRUE(restored.right.has_value());
}

TEST(RcCkpt, ConsecutiveEpochsNeedNoClearing) {
  auto shared = lin::Rc<std::string>::Make("r");
  Pair p{shared, shared};
  for (int round = 0; round < 5; ++round) {
    CheckpointStats stats;
    (void)Checkpoint(p, DedupMode::kLinearMark, &stats);
    EXPECT_EQ(stats.payload_copies, 1u) << "round " << round
        << ": stale marks from the previous epoch must read as unvisited";
  }
}

TEST(RcCkpt, VectorOfAliases) {
  auto hot = lin::Rc<std::string>::Make("hot");
  std::vector<lin::Rc<std::string>> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(hot);
  }
  v.push_back(lin::Rc<std::string>::Make("cold"));

  CheckpointStats stats;
  Snapshot snap = Checkpoint(v, DedupMode::kLinearMark, &stats);
  EXPECT_EQ(stats.payload_copies, 2u);
  EXPECT_EQ(stats.back_refs, 9u);

  auto restored = Restore<std::vector<lin::Rc<std::string>>>(snap);
  ASSERT_EQ(restored.size(), 11u);
  for (int i = 1; i < 10; ++i) {
    EXPECT_TRUE(restored[0].SameObject(restored[i]));
  }
  EXPECT_FALSE(restored[0].SameObject(restored[10]));
}

TEST(ArcCkpt, SharedStateWithMutexRoundTrips) {
  using Shared = lin::Arc<lin::Mutex<std::vector<int>>>;
  auto state = Shared::Make(std::vector<int>{1, 2});
  struct Holder {
    Shared a;
    Shared b;
    LINSYS_CHECKPOINT_FIELDS(a, b)
  };
  Holder h{state, state};
  Snapshot snap = Checkpoint(h);
  Holder restored = Restore<Holder>(snap);
  EXPECT_TRUE(restored.a.SameObject(restored.b));
  EXPECT_EQ(*restored.a.SharedMut().Lock(), (std::vector<int>{1, 2}));
}

TEST(Snapshot, SnapshotIsImmutableCopy) {
  auto rc = lin::Rc<std::string>::Make("before");
  Pair p{rc, rc};
  Snapshot snap = Checkpoint(p);
  // Replacing the live object after the checkpoint must not affect restore.
  p = Pair{lin::Rc<std::string>::Make("after"),
           lin::Rc<std::string>::Make("after")};
  Pair restored = Restore<Pair>(snap);
  EXPECT_EQ(*restored.left, "before");
}

TEST(Snapshot, TruncatedSnapshotPanics) {
  Snapshot snap = Checkpoint(std::vector<int>{1, 2, 3});
  snap.bytes.resize(snap.bytes.size() / 2);
  EXPECT_THROW((void)Restore<std::vector<int>>(snap), util::PanicError);
}

TEST(Snapshot, TrailingBytesPanics) {
  Snapshot snap = Checkpoint(7);
  snap.bytes.push_back(0xff);
  EXPECT_THROW((void)Restore<int>(snap), util::PanicError);
}

// A checkpointed empty container whose length prefix is overwritten: the
// image an attacker or a bit flip hands to Restore.
template <typename T>
Snapshot WithLengthPrefix(std::uint64_t n) {
  Snapshot snap = Checkpoint(T{});
  EXPECT_EQ(snap.bytes.size(), sizeof(n));
  std::memcpy(snap.bytes.data(), &n, sizeof(n));
  return snap;
}

// Counts beyond the bytes left are refused as a PanicError (the only
// exception a Domain contains) before they can size an allocation, which
// would throw bad_alloc or length_error instead.
TEST(Snapshot, OversizedLengthPrefixPanics) {
  constexpr std::uint64_t kOne = 1;
  for (const std::uint64_t n : {kOne << 40, kOne << 62}) {
    EXPECT_THROW((void)Restore<std::string>(WithLengthPrefix<std::string>(n)),
                 util::PanicError)
        << n;
    EXPECT_THROW(
        (void)Restore<std::vector<int>>(WithLengthPrefix<std::vector<int>>(n)),
        util::PanicError)
        << n;
    using Map = std::unordered_map<int, int>;
    EXPECT_THROW((void)Restore<Map>(WithLengthPrefix<Map>(n)),
                 util::PanicError)
        << n;
  }
}

TEST(Snapshot, ReadBytesLengthCannotWrapPastTheEnd) {
  // An image whose first field is a byte count of SIZE_MAX, then one byte.
  const std::uint64_t huge = SIZE_MAX;
  Snapshot snap;
  snap.bytes.resize(sizeof(huge) + 1);
  std::memcpy(snap.bytes.data(), &huge, sizeof(huge));
  Reader r(snap);
  const auto len = static_cast<std::size_t>(r.ReadPod<std::uint64_t>());
  char out[1];
  // pos + len wraps to 7 and would pass a `pos + len <= size` check.
  EXPECT_THROW(r.ReadBytes(out, len), util::PanicError);
}

TEST(Snapshot, SizeReflectsDedup) {
  auto big = lin::Rc<std::string>::Make(std::string(1000, 'x'));
  std::vector<lin::Rc<std::string>> v(8, big);
  Snapshot linear = Checkpoint(v, DedupMode::kLinearMark);
  Snapshot naive = Checkpoint(v, DedupMode::kNone);
  EXPECT_LT(linear.size_bytes() * 4, naive.size_bytes())
      << "naive snapshots blow up with the alias count";
}

}  // namespace
}  // namespace ckpt
