// The lin::Own runtime is our stand-in for Rust's static borrow checker
// (DESIGN.md §2), so these tests are transcriptions of borrow-checker rules:
// each one is a program Rust would accept (must work) or reject (must panic
// deterministically).
#include "src/lin/own.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/util/panic.h"

namespace lin {
namespace {

using util::PanicError;
using util::PanicKind;

PanicKind KindOf(const std::function<void()>& f) {
  try {
    f();
  } catch (const PanicError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a panic";
  return PanicKind::kExplicit;
}

TEST(Own, MakeAndAccess) {
  auto v = Own<std::vector<int>>::Make(std::initializer_list<int>{1, 2, 3});
  EXPECT_EQ(v->size(), 3u);
  (*v).push_back(4);
  EXPECT_EQ(v->back(), 4);
}

TEST(Own, MoveTransfersOwnership) {
  auto a = Make<std::string>("hello");
  Own<std::string> b = std::move(a);
  EXPECT_FALSE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_EQ(*b, "hello");
}

// The paper's §2 listing: take(v1); println!(v1) is an error.
TEST(Own, UseAfterMovePanics) {
  auto v1 = Make<std::vector<int>>(std::initializer_list<int>{1, 2, 3});
  auto take = [](Own<std::vector<int>> v) { return v->size(); };
  EXPECT_EQ(take(std::move(v1)), 3u);
  EXPECT_EQ(KindOf([&] { (void)v1->size(); }), PanicKind::kUseAfterMove);
  EXPECT_EQ(KindOf([&] { (void)*v1; }), PanicKind::kUseAfterMove);
  EXPECT_EQ(KindOf([&] { (void)v1.Take(); }), PanicKind::kUseAfterMove);
}

// borrow(&v2); println!(v2) is fine.
TEST(Own, BorrowPreservesBinding) {
  auto v2 = Make<std::vector<int>>(std::initializer_list<int>{1, 2, 3});
  auto borrow = [](Ref<std::vector<int>> v) { return v->size(); };
  EXPECT_EQ(borrow(v2.Borrow()), 3u);
  EXPECT_EQ(v2->size(), 3u);  // still usable
}

TEST(Own, MultipleSharedBorrowsCoexist) {
  auto v = Make<int>(10);
  Ref<int> r1 = v.Borrow();
  Ref<int> r2 = v.Borrow();
  Ref<int> r3 = r1;  // copyable, like &T
  EXPECT_EQ(*r1 + *r2 + *r3, 30);
  // Shared *reads* through the owner stay legal, but only via the const
  // accessor — a non-const deref counts as a write for borrow purposes.
  EXPECT_EQ(*std::as_const(v), 10);
}

TEST(Own, MutBorrowGivesExclusiveAccess) {
  auto v = Make<int>(1);
  {
    Mut<int> m = v.BorrowMut();
    *m = 42;
  }
  EXPECT_EQ(*v, 42);
}

#if LINSYS_CHECKED_OWNERSHIP

TEST(OwnChecked, SharedThenMutBorrowPanics) {
  auto v = Make<int>(1);
  Ref<int> r = v.Borrow();
  EXPECT_EQ(KindOf([&] { (void)v.BorrowMut(); }),
            PanicKind::kBorrowConflict);
}

TEST(OwnChecked, TwoMutBorrowsPanic) {
  auto v = Make<int>(1);
  Mut<int> m = v.BorrowMut();
  EXPECT_EQ(KindOf([&] { (void)v.BorrowMut(); }),
            PanicKind::kBorrowConflict);
}

TEST(OwnChecked, MutBorrowThenSharedBorrowPanics) {
  auto v = Make<int>(1);
  Mut<int> m = v.BorrowMut();
  EXPECT_EQ(KindOf([&] { (void)v.Borrow(); }), PanicKind::kBorrowConflict);
}

TEST(OwnChecked, OwnerWriteWhileSharedBorrowPanics) {
  auto v = Make<int>(1);
  Ref<int> r = v.Borrow();
  EXPECT_EQ(KindOf([&] { *v = 2; }), PanicKind::kBorrowConflict);
}

TEST(OwnChecked, OwnerReadWhileMutBorrowPanics) {
  auto v = Make<int>(1);
  Mut<int> m = v.BorrowMut();
  const auto& cv = v;
  EXPECT_EQ(KindOf([&] { (void)*cv; }), PanicKind::kBorrowConflict);
}

TEST(OwnChecked, TakeWhileBorrowedPanics) {
  auto v = Make<int>(1);
  Ref<int> r = v.Borrow();
  EXPECT_EQ(KindOf([&] { (void)v.Take(); }), PanicKind::kBorrowConflict);
}

// The box the two DropWhileBorrowed cases drop while it is borrowed. The
// runtime refuses to free a borrowed box, so it leaks on purpose;
// tests/lsan.supp suppresses leaks allocated here and nowhere else.
Own<int>* NewBoxToDropWhileBorrowed() { return new Own<int>(Make<int>(1)); }

TEST(OwnChecked, DropWhileBorrowedPanics) {
  // Raw new/delete: unique_ptr::reset is noexcept, which would turn the
  // detection panic into std::terminate before the test could observe it.
  auto* v = NewBoxToDropWhileBorrowed();
  Ref<int> r = v->Borrow();
  EXPECT_EQ(KindOf([&] { delete v; }), PanicKind::kBorrowConflict);
}

TEST(OwnChecked, DropWhileBorrowedDuringUnwindLeaksInsteadOfTerminating) {
  // If a panic is already unwinding, a borrowed Own destroyed by the unwind
  // must NOT throw again (that would be std::terminate). The runtime leaks
  // the box instead — the domain recovery path reclaims the heap anyway.
  struct DeleteOnUnwind {
    Own<int>* owner;
    ~DeleteOnUnwind() { delete owner; }  // runs mid-unwind
  };
  try {
    auto* v = NewBoxToDropWhileBorrowed();
    Ref<int> r = v->Borrow();
    DeleteOnUnwind guard{v};
    util::Panic("unwinding with a borrowed Own in scope");
  } catch (const util::PanicError& e) {
    EXPECT_STREQ(e.what(), "unwinding with a borrowed Own in scope");
  }
  SUCCEED() << "no std::terminate during double-fault unwinding";
}

TEST(OwnChecked, BorrowEndsWhenGuardDies) {
  auto v = Make<int>(1);
  {
    Ref<int> r = v.Borrow();
  }
  Mut<int> m = v.BorrowMut();  // no conflict: previous borrow ended
  *m = 5;
}

TEST(OwnChecked, MovedGuardReleasesOnce) {
  auto v = Make<int>(1);
  {
    Ref<int> r1 = v.Borrow();
    Ref<int> r2 = std::move(r1);
    EXPECT_EQ(*r2, 1);
  }
  (void)v.BorrowMut();  // all borrows gone exactly once
}

#endif  // LINSYS_CHECKED_OWNERSHIP

// Borrows survive moves of the owning handle because the box is stable.
TEST(Own, BorrowSurvivesOwnerMove) {
  auto v = Make<std::string>("stable");
  Own<std::string> moved;  // declared first so it outlives the borrow below
  Ref<std::string> r = v.Borrow();
  moved = std::move(v);  // the handle moves; the heap box does not
  EXPECT_EQ(*r, "stable");
  EXPECT_EQ(*std::as_const(moved), "stable");
}

TEST(Own, TakeMovesValueOut) {
  auto v = Make<std::string>("payload");
  std::string s = v.Take();
  EXPECT_EQ(s, "payload");
  EXPECT_FALSE(v.has_value());
}

TEST(Own, DropDestroysEagerly) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    ~Counted() { --live; }
  };
  auto v = Make<Counted>();
  EXPECT_EQ(live, 1);
  v.Drop();
  EXPECT_EQ(live, 0);
  EXPECT_FALSE(v.has_value());
}

TEST(Own, DefaultConstructedIsConsumed) {
  Own<int> v;
  EXPECT_FALSE(v.has_value());
  EXPECT_THROW((void)*v, PanicError);
}

TEST(Own, MoveAssignReleasesPrevious) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    ~Counted() { --live; }
  };
  auto a = Make<Counted>();
  auto b = Make<Counted>();
  EXPECT_EQ(live, 2);
  a = std::move(b);
  EXPECT_EQ(live, 1);
}

TEST(Own, StoredInContainers) {
  std::vector<Own<int>> owners;
  for (int i = 0; i < 100; ++i) {
    owners.push_back(Make<int>(i));
  }
  int sum = 0;
  for (const auto& o : owners) {
    sum += *o;
  }
  EXPECT_EQ(sum, 4950);
}

}  // namespace
}  // namespace lin
