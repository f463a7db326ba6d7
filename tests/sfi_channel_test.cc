#include "src/sfi/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "src/lin/own.h"
#include "src/util/fault_injector.h"
#include "src/util/panic.h"

namespace sfi {
namespace {

TEST(Channel, SendRecvRoundTrip) {
  Channel<std::string> ch;
  ch.Send(lin::Make<std::string>("hello"));
  auto got = ch.Recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got->Borrow(), "hello");
}

TEST(Channel, SenderLosesAccess) {
  Channel<std::string> ch;
  auto msg = lin::Make<std::string>("secret");
  ch.Send(std::move(msg));
  // Zero-copy isolation: the sender's binding is consumed.
  EXPECT_THROW((void)*msg, util::PanicError);
}

TEST(Channel, FifoOrder) {
  Channel<int> ch;
  for (int i = 0; i < 10; ++i) {
    ch.Send(lin::Make<int>(i));
  }
  for (int i = 0; i < 10; ++i) {
    auto got = ch.Recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*std::as_const(*got), i);
  }
}

// Tri-state receive: kEmpty ("nothing right now") and kClosed ("never
// again") are distinguishable, so a polling consumer can terminate. Before
// the fix both cases collapsed into one nullopt and a spin-polling loop on
// a closed channel never exited.
TEST(Channel, TryRecvDistinguishesEmptyFromClosed) {
  Channel<int> ch;
  EXPECT_EQ(ch.TryRecv().status, RecvStatus::kEmpty);
  ch.Send(lin::Make<int>(1));
  ch.Send(lin::Make<int>(2));
  ch.Close();
  // Closed but not drained: queued messages still come out...
  auto got = ch.TryRecv();
  ASSERT_EQ(got.status, RecvStatus::kValue);
  EXPECT_EQ(*std::as_const(*got), 1);
  ASSERT_TRUE(ch.TryRecv().has_value());
  // ...and only the drained channel reports kClosed, forever.
  EXPECT_EQ(ch.TryRecv().status, RecvStatus::kClosed);
  EXPECT_EQ(ch.TryRecv().status, RecvStatus::kClosed);
}

// The on_pop hook runs under the channel lock with the message about to be
// handed out — the dequeue and the callback's bookkeeping are atomic.
TEST(Channel, OnPopSeesTheMessageBeforeHandout) {
  Channel<int> ch;
  ch.Send(lin::Make<int>(9));
  int seen = 0;
  auto got = ch.TryRecv([&seen](const int& v) { seen = v; });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(seen, 9);
  EXPECT_EQ(*std::as_const(*got), 9);
}

TEST(Channel, CloseUnblocksReceivers) {
  Channel<int> ch;
  std::thread receiver([&ch] {
    auto got = ch.Recv();
    EXPECT_FALSE(got.has_value());
  });
  ch.Close();
  receiver.join();
}

// A refused send does not destroy the message: it comes back to the caller
// in SendResult::rejected, ownership intact. Before the fix the Own<T> died
// inside Send and the loss was invisible.
TEST(Channel, SendToClosedReturnsTheMessage) {
  Channel<int> ch;
  ch.Close();
  auto result = ch.Send(lin::Make<int>(41));
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.rejected.has_value());
  EXPECT_EQ(*std::as_const(*result.rejected), 41);
  EXPECT_EQ(ch.size(), 0u);
  // The returned handle is a normal Own: still usable, still linear.
  lin::Own<int> back = std::move(*result.rejected);
  EXPECT_EQ(*std::as_const(back), 41);
}

// The sharper variant of the same bug: a Send *blocked on a full bounded
// channel* that Close() wakes must also hand the message back, not destroy
// it on the way out.
TEST(Channel, BlockedSendWokenByCloseReturnsTheMessage) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.Send(lin::Make<int>(1)).ok);
  std::atomic<bool> woke{false};
  SendResult<int> blocked_result;
  std::thread producer([&] {
    blocked_result = ch.Send(lin::Make<int>(2));  // blocks: channel is full
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(woke.load()) << "send must block while the channel is full";
  ch.Close();
  producer.join();
  EXPECT_FALSE(blocked_result.ok);
  ASSERT_TRUE(blocked_result.rejected.has_value());
  EXPECT_EQ(*std::as_const(*blocked_result.rejected), 2);
  // The message that was already queued still drains normally.
  auto got = ch.TryRecv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*std::as_const(*got), 1);
}

// Multi-producer close-while-full race (the TSan job runs this suite):
// producers hammer a tiny bounded channel while the main thread closes it
// mid-stream. Conservation must be exact — every message is either
// delivered to the consumer or handed back in SendResult::rejected; none
// vanish, none double up.
TEST(Channel, MultiProducerCloseWhileFullLosesNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  Channel<int> ch(2);
  std::atomic<int> accepted{0};
  std::atomic<int> returned{0};
  std::atomic<long> returned_sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, &accepted, &returned, &returned_sum, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto r = ch.Send(lin::Make<int>(p * kPerProducer + i));
        if (r.ok) {
          ++accepted;
        } else {
          ++returned;
          returned_sum += *std::as_const(*r.rejected);
        }
      }
    });
  }
  std::atomic<int> delivered{0};
  std::atomic<long> delivered_sum{0};
  std::thread consumer([&] {
    while (true) {
      auto got = ch.Recv();
      if (!got.has_value()) {
        return;
      }
      ++delivered;
      delivered_sum += *std::as_const(*got);
    }
  });
  // Let the pipe move a bit, then slam it shut under the producers.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.Close();
  for (auto& t : producers) {
    t.join();
  }
  consumer.join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(accepted.load() + returned.load(), total);
  EXPECT_EQ(delivered.load(), accepted.load())
      << "an accepted message must be drained, a refused one returned";
  const long all_sum = static_cast<long>(total) * (total - 1) / 2;
  EXPECT_EQ(delivered_sum.load() + returned_sum.load(), all_sum)
      << "payloads must be conserved exactly across the close race";
}

TEST(Channel, DrainsQueuedMessagesAfterClose) {
  Channel<int> ch;
  ch.Send(lin::Make<int>(1));
  ch.Send(lin::Make<int>(2));
  ch.Close();
  EXPECT_TRUE(ch.Recv().has_value());
  EXPECT_TRUE(ch.Recv().has_value());
  EXPECT_FALSE(ch.Recv().has_value());
}

TEST(Channel, BoundedBlocksProducerUntilConsumed) {
  Channel<int> ch(2);
  ch.Send(lin::Make<int>(1));
  ch.Send(lin::Make<int>(2));
  std::atomic<bool> third_sent{false};
  std::thread producer([&] {
    ch.Send(lin::Make<int>(3));
    third_sent = true;
  });
  // Give the producer a chance to (wrongly) complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_sent.load()) << "bounded channel must apply backpressure";
  (void)ch.Recv();
  producer.join();
  EXPECT_TRUE(third_sent.load());
}

// Many producers and consumers: every message delivered exactly once.
TEST(Channel, MpmcExactlyOnceDelivery) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  Channel<int> ch(64);
  std::vector<std::thread> threads;
  std::atomic<long> sum{0};
  std::atomic<int> received{0};

  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ch.Send(lin::Make<int>(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (true) {
        auto got = ch.Recv();
        if (!got.has_value()) {
          return;
        }
        sum += *std::as_const(*got);
        ++received;
      }
    });
  }
  // Join producers (first kProducers threads), then close.
  for (int p = 0; p < kProducers; ++p) {
    threads[p].join();
  }
  ch.Close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[kProducers + c].join();
  }

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  const long expected =
      static_cast<long>(total) * (total - 1) / 2;  // sum 0..total-1
  EXPECT_EQ(sum.load(), expected);
}

// channel.send / channel.recv fault points: both fire at entry, before the
// queue mutex, so an injected panic leaves the channel exactly as it was —
// no half-sent message, nothing dequeued, no lock held during unwind.
class ChannelFaultPointTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::Global().Reset(); }
};

TEST_F(ChannelFaultPointTest, SendFaultLeavesQueueUntouched) {
  Channel<int> ch;
  util::FaultInjector::Global().ArmOneShot("channel.send",
                                           util::PanicKind::kExplicit);
  EXPECT_THROW(ch.Send(lin::Make<int>(1)), util::PanicError);
  EXPECT_EQ(ch.size(), 0u);  // the faulted send enqueued nothing
  // One-shot consumed: the channel works normally afterwards.
  EXPECT_TRUE(ch.Send(lin::Make<int>(2)).ok);
  auto got = ch.Recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*std::as_const(*got), 2);
}

TEST_F(ChannelFaultPointTest, RecvFaultLeavesMessageQueued) {
  Channel<int> ch;
  ch.Send(lin::Make<int>(42));
  util::FaultInjector::Global().ArmOneShot("channel.recv",
                                           util::PanicKind::kExplicit);
  EXPECT_THROW((void)ch.Recv(), util::PanicError);
  EXPECT_EQ(ch.size(), 1u);  // message survived the faulted receive
  auto got = ch.Recv();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*std::as_const(*got), 42);
}

// A seeded probabilistic plan on channel.send replays identically: same
// seed, same sequence of firing decisions — the storm-harness determinism
// claim, proven on the channel site.
TEST_F(ChannelFaultPointTest, SeededSendPlanReplaysDeterministically) {
  auto run_plan = [] {
    auto& inj = util::FaultInjector::Global();
    inj.Reset();
    inj.Seed(777);
    inj.ArmProbability("channel.send", 0.3, util::PanicKind::kExplicit);
    Channel<int> ch;
    std::vector<bool> fired;
    int delivered = 0;
    for (int i = 0; i < 64; ++i) {
      try {
        ch.Send(lin::Make<int>(i));
        fired.push_back(false);
        ++delivered;
      } catch (const util::PanicError&) {
        fired.push_back(true);
      }
    }
    EXPECT_EQ(ch.size(), static_cast<std::size_t>(delivered));
    return fired;
  };
  const std::vector<bool> first = run_plan();
  const std::vector<bool> second = run_plan();
  EXPECT_EQ(first, second);
  // The 30% plan must have actually fired some and passed some.
  const int fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 0);
  EXPECT_LT(fires, 64);
}

}  // namespace
}  // namespace sfi
