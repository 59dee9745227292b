/**
 * @file
 * WorkerPool barrier tests: the epoch/pending futex barrier must run
 * every item exactly once per epoch at any item count, park and wake
 * helpers across idle gaps longer than any spin, contain a throwing
 * item, shut down with parked helpers, and keep independent pools
 * independent when two threads drive them at once. Runs under the
 * ThreadSanitizer CI job as well as the plain suite.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/parallel.hh"

namespace bop
{
namespace
{

using namespace std::chrono_literals;

/** Longer than any bounded spin, so every helper parks in between. */
constexpr auto parkGap = 3ms;

/**
 * Drive @p epochs back-to-back epochs on @p pool, cycling the item
 * count through {0, 1, 2, T-1, T, 3T+1}, and check that every item
 * ran exactly once in every epoch that contained it. Each item owns
 * its counter slot, so plain (non-atomic) increments are race-free
 * exactly when the barrier is sound — TSan flags them otherwise.
 */
void
hammer(WorkerPool &pool, std::size_t epochs, unsigned itemSpin = 0)
{
    const std::size_t t = pool.workerCount();
    const std::vector<std::size_t> sizes = {0, 1, 2, t - 1, t, 3 * t + 1};
    const std::size_t widest = 3 * t + 1;
    std::vector<std::uint64_t> runs(widest, 0);
    std::vector<std::uint64_t> expected(widest, 0);
    std::vector<std::uint32_t> stamp(widest, 0);
    std::atomic<std::uint64_t> sink{0};
    bool doubled = false;

    for (std::size_t e = 0; e < epochs; ++e) {
        const std::size_t items = sizes[e % sizes.size()];
        const std::uint32_t tag = static_cast<std::uint32_t>(e + 1);
        pool.run(items, [&](std::size_t i) {
            // A second execution of the same item within one epoch
            // would find its own tag already set.
            if (stamp[i] == tag)
                doubled = true;
            stamp[i] = tag;
            ++runs[i];
            // Optional busy work, so helpers catch items before the
            // caller drains the whole epoch on its own.
            for (unsigned k = 0; k < itemSpin; ++k)
                sink.fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < items; ++i)
            ++expected[i];
    }
    EXPECT_FALSE(doubled) << "an item ran twice within one epoch";
    for (std::size_t i = 0; i < widest; ++i)
        EXPECT_EQ(runs[i], expected[i]) << "item " << i;
}

TEST(WorkerPoolBarrier, HundredThousandEpochsRunEveryItemOnce)
{
    for (const unsigned workers : {2u, 4u}) {
        WorkerPool pool(workers);
        ASSERT_EQ(pool.workerCount(), workers);
        hammer(pool, 100000);
    }
}

TEST(WorkerPoolBarrier, BusyItemsSpreadOverHelpers)
{
    WorkerPool pool(4);
    hammer(pool, 20000, 200);
}

TEST(WorkerPoolBarrier, EveryWorkerJoinsAnEpoch)
{
    // T items that each wait until all T have started: the epoch can
    // only finish if T distinct threads claimed them concurrently, so
    // every parked helper must have woken and taken part.
    for (const unsigned workers : {2u, 4u}) {
        WorkerPool pool(workers);
        for (int round = 0; round < 50; ++round) {
            std::atomic<unsigned> arrived{0};
            std::atomic<bool> timedOut{false};
            pool.run(workers, [&](std::size_t) {
                ++arrived;
                const auto deadline = std::chrono::steady_clock::now() + 10s;
                while (arrived.load() < workers) {
                    if (std::chrono::steady_clock::now() > deadline) {
                        timedOut = true;
                        return;
                    }
                    std::this_thread::yield();
                }
            });
            ASSERT_FALSE(timedOut.load())
                << workers << " workers, round " << round;
            if (round % 10 == 0)
                std::this_thread::sleep_for(parkGap);
        }
    }
}

TEST(WorkerPoolBarrier, SingleWorkerPoolRunsInline)
{
    WorkerPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    bool elsewhere = false;
    pool.run(5, [&](std::size_t) {
        elsewhere |= std::this_thread::get_id() != caller;
    });
    EXPECT_FALSE(elsewhere);
    hammer(pool, 600);
}

TEST(WorkerPoolBarrier, HelpersParkAndWakeAcrossIdleGaps)
{
    WorkerPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    for (int round = 0; round < 20; ++round) {
        std::this_thread::sleep_for(parkGap);
        std::vector<std::uint64_t> runs(9, 0);
        std::atomic<int> onHelpers{0};
        pool.run(runs.size(), [&](std::size_t i) {
            // Long items: the caller alone would need ~9 ms, far more
            // than a parked helper takes to wake and claim work.
            std::this_thread::sleep_for(1ms);
            ++runs[i];
            if (std::this_thread::get_id() != caller)
                ++onHelpers;
        });
        for (std::size_t i = 0; i < runs.size(); ++i)
            ASSERT_EQ(runs[i], 1u) << "round " << round << " item " << i;
        EXPECT_GT(onHelpers.load(), 0)
            << "round " << round << ": no parked helper woke";
    }
}

TEST(WorkerPoolBarrier, ThrowingItemAfterParkRethrowsAndPoolRecovers)
{
    WorkerPool pool(4);
    pool.run(8, [](std::size_t) {});
    std::this_thread::sleep_for(parkGap);
    try {
        pool.run(8, [](std::size_t i) {
            if (i == 6 || i == 1)
                throw std::runtime_error("item " + std::to_string(i));
        });
        FAIL() << "run() swallowed the failure";
    } catch (const std::runtime_error &e) {
        // Deterministic under concurrent failures: the smallest-
        // indexed item wins, whichever worker ran it.
        EXPECT_STREQ(e.what(), "item 1");
    }
    std::this_thread::sleep_for(parkGap);
    hammer(pool, 600);
}

TEST(WorkerPoolBarrier, FailureStillWaitsForEveryItem)
{
    // One item throws at once while the others are still working:
    // run() must not return before they finish, or their writes would
    // race with the caller's next epoch — and none may be skipped.
    WorkerPool pool(4);
    std::vector<std::uint64_t> runs(12, 0);
    EXPECT_THROW(pool.run(runs.size(),
                          [&](std::size_t i) {
                              if (i == 0)
                                  throw std::runtime_error("first");
                              std::this_thread::sleep_for(200us);
                              ++runs[i];
                          }),
                 std::runtime_error);
    for (std::size_t i = 1; i < runs.size(); ++i)
        EXPECT_EQ(runs[i], 1u) << "item " << i;
    hammer(pool, 600);
}

TEST(WorkerPoolBarrier, DestructionWithParkedHelpers)
{
    for (int i = 0; i < 10; ++i) {
        WorkerPool idle(4); // never ran an epoch
        WorkerPool used(3);
        used.run(7, [](std::size_t) {});
        std::this_thread::sleep_for(parkGap);
        // Both destructors must wake and join helpers parked in the
        // futex wait; a lost wake-up hangs the test here.
    }
    SUCCEED();
}

TEST(WorkerPoolBarrier, TwoPoolsDrivenConcurrently)
{
    WorkerPool a(3);
    WorkerPool b(4);
    std::thread ta([&a] { hammer(a, 20000); });
    std::thread tb([&b] { hammer(b, 20000); });
    ta.join();
    tb.join();
}

} // namespace
} // namespace bop
