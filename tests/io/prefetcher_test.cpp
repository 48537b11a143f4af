#include "io/prefetcher.hpp"

#include <gtest/gtest.h>

namespace clio::io {
namespace {

TEST(Prefetcher, NoProposalOnFirstAccess) {
  SequentialPrefetcher pf;
  EXPECT_TRUE(pf.propose(1, 0).empty());
}

TEST(Prefetcher, ProposesWindowAfterStreak) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 3, .min_streak = 2});
  EXPECT_TRUE(pf.propose(1, 0).empty());
  const PrefetchRange r = pf.propose(1, 1);  // streak = 2 -> propose 2,3,4
  EXPECT_EQ(r.first, 2u);
  EXPECT_EQ(r.count, 3u);
}

TEST(Prefetcher, RandomAccessBreaksStreak) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 2, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(1, 1);
  EXPECT_TRUE(pf.propose(1, 50).empty());  // jump
  const PrefetchRange r = pf.propose(1, 51);  // streak rebuilt
  EXPECT_EQ(r.first, 52u);
  EXPECT_EQ(r.count, 2u);
}

TEST(Prefetcher, RepeatedSamePageKeepsStreakAlive) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(1, 1);
  const PrefetchRange r = pf.propose(1, 1);  // re-touch: still sequential
  // streak stays >= min_streak so the window is proposed again
  EXPECT_EQ(r.first, 2u);
  EXPECT_EQ(r.count, 1u);
}

TEST(Prefetcher, FilesTrackedIndependently) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(2, 10);
  const PrefetchRange r1 = pf.propose(1, 1);  // file 1 streak = 2
  EXPECT_EQ(r1.first, 2u);
  EXPECT_EQ(r1.count, 1u);
  const PrefetchRange r2 = pf.propose(2, 11);  // file 2 streak = 2
  EXPECT_EQ(r2.first, 12u);
  EXPECT_EQ(r2.count, 1u);
}

TEST(Prefetcher, ZeroWindowDisables) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 0, .min_streak = 1});
  for (std::uint64_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(pf.propose(1, p).empty());
  }
}

TEST(Prefetcher, ForgetResetsFileState) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.forget(1);
  EXPECT_TRUE(pf.propose(1, 1).empty());  // streak restarts at 1
}

TEST(Prefetcher, ResetClearsAllFiles) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 1, .min_streak = 2});
  pf.propose(1, 0);
  pf.propose(2, 0);
  pf.reset();
  EXPECT_TRUE(pf.propose(1, 1).empty());
  EXPECT_TRUE(pf.propose(2, 1).empty());
}

TEST(Prefetcher, RunOfPagesCountsLikeEachPageInTurn) {
  SequentialPrefetcher pf(PrefetchConfig{.window = 4, .min_streak = 2});
  // One call over pages 10..19 is a streak of 10: the window follows the
  // run's last page, once.
  const PrefetchRange r = pf.propose(1, 10, 10);
  EXPECT_EQ(r.first, 20u);
  EXPECT_EQ(r.count, 4u);
  // A run continuing from the last page (a call that starts mid-page)
  // extends the streak; a run elsewhere restarts it with its own length.
  EXPECT_EQ(pf.propose(1, 19, 3).first, 22u);
  EXPECT_TRUE(pf.propose(1, 100, 1).empty());
  EXPECT_EQ(pf.propose(1, 200, 2).first, 202u);
  EXPECT_TRUE(pf.propose(1, 300, 0).empty());  // an empty run is no access
  EXPECT_EQ(pf.propose(1, 202).first, 203u);   // ...and left the streak
}

// Property sweep: the proposal is always the contiguous run after the
// accessed page, of exactly `window` length, once the streak is met.
class PrefetchWindowProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PrefetchWindowProperty, WindowShapeHolds) {
  const std::size_t window = GetParam();
  SequentialPrefetcher pf(PrefetchConfig{.window = window, .min_streak = 3});
  PrefetchRange r;
  for (std::uint64_t p = 100; p < 103; ++p) r = pf.propose(7, p);
  EXPECT_EQ(r.first, 103u);
  EXPECT_EQ(r.count, window);
}

INSTANTIATE_TEST_SUITE_P(Windows, PrefetchWindowProperty,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace clio::io
