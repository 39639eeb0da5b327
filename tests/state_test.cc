// Unit tests for ReplicaState: partition-tree geometry, incremental digests, copy-before-write
// checkpoints, rollback, discard, and the state-transfer server queries.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/state.h"

namespace bft {
namespace {

ReplicaConfig MakeConfig(size_t pages, size_t branching, size_t page_size = 128) {
  ReplicaConfig config;
  config.state_pages = pages;
  config.partition_branching = branching;
  config.page_size = page_size;
  return config;
}

struct StateFixture {
  explicit StateFixture(size_t pages = 16, size_t branching = 4)
      : config(MakeConfig(pages, branching)), state(&config, &model) {
    state.Baseline(ToBytes("extra0"));
  }
  ReplicaConfig config;
  PerfModel model;
  ReplicaState state;
};

TEST(StateGeometryTest, LevelsAndPartCounts) {
  {
    StateFixture f(16, 4);  // 4^2 = 16 pages -> leaf level 2
    EXPECT_EQ(f.state.leaf_level(), 2u);
    EXPECT_EQ(f.state.PartsAtLevel(0), 1u);
    EXPECT_EQ(f.state.PartsAtLevel(1), 4u);
    EXPECT_EQ(f.state.PartsAtLevel(2), 16u);
  }
  {
    StateFixture f(10, 4);  // non-full tree
    EXPECT_EQ(f.state.leaf_level(), 2u);
    EXPECT_EQ(f.state.PartsAtLevel(1), 3u);
    EXPECT_EQ(f.state.PartsAtLevel(2), 10u);
  }
}

TEST(StateTest, WriteReadRoundTrip) {
  StateFixture f;
  Bytes data = ToBytes("hello state");
  f.state.Write(100, data);
  Bytes out(data.size());
  f.state.Read(100, out.size(), out.data());
  EXPECT_EQ(out, data);
}

TEST(StateTest, ModifyMarksAllTouchedPages) {
  StateFixture f;
  EXPECT_EQ(f.state.dirty_page_count(), 0u);
  f.state.Modify(120, 20);  // crosses the page 0 / page 1 boundary (page size 128)
  EXPECT_EQ(f.state.dirty_page_count(), 2u);
}

TEST(StateTest, CheckpointDigestsEqualForEqualStates) {
  StateFixture a;
  StateFixture b;
  a.state.Write(10, ToBytes("same"));
  b.state.Write(10, ToBytes("same"));
  EXPECT_EQ(a.state.TakeCheckpoint(8, ToBytes("e"), nullptr),
            b.state.TakeCheckpoint(8, ToBytes("e"), nullptr));
}

TEST(StateTest, CheckpointDigestsDifferForDifferentStates) {
  StateFixture a;
  StateFixture b;
  a.state.Write(10, ToBytes("aaaa"));
  b.state.Write(10, ToBytes("bbbb"));
  EXPECT_NE(a.state.TakeCheckpoint(8, ToBytes("e"), nullptr),
            b.state.TakeCheckpoint(8, ToBytes("e"), nullptr));
}

TEST(StateTest, ExtraBlobAffectsDigest) {
  StateFixture a;
  StateFixture b;
  EXPECT_NE(a.state.TakeCheckpoint(8, ToBytes("x"), nullptr),
            b.state.TakeCheckpoint(8, ToBytes("y"), nullptr));
}

TEST(StateTest, RollbackRestoresPageContents) {
  StateFixture f;
  f.state.Write(10, ToBytes("v1"));
  f.state.TakeCheckpoint(8, ToBytes("at8"), nullptr);
  f.state.Write(10, ToBytes("v2"));
  f.state.TakeCheckpoint(16, ToBytes("at16"), nullptr);
  f.state.Write(10, ToBytes("v3"));  // dirty, not checkpointed

  Bytes extra = f.state.RollbackToCheckpoint(8);
  EXPECT_EQ(extra, ToBytes("at8"));
  Bytes out(2);
  f.state.Read(10, 2, out.data());
  EXPECT_EQ(out, ToBytes("v1"));
  EXPECT_EQ(f.state.NewestCheckpoint(), 8u);
}

TEST(StateTest, RollbackRestoresDigestsExactly) {
  StateFixture f;
  f.state.Write(200, ToBytes("stable-content"));
  Digest at8 = f.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  f.state.Write(300, ToBytes("newer"));
  f.state.TakeCheckpoint(16, ToBytes("e16"), nullptr);

  f.state.RollbackToCheckpoint(8);
  // Re-checkpointing the rolled-back state at 8 must reproduce the same digest.
  Digest again = f.state.ComputeFullDigest(f.state.CurrentRootDigest(), ToBytes("e8"));
  EXPECT_EQ(again, at8);
}

TEST(StateTest, DiscardKeepsLaterCheckpointsReadable) {
  StateFixture f;
  f.state.Write(0, ToBytes("page0-v1"));
  f.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  // Page 0 untouched afterwards; page 5 modified at 16.
  f.state.Write(5 * 128, ToBytes("page5-v1"));
  f.state.TakeCheckpoint(16, ToBytes("e16"), nullptr);

  f.state.DiscardCheckpointsBelow(16);
  EXPECT_EQ(f.state.OldestCheckpoint(), 16u);
  // Page 0's value at checkpoint 16 must still be served even though it was written before 8.
  auto page = f.state.GetPage(0, 16);
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(ToString(ByteView(page->second.data(), 8)), "page0-v1");
}

TEST(StateTest, GetMetaDataIsConsistentWithParentDigest) {
  StateFixture f;
  for (int i = 0; i < 8; ++i) {
    f.state.Write(static_cast<size_t>(i) * 128, ToBytes("content-" + std::to_string(i)));
  }
  f.state.TakeCheckpoint(8, ToBytes("e"), nullptr);

  // Verify the AdHash relation at every interior node: parent digest commits children.
  for (uint32_t level = 0; level < f.state.leaf_level(); ++level) {
    for (uint64_t idx = 0; idx < f.state.PartsAtLevel(level); ++idx) {
      auto info = f.state.GetNodeInfo(level, idx, 8);
      ASSERT_TRUE(info.has_value());
      auto parts = f.state.GetMetaData(level, idx, 8);
      ASSERT_FALSE(parts.empty());
      AdHash sum;
      for (const auto& part : parts) {
        sum.Add(part.d);
      }
      Writer w;
      w.U32(level);
      w.U64(idx);
      w.U64(info->first);
      WriteDigest(w, sum.Value());
      EXPECT_EQ(ComputeDigest(w.data()), info->second)
          << "level " << level << " index " << idx;
    }
  }
}

TEST(StateTest, PageDigestMatchesGetPage) {
  StateFixture f;
  f.state.Write(3 * 128, ToBytes("the-page"));
  f.state.TakeCheckpoint(8, ToBytes("e"), nullptr);
  auto page = f.state.GetPage(3, 8);
  ASSERT_TRUE(page.has_value());
  auto info = f.state.GetNodeInfo(f.state.leaf_level(), 3, 8);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(ReplicaState::PageDigest(3, page->first, page->second), info->second);
}

TEST(StateTest, FetchedCheckpointReproducesSourceDigest) {
  // Simulate a full state transfer: copy all pages from a source at checkpoint 8 into a fresh
  // replica and check the finalized digest matches.
  StateFixture src;
  for (int i = 0; i < 16; ++i) {
    src.state.Write(static_cast<size_t>(i) * 128 + 7, ToBytes("blk" + std::to_string(i)));
  }
  Digest src_digest = src.state.TakeCheckpoint(8, ToBytes("extra8"), nullptr);

  StateFixture dst;
  for (uint64_t p = 0; p < 16; ++p) {
    auto page = src.state.GetPage(p, 8);
    ASSERT_TRUE(page.has_value());
    dst.state.ApplyFetchedPage(p, page->first, page->second);
  }
  Digest dst_digest = dst.state.FinalizeFetchedCheckpoint(8, ToBytes("extra8"));
  EXPECT_EQ(dst_digest, src_digest);
}

TEST(StateTest, IncrementalDigestMatchesFromScratch) {
  // Property: a state built by many incremental checkpoints has the same digest as one that
  // reaches the same contents in a single step.
  StateFixture a;
  StateFixture b;
  Rng rng(5);
  std::map<size_t, Bytes> final_contents;
  SeqNo seq = 0;
  for (int round = 0; round < 10; ++round) {
    for (int w = 0; w < 3; ++w) {
      size_t page = rng.Below(16);
      Bytes value = rng.RandomBytes(16);
      a.state.Write(page * 128 + 13, value);
      final_contents[page] = value;
    }
    seq += 8;
    a.state.TakeCheckpoint(seq, ToBytes("fin"), nullptr);
  }
  for (const auto& [page, value] : final_contents) {
    b.state.Write(page * 128 + 13, value);
  }
  // NOTE: digests embed each page's lm (last-modified checkpoint), so b must reach the same
  // lm values; we emulate by checkpointing b at every round too, writing the final value at
  // the round when a last wrote it. Instead, simply compare page *contents* here and digest
  // determinism across replicas is covered by CheckpointDigestsEqualForEqualStates.
  for (const auto& [page, value] : final_contents) {
    Bytes out(value.size());
    a.state.Read(page * 128 + 13, out.size(), out.data());
    EXPECT_EQ(out, value);
  }
}

TEST(StateTest, ManyCheckpointsBoundedHistoryAfterDiscard) {
  StateFixture f;
  for (SeqNo seq = 8; seq <= 80; seq += 8) {
    f.state.Write((seq / 8) % 16 * 128, ToBytes("v" + std::to_string(seq)));
    f.state.TakeCheckpoint(seq, ToBytes("e"), nullptr);
    if (seq >= 16) {
      f.state.DiscardCheckpointsBelow(seq - 8);
    }
  }
  EXPECT_EQ(f.state.OldestCheckpoint(), 72u);
  EXPECT_EQ(f.state.NewestCheckpoint(), 80u);
}

// Every page's (lm, digest, value) and every interior node's (lm, digest) at `seq`.
struct CheckpointView {
  std::vector<std::pair<SeqNo, Bytes>> pages;
  std::vector<std::pair<SeqNo, Digest>> nodes;
  std::vector<std::vector<MetaDataMsg::Part>> meta;
  bool operator==(const CheckpointView& o) const {
    if (pages != o.pages || nodes != o.nodes || meta.size() != o.meta.size()) {
      return false;
    }
    for (size_t i = 0; i < meta.size(); ++i) {
      if (meta[i].size() != o.meta[i].size()) {
        return false;
      }
      for (size_t j = 0; j < meta[i].size(); ++j) {
        const MetaDataMsg::Part& x = meta[i][j];
        const MetaDataMsg::Part& y = o.meta[i][j];
        if (x.index != y.index || x.lm != y.lm || x.d != y.d) {
          return false;
        }
      }
    }
    return true;
  }
};

CheckpointView ViewAt(const ReplicaState& state, SeqNo seq) {
  CheckpointView view;
  for (uint64_t p = 0; p < state.num_pages(); ++p) {
    view.pages.push_back(*state.GetPage(p, seq));
    view.nodes.push_back(*state.GetNodeInfo(state.leaf_level(), p, seq));
  }
  for (uint32_t level = 0; level < state.leaf_level(); ++level) {
    for (uint64_t idx = 0; idx < state.PartsAtLevel(level); ++idx) {
      view.nodes.push_back(*state.GetNodeInfo(level, idx, seq));
      view.meta.push_back(state.GetMetaData(level, idx, seq));
    }
  }
  return view;
}

Bytes PageBytes(const ReplicaState& state, uint64_t page) {
  Bytes out(state.page_size());
  state.Read(page * state.page_size(), out.size(), out.data());
  return out;
}

TEST(StateTest, RollbackAcrossCheckpointsWithOverlappingDirtySets) {
  // Pages 1-3 are written in overlapping epochs, so their values at 8 sit in different
  // records: page 1 in 8's, page 2 in 8's, page 3 in 16's.
  StateFixture f;
  f.state.Write(1 * 128, ToBytes("p1-a"));
  f.state.Write(2 * 128, ToBytes("p2-a"));
  Digest at8 = f.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  CheckpointView view8 = ViewAt(f.state, 8);
  f.state.Write(2 * 128, ToBytes("p2-b"));
  f.state.Write(3 * 128, ToBytes("p3-b"));
  Digest at16 = f.state.TakeCheckpoint(16, ToBytes("e16"), nullptr);
  CheckpointView view16 = ViewAt(f.state, 16);
  f.state.Write(1 * 128, ToBytes("p1-c"));
  f.state.Write(3 * 128, ToBytes("p3-c"));
  f.state.TakeCheckpoint(24, ToBytes("e24"), nullptr);
  f.state.Write(2 * 128, ToBytes("p2-d"));  // dirty, not checkpointed

  // Roll back to the middle checkpoint first, then further.
  EXPECT_EQ(f.state.RollbackToCheckpoint(16), ToBytes("e16"));
  EXPECT_EQ(f.state.NewestCheckpoint(), 16u);
  EXPECT_EQ(f.state.ComputeFullDigest(f.state.CurrentRootDigest(), ToBytes("e16")), at16);
  EXPECT_TRUE(ViewAt(f.state, 16) == view16);
  EXPECT_TRUE(ViewAt(f.state, 8) == view8);

  f.state.Write(3 * 128, ToBytes("p3-x"));
  EXPECT_EQ(f.state.RollbackToCheckpoint(8), ToBytes("e8"));
  EXPECT_EQ(f.state.ComputeFullDigest(f.state.CurrentRootDigest(), ToBytes("e8")), at8);
  EXPECT_TRUE(ViewAt(f.state, 8) == view8);
  EXPECT_EQ(ToString(ByteView(PageBytes(f.state, 1).data(), 4)), "p1-a");
  EXPECT_EQ(ToString(ByteView(PageBytes(f.state, 2).data(), 4)), "p2-a");
  EXPECT_EQ(PageBytes(f.state, 3), Bytes(128, 0));
  // Only pages 1 and 2 at checkpoint 0 remain; 8's own record was cleared.
  EXPECT_EQ(f.state.retained_page_copies(), 2u);

  // Execution resumes from 8 exactly as on a replica that never ran past it.
  StateFixture fresh;
  fresh.state.Write(1 * 128, ToBytes("p1-a"));
  fresh.state.Write(2 * 128, ToBytes("p2-a"));
  fresh.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  for (StateFixture* s : {&f, &fresh}) {
    s->state.Write(2 * 128, ToBytes("p2-y"));
    s->state.Write(9 * 128, ToBytes("p9-y"));
  }
  EXPECT_EQ(f.state.TakeCheckpoint(16, ToBytes("e16"), nullptr),
            fresh.state.TakeCheckpoint(16, ToBytes("e16"), nullptr));
  EXPECT_TRUE(ViewAt(f.state, 8) == ViewAt(fresh.state, 8));
}

TEST(StateTest, OldestCheckpointServesValuesRecordedWhenTaken) {
  StateFixture f;
  f.state.Write(3 * 128, ToBytes("page3-v1"));
  f.state.Write(12 * 128, ToBytes("page12-v1"));
  f.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  f.state.DiscardCheckpointsBelow(8);
  ASSERT_EQ(f.state.OldestCheckpoint(), 8u);
  CheckpointView view8 = ViewAt(f.state, 8);
  auto root8 = f.state.GetNodeInfo(0, 0, 8);
  ASSERT_TRUE(root8.has_value());
  EXPECT_EQ(root8->first, 8u);

  // Later writes, checkpoints and a dirty page change the live tree, not checkpoint 8.
  for (SeqNo seq = 16; seq <= 32; seq += 8) {
    f.state.Write(3 * 128, ToBytes("page3-at" + std::to_string(seq)));
    f.state.Write((seq / 8) * 128, ToBytes("other"));
    f.state.TakeCheckpoint(seq, ToBytes("e"), nullptr);
  }
  f.state.Write(12 * 128, ToBytes("page12-dirty"));
  EXPECT_NE(f.state.LiveNodeInfo(0, 0), *root8);
  EXPECT_TRUE(ViewAt(f.state, 8) == view8);
  auto page3 = f.state.GetPage(3, 8);
  ASSERT_TRUE(page3.has_value());
  EXPECT_EQ(page3->first, 8u);
  EXPECT_EQ(ToString(ByteView(page3->second.data(), 8)), "page3-v1");
  EXPECT_EQ(ReplicaState::PageDigest(3, page3->first, page3->second),
            f.state.GetNodeInfo(f.state.leaf_level(), 3, 8)->second);
}

TEST(StateTest, ApplyFetchedPageLeavesOlderCheckpointServable) {
  StateFixture f;
  f.state.Write(5 * 128, ToBytes("page5-v1"));
  f.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  f.state.Write(6 * 128, ToBytes("page6-v1"));
  f.state.TakeCheckpoint(16, ToBytes("e16"), nullptr);
  CheckpointView view8 = ViewAt(f.state, 8);
  CheckpointView view16 = ViewAt(f.state, 16);

  // A transfer towards checkpoint 24 overwrites pages 5 and 6 with newer values.
  Bytes fetched(128, 0x42);
  f.state.ApplyFetchedPage(5, 24, fetched);
  f.state.ApplyFetchedPage(6, 24, fetched);
  EXPECT_EQ(f.state.LiveNodeInfo(f.state.leaf_level(), 5).first, 24u);
  EXPECT_TRUE(ViewAt(f.state, 8) == view8);
  EXPECT_TRUE(ViewAt(f.state, 16) == view16);
  EXPECT_EQ(f.state.retained_page_copies(), 4u);  // 5 and 6 at 16, 6 at 8, 5 at 0

  // A page whose fetched lm is not newer than the newest checkpoint already held that value
  // there (a state check repairing a corrupted page), so no pre-image is kept for it.
  StateFixture g;
  g.state.Write(2 * 128, ToBytes("good"));
  g.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  auto good = g.state.GetPage(2, 8);
  ASSERT_TRUE(good.has_value());
  size_t copies = g.state.retained_page_copies();  // page 2 at checkpoint 0
  const_cast<uint8_t*>(g.state.data())[2 * 128] ^= 0xff;
  g.state.ApplyFetchedPage(2, good->first, good->second);
  EXPECT_EQ(g.state.retained_page_copies(), copies);
  EXPECT_EQ(g.state.GetPage(2, 8)->second, good->second);
}

TEST(StateTest, RetainedCopiesAreOnlyThePagesModifiedSinceOldestCheckpoint) {
  StateFixture f(64, 4);
  EXPECT_EQ(f.state.retained_page_copies(), 0u) << "Baseline must not copy the state";

  // Epochs with disjoint dirty sets; repeated writes to one page keep one copy.
  for (int i = 0; i < 100; ++i) {
    f.state.Write(0, ToBytes("w" + std::to_string(i)));
    f.state.Write(1 * 128, ToBytes("w" + std::to_string(i)));
  }
  EXPECT_EQ(f.state.retained_page_copies(), 2u);
  f.state.TakeCheckpoint(8, ToBytes("e8"), nullptr);
  for (uint64_t p = 2; p < 5; ++p) {
    f.state.Write(p * 128, ToBytes("x"));
  }
  f.state.TakeCheckpoint(16, ToBytes("e16"), nullptr);
  f.state.Write(5 * 128, ToBytes("dirty"));
  EXPECT_EQ(f.state.retained_page_copies(), 6u);  // pages 0-5, modified since checkpoint 0

  f.state.DiscardCheckpointsBelow(8);
  EXPECT_EQ(f.state.retained_page_copies(), 4u);  // pages 2-5, modified since checkpoint 8
  f.state.DiscardCheckpointsBelow(16);
  EXPECT_EQ(f.state.retained_page_copies(), 1u);

  // A long run with two retained checkpoints stays bounded by the pages it touches.
  Rng rng(9);
  for (SeqNo seq = 24; seq <= 400; seq += 8) {
    for (int w = 0; w < 4; ++w) {
      f.state.Write(rng.Below(64) * 128, rng.RandomBytes(8));
    }
    f.state.TakeCheckpoint(seq, ToBytes("e"), nullptr);
    f.state.DiscardCheckpointsBelow(seq - 8);
    EXPECT_LE(f.state.retained_page_copies(), 4u);
    EXPECT_LT(f.state.retained_page_copies(), f.state.num_pages());
  }

  // A finalized transfer keeps no copies either.
  f.state.ApplyFetchedPage(7, 500, Bytes(128, 1));
  f.state.FinalizeFetchedCheckpoint(500, ToBytes("e500"));
  EXPECT_EQ(f.state.retained_page_copies(), 0u);
}

class StateParamTest : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(StateParamTest, TransferRoundTripAcrossGeometries) {
  auto [pages, branching] = GetParam();
  ReplicaConfig config = MakeConfig(pages, branching);
  PerfModel model;
  ReplicaState src(&config, &model);
  src.Baseline({});
  Rng rng(pages * 131 + branching);
  for (size_t i = 0; i < pages; ++i) {
    if (rng.Chance(0.7)) {
      src.Write(i * config.page_size, rng.RandomBytes(32));
    }
  }
  Digest d = src.TakeCheckpoint(8, ToBytes("E"), nullptr);

  ReplicaState dst(&config, &model);
  dst.Baseline({});
  for (uint64_t p = 0; p < pages; ++p) {
    auto page = src.GetPage(p, 8);
    ASSERT_TRUE(page.has_value());
    dst.ApplyFetchedPage(p, page->first, page->second);
  }
  EXPECT_EQ(dst.FinalizeFetchedCheckpoint(8, ToBytes("E")), d);
}

INSTANTIATE_TEST_SUITE_P(Geometries, StateParamTest,
                         ::testing::Values(std::make_tuple(1, 4), std::make_tuple(3, 2),
                                           std::make_tuple(16, 4), std::make_tuple(17, 4),
                                           std::make_tuple(64, 8), std::make_tuple(100, 3),
                                           std::make_tuple(256, 16)));

}  // namespace
}  // namespace bft
