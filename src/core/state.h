// Service state, hierarchical partition tree, and checkpoint management (Section 5.3).
//
// The service state is a flat, page-addressable memory region. Services must call Modify()
// (the paper's Byz_modify) before writing a region. State is covered by a partition tree:
// the root is the whole state, each interior partition splits into `branching` children, and
// the leaves are pages. Every partition carries (lm, d): the checkpoint at whose epoch it was
// last modified and its digest. Page digests hash the page value; interior digests combine
// child digests with AdHash, so a checkpoint only re-digests dirty pages and updates O(levels)
// interior nodes per dirty page (incremental, Merkle-tree-inspired).
//
// Checkpoints are copy-before-write: the record of checkpoint k holds the values *at* k of
// exactly the partitions changed *after* k (until the next checkpoint). The first Modify (or
// ApplyFetchedPage) of a page after the newest checkpoint saves the page's value, lm and
// digest into that checkpoint's record; taking the next checkpoint saves each interior
// node's old (lm, d) before overwriting it. So a replica holds its live state plus only the
// pages modified since its oldest retained checkpoint, and the value of a partition at
// retained checkpoint k is the first record at or after k that holds it, else the live value.
// This supports rollback (tentative-execution aborts, Section 5.1.2) and the state-transfer
// server side (Section 5.3.2).
#ifndef SRC_CORE_STATE_H_
#define SRC_CORE_STATE_H_

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/crypto/adhash.h"
#include "src/crypto/digest.h"
#include "src/core/cpu_meter.h"
#include "src/model/perf_model.h"

namespace bft {

class ReplicaState {
 public:
  ReplicaState(const ReplicaConfig* config, const PerfModel* model);

  // --- Geometry ------------------------------------------------------------------------------
  size_t size_bytes() const { return data_.size(); }
  size_t page_size() const { return config_->page_size; }
  size_t num_pages() const { return num_pages_; }
  uint32_t leaf_level() const { return leaf_level_; }
  // Number of partitions at `level` (level 0 = root, leaf_level() = pages).
  uint64_t PartsAtLevel(uint32_t level) const;

  // --- Service access ------------------------------------------------------------------------
  const uint8_t* data() const { return data_.data(); }
  void Read(size_t offset, size_t len, uint8_t* out) const;
  // Marks [offset, offset+len) dirty; must be called before any in-place mutation.
  void Modify(size_t offset, size_t len);
  // Modify() + copy-in.
  void Write(size_t offset, ByteView bytes);
  // Marks dirty and returns a mutable pointer (the region must not cross the state end).
  uint8_t* MutableRange(size_t offset, size_t len);

  // --- Checkpoints -----------------------------------------------------------------------------
  // Digests the current (initialized) state and establishes it as checkpoint 0.
  // Must be called once, after the service initializes its state, before any protocol activity.
  void Baseline(const Bytes& extra);

  // Takes checkpoint `seq`: re-digests dirty pages and updates the tree incrementally, saving
  // the old interior nodes into the previous checkpoint's record. `extra` is opaque replica
  // metadata kept with the checkpoint (the last-reply table, per the paper). Charges digest
  // costs to `cpu` if non-null. Returns the checkpoint's full digest.
  Digest TakeCheckpoint(SeqNo seq, const Bytes& extra, CpuMeter* cpu);

  bool HasCheckpoint(SeqNo seq) const { return checkpoints_.count(seq) != 0; }
  Digest CheckpointDigest(SeqNo seq) const;
  Bytes CheckpointExtra(SeqNo seq) const;
  SeqNo NewestCheckpoint() const;
  SeqNo OldestCheckpoint() const;

  // Discards checkpoints with seq < keep_from (never the newest) and their saved pre-images.
  void DiscardCheckpointsBelow(SeqNo keep_from);

  // Reverts the current state to checkpoint `seq` (which must be retained). Checkpoints newer
  // than `seq` are discarded. Returns the checkpoint's extra blob.
  Bytes RollbackToCheckpoint(SeqNo seq);

  // --- State transfer: server side -------------------------------------------------------------
  // Sub-partition metadata of partition (level, index) as of checkpoint `target`.
  // Empty result if `target` is not retained.
  std::vector<MetaDataMsg::Part> GetMetaData(uint32_t level, uint64_t index, SeqNo target) const;
  // Page value + lm at checkpoint `target`; nullopt if not retained.
  std::optional<std::pair<SeqNo, Bytes>> GetPage(uint64_t index, SeqNo target) const;
  // (lm, digest) of any partition at checkpoint `target`; nullopt if not retained.
  std::optional<std::pair<SeqNo, Digest>> GetNodeInfo(uint32_t level, uint64_t index,
                                                      SeqNo target) const;
  // Live (lm, digest) of any partition in the current tree.
  std::pair<SeqNo, Digest> LiveNodeInfo(uint32_t level, uint64_t index) const;

  // --- State transfer: fetcher side -------------------------------------------------------------
  // Overwrites a page with a fetched value (marks its leaf entry). A value newer than the
  // newest checkpoint first saves the page's pre-image, so retained checkpoints stay servable.
  void ApplyFetchedPage(uint64_t index, SeqNo lm, ByteView value);
  // After all pages for checkpoint `seq` are in place: resets checkpoint history to the single
  // checkpoint `seq`. Returns its full digest (caller verifies against the certificate).
  Digest FinalizeFetchedCheckpoint(SeqNo seq, const Bytes& extra);

  // Digest the current in-memory state would have if checkpointed at `seq` — used by recovery's
  // state checking. Does not modify checkpoint history.
  Digest CurrentRootDigest() const;
  Digest ComputeFullDigest(const Digest& root, const Bytes& extra) const;

  // Expected digest of a page with the given index/lm/value — fetchers verify DATA replies.
  static Digest PageDigest(uint64_t index, SeqNo lm, ByteView value);

  size_t dirty_page_count() const { return dirty_pages_.size(); }
  const std::set<uint64_t>& dirty_pages() const { return dirty_pages_; }
  // Page pre-images held across all retained checkpoint records.
  size_t retained_page_copies() const;

 private:
  struct PageEntry {
    SeqNo lm = 0;
    Digest d;
    Bytes value;
  };
  struct NodeEntry {
    SeqNo lm = 0;
    Digest d;
  };
  struct PageView {
    SeqNo lm = 0;
    Digest d;
    ByteView value;
  };
  struct Checkpoint {
    SeqNo seq = 0;
    Digest full_digest;
    Bytes extra;
    // Values at `seq` of the partitions changed since.
    std::map<uint64_t, PageEntry> pages;
    std::map<std::pair<uint32_t, uint64_t>, NodeEntry> nodes;  // interior partitions
  };

  struct LiveNode {
    SeqNo lm = 0;
    Digest d;
    AdHash sum;  // AdHash over child digests (interior nodes only)
  };

  Digest InteriorDigest(uint32_t level, uint64_t index, SeqNo lm, const AdHash& sum) const;
  // Recomputes every interior node from the current leaves (used by rollback and fetch).
  void RebuildInterior();
  // Recomputes digests for the given dirty pages as of checkpoint `seq` and updates ancestors.
  // Saves each interior node's old (lm, d) into `prev` if non-null. Charges costs to `cpu`.
  void UpdateTree(SeqNo seq, const std::set<uint64_t>& pages, Checkpoint* prev, CpuMeter* cpu);
  // Saves a page's value, lm and digest into the newest checkpoint's record unless already
  // saved there.
  void SavePreImage(uint64_t page);
  // Replaces the checkpoint history with the single checkpoint `seq` of the live state and
  // returns its full digest.
  Digest ResetHistory(SeqNo seq, const Bytes& extra);

  // Value of a page / interior node at a retained checkpoint: the first record at or after
  // `target` that holds it, else the live value.
  PageView LookupPage(uint64_t index, SeqNo target) const;
  NodeEntry LookupNode(uint32_t level, uint64_t index, SeqNo target) const;

  const ReplicaConfig* config_;
  const PerfModel* model_;
  Bytes data_;
  size_t num_pages_;
  uint32_t leaf_level_;

  // Live partition tree: leaves_[i] for pages; interior_[level][index] for levels < leaf.
  std::vector<LiveNode> leaves_;
  std::vector<std::vector<LiveNode>> interior_;

  std::set<uint64_t> dirty_pages_;
  std::map<SeqNo, Checkpoint> checkpoints_;
};

}  // namespace bft

#endif  // SRC_CORE_STATE_H_
