//===- il/LoopInfo.h - Natural-loop detection and classification -*-C++-*-===//
///
/// \file
/// Natural-loop analysis over the IL CFG. Provides the loop facts the rest
/// of the system depends on:
///  * the Table 1 loop attributes ("may have loops?", "many-iteration
///    loops?", "may have many-iteration loops?") — the latter "based on
///    loop-count thresholds and on the presence of nested loops";
///  * the loop-class used by compilation control to pick among the three
///    per-level recompilation triggers (footnote 6 of the paper);
///  * block frequency estimates consumed by layout/outlining passes;
///  * the loop structures the loop transformations operate on.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_IL_LOOPINFO_H
#define JITML_IL_LOOPINFO_H

#include "il/Dominators.h"
#include "il/MethodIL.h"

#include <vector>

namespace jitml {

/// One natural loop: all blocks reaching the back edge without leaving the
/// header's dominance region.
struct Loop {
  BlockId Header = InvalidBlock;
  std::vector<BlockId> Blocks; ///< includes the header
  unsigned Depth = 1;          ///< 1 = outermost
  /// Estimated iterations: recognized from `local <cmp> const` exit tests
  /// with the conventional start-at-zero step-one shape; -1 when unknown.
  int64_t TripCount = -1;

  /// False for blocks created after the analysis ran.
  bool contains(BlockId B) const {
    return B / 64 < Members.size() && (Members[B / 64] >> (B % 64) & 1);
  }
  /// Appends \p B to Blocks; it must not be a member yet.
  void add(BlockId B);

  /// Membership bitset over the block ids the method had when the loop
  /// was found (one bit per block).
  std::vector<uint64_t> Members;
};

/// Loop classification used by both the feature extractor and the
/// compilation-control triggers.
enum class LoopClass : uint8_t {
  NoLoops = 0,        ///< no backward edge
  MayHaveLoops,       ///< loops whose bounds look small/unknown
  ManyIterationLoops, ///< known-large trip count or nested loops
};

class LoopInfo {
public:
  /// Threshold above which a known trip count classifies as many-iteration.
  static constexpr int64_t ManyIterationThreshold = 100;

  explicit LoopInfo(const MethodIL &IL);

  const std::vector<Loop> &loops() const { return Loops; }
  bool hasLoops() const { return !Loops.empty(); }
  /// True when some loop is provably long-running (trip count above the
  /// threshold).
  bool hasKnownManyIterationLoop() const;
  /// True when a loop *may* be long-running: unknown bounds or nesting.
  bool mayHaveManyIterationLoop() const;
  LoopClass classify() const;

  /// Innermost loop containing \p B, or nullptr.
  const Loop *loopFor(BlockId B) const;
  unsigned depthOf(BlockId B) const;

  /// Writes frequency estimates into the blocks of \p IL: entry 1.0,
  /// multiplied by min(TripCount, 10) per nesting level, halved on each
  /// side of a branch, and 0.01 for handler blocks. Blocks already carrying
  /// the computed value are left untouched (no epoch bump), so callers that
  /// re-annotate an unchanged CFG keep the epoch-keyed analysis caches
  /// valid. Returns true when any frequency actually moved, so a pass that
  /// re-annotates reports the write as a change.
  static bool annotateFrequencies(MethodIL &IL);
  /// Same, reusing an already-built LoopInfo for \p IL (e.g. the
  /// PassContext-cached one) instead of rebuilding the analysis.
  static bool annotateFrequencies(MethodIL &IL, const LoopInfo &LI);

private:
  std::vector<Loop> Loops;
};

} // namespace jitml

#endif // JITML_IL_LOOPINFO_H
