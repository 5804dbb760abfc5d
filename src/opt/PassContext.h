//===- opt/PassContext.h - Shared state for optimization passes -*- C++ -*===//
///
/// \file
/// The context handed to every pass engine: the IL under optimization,
/// compile-effort accounting (the C_i term of the ranking function, Eq. 2,
/// comes from here), small IL-surgery helpers shared by many passes, and
/// the epoch-keyed analysis caches (LoopInfo / dominators / guard facts)
/// that let a 170-entry scorching plan reuse a CFG analysis across passes
/// instead of rebuilding it at every consumer.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_OPT_PASSCONTEXT_H
#define JITML_OPT_PASSCONTEXT_H

#include "il/Dominators.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "il/MethodIL.h"
#include "opt/Transformation.h"

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

namespace jitml {

class PassContext {
public:
  /// \p Callees supplies the IL the inliner splices in. Without one the
  /// context keeps its own for its lifetime, so a callee inlined at several
  /// sites is still generated once.
  explicit PassContext(MethodIL &IL, ILCache *Callees = nullptr)
      : IL(IL), Callees(Callees) {}

  MethodIL &il() { return IL; }
  /// Const view of the IL for reads. Prefer this inside analyses and scan
  /// loops: the mutable node()/block() accessors bump the modification
  /// epoch (they must assume a write), which costs analysis-cache hit rate.
  const MethodIL &cil() const { return IL; }
  const Program &program() const { return IL.program(); }

  /// The unoptimized IL of \p MethodIndex, for the inliner to import.
  const MethodIL &calleeIL(uint32_t MethodIndex);

  /// Charges \p Cycles of compile effort to the current pass.
  void charge(double Cycles) { CompileCycles += Cycles; }
  double compileCycles() const { return CompileCycles; }

  /// Statistics: how many times each pass reported a change.
  void noteChange(TransformationKind K) { ++Changes[(unsigned)K]; }
  uint32_t changesOf(TransformationKind K) const {
    return Changes[(unsigned)K];
  }

  // --- Epoch-cached CFG analyses ---
  // Valid for the IL's current modification epoch; rebuilt on first use
  // after any IL change. The returned reference is stable until the next
  // IL mutation *through this context's accessors* triggers a rebuild on
  // the following call — passes take the reference once at entry, exactly
  // matching the lifetime the old pass-local `LoopInfo LI(IL)` had.
  const LoopInfo &loopInfo();
  const DominatorTree &dominators();
  const GuardFacts &guardFacts();

  // --- IL surgery helpers (in-place node rewrites; every tree referencing
  // the node observes the new form, which is how passes "replace all uses").
  void rewriteToConstI(NodeId Id, DataType T, int64_t V);
  void rewriteToConstF(NodeId Id, DataType T, double V);
  void rewriteToLoadLocal(NodeId Id, DataType T, uint32_t Slot);
  /// Turns \p Id into a shallow copy of \p Source (same kid ids).
  void rewriteToCopyOf(NodeId Id, NodeId Source);

  /// Deep-clones the tree rooted at \p Root into fresh nodes. \p LocalMap,
  /// when non-null, remaps local slots (used by inlining and unrolling).
  NodeId cloneTree(NodeId Root,
                   const std::unordered_map<uint32_t, uint32_t> *LocalMap);

  /// True when evaluating \p Root can be skipped entirely: no side effects
  /// anywhere in the tree.
  bool isPure(NodeId Root) const;

  /// True when the tree's value depends only on its inputs (pure and reads
  /// no mutable memory) — the condition for commoning across statements.
  bool isPureAndMemoryFree(NodeId Root) const;

private:
  MethodIL &IL;
  ILCache *Callees;
  std::unique_ptr<ILCache> OwnCallees; ///< when no cache was passed in
  double CompileCycles = 0.0;
  /// Flat per-kind change counters (NumTransformations is small and fixed;
  /// the old unordered_map hashed on every noteChange in the hot loop).
  std::array<uint32_t, NumTransformations> Changes{};

  std::unique_ptr<LoopInfo> CachedLI;
  uint64_t LIEpoch = 0;
  std::unique_ptr<DominatorTree> CachedDT;
  uint64_t DTEpoch = 0;
  std::unique_ptr<GuardFacts> CachedFacts;
  uint64_t FactsEpoch = 0;
};

/// Counts how many times each node is referenced (as a treetop root or as a
/// child) across all reachable blocks. Passes use this to decide whether a
/// node is shared (DAG-commoned) before duplicating or deleting it.
std::vector<uint32_t> computeRefCounts(const MethodIL &IL);

/// Shallow structural equality of two nodes (same op/type/payload and the
/// same child ids) — the equivalence used by value numbering.
bool shallowEqualNodes(const Node &A, const Node &B);

/// Hash matching shallowEqualNodes.
uint64_t shallowHashNode(const Node &N);

} // namespace jitml

#endif // JITML_OPT_PASSCONTEXT_H
