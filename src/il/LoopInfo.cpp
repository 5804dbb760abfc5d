//===- il/LoopInfo.cpp ----------------------------------------------------===//

#include "il/LoopInfo.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdlib>

using namespace jitml;

void Loop::add(BlockId B) {
  assert(!contains(B) && "block already in the loop");
  Blocks.push_back(B);
  Members[B / 64] |= 1ULL << (B % 64);
}

namespace {

/// Attempts to recognize the trip count of a loop from one of its exit
/// branches: a Branch comparing LoadLocal against an integer constant.
int64_t estimateTripCount(const MethodIL &IL, const Loop &L) {
  for (BlockId B : L.Blocks) {
    const Block &Blk = IL.block(B);
    if (Blk.Trees.empty())
      continue;
    const Node &Term = IL.node(Blk.Trees.back());
    if (Term.Op != ILOp::Branch)
      continue;
    // An exit branch has one successor outside the loop.
    bool Exits = false;
    for (BlockId S : Blk.Succs)
      if (!L.contains(S))
        Exits = true;
    if (!Exits)
      continue;
    const Node &Lhs = IL.node(Term.Kids[0]);
    const Node &Rhs = IL.node(Term.Kids[1]);
    const Node *Cst = nullptr;
    if (Lhs.Op == ILOp::LoadLocal && Rhs.Op == ILOp::Const &&
        isIntegerType(Rhs.Type))
      Cst = &Rhs;
    else if (Rhs.Op == ILOp::LoadLocal && Lhs.Op == ILOp::Const &&
             isIntegerType(Lhs.Type))
      Cst = &Lhs;
    if (!Cst)
      continue;
    // Conventional shape: induction variable from 0 by +-1 against the
    // bound, so the bound's magnitude approximates the trip count.
    int64_t Bound = std::llabs(Cst->ConstI);
    if (Bound > 0)
      return Bound;
  }
  return -1;
}

} // namespace

LoopInfo::LoopInfo(const MethodIL &IL) {
  DominatorTree DT(IL);
  size_t Words = (IL.numBlocks() + 63) / 64;
  std::vector<BlockId> Stack; // one worklist for every loop
  // Back edge: B -> H where H dominates B. Collect the natural loop by
  // walking predecessors from B until H.
  for (BlockId B : DT.rpo()) {
    for (BlockId H : IL.block(B).Succs) {
      if (!DT.dominates(H, B))
        continue;
      Loop L;
      L.Header = H;
      L.Members.assign(Words, 0);
      L.add(H);
      if (B != H) {
        L.add(B);
        Stack.push_back(B);
      }
      while (!Stack.empty()) {
        BlockId Cur = Stack.back();
        Stack.pop_back();
        for (BlockId P : IL.block(Cur).Preds) {
          if (!IL.block(P).Reachable || L.contains(P))
            continue;
          L.add(P);
          Stack.push_back(P);
        }
      }
      Loops.push_back(std::move(L));
    }
  }
  // Merge loops sharing a header (multiple back edges).
  for (size_t I = 0; I < Loops.size(); ++I) {
    for (size_t J = I + 1; J < Loops.size();) {
      if (Loops[J].Header == Loops[I].Header) {
        for (BlockId B : Loops[J].Blocks)
          if (!Loops[I].contains(B))
            Loops[I].add(B);
        Loops.erase(Loops.begin() + (std::ptrdiff_t)J);
      } else {
        ++J;
      }
    }
  }
  // Depth: number of loops containing the header.
  for (Loop &L : Loops) {
    unsigned Depth = 0;
    for (const Loop &Other : Loops)
      if (Other.contains(L.Header))
        ++Depth;
    L.Depth = Depth;
  }
  for (Loop &L : Loops)
    L.TripCount = estimateTripCount(IL, L);
}

bool LoopInfo::hasKnownManyIterationLoop() const {
  for (const Loop &L : Loops)
    if (L.TripCount >= ManyIterationThreshold)
      return true;
  return false;
}

bool LoopInfo::mayHaveManyIterationLoop() const {
  if (hasKnownManyIterationLoop())
    return true;
  for (const Loop &L : Loops)
    if (L.TripCount < 0 || L.Depth >= 2)
      return true;
  return false;
}

LoopClass LoopInfo::classify() const {
  if (Loops.empty())
    return LoopClass::NoLoops;
  if (hasKnownManyIterationLoop() || mayHaveManyIterationLoop())
    return LoopClass::ManyIterationLoops;
  return LoopClass::MayHaveLoops;
}

const Loop *LoopInfo::loopFor(BlockId B) const {
  const Loop *Best = nullptr;
  for (const Loop &L : Loops)
    if (L.contains(B) && (!Best || L.Depth > Best->Depth))
      Best = &L;
  return Best;
}

unsigned LoopInfo::depthOf(BlockId B) const {
  const Loop *L = loopFor(B);
  return L ? L->Depth : 0;
}

bool LoopInfo::annotateFrequencies(MethodIL &IL) {
  LoopInfo LI(IL);
  return annotateFrequencies(IL, LI);
}

bool LoopInfo::annotateFrequencies(MethodIL &IL, const LoopInfo &LI) {
  const MethodIL &CIL = IL;
  bool Changed = false;
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    if (!CIL.block(B).Reachable)
      continue;
    double Freq = 1.0;
    const Loop *L = LI.loopFor(B);
    if (L) {
      double PerLevel =
          L->TripCount > 0 ? (double)std::min<int64_t>(L->TripCount, 10) : 8.0;
      for (unsigned D = 0; D < L->Depth; ++D)
        Freq *= PerLevel;
    }
    if (CIL.block(B).IsHandler)
      Freq = 0.01;
    // Write (and bump the epoch) only on change, so a re-annotation that
    // finds the frequencies already correct keeps the analysis caches.
    if (CIL.block(B).Frequency != Freq) {
      IL.block(B).Frequency = Freq;
      Changed = true;
    }
  }
  return Changed;
}
