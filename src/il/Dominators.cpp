//===- il/Dominators.cpp --------------------------------------------------===//

#include "il/Dominators.h"

using namespace jitml;

DominatorTree::DominatorTree(const MethodIL &IL) {
  uint32_t N = IL.numBlocks();
  Idom.assign(N, InvalidBlock);
  RpoIndex.assign(N, UINT32_MAX);
  Rpo = IL.reversePostOrder();
  for (uint32_t I = 0; I < Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;

  // Predecessors including handler edges (a handler's preds are all blocks
  // that list it in Handlers), as flat rows: the preds of B are
  // Preds[PredBegin[B] .. PredBegin[B + 1]), in ascending block order.
  std::vector<uint32_t> PredBegin(N + 1, 0);
  for (BlockId B = 0; B < N; ++B) {
    if (RpoIndex[B] == UINT32_MAX)
      continue;
    for (BlockId S : IL.block(B).Succs)
      ++PredBegin[S + 1];
    for (const HandlerRef &H : IL.block(B).Handlers)
      ++PredBegin[H.Handler + 1];
  }
  for (uint32_t B = 0; B < N; ++B)
    PredBegin[B + 1] += PredBegin[B];
  std::vector<BlockId> Preds(PredBegin[N]);
  std::vector<uint32_t> Fill(PredBegin.begin(), PredBegin.end() - 1);
  for (BlockId B = 0; B < N; ++B) {
    if (RpoIndex[B] == UINT32_MAX)
      continue;
    for (BlockId S : IL.block(B).Succs)
      Preds[Fill[S]++] = B;
    for (const HandlerRef &H : IL.block(B).Handlers)
      Preds[Fill[H.Handler]++] = B;
  }

  BlockId Entry = IL.entryBlock();
  Idom[Entry] = Entry;

  auto Intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Rpo) {
      if (B == Entry)
        continue;
      BlockId NewIdom = InvalidBlock;
      for (uint32_t K = PredBegin[B]; K < PredBegin[B + 1]; ++K) {
        BlockId P = Preds[K];
        if (Idom[P] == InvalidBlock)
          continue; // not yet processed
        NewIdom = NewIdom == InvalidBlock ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != InvalidBlock && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(BlockId A, BlockId B) const {
  if (Idom[B] == InvalidBlock || Idom[A] == InvalidBlock)
    return false;
  while (true) {
    if (A == B)
      return true;
    BlockId Up = Idom[B];
    if (Up == B)
      return false; // reached the entry
    B = Up;
  }
}
