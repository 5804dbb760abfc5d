//===- opt/Loops.cpp - Loop transformations -------------------------------===//
//
// Loop canonicalization (preheaders), invariant code motion, unrolling
// (factor 2/4 and full), peeling, bounds versioning, loop strength
// reduction, induction-variable elimination, empty-loop removal, copy-loop
// idiom recognition, and prefetch marking.
//
// The structural passes operate on *canonical counted loops*: a header
// whose only tree is the exit test `i < bound`, a single body block ending
// with the `i += step` update and the back edge. The workload generators
// emit exactly this shape for their kernels, and LoopCanonicalization plus
// the CFG cleanups push many other loops into it.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "il/LoopInfo.h"

#include <algorithm>

#include <unordered_map>
#include <unordered_set>

using namespace jitml;

namespace {

/// A recognized canonical counted loop.
struct CanonicalLoop {
  BlockId Header = InvalidBlock;
  BlockId Body = InvalidBlock;
  BlockId Preheader = InvalidBlock;
  BlockId Exit = InvalidBlock;
  int32_t IndVar = -1;
  int64_t Step = 0;
  bool HasConstBound = false;
  int64_t Bound = 0;        ///< valid when HasConstBound
  int32_t BoundArraySlot = -1; ///< bound is arraylen(load slot), else -1
  bool HasConstStart = false;
  int64_t Start = 0;
  size_t IncTreeIdx = 0; ///< index of the increment tree in the body
};

/// Finds the unique outside predecessor of \p Header that qualifies as a
/// preheader (single successor, ends in Goto). InvalidBlock when absent.
BlockId findPreheader(const MethodIL &IL, const Loop &L) {
  BlockId Candidate = InvalidBlock;
  for (BlockId P : IL.block(L.Header).Preds) {
    if (L.contains(P))
      continue;
    if (Candidate != InvalidBlock)
      return InvalidBlock; // multiple entries
    Candidate = P;
  }
  if (Candidate == InvalidBlock)
    return InvalidBlock;
  const Block &PB = IL.block(Candidate);
  if (PB.Succs.size() != 1 || PB.Trees.empty() ||
      IL.node(PB.Trees.back()).Op != ILOp::Goto)
    return InvalidBlock;
  return Candidate;
}

/// Recognizes the canonical counted-loop shape for \p L.
bool recognize(const MethodIL &IL, const Loop &L, CanonicalLoop &Out) {
  if (L.Blocks.size() != 2)
    return false;
  BlockId H = L.Header;
  BlockId W = L.Blocks[0] == H ? L.Blocks[1] : L.Blocks[0];
  const Block &HB = IL.block(H);
  const Block &WB = IL.block(W);
  if (!HB.Reachable || !WB.Reachable || HB.IsHandler || WB.IsHandler)
    return false;
  // Header: the test, optionally preceded by check treetops (e.g. the
  // null check guarding an arraylen bound). Rewrites must preserve the
  // prefix — it carries exception semantics.
  if (HB.Trees.empty() || HB.Succs.size() != 2)
    return false;
  for (size_t TI = 0; TI + 1 < HB.Trees.size(); ++TI) {
    ILOp Op = IL.node(HB.Trees[TI]).Op;
    if (Op != ILOp::NullCheck && Op != ILOp::BoundsCheck &&
        Op != ILOp::DivCheck)
      return false;
  }
  const Node &Test = IL.node(HB.Trees.back());
  if (Test.Op != ILOp::Branch)
    return false;
  // Body: ends with Goto back to the header, no other exits.
  if (WB.Succs.size() != 1 || WB.Succs[0] != H || WB.Trees.empty() ||
      IL.node(WB.Trees.back()).Op != ILOp::Goto)
    return false;
  // Orientation: `branch(Ge) -> exit` with fallthrough into the body, or
  // `branch(Lt) -> body` with fallthrough out.
  BcCond Cond = (BcCond)Test.A;
  BlockId Taken = HB.Succs[0], Fall = HB.Succs[1];
  BlockId Exit, BodySucc;
  if (Taken == W && Cond == BcCond::Lt) {
    BodySucc = Taken;
    Exit = Fall;
  } else if (Fall == W && Cond == BcCond::Ge) {
    BodySucc = Fall;
    Exit = Taken;
  } else {
    return false;
  }
  if (Exit == W || BodySucc != W)
    return false;
  // Test operands: LoadLocal(i) vs bound.
  const Node &Lhs = IL.node(Test.Kids[0]);
  if (Lhs.Op != ILOp::LoadLocal || !isIntegerType(Lhs.Type))
    return false;
  int32_t IndVar = Lhs.A;
  const Node &Rhs = IL.node(Test.Kids[1]);
  CanonicalLoop C;
  C.Header = H;
  C.Body = W;
  C.Exit = Exit;
  C.IndVar = IndVar;
  if (Rhs.Op == ILOp::Const && isIntegerType(Rhs.Type)) {
    C.HasConstBound = true;
    C.Bound = Rhs.ConstI;
  } else if (Rhs.Op == ILOp::ArrayLen &&
             IL.node(Rhs.Kids[0]).Op == ILOp::LoadLocal) {
    C.BoundArraySlot = IL.node(Rhs.Kids[0]).A;
  } else {
    return false;
  }
  // Unique increment: StoreLocal(i, Add(LoadLocal i, Const step)), and no
  // other store to i inside the loop.
  int IncCount = 0;
  for (size_t TI = 0; TI < WB.Trees.size(); ++TI) {
    const Node &N = IL.node(WB.Trees[TI]);
    if (N.Op != ILOp::StoreLocal || N.A != IndVar)
      continue;
    const Node &V = IL.node(N.Kids[0]);
    if (V.Op == ILOp::Add && V.Kids.size() == 2 &&
        IL.node(V.Kids[0]).Op == ILOp::LoadLocal &&
        IL.node(V.Kids[0]).A == IndVar &&
        IL.node(V.Kids[1]).Op == ILOp::Const) {
      C.Step = IL.node(V.Kids[1]).ConstI;
      C.IncTreeIdx = TI;
      ++IncCount;
    } else {
      return false; // non-affine update
    }
  }
  if (IncCount != 1 || C.Step <= 0)
    return false;
  // The increment must be the last statement before the back edge so that
  // unrolled copies stay iteration-accurate.
  if (C.IncTreeIdx + 2 != WB.Trees.size())
    return false;
  // Also reject stores to the bound array slot inside the loop.
  if (C.BoundArraySlot >= 0) {
    for (NodeId Root : WB.Trees) {
      const Node &N = IL.node(Root);
      if (N.Op == ILOp::StoreLocal && N.A == C.BoundArraySlot)
        return false;
    }
  }
  // Preheader and constant start value.
  C.Preheader = findPreheader(IL, L);
  if (C.Preheader != InvalidBlock) {
    const Block &PB = IL.block(C.Preheader);
    for (size_t TI = PB.Trees.size(); TI-- > 0;) {
      const Node &N = IL.node(PB.Trees[TI]);
      if (N.Op == ILOp::StoreLocal && N.A == IndVar) {
        const Node &V = IL.node(N.Kids[0]);
        if (V.Op == ILOp::Const) {
          C.HasConstStart = true;
          C.Start = V.ConstI;
        }
        break;
      }
    }
  }
  Out = C;
  return true;
}

/// Number of iterations of a fully-recognized constant loop; -1 otherwise.
int64_t tripCount(const CanonicalLoop &C) {
  if (!C.HasConstBound || !C.HasConstStart)
    return -1;
  if (C.Start >= C.Bound)
    return 0;
  return (C.Bound - C.Start + C.Step - 1) / C.Step;
}

/// Facts about what a loop's blocks write, for LICM legality. Flat
/// byte-per-slot maps (locals and globals are both small dense id spaces);
/// the scan runs per loop per LICM invocation on the compile hot path.
struct LoopMemFacts {
  std::vector<uint8_t> StoredSlots;   ///< indexed by local slot
  std::vector<uint8_t> StoredGlobals; ///< indexed by global id
  bool HasCallOrMonitor = false;

  bool storesSlot(int32_t A) const {
    return (uint32_t)A < StoredSlots.size() && StoredSlots[(uint32_t)A];
  }
  bool storesGlobal(int32_t A) const {
    return (uint32_t)A < StoredGlobals.size() && StoredGlobals[(uint32_t)A];
  }
};

LoopMemFacts scanLoopMem(const MethodIL &IL, const Loop &L) {
  LoopMemFacts F;
  F.StoredSlots.assign(IL.numLocals(), 0);
  F.StoredGlobals.assign(IL.program().numGlobals(), 0);
  std::vector<NodeId> Stack;
  for (BlockId B : L.Blocks) {
    for (NodeId Root : IL.block(B).Trees) {
      Stack.assign(1, Root);
      while (!Stack.empty()) {
        const Node &N = IL.node(Stack.back());
        Stack.pop_back();
        if (N.Op == ILOp::StoreLocal && (uint32_t)N.A < F.StoredSlots.size())
          F.StoredSlots[(uint32_t)N.A] = 1;
        if (N.Op == ILOp::StoreGlobal &&
            (uint32_t)N.A < F.StoredGlobals.size())
          F.StoredGlobals[(uint32_t)N.A] = 1;
        if (N.Op == ILOp::Call || N.Op == ILOp::MonitorEnter ||
            N.Op == ILOp::MonitorExit)
          F.HasCallOrMonitor = true;
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
  }
  return F;
}

/// Size of the tree rooted at \p Id (shared nodes counted per edge).
uint32_t treeSize(const MethodIL &IL, NodeId Id) {
  uint32_t Size = 1;
  for (NodeId Kid : IL.node(Id).Kids)
    Size += treeSize(IL, Kid);
  return Size;
}

} // namespace

//===----------------------------------------------------------------------===//
// Loop canonicalization: give every loop header a dedicated preheader.
//===----------------------------------------------------------------------===//

bool jitml::runLoopCanonicalization(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    Ctx.charge(4);
    if (findPreheader(CIL, L) != InvalidBlock)
      continue;
    // Collect outside predecessors.
    std::vector<BlockId> Outside;
    for (BlockId P : CIL.block(L.Header).Preds)
      if (!L.contains(P))
        Outside.push_back(P);
    BlockId Pre = IL.makeBlock();
    Block &PB = IL.block(Pre);
    PB.Trees.push_back(IL.makeNode(ILOp::Goto, DataType::Void));
    PB.Handlers = CIL.block(L.Header).Handlers;
    PB.Reachable = true;
    IL.addEdge(Pre, L.Header);
    for (BlockId P : Outside)
      IL.replaceEdge(P, L.Header, Pre);
    if (L.Header == CIL.entryBlock())
      IL.setEntryBlock(Pre);
    Ctx.noteChange(TransformationKind::LoopCanonicalization);
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Loop-invariant code motion
//===----------------------------------------------------------------------===//

bool jitml::runLoopInvariantCodeMotion(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;

  // Scratch reused across loops, generation-stamped so each loop starts
  // from a clean map without refilling: this walk and the invariance memo
  // sit on the hottest compile path and hashing/allocating here dominated
  // the whole pass.
  std::vector<uint32_t> UsedOutside, MemoGen;
  std::vector<uint8_t> MemoVal;
  uint32_t Gen = 0;
  std::vector<NodeId> Stack;
  std::vector<std::pair<NodeId, unsigned>> Work;

  for (const Loop &L : LI.loops()) {
    BlockId Pre = findPreheader(CIL, L);
    if (Pre == InvalidBlock)
      continue;
    LoopMemFacts MF = scanLoopMem(CIL, L);

    // Hoisting under the previous loop may have grown the node arena.
    if (UsedOutside.size() < CIL.numNodes()) {
      UsedOutside.resize(CIL.numNodes(), 0);
      MemoGen.resize(CIL.numNodes(), 0);
      MemoVal.resize(CIL.numNodes(), 0);
    }
    ++Gen;

    // Which nodes are referenced outside the loop? Those cannot be
    // rewritten to a preheader temp (the temp might not dominate them).
    for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
      if (!CIL.block(B).Reachable || L.contains(B))
        continue;
      for (NodeId Root : CIL.block(B).Trees) {
        Stack.assign(1, Root);
        while (!Stack.empty()) {
          NodeId Id = Stack.back();
          Stack.pop_back();
          UsedOutside[Id] = Gen;
          for (NodeId Kid : CIL.node(Id).Kids)
            Stack.push_back(Kid);
        }
      }
    }

    auto Invariant = [&](auto &&Self, NodeId Id) -> bool {
      if (MemoGen[Id] == Gen)
        return MemoVal[Id] != 0;
      const Node &N = CIL.node(Id);
      Ctx.charge(1);
      bool Inv = false;
      switch (N.Op) {
      case ILOp::Const:
        Inv = true;
        break;
      case ILOp::LoadLocal:
        Inv = !MF.storesSlot(N.A);
        break;
      case ILOp::LoadGlobal:
        Inv = !MF.HasCallOrMonitor && !MF.storesGlobal(N.A);
        break;
      case ILOp::Add:
      case ILOp::Sub:
      case ILOp::Mul:
      case ILOp::Shl:
      case ILOp::Shr:
      case ILOp::Or:
      case ILOp::And:
      case ILOp::Xor:
      case ILOp::Neg:
      case ILOp::Conv:
      case ILOp::Cmp:
      case ILOp::CmpCond:
        Inv = true;
        break;
      case ILOp::Div:
      case ILOp::Rem: {
        // Speculating a division is only safe when it cannot trap.
        const Node &R = CIL.node(N.Kids[1]);
        Inv = isFloatType(N.Type) ||
              (R.Op == ILOp::Const && R.ConstI != 0);
        break;
      }
      default:
        Inv = false;
        break;
      }
      if (Inv)
        for (NodeId Kid : N.Kids)
          if (!Self(Self, Kid)) {
            Inv = false;
            break;
          }
      MemoGen[Id] = Gen;
      MemoVal[Id] = Inv ? 1 : 0;
      return Inv;
    };

    // Hoist maximal invariant subtrees found under loop treetops.
    for (BlockId B : L.Blocks) {
      const Block &Blk = CIL.block(B);
      for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
        // Fresh worklist per tree: (parent, kid index).
        Work.clear();
        for (unsigned KI = 0; KI < CIL.node(Blk.Trees[TI]).numKids(); ++KI)
          Work.emplace_back(Blk.Trees[TI], KI);
        while (!Work.empty()) {
          auto [Parent, KI] = Work.back();
          Work.pop_back();
          NodeId Id = CIL.node(Parent).Kids[KI];
          const Node &N = CIL.node(Id);
          bool Trivial = N.Op == ILOp::Const || N.Op == ILOp::LoadLocal;
          if (!Trivial && UsedOutside[Id] != Gen &&
              Invariant(Invariant, Id) && treeSize(CIL, Id) >= 2) {
            DataType T = N.Type;
            uint32_t Slot = IL.addLocal(T);
            NodeId Clone = Ctx.cloneTree(Id, nullptr);
            NodeId Store =
                IL.makeNode(ILOp::StoreLocal, DataType::Void, {Clone});
            IL.node(Store).A = (int32_t)Slot;
            Block &PB = IL.block(Pre);
            PB.Trees.insert(PB.Trees.end() - 1, Store); // before the Goto
            Ctx.rewriteToLoadLocal(Id, T, Slot);
            Ctx.noteChange(TransformationKind::LoopInvariantCodeMotion);
            Changed = true;
            continue; // node is now a LoadLocal; nothing to descend into
          }
          for (unsigned K2 = 0; K2 < CIL.node(Id).numKids(); ++K2)
            Work.emplace_back(Id, K2);
        }
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Unrolling (factor k; Factor == 0 means full unroll of short loops)
//===----------------------------------------------------------------------===//

bool jitml::runLoopUnrolling(PassContext &Ctx, unsigned Factor) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C))
      continue;
    int64_t Trips = tripCount(C);
    if (Trips <= 1)
      continue;
    const Block &WB = CIL.block(C.Body);
    size_t BodyTrees = WB.Trees.size() - 1; // excluding the Goto
    unsigned K = Factor;
    if (K == 0) {
      // Full unroll: modest trip counts and small bodies only.
      if (Trips > 8 || BodyTrees > 12)
        continue;
      K = (unsigned)Trips;
    }
    if (K < 2 || Trips % K != 0)
      continue;
    if (BodyTrees * K > 96)
      continue; // code-size guard
    // Never unroll call-bearing bodies: duplicating call sites multiplies
    // code size for no loop-overhead win worth having.
    bool HasCall = false;
    for (NodeId Root : WB.Trees) {
      std::vector<NodeId> Stack{Root};
      while (!Stack.empty() && !HasCall) {
        const Node &N = CIL.node(Stack.back());
        Stack.pop_back();
        if (N.Op == ILOp::Call)
          HasCall = true;
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
    if (HasCall)
      continue;
    Ctx.charge((double)BodyTrees * K * 3);
    // Replicate the body (including the induction update) K-1 more times
    // before the back edge. The header now tests every K iterations, which
    // is exact because Trips % K == 0.
    std::vector<NodeId> Original(WB.Trees.begin(),
                                 WB.Trees.end() - 1); // minus Goto
    for (unsigned Copy = 1; Copy < K; ++Copy) {
      for (NodeId Tree : Original) {
        NodeId Clone = Ctx.cloneTree(Tree, nullptr);
        Block &Body = IL.block(C.Body);
        Body.Trees.insert(Body.Trees.end() - 1, Clone);
      }
    }
    Ctx.noteChange(Factor == 0 ? TransformationKind::LoopFullUnrolling
                   : Factor >= 4
                       ? TransformationKind::LoopUnrollingAggressive
                       : TransformationKind::LoopUnrolling);
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Peeling: run the first iteration straight-line ahead of the loop.
//===----------------------------------------------------------------------===//

bool jitml::runLoopPeeling(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C) || C.Preheader == InvalidBlock)
      continue;
    const Block &WB = CIL.block(C.Body);
    if (WB.Trees.size() > 10)
      continue;
    // Like unrolling, peeling duplicates the body: keep call sites unique.
    bool HasCall = false;
    for (NodeId Root : WB.Trees) {
      std::vector<NodeId> Stack{Root};
      while (!Stack.empty() && !HasCall) {
        const Node &N = CIL.node(Stack.back());
        Stack.pop_back();
        if (N.Op == ILOp::Call)
          HasCall = true;
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
    if (HasCall)
      continue;
    Ctx.charge((double)WB.Trees.size() * 4);
    // Build guarded straight-line copies: preheader -> H' -> W' -> H.
    BlockId HCopy = IL.makeBlock();
    BlockId WCopy = IL.makeBlock();
    {
      Block &HB = IL.block(C.Header);
      Block &HC = IL.block(HCopy);
      HC.Handlers = HB.Handlers;
      HC.Reachable = true;
      HC.Trees.push_back(Ctx.cloneTree(HB.Trees.back(), nullptr));
    }
    {
      Block &WBody = IL.block(C.Body);
      Block &WC = IL.block(WCopy);
      WC.Handlers = WBody.Handlers;
      WC.Reachable = true;
      for (size_t TI = 0; TI + 1 < WBody.Trees.size(); ++TI)
        WC.Trees.push_back(Ctx.cloneTree(WBody.Trees[TI], nullptr));
      WC.Trees.push_back(IL.makeNode(ILOp::Goto, DataType::Void));
    }
    // Wire: preheader -> HCopy; HCopy branches to (exit | WCopy) in the
    // same orientation as the original header; WCopy -> Header.
    IL.replaceEdge(C.Preheader, C.Header, HCopy);
    const Block &HB = CIL.block(C.Header);
    for (BlockId S : std::vector<BlockId>(HB.Succs))
      IL.addEdge(HCopy, S == C.Body ? WCopy : S);
    IL.addEdge(WCopy, C.Header);
    Ctx.noteChange(TransformationKind::LoopPeeling);
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Bounds versioning: `for (i = c; i < a.length; i++) ... a[i]` needs no
// per-iteration bounds checks.
//===----------------------------------------------------------------------===//

bool jitml::runLoopBoundsVersioning(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C))
      continue;
    if (C.BoundArraySlot < 0 || !C.HasConstStart || C.Start < 0 ||
        C.Step != 1)
      continue;
    const Block &WB = CIL.block(C.Body);
    for (size_t TI = 0; TI < WB.Trees.size();) {
      const Node &N = CIL.node(WB.Trees[TI]);
      Ctx.charge(1);
      bool Removable = false;
      if (N.Op == ILOp::BoundsCheck && N.B == 0) {
        const Node &Arr = CIL.node(N.Kids[0]);
        const Node &Idx = CIL.node(N.Kids[1]);
        Removable = Arr.Op == ILOp::LoadLocal && Arr.A == C.BoundArraySlot &&
                    Idx.Op == ILOp::LoadLocal && Idx.A == C.IndVar;
      }
      if (Removable) {
        Block &MBlk = IL.block(C.Body);
        MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
        Ctx.noteChange(TransformationKind::LoopBoundsVersioning);
        Changed = true;
        continue;
      }
      ++TI;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Loop strength reduction: i * c becomes an additive recurrence.
//===----------------------------------------------------------------------===//

bool jitml::runLoopStrengthReduction(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C) || C.Preheader == InvalidBlock)
      continue;
    // Pre-count candidate multiplications per constant: one shared
    // recurrence amortizes its update traffic only when at least two
    // multiplies use it; single-use muls stay as (cheaper) multiplies.
    std::unordered_map<int64_t, uint32_t> MulCount;
    {
      const Block &Body = CIL.block(C.Body);
      for (size_t TI = 0; TI < C.IncTreeIdx; ++TI) {
        std::vector<NodeId> Stack{Body.Trees[TI]};
        while (!Stack.empty()) {
          const Node &N = CIL.node(Stack.back());
          Stack.pop_back();
          if (N.Op == ILOp::Mul && N.Kids.size() == 2 &&
              CIL.node(N.Kids[0]).Op == ILOp::LoadLocal &&
              CIL.node(N.Kids[0]).A == C.IndVar &&
              CIL.node(N.Kids[1]).Op == ILOp::Const)
            ++MulCount[CIL.node(N.Kids[1]).ConstI];
          for (NodeId Kid : N.Kids)
            Stack.push_back(Kid);
        }
      }
    }
    // Collect i*const multiplications in body trees before the increment.
    std::unordered_map<int64_t, uint32_t> TempForConst;
    const Block &WB = CIL.block(C.Body);
    for (size_t TI = 0; TI < C.IncTreeIdx; ++TI) {
      std::vector<NodeId> Stack{WB.Trees[TI]};
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        Ctx.charge(1);
        // Snapshot; we may rewrite the node below and makeNode calls can
        // reallocate the arena.
        ILOp NOp = Ctx.cil().node(Id).Op;
        DataType NType = Ctx.cil().node(Id).Type;
        const KidList &KL = Ctx.cil().node(Id).Kids;
        std::vector<NodeId> NKids(KL.begin(), KL.end());
        if (NOp == ILOp::Mul && isIntegerType(NType) && NKids.size() == 2) {
          const Node &Lk = CIL.node(NKids[0]);
          const Node &Rk = CIL.node(NKids[1]);
          if (Lk.Op == ILOp::LoadLocal && Lk.A == C.IndVar &&
              Rk.Op == ILOp::Const &&
              // Power-of-two multiplies belong to strength reduction: a
              // shift beats an additive recurrence with its extra local
              // traffic.
              (Rk.ConstI <= 0 || (Rk.ConstI & (Rk.ConstI - 1)) != 0) &&
              MulCount[Rk.ConstI] >= 2) {
            int64_t Mult = Rk.ConstI;
            DataType T = NType;
            uint32_t Temp;
            auto It = TempForConst.find(Mult);
            if (It != TempForConst.end()) {
              Temp = It->second;
            } else {
              Temp = IL.addLocal(T);
              TempForConst[Mult] = Temp;
              // Preheader: temp = i * c  (i == start there).
              NodeId IndLoad = IL.makeNode(ILOp::LoadLocal, T);
              IL.node(IndLoad).A = C.IndVar;
              NodeId Init = IL.makeNode(
                  ILOp::Mul, T, {IndLoad, IL.makeConstI(T, Mult)});
              NodeId Store =
                  IL.makeNode(ILOp::StoreLocal, DataType::Void, {Init});
              IL.node(Store).A = (int32_t)Temp;
              Block &PB = IL.block(C.Preheader);
              PB.Trees.insert(PB.Trees.end() - 1, Store);
              // Body (after the i update): temp += c * step.
              NodeId TempLoad = IL.makeNode(ILOp::LoadLocal, T);
              IL.node(TempLoad).A = (int32_t)Temp;
              NodeId Bump = IL.makeNode(
                  ILOp::Add, T,
                  {TempLoad, IL.makeConstI(T, Mult * C.Step)});
              NodeId BumpStore =
                  IL.makeNode(ILOp::StoreLocal, DataType::Void, {Bump});
              IL.node(BumpStore).A = (int32_t)Temp;
              Block &Body = IL.block(C.Body);
              Body.Trees.insert(Body.Trees.end() - 1, BumpStore);
            }
            Ctx.rewriteToLoadLocal(Id, T, Temp);
            Ctx.noteChange(TransformationKind::LoopStrengthReduction);
            Changed = true;
            continue;
          }
        }
        for (NodeId Kid : NKids)
          Stack.push_back(Kid);
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Induction-variable elimination: drop self-update recurrences nobody reads.
//===----------------------------------------------------------------------===//

bool jitml::runInductionVariableElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  // Loads per slot, excluding loads inside the slot's own update trees.
  std::vector<uint32_t> ForeignLoads(CIL.numLocals(), 0);
  struct Update {
    int32_t Slot;
    BlockId Block;
    size_t TreeIdx;
  };
  std::vector<Update> Updates; ///< in (block, tree index) order

  auto IsSelfUpdate = [&](const Node &Store) {
    if (Store.Op != ILOp::StoreLocal)
      return false;
    const Node &V = CIL.node(Store.Kids[0]);
    if (!isArithOp(V.Op) || V.Kids.size() != 2)
      return false;
    const Node &Lk = CIL.node(V.Kids[0]);
    const Node &Rk = CIL.node(V.Kids[1]);
    return Lk.Op == ILOp::LoadLocal && Lk.A == Store.A &&
           Rk.Op == ILOp::Const;
  };

  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
      const Node &Root = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (IsSelfUpdate(Root)) {
        Updates.push_back({Root.A, B, TI});
        continue; // its own load does not count as a foreign read
      }
      std::vector<NodeId> Stack{Blk.Trees[TI]};
      while (!Stack.empty()) {
        const Node &N = CIL.node(Stack.back());
        Stack.pop_back();
        if (N.Op == ILOp::LoadLocal)
          ++ForeignLoads[(uint32_t)N.A];
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
  }

  // A slot nobody else reads is a dead recurrence: every update of it
  // goes. The updates of all dead slots are erased together, last (block,
  // tree index) first, so no erase shifts a tree still to be erased; dead
  // slots may share a block.
  std::vector<uint8_t> Dead(CIL.numLocals(), 0);
  for (const Update &U : Updates) {
    if (ForeignLoads[(uint32_t)U.Slot] || Dead[(uint32_t)U.Slot])
      continue;
    Dead[(uint32_t)U.Slot] = 1;
    Ctx.noteChange(TransformationKind::InductionVariableElimination);
  }
  bool Changed = false;
  for (size_t K = Updates.size(); K-- > 0;) {
    const Update &U = Updates[K];
    if (!Dead[(uint32_t)U.Slot])
      continue;
    Block &Blk = IL.block(U.Block);
    Blk.Trees.erase(Blk.Trees.begin() + (std::ptrdiff_t)U.TreeIdx);
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Empty-loop removal
//===----------------------------------------------------------------------===//

bool jitml::runEmptyLoopRemoval(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C))
      continue;
    int64_t Trips = tripCount(C);
    if (Trips < 0)
      continue;
    const Block &WB = CIL.block(C.Body);
    // Body must be just the increment and the back edge.
    if (WB.Trees.size() != 2)
      continue;
    Ctx.charge(6);
    // Final induction value after the loop completes.
    int64_t Final =
        C.Start >= C.Bound ? C.Start : C.Start + Trips * C.Step;
    DataType T = DataType::Int32;
    // Rewrite the header: set i to its final value and fall out. The
    // pre-test check prefix (if any) keeps its exception semantics.
    std::vector<NodeId> Prefix(CIL.block(C.Header).Trees.begin(),
                               CIL.block(C.Header).Trees.end() - 1);
    NodeId FinalStore = IL.makeNode(ILOp::StoreLocal, DataType::Void,
                                    {IL.makeConstI(T, Final)});
    IL.node(FinalStore).A = C.IndVar;
    Block &Header = IL.block(C.Header);
    Header.Trees = Prefix;
    Header.Trees.push_back(FinalStore);
    Header.Trees.push_back(IL.makeNode(ILOp::Goto, DataType::Void));
    // Drop the body edge.
    Header.Succs.clear();
    {
      auto &WP = IL.block(C.Body).Preds;
      WP.erase(std::find(WP.begin(), WP.end(), C.Header));
      auto &EP = IL.block(C.Exit).Preds;
      (void)EP;
    }
    // Keep only the exit edge; it already lists Header among its preds.
    Header.Succs.push_back(C.Exit);
    Ctx.noteChange(TransformationKind::EmptyLoopRemoval);
    Changed = true;
  }
  if (Changed)
    IL.computeReachability();
  return Changed;
}

//===----------------------------------------------------------------------===//
// Idiom recognition: element-copy loops become an arraycopy intrinsic.
//===----------------------------------------------------------------------===//

bool jitml::runIdiomRecognition(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C))
      continue;
    if (!C.HasConstBound || !C.HasConstStart || C.Step != 1 || C.Start < 0 ||
        C.Bound <= C.Start)
      continue;
    const Block &WB = CIL.block(C.Body);
    // Validate the body: checks plus exactly one dst[i] = src[i] store.
    int32_t SrcSlot = -1, DstSlot = -1;
    bool Valid = true;
    int CopyStores = 0;
    for (size_t TI = 0; TI + 2 < WB.Trees.size() + 0 && Valid; ++TI) {
      if (TI == C.IncTreeIdx)
        continue;
      const Node &N = CIL.node(WB.Trees[TI]);
      Ctx.charge(1);
      switch (N.Op) {
      case ILOp::NullCheck:
      case ILOp::BoundsCheck:
        break; // subsumed by arraycopy's own checking
      case ILOp::StoreElem: {
        const Node &Arr = CIL.node(N.Kids[0]);
        const Node &Idx = CIL.node(N.Kids[1]);
        const Node &Val = CIL.node(N.Kids[2]);
        if (Arr.Op != ILOp::LoadLocal || Idx.Op != ILOp::LoadLocal ||
            Idx.A != C.IndVar || Val.Op != ILOp::LoadElem) {
          Valid = false;
          break;
        }
        const Node &SrcArr = CIL.node(Val.Kids[0]);
        const Node &SrcIdx = CIL.node(Val.Kids[1]);
        if (SrcArr.Op != ILOp::LoadLocal || SrcIdx.Op != ILOp::LoadLocal ||
            SrcIdx.A != C.IndVar || SrcArr.A == Arr.A) {
          Valid = false;
          break;
        }
        SrcSlot = SrcArr.A;
        DstSlot = Arr.A;
        ++CopyStores;
        break;
      }
      default:
        Valid = false;
        break;
      }
    }
    if (!Valid || CopyStores != 1)
      continue;
    Ctx.charge(10);
    // Rewrite the header into the intrinsic call followed by the exit.
    DataType IdxT = DataType::Int32;
    auto LoadSlot = [&](int32_t Slot, DataType T) {
      NodeId N = IL.makeNode(ILOp::LoadLocal, T);
      IL.node(N).A = Slot;
      return N;
    };
    NodeId Src = LoadSlot(SrcSlot, DataType::Address);
    NodeId Dst = LoadSlot(DstSlot, DataType::Address);
    NodeId CopyNode = IL.makeNode(
        ILOp::ArrayCopy, DataType::Void,
        {Src, IL.makeConstI(IdxT, C.Start), Dst, IL.makeConstI(IdxT, C.Start),
         IL.makeConstI(IdxT, C.Bound - C.Start)});
    NodeId FinalStore = IL.makeNode(ILOp::StoreLocal, DataType::Void,
                                    {IL.makeConstI(IdxT, C.Bound)});
    IL.node(FinalStore).A = C.IndVar;
    Block &Header = IL.block(C.Header);
    std::vector<NodeId> Prefix(Header.Trees.begin(),
                               Header.Trees.end() - 1);
    Header.Trees = Prefix;
    Header.Trees.push_back(
        IL.makeNode(ILOp::NullCheck, DataType::Void, {Src}));
    Header.Trees.push_back(
        IL.makeNode(ILOp::NullCheck, DataType::Void, {Dst}));
    Header.Trees.push_back(CopyNode);
    Header.Trees.push_back(FinalStore);
    Header.Trees.push_back(IL.makeNode(ILOp::Goto, DataType::Void));
    auto &WP = IL.block(C.Body).Preds;
    WP.erase(std::find(WP.begin(), WP.end(), C.Header));
    Header.Succs.clear();
    Header.Succs.push_back(C.Exit);
    Ctx.noteChange(TransformationKind::IdiomRecognition);
    Changed = true;
  }
  if (Changed)
    IL.computeReachability();
  return Changed;
}

//===----------------------------------------------------------------------===//
// Prefetch marking: strided element loads in loops get prefetch hints.
//===----------------------------------------------------------------------===//

bool jitml::runPrefetchInsertion(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const LoopInfo &LI = Ctx.loopInfo();
  bool Changed = false;
  for (const Loop &L : LI.loops()) {
    CanonicalLoop C;
    if (!recognize(CIL, L, C))
      continue;
    const Block &WB = CIL.block(C.Body);
    for (NodeId Root : WB.Trees) {
      std::vector<NodeId> Stack{Root};
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        const Node &N = CIL.node(Id);
        Ctx.charge(1);
        if (N.Op == ILOp::LoadElem && N.B == 0) {
          const Node &Idx = CIL.node(N.Kids[1]);
          if (Idx.Op == ILOp::LoadLocal && Idx.A == C.IndVar) {
            IL.node(Id).B = 1; // codegen: sequential, prefetch-friendly
            Ctx.noteChange(TransformationKind::PrefetchInsertion);
            Changed = true;
          }
        }
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
  }
  return Changed;
}
