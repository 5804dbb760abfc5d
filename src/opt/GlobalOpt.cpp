//===- opt/GlobalOpt.cpp - CFG-level transformations ----------------------===//
//
// Global constant/copy propagation, dominator-scoped value numbering,
// liveness-based dead store elimination, partial redundancy elimination,
// unreachable-code elimination, block merging, branch folding, jump
// threading, tail duplication, and cold-block marking.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "il/Dominators.h"
#include "il/LoopInfo.h"
#include "support/FlatTables.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace jitml;

namespace {

/// Walks every node under \p Root, calling \p Visit(NodeId) on a node and
/// then on its kids' subtrees, last kid first (a shared node is visited
/// once per reference). Recursive, so a walk allocates nothing; \p Visit
/// must not create nodes.
template <typename Fn>
void forEachNodeInTree(const MethodIL &IL, NodeId Root, Fn &&Visit) {
  Visit(Root);
  const KidList &Kids = IL.node(Root).Kids;
  for (size_t K = Kids.size(); K-- > 0;)
    forEachNodeInTree(IL, Kids[K], Visit);
}

/// Structural keys of expression trees, stored back to back: one atom per
/// node in pre-order, each carrying its kid count, so two keys are equal
/// exactly when their trees are. A key is a snapshot: the node it was
/// taken from may be rewritten later and the key still names the old
/// shape. Const payloads compare as their printf("%a") text would: by
/// bits, except that all NaNs of one sign are equal; +0.0 and -0.0 differ.
class TreeKeys {
public:
  struct Key {
    uint32_t Begin = 0, End = 0;
    uint64_t Hash = 0;
  };

  explicit TreeKeys(const MethodIL &IL) : IL(IL) {}

  /// Appends the key of the tree at \p Root.
  Key add(NodeId Root) {
    Key K;
    K.Begin = (uint32_t)Atoms.size();
    K.Hash = append(Root, 0xcbf29ce484222325ULL);
    K.End = (uint32_t)Atoms.size();
    return K;
  }
  void clear() { Atoms.clear(); }
  /// Drops \p K, the key added last.
  void drop(const Key &K) {
    assert(K.End == Atoms.size() && "only the last key can be dropped");
    Atoms.resize(K.Begin);
  }

  bool equal(const Key &A, const Key &B) const {
    if (A.Hash != B.Hash || A.End - A.Begin != B.End - B.Begin)
      return false;
    for (uint32_t I = 0; I < A.End - A.Begin; ++I)
      if (!(Atoms[A.Begin + I] == Atoms[B.Begin + I]))
        return false;
    return true;
  }

private:
  struct Atom {
    ILOp Op;
    DataType Type;
    uint32_t NumKids;
    int32_t A, B;
    int64_t ConstI;
    uint64_t FBits; ///< ConstF's bits, every NaN of one sign made one

    bool operator==(const Atom &O) const {
      return Op == O.Op && Type == O.Type && NumKids == O.NumKids &&
             A == O.A && B == O.B && ConstI == O.ConstI && FBits == O.FBits;
    }
  };

  static uint64_t mix(uint64_t H, uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
    return H;
  }

  uint64_t append(NodeId Id, uint64_t H) {
    const Node &N = IL.node(Id);
    uint64_t FBits;
    if (std::isnan(N.ConstF)) {
      FBits = std::signbit(N.ConstF) ? 0xfff8000000000000ULL
                                     : 0x7ff8000000000000ULL;
    } else {
      std::memcpy(&FBits, &N.ConstF, sizeof(FBits));
    }
    Atoms.push_back({N.Op, N.Type, (uint32_t)N.Kids.size(), N.A, N.B,
                     N.ConstI, FBits});
    H = mix(H, (uint64_t)N.Op << 40 | (uint64_t)N.Type << 32 | N.Kids.size());
    H = mix(H, (uint64_t)(uint32_t)N.A << 32 | (uint32_t)N.B);
    H = mix(H, (uint64_t)N.ConstI);
    H = mix(H, FBits);
    for (NodeId Kid : N.Kids)
      H = append(Kid, H);
    return H;
  }

  const MethodIL &IL;
  std::vector<Atom> Atoms;
};

/// Per-local liveness over the CFG (handler edges included). Sets are flat
/// 64-bit word rows (one row of W words per block): the backward fixpoint
/// runs on every GDSE invocation in the compile hot loop, and word-wise
/// or/and-not beats the old vector<vector<bool>> by an order of magnitude.
/// Rows are data() + offset: a method without locals has W == 0 and empty
/// vectors, which must not be indexed.
class Liveness {
public:
  explicit Liveness(const MethodIL &IL) : IL(IL) {
    uint32_t NB = IL.numBlocks();
    uint32_t NL = IL.numLocals();
    W = (NL + 63) / 64;
    Use.assign((size_t)NB * W, 0);
    Def.assign((size_t)NB * W, 0);
    LiveOut.assign((size_t)NB * W, 0);
    LiveIn.assign((size_t)NB * W, 0);

    for (BlockId B = 0; B < NB; ++B) {
      const Block &Blk = IL.block(B);
      if (!Blk.Reachable)
        continue;
      uint64_t *UseB = Use.data() + (size_t)B * W;
      uint64_t *DefB = Def.data() + (size_t)B * W;
      for (NodeId Root : Blk.Trees) {
        // Loads anywhere in the tree happen before the root store.
        forEachNodeInTree(IL, Root, [&](NodeId Id) {
          const Node &N = IL.node(Id);
          if (N.Op == ILOp::LoadLocal && !bit(DefB, (uint32_t)N.A))
            setBit(UseB, (uint32_t)N.A);
        });
        const Node &RootN = IL.node(Root);
        if (RootN.Op == ILOp::StoreLocal)
          setBit(DefB, (uint32_t)RootN.A);
      }
    }
    // Backward fixpoint. In = (Out & ~(Def & ~Use)) | Use.
    std::vector<uint64_t> Out(W);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (BlockId B = 0; B < NB; ++B) {
        const Block &Blk = IL.block(B);
        if (!Blk.Reachable)
          continue;
        std::fill(Out.begin(), Out.end(), 0);
        auto Merge = [&](BlockId S) {
          const uint64_t *InS = LiveIn.data() + (size_t)S * W;
          for (uint32_t I = 0; I < W; ++I)
            Out[I] |= InS[I];
        };
        for (BlockId S : Blk.Succs)
          Merge(S);
        for (const HandlerRef &H : Blk.Handlers)
          Merge(H.Handler);
        const uint64_t *UseB = Use.data() + (size_t)B * W;
        const uint64_t *DefB = Def.data() + (size_t)B * W;
        uint64_t *OutB = LiveOut.data() + (size_t)B * W;
        uint64_t *InB = LiveIn.data() + (size_t)B * W;
        for (uint32_t I = 0; I < W; ++I) {
          uint64_t In = (Out[I] & ~(DefB[I] & ~UseB[I])) | UseB[I];
          if (Out[I] != OutB[I] || In != InB[I]) {
            OutB[I] = Out[I];
            InB[I] = In;
            Changed = true;
          }
        }
      }
    }
  }

  bool liveOut(BlockId B, uint32_t Slot) const {
    return bit(LiveOut.data() + (size_t)B * W, Slot);
  }
  bool liveIn(BlockId B, uint32_t Slot) const {
    return bit(LiveIn.data() + (size_t)B * W, Slot);
  }

private:
  static bool bit(const uint64_t *Row, uint32_t I) {
    return (Row[I / 64] >> (I % 64)) & 1;
  }
  static void setBit(uint64_t *Row, uint32_t I) {
    Row[I / 64] |= uint64_t(1) << (I % 64);
  }

  const MethodIL &IL;
  uint32_t W = 0; ///< words per block row
  std::vector<uint64_t> Use, Def, LiveOut, LiveIn;
};

} // namespace

//===----------------------------------------------------------------------===//
// Global constant propagation over locals
//===----------------------------------------------------------------------===//

bool jitml::runGlobalCopyPropagation(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  uint32_t NL = IL.numLocals();
  struct Lattice {
    enum Kind : uint8_t { Top, ConstI, ConstF, Bottom } K = Top;
    int64_t I = 0;
    double F = 0;
    bool operator==(const Lattice &O) const {
      return K == O.K && I == O.I && F == O.F;
    }
  };
  auto Meet = [](const Lattice &A, const Lattice &B) {
    if (A.K == Lattice::Top)
      return B;
    if (B.K == Lattice::Top)
      return A;
    if (A == B)
      return A;
    return Lattice{Lattice::Bottom, 0, 0};
  };

  uint32_t NB = IL.numBlocks();
  // One flat row of NL lattice cells per block (a vector-of-vectors here
  // meant one allocation per block on every invocation of this pass).
  std::vector<Lattice> EntryState((size_t)NB * NL);
  // data() + offset, not &EntryState[...]: a method without locals has an
  // empty lattice, and indexing an empty vector is undefined.
  auto stateRow = [&](BlockId B) {
    return EntryState.data() + (size_t)B * NL;
  };
  // Parameters have unknown values.
  for (uint32_t L = 0; L < IL.methodInfo().numArgs(); ++L)
    stateRow(IL.entryBlock())[L] = {Lattice::Bottom, 0, 0};

  // Applies a block's stores to \p State in place (same transfer function
  // the old copy-in/copy-out version had, minus the per-call allocation).
  auto Transfer = [&](BlockId B, std::vector<Lattice> &State) {
    for (NodeId Root : IL.block(B).Trees) {
      Ctx.charge(1);
      const Node &N = IL.node(Root);
      if (N.Op != ILOp::StoreLocal)
        continue;
      const Node &V = IL.node(N.Kids[0]);
      if (V.Op == ILOp::Const) {
        if (isFloatType(V.Type))
          State[(uint32_t)N.A] = {Lattice::ConstF, 0, V.ConstF};
        else
          State[(uint32_t)N.A] = {Lattice::ConstI, V.ConstI, 0};
      } else {
        State[(uint32_t)N.A] = {Lattice::Bottom, 0, 0};
      }
    }
  };

  // Forward fixpoint in RPO. Handler blocks are conservatively Bottom: an
  // exception can arrive from any point in the protected region. Scratch
  // vectors live outside the loop — this runs every few plan entries and
  // the old per-block copies allocated in the hottest compile path.
  std::vector<BlockId> Rpo = IL.reversePostOrder();
  const Lattice BotCell{Lattice::Bottom, 0, 0};
  std::vector<Lattice> Out(NL);
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    for (BlockId B : Rpo) {
      if (IL.block(B).IsHandler) {
        Lattice *Row = stateRow(B);
        for (uint32_t L = 0; L < NL; ++L)
          if (!(Row[L] == BotCell)) {
            Row[L] = BotCell;
            Iterate = true;
          }
        continue;
      }
      const Lattice *Row = stateRow(B);
      Out.assign(Row, Row + NL);
      Transfer(B, Out);
      for (BlockId S : IL.block(B).Succs) {
        Lattice *Target = stateRow(S);
        for (uint32_t L = 0; L < NL; ++L) {
          Lattice M = Meet(Target[L], Out[L]);
          if (!(M == Target[L])) {
            Target[L] = M;
            Iterate = true;
          }
        }
      }
    }
  }

  // Rewrite loads whose reaching value is a constant. Visited is a
  // generation-stamped map reused across blocks (no per-block allocation).
  bool Changed = false;
  std::vector<uint32_t> Visited(IL.numNodes(), 0);
  uint32_t Gen = 0;
  std::vector<Lattice> State;
  for (BlockId B : Rpo) {
    State.assign(stateRow(B), stateRow(B) + NL);
    ++Gen;
    for (NodeId Root : IL.block(B).Trees) {
      forEachNodeInTree(IL, Root, [&](NodeId Id) {
        if (Visited[Id] == Gen)
          return;
        Visited[Id] = Gen;
        const Node &N = IL.node(Id);
        if (N.Op != ILOp::LoadLocal)
          return;
        const Lattice &V = State[(uint32_t)N.A];
        if (V.K == Lattice::ConstI && !isReferenceType(N.Type)) {
          Ctx.rewriteToConstI(Id, N.Type, V.I);
          Changed = true;
        } else if (V.K == Lattice::ConstF) {
          Ctx.rewriteToConstF(Id, N.Type, V.F);
          Changed = true;
        }
      });
      const Node &RootN = IL.node(Root);
      if (RootN.Op == ILOp::StoreLocal) {
        const Node &V = IL.node(RootN.Kids[0]);
        if (V.Op == ILOp::Const) {
          if (isFloatType(V.Type))
            State[(uint32_t)RootN.A] = {Lattice::ConstF, 0, V.ConstF};
          else
            State[(uint32_t)RootN.A] = {Lattice::ConstI, V.ConstI, 0};
        } else {
          State[(uint32_t)RootN.A] = {Lattice::Bottom, 0, 0};
        }
      }
    }
  }
  if (Changed)
    Ctx.noteChange(TransformationKind::GlobalCopyPropagation);
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dominator-scoped global value numbering
//===----------------------------------------------------------------------===//

bool jitml::runGlobalValueNumbering(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  // Cached across passes; this reference stays valid for the whole run
  // even after we mutate (the cache only swaps on the *next* request).
  const DominatorTree &DT = Ctx.dominators();

  // Def-once locals: their loads are stable everywhere after the def.
  std::vector<uint32_t> StoreCount(CIL.numLocals(), 0);
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    if (!CIL.block(B).Reachable)
      continue;
    for (NodeId Root : CIL.block(B).Trees) {
      const Node &N = CIL.node(Root);
      if (N.Op == ILOp::StoreLocal)
        ++StoreCount[(uint32_t)N.A];
    }
  }
  // Parameters are implicitly stored at entry.
  for (uint32_t L = 0; L < CIL.methodInfo().numArgs(); ++L)
    ++StoreCount[L];

  // Is the whole tree stable (pure, memory-free, only def-once locals)?
  auto IsStable = [&](auto &&Self, NodeId Id) -> bool {
    const Node &N = CIL.node(Id);
    if (N.Op == ILOp::LoadLocal)
      // Slots beyond the pass-entry count are temps this pass created,
      // and those are def-once by construction.
      return (uint32_t)N.A >= StoreCount.size() ||
             StoreCount[(uint32_t)N.A] <= 1;
    if (hasSideEffects(N.Op) || readsMemory(N.Op) ||
        N.Op == ILOp::LoadException)
      return false;
    for (NodeId Kid : N.Kids)
      if (!Self(Self, Kid))
        return false;
    return true;
  };

  // First occurrence of each stable expression shape, keyed by its tree as
  // it was when first seen.
  struct Occurrence {
    BlockId Block;
    size_t TreeIndex;
    NodeId Node;
    TreeKeys::Key Key;
    int32_t TempSlot = -1; ///< materialized on the second occurrence
  };
  std::vector<Occurrence> Occurrences;
  TreeKeys Keys(CIL);
  HashChains<uint32_t> Table; ///< key hash -> indices into Occurrences

  bool Changed = false;
  for (BlockId B : DT.rpo()) {
    const Block &Blk = CIL.block(B);
    for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
      // Consider candidate nodes: direct children of the treetop (the
      // biggest subtrees — maximal reuse).
      for (unsigned KI = 0; KI < CIL.node(Blk.Trees[TI]).numKids(); ++KI) {
        NodeId Cand = CIL.node(Blk.Trees[TI]).Kids[KI];
        Ctx.charge(2);
        const Node &CN = CIL.node(Cand);
        if (CN.Op == ILOp::Const || CN.Op == ILOp::LoadLocal)
          continue; // too cheap to be worth a temp
        if (!IsStable(IsStable, Cand))
          continue;
        TreeKeys::Key Key = Keys.add(Cand);
        uint32_t E = Table.first(Key.Hash);
        while (E != Table.None && !Keys.equal(Occurrences[Table.value(E)].Key,
                                              Key))
          E = Table.next(E);
        if (E == Table.None) {
          Table.append(Key.Hash, (uint32_t)Occurrences.size());
          Occurrences.push_back({B, TI, Cand, Key, -1});
          continue;
        }
        Keys.drop(Key);
        Occurrence &First = Occurrences[Table.value(E)];
        if (First.Node == Cand)
          continue; // same DAG node, nothing to do
        if (!DT.dominates(First.Block, B))
          continue;
        if (First.Block == B)
          continue; // local VN's job
        // Materialize a temp at the first occurrence if not done yet.
        if (First.TempSlot < 0) {
          uint32_t Slot = IL.addLocal(CIL.node(First.Node).Type);
          NodeId Clone = Ctx.cloneTree(First.Node, nullptr);
          NodeId Store =
              IL.makeNode(ILOp::StoreLocal, DataType::Void, {Clone});
          IL.node(Store).A = (int32_t)Slot;
          Block &FB = IL.block(First.Block);
          FB.Trees.insert(FB.Trees.begin() + (std::ptrdiff_t)First.TreeIndex,
                          Store);
          if (First.Block == B && First.TreeIndex <= TI)
            ++TI; // keep our index valid after the insert
          Ctx.rewriteToLoadLocal(First.Node, CIL.node(Clone).Type, Slot);
          First.TempSlot = (int32_t)Slot;
        }
        Ctx.rewriteToLoadLocal(Cand, CIL.node(First.Node).Type,
                               (uint32_t)First.TempSlot);
        Ctx.noteChange(TransformationKind::GlobalValueNumbering);
        Changed = true;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Liveness-based (global) dead store elimination
//===----------------------------------------------------------------------===//

bool jitml::runGlobalDeadStoreElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  Liveness LV(CIL);
  bool Changed = false;
  std::vector<uint8_t> Needed(CIL.numLocals());
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    bool HasHandlers = !Blk.Handlers.empty();
    // Walk backward tracking locals still needed after each point.
    for (uint32_t L = 0; L < CIL.numLocals(); ++L)
      Needed[L] = LV.liveOut(B, L);
    for (size_t TI = Blk.Trees.size(); TI-- > 0;) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op == ILOp::StoreLocal && !Needed[(uint32_t)N.A] &&
          !HasHandlers) {
        // Dead everywhere below: keep the value's evaluation as an anchor
        // (dead-tree elimination finishes the job when it is pure).
        Node &M = IL.node(Blk.Trees[TI]);
        M.Op = ILOp::ExprStmt;
        M.A = 0;
        Ctx.noteChange(TransformationKind::GlobalDeadStoreElimination);
        Changed = true;
        continue;
      }
      if (N.Op == ILOp::StoreLocal)
        Needed[(uint32_t)N.A] = false;
      forEachNodeInTree(CIL, Blk.Trees[TI], [&](NodeId Id) {
        const Node &K = CIL.node(Id);
        if (K.Op == ILOp::LoadLocal)
          Needed[(uint32_t)K.A] = true;
      });
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Partial redundancy elimination: hoist expressions computed identically in
// both arms of a branch into the branch block.
//===----------------------------------------------------------------------===//

bool jitml::runPartialRedundancyElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  TreeKeys Keys(CIL);
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable || Blk.Succs.size() != 2)
      continue;
    BlockId S0 = Blk.Succs[0], S1 = Blk.Succs[1];
    if (S0 == S1)
      continue;
    const Block &B0 = CIL.block(S0);
    const Block &B1 = CIL.block(S1);
    if (B0.Preds.size() != 1 || B1.Preds.size() != 1 || B0.IsHandler ||
        B1.IsHandler)
      continue;

    // Collect hoistable candidates from S0: pure, memory-free direct kids
    // of treetops. (Memory-free keeps the hoist trivially safe: evaluating
    // earlier cannot observe different state.)
    struct Cand {
      NodeId Id;
      TreeKeys::Key Key;
    };
    // Only expressions whose local inputs are not redefined before their
    // use in the successor may be hoisted; requiring the candidate to sit
    // in the successor's *first* treetop guarantees that.
    Keys.clear();
    auto Collect = [&](const Block &SB) {
      std::vector<Cand> Out;
      if (SB.Trees.empty())
        return Out;
      const Node &Root = CIL.node(SB.Trees.front());
      for (NodeId Kid : Root.Kids) {
        Ctx.charge(2);
        const Node &K = CIL.node(Kid);
        if (K.Op == ILOp::Const || K.Op == ILOp::LoadLocal)
          continue;
        if (!Ctx.isPureAndMemoryFree(Kid))
          continue;
        Out.push_back({Kid, Keys.add(Kid)});
      }
      return Out;
    };
    std::vector<Cand> C0 = Collect(B0);
    std::vector<Cand> C1 = Collect(B1);
    for (const Cand &A : C0) {
      for (const Cand &C : C1) {
        if (!Keys.equal(A.Key, C.Key) || A.Id == C.Id)
          continue;
        uint32_t Slot = IL.addLocal(CIL.node(A.Id).Type);
        NodeId Clone = Ctx.cloneTree(A.Id, nullptr);
        NodeId Store = IL.makeNode(ILOp::StoreLocal, DataType::Void, {Clone});
        IL.node(Store).A = (int32_t)Slot;
        // Insert before the branch terminator.
        Block &MBlk = IL.block(B);
        MBlk.Trees.insert(MBlk.Trees.end() - 1, Store);
        DataType T = CIL.node(Clone).Type;
        Ctx.rewriteToLoadLocal(A.Id, T, Slot);
        Ctx.rewriteToLoadLocal(C.Id, T, Slot);
        Ctx.noteChange(TransformationKind::PartialRedundancyElimination);
        Changed = true;
        break;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Unreachable-code elimination
//===----------------------------------------------------------------------===//

bool jitml::runUnreachableCodeElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  IL.computeReachability();
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    Ctx.charge(1);
    if (Blk.Reachable || Blk.Succs.empty())
      continue;
    // Scrub edges out of dead blocks so predecessor counts stay honest.
    for (BlockId S : std::vector<BlockId>(Blk.Succs)) {
      auto &P = IL.block(S).Preds;
      P.erase(std::remove(P.begin(), P.end(), B), P.end());
    }
    Block &MBlk = IL.block(B);
    MBlk.Succs.clear();
    MBlk.Trees.clear();
    Ctx.noteChange(TransformationKind::UnreachableCodeElimination);
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Branch folding: branches with constant condition become gotos.
//===----------------------------------------------------------------------===//

bool jitml::runBranchFolding(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable || Blk.Trees.empty())
      continue;
    const Node &Term = CIL.node(Blk.Trees.back());
    Ctx.charge(1);
    if (Term.Op != ILOp::Branch)
      continue;
    BlockId Taken = Blk.Succs[0], Fall = Blk.Succs[1];
    bool Fold = false;
    bool CondTrue = false;
    const Node &L = CIL.node(Term.Kids[0]);
    const Node &R = CIL.node(Term.Kids[1]);
    if (L.Op == ILOp::Const && R.Op == ILOp::Const) {
      int64_t C3;
      if (isFloatType(L.Type))
        C3 = L.ConstF < R.ConstF ? -1 : (L.ConstF > R.ConstF ? 1 : 0);
      else
        C3 = L.ConstI < R.ConstI ? -1 : (L.ConstI > R.ConstI ? 1 : 0);
      switch ((BcCond)Term.A) {
      case BcCond::Eq:
        CondTrue = C3 == 0;
        break;
      case BcCond::Ne:
        CondTrue = C3 != 0;
        break;
      case BcCond::Lt:
        CondTrue = C3 < 0;
        break;
      case BcCond::Ge:
        CondTrue = C3 >= 0;
        break;
      case BcCond::Gt:
        CondTrue = C3 > 0;
        break;
      case BcCond::Le:
        CondTrue = C3 <= 0;
        break;
      }
      Fold = true;
    } else if (Taken == Fall) {
      CondTrue = true; // either way, same place
      Fold = Ctx.isPureAndMemoryFree(Term.Kids[0]) &&
             Ctx.isPureAndMemoryFree(Term.Kids[1]);
    }
    if (!Fold)
      continue;
    BlockId Kept = CondTrue ? Taken : Fall;
    BlockId Dropped = CondTrue ? Fall : Taken;
    Node &MTerm = IL.node(Blk.Trees.back());
    MTerm.Op = ILOp::Goto;
    MTerm.Kids.clear();
    MTerm.A = 0;
    IL.block(B).Succs = {Kept};
    if (Dropped != Kept) {
      auto &P = IL.block(Dropped).Preds;
      P.erase(std::find(P.begin(), P.end(), B));
    } else {
      // Two edges to the same block collapse to one: drop one pred entry.
      auto &P = IL.block(Kept).Preds;
      P.erase(std::find(P.begin(), P.end(), B));
    }
    Ctx.noteChange(TransformationKind::BranchFolding);
    Changed = true;
  }
  if (Changed)
    IL.computeReachability();
  return Changed;
}

//===----------------------------------------------------------------------===//
// Jump threading: skip over empty goto-only blocks.
//===----------------------------------------------------------------------===//

bool jitml::runJumpThreading(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  auto IsTrivialGoto = [&](BlockId B) {
    const Block &Blk = CIL.block(B);
    return Blk.Reachable && !Blk.IsHandler && Blk.Trees.size() == 1 &&
           CIL.node(Blk.Trees[0]).Op == ILOp::Goto;
  };
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    for (BlockId S : std::vector<BlockId>(Blk.Succs)) {
      Ctx.charge(1);
      if (!IsTrivialGoto(S))
        continue;
      BlockId Target = CIL.block(S).Succs[0];
      if (Target == S || Target == B)
        continue;
      IL.replaceEdge(B, S, Target);
      Ctx.noteChange(TransformationKind::JumpThreading);
      Changed = true;
    }
  }
  if (Changed)
    IL.computeReachability();
  return Changed;
}

//===----------------------------------------------------------------------===//
// Block merging: collapse straight-line goto chains.
//===----------------------------------------------------------------------===//

bool jitml::runBlockMerging(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  bool Merged = true;
  while (Merged) {
    Merged = false;
    for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
      const Block &Blk = CIL.block(B);
      if (!Blk.Reachable || Blk.Trees.empty())
        continue;
      Ctx.charge(1);
      if (CIL.node(Blk.Trees.back()).Op != ILOp::Goto ||
          Blk.Succs.size() != 1)
        continue;
      BlockId S = Blk.Succs[0];
      if (S == B || S == CIL.entryBlock())
        continue;
      const Block &Next = CIL.block(S);
      if (Next.Preds.size() != 1 || Next.IsHandler)
        continue;
      // Handler scopes must match or the merged code would be covered by
      // the wrong try regions.
      auto SameHandlers = [&] {
        if (Blk.Handlers.size() != Next.Handlers.size())
          return false;
        for (size_t I = 0; I < Blk.Handlers.size(); ++I)
          if (Blk.Handlers[I].Handler != Next.Handlers[I].Handler ||
              Blk.Handlers[I].ClassIndex != Next.Handlers[I].ClassIndex)
            return false;
        return true;
      };
      if (!SameHandlers())
        continue;
      // Splice: drop our goto, take S's trees and successors.
      Block &MBlk = IL.block(B);
      Block &MNext = IL.block(S);
      MBlk.Trees.pop_back();
      for (NodeId T : MNext.Trees)
        MBlk.Trees.push_back(T);
      MBlk.Succs = MNext.Succs;
      for (BlockId NS : MNext.Succs) {
        auto &P = IL.block(NS).Preds;
        std::replace(P.begin(), P.end(), S, B);
      }
      MNext.Trees.clear();
      MNext.Succs.clear();
      MNext.Preds.clear();
      MNext.Reachable = false;
      Ctx.noteChange(TransformationKind::BlockMerging);
      Changed = Merged = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Tail duplication: copy tiny join blocks into their goto predecessors.
//===----------------------------------------------------------------------===//

bool jitml::runTailDuplication(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  for (BlockId S = 0; S < CIL.numBlocks(); ++S) {
    const Block &Join = CIL.block(S);
    if (!Join.Reachable || Join.IsHandler || Join.Preds.size() < 2)
      continue;
    if (Join.Trees.size() > 4)
      continue;
    const Node &Term = CIL.node(Join.Trees.back());
    if (Term.Op != ILOp::Return && Term.Op != ILOp::Goto)
      continue;
    // Duplicate into predecessors that reach us by an unconditional goto
    // and share our handler scope.
    auto SameHandlers = [&](const Block &P) {
      if (P.Handlers.size() != Join.Handlers.size())
        return false;
      for (size_t I = 0; I < P.Handlers.size(); ++I)
        if (P.Handlers[I].Handler != Join.Handlers[I].Handler)
          return false;
      return true;
    };
    std::vector<BlockId> Preds = Join.Preds;
    for (BlockId P : Preds) {
      if (CIL.block(S).Preds.size() <= 1)
        break; // keep one inline path
      const Block &Pred = CIL.block(P);
      if (P == S || !Pred.Reachable || Pred.Trees.empty())
        continue;
      if (CIL.node(Pred.Trees.back()).Op != ILOp::Goto ||
          Pred.Succs.size() != 1 || Pred.Succs[0] != S)
        continue;
      if (!SameHandlers(Pred))
        continue;
      Ctx.charge((double)Join.Trees.size() * 3);
      // Clone the join's trees in place of the predecessor's goto.
      IL.block(P).Trees.pop_back();
      for (NodeId T : std::vector<NodeId>(CIL.block(S).Trees))
        IL.block(P).Trees.push_back(Ctx.cloneTree(T, nullptr));
      IL.block(P).Succs.clear();
      {
        auto &JP = IL.block(S).Preds;
        JP.erase(std::find(JP.begin(), JP.end(), P));
      }
      for (BlockId NS : std::vector<BlockId>(CIL.block(S).Succs))
        IL.addEdge(P, NS);
      Ctx.noteChange(TransformationKind::TailDuplication);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Cold-block marking for outlined layout
//===----------------------------------------------------------------------===//

bool jitml::runColdBlockOutlining(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  // Reuse the cached loop forest for the frequency annotation; the
  // annotate overload only touches blocks whose frequency actually moves,
  // and a moved frequency counts as a change (it bumped the epoch).
  bool Changed = LoopInfo::annotateFrequencies(IL, Ctx.loopInfo());
  if (Changed)
    Ctx.noteChange(TransformationKind::ColdBlockOutlining);
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    Ctx.charge(1);
    if (!Blk.Reachable)
      continue;
    bool Cold = Blk.Frequency <= 0.05 || Blk.IsHandler;
    if (Cold != Blk.Cold) {
      IL.block(B).Cold = Cold;
      Ctx.noteChange(TransformationKind::ColdBlockOutlining);
      Changed = true;
    }
  }
  return Changed;
}
