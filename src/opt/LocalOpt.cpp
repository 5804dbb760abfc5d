//===- opt/LocalOpt.cpp - Block-scoped transformations --------------------===//
//
// Local copy propagation, local value numbering (CSE), redundant load
// elimination, dead tree/store elimination, rematerialization, store
// sinking, guard merging, throw fast-pathing, and allocation sinking.
//
// All of these respect the IL's evaluate-at-first-reference (DAG) semantics:
// commoning = making two parents reference one node; uncommoning
// (rematerialization) = cloning a shared node per parent.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "support/FlatTables.h"

#include <unordered_map>

using namespace jitml;

namespace {

/// Kinds of kills that invalidate available expressions inside a block.
/// One tracker serves a whole pass run; reset() starts the next block.
struct KillTracker {
  /// Epochs bump when the corresponding class of memory is clobbered.
  uint64_t FieldEpoch = 0;  ///< per-field granularity handled by key
  uint64_t ElemEpoch = 0;
  uint64_t GlobalEpoch = 0;
  StampedArray<uint64_t> LocalEpoch; ///< per slot
  StampedArray<uint64_t> FieldEpochOf;
  StampedArray<uint64_t> GlobalEpochOf;
  uint64_t Clock = 1;

  void reset() {
    FieldEpoch = ElemEpoch = GlobalEpoch = 0;
    LocalEpoch.clear();
    FieldEpochOf.clear();
    GlobalEpochOf.clear();
    Clock = 1;
  }

  void killLocal(int32_t Slot) { LocalEpoch.set(index(Slot), ++Clock); }
  void killField(int32_t Field) { FieldEpochOf.set(index(Field), ++Clock); }
  void killAllMemory() {
    ++Clock;
    FieldEpoch = Clock;
    ElemEpoch = Clock;
    GlobalEpoch = Clock;
  }
  void killElems() { ElemEpoch = ++Clock; }
  void killGlobal(int32_t Slot) { GlobalEpochOf.set(index(Slot), ++Clock); }

  uint64_t epochFor(const Node &N) const {
    switch (N.Op) {
    case ILOp::LoadLocal:
      return LocalEpoch.get(index(N.A));
    case ILOp::LoadField:
      return std::max(FieldEpochOf.get(index(N.A)), FieldEpoch);
    case ILOp::LoadElem:
      return ElemEpoch;
    case ILOp::LoadGlobal:
      return std::max(GlobalEpochOf.get(index(N.A)), GlobalEpoch);
    default:
      return 0; // ArrayLen is immutable; pure nodes never killed
    }
  }

  /// Slot, field and global payloads are non-negative table indices.
  static size_t index(int32_t Key) {
    assert(Key >= 0 && "negative slot, field or global index");
    return (size_t)(uint32_t)Key;
  }

  /// Applies the kills implied by executing statement \p Root.
  void applyStatement(const MethodIL &IL, NodeId Root) {
    const Node &N = IL.node(Root);
    switch (N.Op) {
    case ILOp::StoreLocal:
      killLocal(N.A);
      break;
    case ILOp::StoreField:
      killField(N.A);
      break;
    case ILOp::StoreElem:
      killElems();
      break;
    case ILOp::StoreGlobal:
      killGlobal(N.A);
      break;
    case ILOp::ArrayCopy:
      killElems();
      break;
    case ILOp::ExprStmt:
      if (IL.node(N.Kids[0]).Op == ILOp::Call)
        killAllMemory();
      break;
    case ILOp::MonitorEnter:
    case ILOp::MonitorExit:
      killAllMemory(); // synchronization is a full fence
      break;
    default:
      break;
    }
    // Calls nested under stores/returns also clobber memory.
    for (NodeId Kid : N.Kids)
      if (IL.node(Kid).Op == ILOp::Call)
        killAllMemory();
  }
};

/// Shared machinery for LocalValueNumbering and RedundantLoadElimination:
/// canonicalizes nodes within each block, replacing equal available
/// expressions by a single node. \p CommonMemoryReads selects whether
/// memory-reading leaves participate (RLE) or only register-pure
/// expressions (classic local CSE).
bool valueNumberBlocks(PassContext &Ctx, bool CommonMemoryReads,
                       bool CommonPure) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;

  // One scratch for the whole run, cleared per block. The pass creates no
  // nodes, so the node-indexed Canon table never grows.
  KillTracker Kills;
  struct Avail {
    NodeId Id;
    uint64_t BirthEpoch; ///< epoch of the memory class when recorded
  };
  HashChains<Avail> Table; ///< shallow hash -> available nodes, in order
  StampedArray<NodeId> Canon(CIL.numNodes());

  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    Kills.reset();
    Table.clear();
    Canon.clear();

    // Recursive canonicalization; kid slots are written back only when
    // they actually change (mutable access bumps the IL epoch).
    auto Canonical = [&](auto &&Self, NodeId Id) -> NodeId {
      if (Canon.has(Id))
        return Canon.get(Id);
      Ctx.charge(1);
      for (unsigned KI = 0; KI < CIL.node(Id).numKids(); ++KI) {
        NodeId Kid = CIL.node(Id).Kids[KI];
        NodeId C = Self(Self, Kid);
        if (C != Kid) {
          IL.node(Id).Kids[KI] = C;
          Changed = true;
        }
      }
      const Node &N = CIL.node(Id);
      bool IsMemRead = readsMemory(N.Op) || N.Op == ILOp::LoadLocal;
      bool Eligible =
          !hasSideEffects(N.Op) && N.Op != ILOp::LoadException &&
          (IsMemRead ? CommonMemoryReads || N.Op == ILOp::LoadLocal
                     : CommonPure);
      // LoadLocal participates in both modes: it is the bridge that lets
      // either pass recognize repeated subtrees.
      if (!Eligible) {
        Canon.set(Id, Id);
        return Id;
      }
      uint64_t H = shallowHashNode(N);
      uint64_t Birth = Kills.epochFor(N);
      // The first equal, still valid entry in insertion order wins.
      for (uint32_t E = Table.first(H); E != Table.None; E = Table.next(E)) {
        const Avail &A = Table.value(E);
        if (A.Id == Id)
          continue;
        if (!shallowEqualNodes(CIL.node(A.Id), N))
          continue;
        // The recorded value must still be valid: no kill since birth.
        if (Kills.epochFor(CIL.node(A.Id)) != A.BirthEpoch)
          continue;
        Canon.set(Id, A.Id);
        return A.Id;
      }
      Table.append(H, {Id, Birth});
      Canon.set(Id, Id);
      return Id;
    };

    for (NodeId Root : Blk.Trees) {
      for (unsigned KI = 0; KI < CIL.node(Root).numKids(); ++KI) {
        NodeId Kid = CIL.node(Root).Kids[KI];
        NodeId C = Canonical(Canonical, Kid);
        if (C != Kid) {
          IL.node(Root).Kids[KI] = C;
          Changed = true;
        }
      }
      Kills.applyStatement(CIL, Root);
    }
  }
  return Changed;
}

} // namespace

//===----------------------------------------------------------------------===//
// Local copy propagation: forward stored constants/copies to later loads.
//===----------------------------------------------------------------------===//

bool jitml::runLocalCopyPropagation(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  bool Changed = false;
  // Per-block tables, cleared at each block: slot -> defining node (Const
  // or LoadLocal of another slot), the slots given a def in the block
  // (some since killed), and the nodes visited.
  StampedArray<NodeId> Defs(IL.numLocals());
  std::vector<int32_t> DefSlots;
  StampedArray<bool> Visited(IL.numNodes());
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    const Block &Blk = IL.block(B);
    if (!Blk.Reachable)
      continue;
    Defs.clear();
    DefSlots.clear();
    Visited.clear();

    auto Propagate = [&](auto &&Self, NodeId Id) -> void {
      if (Visited.has(Id))
        return;
      Visited.set(Id, true);
      Ctx.charge(1);
      const Node &N = IL.node(Id);
      if (N.Op == ILOp::LoadLocal) {
        if (Defs.has((uint32_t)N.A)) {
          // Rewrite the load in place into a copy of its reaching def.
          // Under first-reference evaluation this is exact: the def value
          // cannot change between the store and this first reference.
          Ctx.rewriteToCopyOf(Id, Defs.get((uint32_t)N.A));
          Ctx.noteChange(TransformationKind::LocalCopyPropagation);
          Changed = true;
        }
        return;
      }
      for (NodeId Kid : N.Kids)
        Self(Self, Kid);
    };

    for (NodeId Root : Blk.Trees) {
      const Node &RootN = IL.node(Root);
      for (NodeId Kid : RootN.Kids)
        Propagate(Propagate, Kid);
      if (RootN.Op == ILOp::StoreLocal) {
        const Node &V = IL.node(RootN.Kids[0]);
        // Invalidate defs that referenced the overwritten slot.
        size_t Kept = 0;
        for (int32_t Slot : DefSlots) {
          if (!Defs.has((uint32_t)Slot))
            continue;
          const Node &D = IL.node(Defs.get((uint32_t)Slot));
          if (Slot == RootN.A || (D.Op == ILOp::LoadLocal && D.A == RootN.A))
            Defs.erase((uint32_t)Slot);
          else
            DefSlots[Kept++] = Slot;
        }
        DefSlots.resize(Kept);
        if (V.Op == ILOp::Const ||
            (V.Op == ILOp::LoadLocal && V.A != RootN.A)) {
          Defs.set((uint32_t)RootN.A, RootN.Kids[0]);
          DefSlots.push_back(RootN.A);
        }
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local value numbering / redundant load elimination
//===----------------------------------------------------------------------===//

bool jitml::runLocalValueNumbering(PassContext &Ctx) {
  bool Changed = valueNumberBlocks(Ctx, /*CommonMemoryReads=*/false,
                                   /*CommonPure=*/true);
  if (Changed)
    Ctx.noteChange(TransformationKind::LocalValueNumbering);
  return Changed;
}

bool jitml::runRedundantLoadElimination(PassContext &Ctx) {
  bool Changed = valueNumberBlocks(Ctx, /*CommonMemoryReads=*/true,
                                   /*CommonPure=*/false);
  if (Changed)
    Ctx.noteChange(TransformationKind::RedundantLoadElimination);
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead tree elimination: drop anchors whose value is unused and pure.
//===----------------------------------------------------------------------===//

bool jitml::runDeadTreeElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  std::vector<uint32_t> Refs = computeRefCounts(CIL);
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    for (size_t TI = 0; TI < Blk.Trees.size();) {
      NodeId Root = Blk.Trees[TI];
      const Node &N = CIL.node(Root);
      Ctx.charge(1);
      if (N.Op != ILOp::ExprStmt) {
        ++TI;
        continue;
      }
      NodeId Child = N.Kids[0];
      bool SoleReference = Refs[Child] == 1; // only this anchor
      bool Removable = false;
      if (Ctx.isPureAndMemoryFree(Child)) {
        // Value is position-independent; later references (if any) will
        // compute the same thing.
        Removable = true;
      } else if (SoleReference && Ctx.isPure(Child)) {
        // Memory-reading but used nowhere else: the read is simply dropped.
        Removable = true;
      }
      if (!Removable) {
        ++TI;
        continue;
      }
      Block &MBlk = IL.block(B);
      MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
      Ctx.noteChange(TransformationKind::DeadTreeElimination);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local dead store elimination: stores overwritten before any read.
//===----------------------------------------------------------------------===//

bool jitml::runDeadStoreElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  std::vector<NodeId> Stack; ///< tree-walk worklist, reused
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    bool HasHandlers = !Blk.Handlers.empty();
    for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::StoreLocal)
        continue;
      int32_t Slot = N.A;
      // Scan forward: a second store to the slot with no intervening load
      // of it makes this store dead. With handlers present, a throwing
      // statement in between could expose the stored value to the handler.
      bool Dead = false;
      for (size_t TJ = TI + 1; TJ < Blk.Trees.size(); ++TJ) {
        const Node &M = CIL.node(Blk.Trees[TJ]);
        bool ReadsSlot = false;
        Stack.assign(1, Blk.Trees[TJ]);
        while (!Stack.empty()) {
          const Node &K = CIL.node(Stack.back());
          Stack.pop_back();
          if (K.Op == ILOp::LoadLocal && K.A == Slot)
            ReadsSlot = true;
          for (NodeId Kid : K.Kids)
            Stack.push_back(Kid);
        }
        if (ReadsSlot)
          break;
        if (HasHandlers && ilCanThrow(M.Op))
          break;
        if (M.Op == ILOp::ExprStmt && ilCanThrow(CIL.node(M.Kids[0]).Op) &&
            HasHandlers)
          break;
        if (M.Op == ILOp::StoreLocal && M.A == Slot) {
          Dead = true;
          break;
        }
        if (isTerminatorOp(M.Op))
          break;
      }
      if (!Dead)
        continue;
      // Keep evaluation position for memory-reading values by converting
      // the store into a plain anchor; DeadTreeElimination will drop it
      // when that is also safe.
      Node &Store = IL.node(Blk.Trees[TI]);
      Store.Op = ILOp::ExprStmt;
      Store.A = 0;
      Ctx.noteChange(TransformationKind::DeadStoreElimination);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Rematerialization: clone cheap shared nodes to shorten live ranges.
//===----------------------------------------------------------------------===//

bool jitml::runRematerialization(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  std::vector<uint32_t> Refs = computeRefCounts(CIL);
  const MethodInfo &M = CIL.methodInfo();
  bool Changed = false;

  // "Uses BigDecimal ... may not be eligible for rematerialization because
  // the code generated outweighs the benefits": skip decimal-typed trees
  // in such methods.
  bool AvoidDecimal = false;
  for (NodeId Id = 0; Id < CIL.numNodes() && !AvoidDecimal; ++Id) {
    const Node &N = CIL.node(Id);
    if (N.Op != ILOp::Call)
      continue;
    const MethodInfo &Callee = CIL.program().methodAt((uint32_t)N.A);
    if (Callee.ClassIndex >= 0 &&
        CIL.program().classAt((uint32_t)Callee.ClassIndex).Kind ==
            ClassKind::BigDecimal)
      AvoidDecimal = true;
  }
  (void)M;

  auto IsCheap = [&](NodeId Id) {
    const Node &N = CIL.node(Id);
    if (AvoidDecimal && isDecimalType(N.Type))
      return false;
    // Only re-materialize values that cost (at most) one cycle to rebuild:
    // constants and local loads. Recomputing arithmetic per reference
    // costs more than the spill it saves on most machines.
    return N.Op == ILOp::Const || N.Op == ILOp::LoadLocal;
  };

  constexpr uint32_t PhysRegs = 16;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    // Rematerialization trades recompute for register pressure. Pressure
    // comes from values that live ACROSS treetop boundaries (commoned
    // nodes evaluated in one statement and reused in a later one); when
    // the maximum number of such crossing values fits the register file,
    // cloning would only add cycles.
    std::unordered_map<NodeId, std::pair<size_t, size_t>> Span;
    for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
      std::vector<NodeId> Stack{Blk.Trees[TI]};
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        const Node &N = CIL.node(Id);
        if (N.Type != DataType::Void) {
          auto It = Span.find(Id);
          if (It == Span.end())
            Span.emplace(Id, std::make_pair(TI, TI));
          else
            It->second.second = TI;
        }
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
    }
    uint32_t MaxPressure = 0;
    for (size_t TI = 0; TI + 1 < Blk.Trees.size(); ++TI) {
      uint32_t Crossing = 0;
      for (const auto &[Id, FL] : Span)
        if (FL.first <= TI && FL.second > TI)
          ++Crossing;
      MaxPressure = std::max(MaxPressure, Crossing);
      Ctx.charge(0.2);
    }
    if (MaxPressure <= PhysRegs)
      continue;
    // A shared node first referenced in tree T1 and again in tree T2 keeps
    // a value live across treetops; cloning the second reference frees it.
    // Re-evaluating a cloned node must produce the value of the original's
    // *first* evaluation, so every local a candidate loads must not have
    // been stored since the candidate was first seen. Track a per-slot
    // store version and snapshot it when a node first appears.
    std::vector<bool> SeenInBlock(CIL.numNodes(), false);
    std::unordered_map<int32_t, uint32_t> SlotVersion;
    std::unordered_map<NodeId, std::vector<std::pair<int32_t, uint32_t>>>
        BirthVersions;

    auto LoadedSlots = [&](NodeId Id) {
      std::vector<int32_t> Slots;
      std::vector<NodeId> Stack{Id};
      while (!Stack.empty()) {
        const Node &N = CIL.node(Stack.back());
        Stack.pop_back();
        if (N.Op == ILOp::LoadLocal)
          Slots.push_back(N.A);
        for (NodeId Kid : N.Kids)
          Stack.push_back(Kid);
      }
      return Slots;
    };
    auto StillCurrent = [&](NodeId Id) {
      auto It = BirthVersions.find(Id);
      if (It == BirthVersions.end())
        return true; // loads nothing mutable
      for (auto [Slot, Version] : It->second)
        if (SlotVersion[Slot] != Version)
          return false;
      return true;
    };

    for (NodeId Root : Blk.Trees) {
      std::vector<NodeId> Stack{Root};
      std::vector<NodeId> ThisTree;
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        ThisTree.push_back(Id);
        Ctx.charge(1);
        // Index-based kid access: cloneTree grows the node arena and would
        // invalidate references into it.
        for (unsigned KI = 0; KI < CIL.node(Id).numKids(); ++KI) {
          NodeId Kid = CIL.node(Id).Kids[KI];
          if (Kid < Refs.size() && Refs[Kid] > 1 && Kid < SeenInBlock.size() &&
              SeenInBlock[Kid] && IsCheap(Kid) && StillCurrent(Kid)) {
            NodeId Clone = Ctx.cloneTree(Kid, nullptr);
            --Refs[Kid];
            IL.node(Id).Kids[KI] = Clone;
            Ctx.noteChange(TransformationKind::Rematerialization);
            Changed = true;
            continue;
          }
          Stack.push_back(Kid);
        }
      }
      if (SeenInBlock.size() < CIL.numNodes())
        SeenInBlock.resize(CIL.numNodes(), false);
      for (NodeId Id : ThisTree) {
        if (!SeenInBlock[Id]) {
          SeenInBlock[Id] = true;
          std::vector<std::pair<int32_t, uint32_t>> Snapshot;
          for (int32_t Slot : LoadedSlots(Id))
            Snapshot.emplace_back(Slot, SlotVersion[Slot]);
          if (!Snapshot.empty())
            BirthVersions.emplace(Id, std::move(Snapshot));
        }
      }
      const Node &RootN = CIL.node(Root);
      if (RootN.Op == ILOp::StoreLocal)
        ++SlotVersion[RootN.A];
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Store sinking: move local stores toward their first use.
//===----------------------------------------------------------------------===//

bool jitml::runStoreSinking(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  std::vector<NodeId> Stack; ///< tree-walk worklist, reused
  std::vector<int32_t> InputSlots;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable || Blk.Trees.size() < 3)
      continue;
    bool HasHandlers = !Blk.Handlers.empty();
    for (size_t TI = 0; TI + 2 < Blk.Trees.size(); ++TI) {
      NodeId Root = Blk.Trees[TI];
      const Node &N = CIL.node(Root);
      if (N.Op != ILOp::StoreLocal)
        continue;
      int32_t Slot = N.A;
      bool ValueReadsMemory = !Ctx.isPureAndMemoryFree(N.Kids[0]);
      // Slots the candidate's value tree reads: an intervening store to
      // any of them would change the (re-)evaluated value.
      InputSlots.clear();
      {
        Stack.assign(1, N.Kids[0]);
        while (!Stack.empty()) {
          const Node &K = CIL.node(Stack.back());
          Stack.pop_back();
          if (K.Op == ILOp::LoadLocal)
            InputSlots.push_back(K.A);
          for (NodeId Kid : K.Kids)
            Stack.push_back(Kid);
        }
      }
      // Find the furthest sink position.
      size_t Target = TI;
      for (size_t TJ = TI + 1; TJ + 1 < Blk.Trees.size(); ++TJ) {
        const Node &M = CIL.node(Blk.Trees[TJ]);
        Ctx.charge(1);
        bool Blocks = false;
        Stack.assign(1, Blk.Trees[TJ]);
        while (!Stack.empty() && !Blocks) {
          const Node &K = CIL.node(Stack.back());
          Stack.pop_back();
          if (K.Op == ILOp::LoadLocal && K.A == Slot)
            Blocks = true;
          for (NodeId Kid : K.Kids)
            Stack.push_back(Kid);
        }
        if (M.Op == ILOp::StoreLocal && M.A == Slot)
          Blocks = true;
        if (M.Op == ILOp::StoreLocal)
          for (int32_t In : InputSlots)
            if (M.A == In)
              Blocks = true;
        if (ValueReadsMemory &&
            (M.Op == ILOp::StoreField || M.Op == ILOp::StoreElem ||
             M.Op == ILOp::StoreGlobal || M.Op == ILOp::ArrayCopy ||
             M.Op == ILOp::MonitorEnter || M.Op == ILOp::MonitorExit))
          Blocks = true;
        if (ValueReadsMemory && M.Op == ILOp::ExprStmt &&
            CIL.node(M.Kids[0]).Op == ILOp::Call)
          Blocks = true;
        if (HasHandlers && ilCanThrow(M.Op))
          Blocks = true;
        if (Blocks)
          break;
        Target = TJ;
      }
      if (Target == TI)
        continue;
      Block &MBlk = IL.block(B);
      MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
      MBlk.Trees.insert(MBlk.Trees.begin() + (std::ptrdiff_t)Target, Root);
      Ctx.noteChange(TransformationKind::StoreSinking);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Guard merging: fold a null check into the bounds check that follows it.
//===----------------------------------------------------------------------===//

bool jitml::runGuardMerging(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    for (size_t TI = 0; TI + 1 < Blk.Trees.size(); ++TI) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::NullCheck)
        continue;
      const Node &Next = CIL.node(Blk.Trees[TI + 1]);
      if (Next.Op != ILOp::BoundsCheck || Next.Kids[0] != N.Kids[0])
        continue;
      // Fuse: the bounds check now also performs the null check (B = 1 is
      // the fused flag the code generator honors with a single guard).
      IL.node(Blk.Trees[TI + 1]).B = 1;
      Block &MBlk = IL.block(B);
      MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
      Ctx.noteChange(TransformationKind::GuardMerging);
      Changed = true;
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Throw fast-pathing: throws of locally allocated exceptions skip the
// expensive unwind bookkeeping.
//===----------------------------------------------------------------------===//

bool jitml::runThrowFastPathing(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable || Blk.Trees.empty())
      continue;
    const Node &Term = CIL.node(Blk.Trees.back());
    Ctx.charge(1);
    if (Term.Op != ILOp::Throw || Term.B == 1)
      continue;
    if (CIL.node(Term.Kids[0]).Op != ILOp::New)
      continue;
    IL.node(Blk.Trees.back()).B = 1;
    Ctx.noteChange(TransformationKind::ThrowFastPathing);
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Allocation sinking: drop allocations that are never used and sink anchors
// of used ones toward their first use.
//===----------------------------------------------------------------------===//

bool jitml::runAllocationSinking(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  std::vector<uint32_t> Refs = computeRefCounts(CIL);
  bool Changed = false;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    for (size_t TI = 0; TI < Blk.Trees.size();) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::ExprStmt) {
        ++TI;
        continue;
      }
      const Node &Child = CIL.node(N.Kids[0]);
      bool IsAlloc = Child.Op == ILOp::New || Child.Op == ILOp::NewArray;
      // A dead allocation has exactly one reference: this anchor. Plain
      // `new` has no user-visible side effect in this VM (no finalizers),
      // so it can be removed outright. NewArray's length operand must stay
      // pure (a negative length would throw).
      if (IsAlloc && Refs[N.Kids[0]] == 1 &&
          (Child.Op == ILOp::New ||
           (Child.Kids.size() == 1 && Ctx.isPure(Child.Kids[0])))) {
        Block &MBlk = IL.block(B);
        MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
        Ctx.noteChange(TransformationKind::AllocationSinking);
        Changed = true;
        continue;
      }
      ++TI;
    }
  }
  return Changed;
}
