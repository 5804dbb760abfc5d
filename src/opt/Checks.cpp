//===- opt/Checks.cpp - Runtime check eliminations ------------------------===//
//
// Null/bounds/division/cast check elimination plus the implicit-check
// marking that lets the code generator fold a null check into the hardware
// trap of the dereference that follows it.
//
// All reasoning here leans on the IL's DAG semantics: a node id denotes one
// value per block execution, so two checks guarding the same node id are
// literally checking the same value.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "support/FlatTables.h"

using namespace jitml;

namespace {

bool isAllocation(ILOp Op) {
  return Op == ILOp::New || Op == ILOp::NewArray || Op == ILOp::NewMultiArray;
}

} // namespace

bool jitml::runNullCheckElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  // Per-block sets, cleared at each block. They grow on first use, so a
  // method without the checks a pass removes allocates nothing.
  StampedArray<bool> NonNullNodes;
  StampedArray<bool> NonNullSlots;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    NonNullNodes.clear();
    NonNullSlots.clear();
    for (size_t TI = 0; TI < Blk.Trees.size();) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op == ILOp::StoreLocal) {
        // A store of a fresh allocation makes the slot non-null.
        NonNullSlots.set((uint32_t)N.A, isAllocation(CIL.node(N.Kids[0]).Op));
      }
      if (N.Op != ILOp::NullCheck) {
        ++TI;
        continue;
      }
      NodeId Ref = N.Kids[0];
      const Node &RefN = CIL.node(Ref);
      bool Redundant = isAllocation(RefN.Op) || NonNullNodes.get(Ref) ||
                       (RefN.Op == ILOp::LoadLocal &&
                        NonNullSlots.get((uint32_t)RefN.A));
      if (Redundant) {
        Block &MBlk = IL.block(B);
        MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
        Ctx.noteChange(TransformationKind::NullCheckElimination);
        Changed = true;
        continue;
      }
      NonNullNodes.set(Ref, true);
      if (RefN.Op == ILOp::LoadLocal)
        NonNullSlots.set((uint32_t)RefN.A, true);
      ++TI;
    }
  }
  return Changed;
}

bool jitml::runBoundsCheckElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  // (array node, index node) pairs already checked in the block. Node ids
  // denote fixed values per execution, so repeats are redundant.
  KeySet Checked;
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    Checked.clear();
    for (size_t TI = 0; TI < Blk.Trees.size();) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::BoundsCheck) {
        ++TI;
        continue;
      }
      NodeId Arr = N.Kids[0], Idx = N.Kids[1];
      uint64_t Pair = (uint64_t)Arr << 32 | Idx;
      bool Redundant = false;
      // Fused checks (GuardMerging set B=1) still subsume later plain
      // checks on the same pair.
      if (Checked.contains(Pair))
        Redundant = true;
      // Constant index into an allocation with a constant length.
      const Node &ArrN = CIL.node(Arr);
      const Node &IdxN = CIL.node(Idx);
      if (!Redundant && ArrN.Op == ILOp::NewArray &&
          IdxN.Op == ILOp::Const) {
        const Node &Len = CIL.node(ArrN.Kids[0]);
        if (Len.Op == ILOp::Const && IdxN.ConstI >= 0 &&
            IdxN.ConstI < Len.ConstI)
          Redundant = true;
      }
      if (Redundant && N.B == 0) {
        Block &MBlk = IL.block(B);
        MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
        Ctx.noteChange(TransformationKind::BoundsCheckElimination);
        Changed = true;
        continue;
      }
      Checked.insert(Pair);
      ++TI;
    }
  }
  return Changed;
}

bool jitml::runDivCheckElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  StampedArray<bool> CheckedDivisors; ///< per block
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    CheckedDivisors.clear();
    for (size_t TI = 0; TI < Blk.Trees.size();) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::DivCheck) {
        ++TI;
        continue;
      }
      NodeId D = N.Kids[0];
      const Node &DN = CIL.node(D);
      bool Redundant = CheckedDivisors.get(D) ||
                       (DN.Op == ILOp::Const && DN.ConstI != 0);
      if (Redundant) {
        Block &MBlk = IL.block(B);
        MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
        Ctx.noteChange(TransformationKind::DivCheckElimination);
        Changed = true;
        continue;
      }
      CheckedDivisors.set(D, true);
      ++TI;
    }
  }
  return Changed;
}

bool jitml::runCastCheckElimination(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const Program &P = CIL.program();
  bool Changed = false;
  KeySet Passed; ///< (class, node) pairs passed in the block
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    Passed.clear();
    for (size_t TI = 0; TI < Blk.Trees.size();) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::CastCheck) {
        ++TI;
        continue;
      }
      NodeId Obj = N.Kids[0];
      const Node &ObjN = CIL.node(Obj);
      uint64_t Pair = (uint64_t)(uint32_t)N.A << 32 | Obj;
      bool Redundant = Passed.contains(Pair);
      // Statically known allocation class.
      if (!Redundant && ObjN.Op == ILOp::New &&
          P.isSubclassOf(ObjN.A, N.A))
        Redundant = true;
      if (Redundant) {
        Block &MBlk = IL.block(B);
        MBlk.Trees.erase(MBlk.Trees.begin() + (std::ptrdiff_t)TI);
        Ctx.noteChange(TransformationKind::CastCheckElimination);
        Changed = true;
        continue;
      }
      Passed.insert(Pair);
      ++TI;
    }
  }
  // Fold instanceof on fresh allocations (expression level).
  for (NodeId Id = 0; Id < CIL.numNodes(); ++Id) {
    const Node &N = CIL.node(Id);
    if (N.Op != ILOp::InstanceOf)
      continue;
    const Node &Obj = CIL.node(N.Kids[0]);
    if (Obj.Op != ILOp::New)
      continue;
    Ctx.rewriteToConstI(Id, DataType::Int32,
                        P.isSubclassOf(Obj.A, N.A) ? 1 : 0);
    Ctx.noteChange(TransformationKind::CastCheckElimination);
    Changed = true;
  }
  return Changed;
}

bool jitml::runImplicitExceptionChecks(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  std::vector<NodeId> Stack; ///< tree-walk worklist, reused
  for (BlockId B = 0; B < CIL.numBlocks(); ++B) {
    const Block &Blk = CIL.block(B);
    if (!Blk.Reachable)
      continue;
    for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
      const Node &N = CIL.node(Blk.Trees[TI]);
      Ctx.charge(1);
      if (N.Op != ILOp::NullCheck || N.B == 1)
        continue;
      NodeId Ref = N.Kids[0];
      // The check is free when a following statement in the same block
      // dereferences the same value: the memory access itself traps.
      bool Dereferenced = false;
      for (size_t TJ = TI + 1; TJ < Blk.Trees.size() && !Dereferenced;
           ++TJ) {
        Stack.assign(1, Blk.Trees[TJ]);
        while (!Stack.empty()) {
          const Node &K = CIL.node(Stack.back());
          Stack.pop_back();
          bool Deref = false;
          switch (K.Op) {
          case ILOp::LoadField:
          case ILOp::ArrayLen:
            Deref = K.Kids[0] == Ref;
            break;
          case ILOp::StoreField:
          case ILOp::LoadElem:
            Deref = K.Kids[0] == Ref;
            break;
          case ILOp::StoreElem:
            Deref = K.Kids[0] == Ref;
            break;
          default:
            break;
          }
          if (Deref) {
            Dereferenced = true;
            break;
          }
          for (NodeId Kid : K.Kids)
            Stack.push_back(Kid);
        }
      }
      if (!Dereferenced)
        continue;
      IL.node(Blk.Trees[TI]).B = 1; // codegen: folded into the access
      Ctx.noteChange(TransformationKind::ImplicitExceptionChecks);
      Changed = true;
    }
  }
  return Changed;
}
