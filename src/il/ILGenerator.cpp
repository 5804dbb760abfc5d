//===- il/ILGenerator.cpp -------------------------------------------------===//

#include "il/ILGenerator.h"

#include "bytecode/Verifier.h"

#include <algorithm>

using namespace jitml;

namespace {

/// One abstract operand-stack entry during generation.
struct StackEntry {
  NodeId Node = InvalidNode;
  DataType Type = DataType::Void;
};

class Generator {
public:
  Generator(const Program &P, uint32_t MethodIndex)
      : Prog(P), M(P.methodAt(MethodIndex)),
        IL(std::make_unique<MethodIL>(P, MethodIndex)) {}

  std::unique_ptr<MethodIL> run();

private:
  void findLeaders();
  void computeEntryStacks();
  void generateBlock(uint32_t LeaderPc, uint32_t EndPc);
  void translateBlock(uint32_t LeaderPc, uint32_t EndPc);

  StackEntry pop() {
    assert(!Stack.empty() && "pop from empty abstract stack");
    StackEntry E = Stack.back();
    Stack.pop_back();
    return E;
  }
  void push(NodeId N) {
    Stack.push_back({N, IL->node(N).Type});
  }
  void addTree(NodeId Tree) { BlockTrees.push_back(Tree); }

  /// Emits an ExprStmt treetop anchoring \p N at the current position so
  /// that its value is computed here and merely reused later.
  void anchor(NodeId N) {
    addTree(IL->makeNode(ILOp::ExprStmt, DataType::Void, {N}));
  }

  /// Anchors pending stack entries that a store/call about to be emitted
  /// could invalidate. \p KilledLocal is the local slot being written
  /// (-1 when the kill is a memory write or call).
  void anchorConflicts(int32_t KilledLocal, bool KillsMemory);

  /// Spills the abstract stack to the synthetic stack-temp locals used at
  /// block boundaries. Leaves the stack empty.
  void spillStack();

  /// Returns the stack-temp local slot for stack position \p Depth holding
  /// type \p T, creating it on first use.
  uint32_t stackTempSlot(unsigned Depth, DataType T);

  /// Finishes the current block with a fallthrough Goto to \p TargetPc.
  void fallthroughTo(uint32_t TargetPc);

  BlockId blockAtPc(uint32_t Pc) const {
    assert(BlockOfLeader[Pc] != InvalidBlock && "no block at target pc");
    return BlockOfLeader[Pc];
  }

  const Program &Prog;
  const MethodInfo &M;
  std::unique_ptr<MethodIL> IL;

  // Per-pc tables, sized to the bytecode once per run.
  std::vector<uint32_t> Leaders; ///< sorted leader pcs
  std::vector<BlockId> BlockOfLeader; ///< InvalidBlock off a leader
  std::vector<bool> IsHandlerPc;
  /// Whether any path reaches the pc, and the type stack it enters with
  /// (kept for leaders only; see computeEntryStacks).
  std::vector<uint8_t> Reached;
  std::vector<std::vector<DataType>> EntryTypes;

  /// The stack-temp local for each (depth, type) seen at a block boundary.
  /// A method has a handful, so a linear scan beats any map.
  struct StackTemp {
    unsigned Depth;
    DataType Type;
    uint32_t Slot;
  };
  std::vector<StackTemp> StackTemps;

  std::vector<StackEntry> Stack;
  /// The current block's treetops, stored into the block once it is done.
  std::vector<NodeId> BlockTrees;
  std::vector<NodeId> Operands; ///< kid list scratch for wide nodes
  BlockId CurBlock = InvalidBlock;
};

void Generator::findLeaders() {
  std::vector<bool> Leader(M.Code.size(), false);
  IsHandlerPc.assign(M.Code.size(), false);
  Leader[0] = true;
  for (uint32_t Pc = 0; Pc < M.Code.size(); ++Pc) {
    const BcInst &I = M.Code[Pc];
    switch (I.Op) {
    case BcOp::IfCmp:
    case BcOp::If:
    case BcOp::IfRef:
      Leader[(uint32_t)I.B] = true;
      if (Pc + 1 < M.Code.size())
        Leader[Pc + 1] = true;
      break;
    case BcOp::Goto:
      Leader[(uint32_t)I.A] = true;
      if (Pc + 1 < M.Code.size())
        Leader[Pc + 1] = true;
      break;
    case BcOp::Return:
    case BcOp::Throw:
      if (Pc + 1 < M.Code.size())
        Leader[Pc + 1] = true;
      break;
    default:
      break;
    }
  }
  for (const ExceptionEntry &E : M.ExceptionTable) {
    Leader[E.HandlerPc] = true;
    IsHandlerPc[E.HandlerPc] = true;
    // Try boundaries are leaders so a block never straddles a region edge.
    Leader[E.StartPc] = true;
    if (E.EndPc < M.Code.size())
      Leader[E.EndPc] = true;
  }
  for (uint32_t Pc = 0; Pc < M.Code.size(); ++Pc)
    if (Leader[Pc])
      Leaders.push_back(Pc);
  // The stand-ins' methods make 1.3 nodes per instruction on average and
  // at most 1.46; the node table regrows past this if it must.
  uint32_t CodeSize = (uint32_t)M.Code.size();
  IL->reserve(CodeSize + CodeSize / 2, (uint32_t)Leaders.size());
  BlockOfLeader.assign(M.Code.size(), InvalidBlock);
  for (uint32_t Pc : Leaders) {
    BlockId B = IL->makeBlock();
    BlockOfLeader[Pc] = B;
    IL->block(B).IsHandler = IsHandlerPc[Pc];
  }
  IL->setEntryBlock(BlockOfLeader[0]);

  // Attach handler references: a block is covered by every try region that
  // contains its leader pc. Innermost (smallest) regions first.
  struct Region {
    uint32_t Size;
    HandlerRef Ref;
    uint32_t Start, End;
  };
  std::vector<Region> Covering;
  for (uint32_t Pc : Leaders) {
    Covering.clear();
    for (const ExceptionEntry &E : M.ExceptionTable)
      if (Pc >= E.StartPc && Pc < E.EndPc)
        Covering.push_back({E.EndPc - E.StartPc,
                            {blockAtPc(E.HandlerPc), E.ClassIndex},
                            E.StartPc, E.EndPc});
    std::stable_sort(Covering.begin(), Covering.end(),
                     [](const Region &A, const Region &B) {
                       return A.Size < B.Size;
                     });
    for (const Region &R : Covering)
      IL->block(blockAtPc(Pc)).Handlers.push_back(R.Ref);
  }
}

void Generator::computeEntryStacks() {
  // Propagates type stacks to every pc, breadth first from the entry and
  // the handlers. The code is verified, so depths agree at joins; each pc
  // keeps the first stack that reaches it, and enters the FIFO once. Only
  // leaders' stacks are read afterwards, so a straight-line pc hands its
  // stack on to its successor by move instead of by copy.
  Reached.assign(M.Code.size(), 0);
  EntryTypes.resize(M.Code.size());
  std::vector<uint32_t> Work;
  Work.reserve(M.Code.size());
  Reached[0] = 1;
  Work.push_back(0);
  for (const ExceptionEntry &E : M.ExceptionTable) {
    if (!Reached[E.HandlerPc]) {
      Reached[E.HandlerPc] = 1;
      EntryTypes[E.HandlerPc] = {DataType::Object};
      Work.push_back(E.HandlerPc);
    }
  }
  for (size_t Head = 0; Head < Work.size(); ++Head) {
    uint32_t Pc = Work[Head];
    std::vector<DataType> TypeStack = BlockOfLeader[Pc] != InvalidBlock
                                          ? EntryTypes[Pc]
                                          : std::move(EntryTypes[Pc]);
    const BcInst &I = M.Code[Pc];
    unsigned Pops = 0, Pushes = 0;
    bool Ok = stackEffect(Prog, M, I, Pops, Pushes);
    assert(Ok && "unverified bytecode reached IL generation");
    (void)Ok;
    assert(TypeStack.size() >= Pops && "stack underflow in verified code");
    for (unsigned K = 0; K < Pops; ++K)
      TypeStack.pop_back();
    if (Pushes == 1) {
      DataType T = I.Type;
      switch (I.Op) {
      case BcOp::ArrayLen:
      case BcOp::Cmp:
      case BcOp::InstanceOf:
      case BcOp::ArrayCmp:
        T = DataType::Int32;
        break;
      case BcOp::New:
        T = DataType::Object;
        break;
      case BcOp::NewArray:
      case BcOp::NewMultiArray:
        T = DataType::Address;
        break;
      case BcOp::CheckCast:
        T = DataType::Object;
        break;
      default:
        break;
      }
      TypeStack.push_back(T);
    } else if (Pushes == 2) {
      assert(I.Op == BcOp::Dup && "only dup pushes two values");
      TypeStack.push_back(I.Type);
      TypeStack.push_back(I.Type);
    }

    // The last successor takes the stack by move.
    auto FlowTo = [&](uint32_t Target, bool Last) {
      if (Reached[Target])
        return;
      Reached[Target] = 1;
      if (Last)
        EntryTypes[Target] = std::move(TypeStack);
      else
        EntryTypes[Target] = TypeStack;
      Work.push_back(Target);
    };
    switch (I.Op) {
    case BcOp::IfCmp:
    case BcOp::If:
    case BcOp::IfRef:
      FlowTo((uint32_t)I.B, false);
      FlowTo(Pc + 1, true);
      break;
    case BcOp::Goto:
      FlowTo((uint32_t)I.A, true);
      break;
    case BcOp::Return:
    case BcOp::Throw:
      break;
    default:
      FlowTo(Pc + 1, true);
      break;
    }
  }
}

uint32_t Generator::stackTempSlot(unsigned Depth, DataType T) {
  for (const StackTemp &S : StackTemps)
    if (S.Depth == Depth && S.Type == T)
      return S.Slot;
  uint32_t Slot = IL->addLocal(T);
  StackTemps.push_back({Depth, T, Slot});
  return Slot;
}

void Generator::spillStack() {
  for (unsigned D = 0; D < Stack.size(); ++D) {
    uint32_t Slot = stackTempSlot(D, Stack[D].Type);
    NodeId Store =
        IL->makeNode(ILOp::StoreLocal, DataType::Void, {Stack[D].Node});
    IL->node(Store).A = (int32_t)Slot;
    addTree(Store);
  }
  Stack.clear();
}

void Generator::anchorConflicts(int32_t KilledLocal, bool KillsMemory) {
  for (StackEntry &E : Stack) {
    const Node &N = IL->node(E.Node);
    bool Conflicts = false;
    if (KilledLocal >= 0 && N.Op == ILOp::LoadLocal && N.A == KilledLocal)
      Conflicts = true;
    if (KillsMemory && readsMemory(N.Op))
      Conflicts = true;
    if (Conflicts)
      anchor(E.Node);
  }
}

void Generator::fallthroughTo(uint32_t TargetPc) {
  spillStack();
  addTree(IL->makeNode(ILOp::Goto, DataType::Void));
  IL->addEdge(CurBlock, blockAtPc(TargetPc));
}

void Generator::generateBlock(uint32_t LeaderPc, uint32_t EndPc) {
  CurBlock = blockAtPc(LeaderPc);
  Stack.clear();
  BlockTrees.clear();
  translateBlock(LeaderPc, EndPc);
  IL->block(CurBlock).Trees = BlockTrees;
}

void Generator::translateBlock(uint32_t LeaderPc, uint32_t EndPc) {
  if (!Reached[LeaderPc]) {
    // Statically unreachable block (e.g. code after an unconditional
    // branch with no inbound edges). Emit a trivial terminator.
    if (M.ReturnType == DataType::Void) {
      addTree(IL->makeNode(ILOp::Return, DataType::Void));
    } else {
      NodeId Zero = isFloatType(M.ReturnType)
                        ? IL->makeConstF(M.ReturnType, 0.0)
                        : IL->makeConstI(M.ReturnType, 0);
      addTree(IL->makeNode(ILOp::Return, DataType::Void, {Zero}));
    }
    return;
  }

  const std::vector<DataType> &Entry = EntryTypes[LeaderPc];
  if (IsHandlerPc[LeaderPc]) {
    assert(Entry.size() == 1 && "handler entry stack must be [exc]");
    push(IL->makeNode(ILOp::LoadException, DataType::Object));
  } else {
    for (unsigned D = 0; D < Entry.size(); ++D) {
      uint32_t Slot = stackTempSlot(D, Entry[D]);
      NodeId Load = IL->makeNode(ILOp::LoadLocal, Entry[D]);
      IL->node(Load).A = (int32_t)Slot;
      push(Load);
    }
  }

  for (uint32_t Pc = LeaderPc; Pc < EndPc; ++Pc) {
    const BcInst &I = M.Code[Pc];
    switch (I.Op) {
    case BcOp::Nop:
      break;
    case BcOp::Const:
      if (isFloatType(I.Type))
        push(IL->makeConstF(I.Type, I.ImmF));
      else
        push(IL->makeConstI(I.Type, I.ImmI));
      break;
    case BcOp::Load: {
      NodeId N = IL->makeNode(ILOp::LoadLocal, I.Type);
      IL->node(N).A = I.A;
      push(N);
      break;
    }
    case BcOp::Store: {
      StackEntry V = pop();
      anchorConflicts(I.A, /*KillsMemory=*/false);
      NodeId Store = IL->makeNode(ILOp::StoreLocal, DataType::Void, {V.Node});
      IL->node(Store).A = I.A;
      addTree(Store);
      break;
    }
    case BcOp::Inc: {
      anchorConflicts(I.A, /*KillsMemory=*/false);
      NodeId LoadN = IL->makeNode(ILOp::LoadLocal, I.Type);
      IL->node(LoadN).A = I.A;
      NodeId AddN = IL->makeNode(ILOp::Add, I.Type,
                                 {LoadN, IL->makeConstI(I.Type, I.B)});
      NodeId Store = IL->makeNode(ILOp::StoreLocal, DataType::Void, {AddN});
      IL->node(Store).A = I.A;
      addTree(Store);
      break;
    }
    case BcOp::GetField: {
      StackEntry Obj = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Obj.Node}));
      NodeId N = IL->makeNode(ILOp::LoadField, I.Type, {Obj.Node});
      IL->node(N).A = I.A;
      push(N);
      break;
    }
    case BcOp::PutField: {
      StackEntry Val = pop();
      StackEntry Obj = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Obj.Node}));
      anchorConflicts(-1, /*KillsMemory=*/true);
      NodeId N = IL->makeNode(ILOp::StoreField, DataType::Void,
                              {Obj.Node, Val.Node});
      IL->node(N).A = I.A;
      addTree(N);
      break;
    }
    case BcOp::GetGlobal: {
      NodeId N = IL->makeNode(ILOp::LoadGlobal, I.Type);
      IL->node(N).A = I.A;
      push(N);
      break;
    }
    case BcOp::PutGlobal: {
      StackEntry Val = pop();
      anchorConflicts(-1, /*KillsMemory=*/true);
      NodeId N = IL->makeNode(ILOp::StoreGlobal, DataType::Void, {Val.Node});
      IL->node(N).A = I.A;
      addTree(N);
      break;
    }
    case BcOp::ALoad: {
      StackEntry Idx = pop();
      StackEntry Arr = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Arr.Node}));
      addTree(IL->makeNode(ILOp::BoundsCheck, DataType::Void,
                           {Arr.Node, Idx.Node}));
      push(IL->makeNode(ILOp::LoadElem, I.Type, {Arr.Node, Idx.Node}));
      break;
    }
    case BcOp::AStore: {
      StackEntry Val = pop();
      StackEntry Idx = pop();
      StackEntry Arr = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Arr.Node}));
      addTree(IL->makeNode(ILOp::BoundsCheck, DataType::Void,
                           {Arr.Node, Idx.Node}));
      anchorConflicts(-1, /*KillsMemory=*/true);
      addTree(IL->makeNode(ILOp::StoreElem, DataType::Void,
                           {Arr.Node, Idx.Node, Val.Node}));
      break;
    }
    case BcOp::ArrayLen: {
      StackEntry Arr = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Arr.Node}));
      push(IL->makeNode(ILOp::ArrayLen, DataType::Int32, {Arr.Node}));
      break;
    }
    case BcOp::Add:
    case BcOp::Sub:
    case BcOp::Mul:
    case BcOp::Shl:
    case BcOp::Shr:
    case BcOp::Or:
    case BcOp::And:
    case BcOp::Xor: {
      static_assert((int)BcOp::Add + 1 == (int)BcOp::Sub, "opcode layout");
      StackEntry R = pop();
      StackEntry L = pop();
      ILOp Op;
      switch (I.Op) {
      case BcOp::Add:
        Op = ILOp::Add;
        break;
      case BcOp::Sub:
        Op = ILOp::Sub;
        break;
      case BcOp::Mul:
        Op = ILOp::Mul;
        break;
      case BcOp::Shl:
        Op = ILOp::Shl;
        break;
      case BcOp::Shr:
        Op = ILOp::Shr;
        break;
      case BcOp::Or:
        Op = ILOp::Or;
        break;
      case BcOp::And:
        Op = ILOp::And;
        break;
      default:
        Op = ILOp::Xor;
        break;
      }
      push(IL->makeNode(Op, I.Type, {L.Node, R.Node}));
      break;
    }
    case BcOp::Div:
    case BcOp::Rem: {
      StackEntry R = pop();
      StackEntry L = pop();
      if (isIntegerType(I.Type) || isDecimalType(I.Type))
        addTree(IL->makeNode(ILOp::DivCheck, DataType::Void, {R.Node}));
      push(IL->makeNode(I.Op == BcOp::Div ? ILOp::Div : ILOp::Rem, I.Type,
                        {L.Node, R.Node}));
      break;
    }
    case BcOp::Neg: {
      StackEntry V = pop();
      push(IL->makeNode(ILOp::Neg, I.Type, {V.Node}));
      break;
    }
    case BcOp::Cmp: {
      StackEntry R = pop();
      StackEntry L = pop();
      NodeId N = IL->makeNode(ILOp::Cmp, DataType::Int32, {L.Node, R.Node});
      IL->node(N).B = (int32_t)I.Type; // operand type
      push(N);
      break;
    }
    case BcOp::Conv: {
      StackEntry V = pop();
      NodeId N = IL->makeNode(ILOp::Conv, I.Type, {V.Node});
      IL->node(N).A = I.A; // source type
      push(N);
      break;
    }
    case BcOp::IfCmp: {
      StackEntry R = pop();
      StackEntry L = pop();
      spillStack();
      NodeId Br =
          IL->makeNode(ILOp::Branch, DataType::Void, {L.Node, R.Node});
      IL->node(Br).A = I.A;
      addTree(Br);
      IL->addEdge(CurBlock, blockAtPc((uint32_t)I.B));
      if (Pc + 1 < M.Code.size())
        IL->addEdge(CurBlock, blockAtPc(Pc + 1));
      return;
    }
    case BcOp::If:
    case BcOp::IfRef: {
      StackEntry V = pop();
      spillStack();
      NodeId Zero = I.Op == BcOp::If ? IL->makeConstI(DataType::Int32, 0)
                                     : IL->makeConstI(DataType::Object, 0);
      NodeId Br =
          IL->makeNode(ILOp::Branch, DataType::Void, {V.Node, Zero});
      // IfRef: A==0 branches when null (Eq), A==1 when nonnull (Ne).
      IL->node(Br).A = I.Op == BcOp::If
                           ? I.A
                           : (int32_t)(I.A == 0 ? BcCond::Eq : BcCond::Ne);
      addTree(Br);
      IL->addEdge(CurBlock, blockAtPc((uint32_t)I.B));
      if (Pc + 1 < M.Code.size())
        IL->addEdge(CurBlock, blockAtPc(Pc + 1));
      return;
    }
    case BcOp::Goto: {
      spillStack();
      addTree(IL->makeNode(ILOp::Goto, DataType::Void));
      IL->addEdge(CurBlock, blockAtPc((uint32_t)I.A));
      return;
    }
    case BcOp::Call:
    case BcOp::CallVirtual: {
      const MethodInfo &Callee = Prog.methodAt((uint32_t)I.A);
      Operands.resize(Callee.numArgs());
      for (unsigned K = Callee.numArgs(); K-- > 0;)
        Operands[K] = pop().Node;
      if (I.Op == BcOp::CallVirtual)
        addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Operands[0]}));
      anchorConflicts(-1, /*KillsMemory=*/true);
      NodeId CallN = IL->makeNode(ILOp::Call, Callee.ReturnType, Operands);
      IL->node(CallN).A = I.A;
      IL->node(CallN).B = I.Op == BcOp::CallVirtual ? 1 : 0;
      // Anchor the call here so it executes at bytecode order even when its
      // value is consumed by a later treetop.
      anchor(CallN);
      if (Callee.ReturnType != DataType::Void)
        push(CallN);
      break;
    }
    case BcOp::Return: {
      if (M.ReturnType == DataType::Void) {
        addTree(IL->makeNode(ILOp::Return, DataType::Void));
      } else {
        StackEntry V = pop();
        addTree(IL->makeNode(ILOp::Return, DataType::Void, {V.Node}));
      }
      return;
    }
    case BcOp::New: {
      anchorConflicts(-1, /*KillsMemory=*/true);
      NodeId N = IL->makeNode(ILOp::New, DataType::Object);
      IL->node(N).A = I.A;
      anchor(N);
      push(N);
      break;
    }
    case BcOp::NewArray: {
      StackEntry Len = pop();
      anchorConflicts(-1, /*KillsMemory=*/true);
      NodeId N = IL->makeNode(ILOp::NewArray, I.Type, {Len.Node});
      anchor(N);
      push(N);
      break;
    }
    case BcOp::NewMultiArray: {
      Operands.resize((unsigned)I.A);
      for (unsigned K = (unsigned)I.A; K-- > 0;)
        Operands[K] = pop().Node;
      anchorConflicts(-1, /*KillsMemory=*/true);
      NodeId N = IL->makeNode(ILOp::NewMultiArray, DataType::Address, Operands);
      IL->node(N).A = I.A;
      anchor(N);
      push(N);
      break;
    }
    case BcOp::InstanceOf: {
      StackEntry Obj = pop();
      NodeId N = IL->makeNode(ILOp::InstanceOf, DataType::Int32, {Obj.Node});
      IL->node(N).A = I.A;
      push(N);
      break;
    }
    case BcOp::CheckCast: {
      StackEntry Obj = pop();
      NodeId Chk = IL->makeNode(ILOp::CastCheck, DataType::Void, {Obj.Node});
      IL->node(Chk).A = I.A;
      addTree(Chk);
      push(Obj.Node);
      break;
    }
    case BcOp::MonitorEnter: {
      StackEntry Obj = pop();
      anchorConflicts(-1, /*KillsMemory=*/true);
      addTree(IL->makeNode(ILOp::MonitorEnter, DataType::Void, {Obj.Node}));
      break;
    }
    case BcOp::MonitorExit: {
      StackEntry Obj = pop();
      anchorConflicts(-1, /*KillsMemory=*/true);
      addTree(IL->makeNode(ILOp::MonitorExit, DataType::Void, {Obj.Node}));
      break;
    }
    case BcOp::Throw: {
      StackEntry Obj = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Obj.Node}));
      addTree(IL->makeNode(ILOp::Throw, DataType::Void, {Obj.Node}));
      return;
    }
    case BcOp::ArrayCopy: {
      StackEntry Len = pop();
      StackEntry DstPos = pop();
      StackEntry Dst = pop();
      StackEntry SrcPos = pop();
      StackEntry Src = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Src.Node}));
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {Dst.Node}));
      anchorConflicts(-1, /*KillsMemory=*/true);
      addTree(IL->makeNode(
          ILOp::ArrayCopy, DataType::Void,
          {Src.Node, SrcPos.Node, Dst.Node, DstPos.Node, Len.Node}));
      break;
    }
    case BcOp::ArrayCmp: {
      StackEntry B = pop();
      StackEntry A = pop();
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {A.Node}));
      addTree(IL->makeNode(ILOp::NullCheck, DataType::Void, {B.Node}));
      push(IL->makeNode(ILOp::ArrayCmp, DataType::Int32, {A.Node, B.Node}));
      break;
    }
    case BcOp::Pop: {
      StackEntry V = pop();
      // Preserve side effects of the discarded value.
      if (hasSideEffects(IL->node(V.Node).Op))
        anchor(V.Node);
      break;
    }
    case BcOp::Dup: {
      StackEntry V = pop();
      push(V.Node);
      push(V.Node);
      break;
    }
    }
  }
  // The block fell off its end into the next leader.
  assert(EndPc < M.Code.size() && "verified code cannot fall off the end");
  fallthroughTo(EndPc);
}

std::unique_ptr<MethodIL> Generator::run() {
  findLeaders();
  computeEntryStacks();
  for (size_t K = 0; K < Leaders.size(); ++K)
    generateBlock(Leaders[K], K + 1 < Leaders.size() ? Leaders[K + 1]
                                                     : (uint32_t)M.Code.size());
  IL->computeReachability();
  return std::move(IL);
}

} // namespace

std::unique_ptr<MethodIL> jitml::generateIL(const Program &P,
                                            uint32_t MethodIndex) {
  return Generator(P, MethodIndex).run();
}

const MethodIL &ILCache::get(uint32_t MethodIndex) {
  std::unique_ptr<MethodIL> &IL = ILs[MethodIndex];
  if (!IL)
    IL = generateIL(Prog, MethodIndex);
  return *IL;
}
