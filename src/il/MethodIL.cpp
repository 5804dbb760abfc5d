//===- il/MethodIL.cpp ----------------------------------------------------===//

#include "il/MethodIL.h"

#include <algorithm>

using namespace jitml;

const char *jitml::ilOpName(ILOp Op) {
  switch (Op) {
  case ILOp::Const:
    return "const";
  case ILOp::LoadLocal:
    return "loadlocal";
  case ILOp::LoadGlobal:
    return "loadglobal";
  case ILOp::LoadField:
    return "loadfield";
  case ILOp::LoadElem:
    return "loadelem";
  case ILOp::ArrayLen:
    return "arraylen";
  case ILOp::LoadException:
    return "loadexception";
  case ILOp::Add:
    return "add";
  case ILOp::Sub:
    return "sub";
  case ILOp::Mul:
    return "mul";
  case ILOp::Div:
    return "div";
  case ILOp::Rem:
    return "rem";
  case ILOp::Neg:
    return "neg";
  case ILOp::Shl:
    return "shl";
  case ILOp::Shr:
    return "shr";
  case ILOp::Or:
    return "or";
  case ILOp::And:
    return "and";
  case ILOp::Xor:
    return "xor";
  case ILOp::Cmp:
    return "cmp";
  case ILOp::CmpCond:
    return "cmpcond";
  case ILOp::Conv:
    return "conv";
  case ILOp::Call:
    return "call";
  case ILOp::New:
    return "new";
  case ILOp::NewArray:
    return "newarray";
  case ILOp::NewMultiArray:
    return "newmultiarray";
  case ILOp::InstanceOf:
    return "instanceof";
  case ILOp::ArrayCmp:
    return "arraycmp";
  case ILOp::StoreLocal:
    return "storelocal";
  case ILOp::StoreGlobal:
    return "storeglobal";
  case ILOp::StoreField:
    return "storefield";
  case ILOp::StoreElem:
    return "storeelem";
  case ILOp::NullCheck:
    return "nullcheck";
  case ILOp::BoundsCheck:
    return "boundscheck";
  case ILOp::DivCheck:
    return "divcheck";
  case ILOp::CastCheck:
    return "castcheck";
  case ILOp::MonitorEnter:
    return "monitorenter";
  case ILOp::MonitorExit:
    return "monitorexit";
  case ILOp::ArrayCopy:
    return "arraycopy";
  case ILOp::ExprStmt:
    return "exprstmt";
  case ILOp::Branch:
    return "branch";
  case ILOp::Goto:
    return "goto";
  case ILOp::Return:
    return "return";
  case ILOp::Throw:
    return "throw";
  }
  return "?";
}

MethodIL::MethodIL(const Program &P, uint32_t MethodIndex)
    : Prog(&P), MethodIndex(MethodIndex) {
  const MethodInfo &M = P.methodAt(MethodIndex);
  LocalTypes = M.LocalTypes;
}

std::unique_ptr<MethodIL> MethodIL::clone() const {
  auto C = std::make_unique<MethodIL>(*Prog, MethodIndex);
  C->Nodes.resize(Nodes.size());
  for (size_t I = 0; I < Nodes.size(); ++I) {
    const Node &Src = Nodes[I];
    Node &Dst = C->Nodes[I];
    Dst.Op = Src.Op;
    Dst.Type = Src.Type;
    Dst.A = Src.A;
    Dst.B = Src.B;
    Dst.ConstI = Src.ConstI;
    Dst.ConstF = Src.ConstF;
    C->assignKids(Dst, Src.Kids.data(), Src.Kids.size());
  }
  C->Blocks = Blocks;
  C->LocalTypes = LocalTypes;
  C->Entry = Entry;
  C->ModEpoch = ModEpoch;
  C->LiveCountEpoch = LiveCountEpoch;
  C->LiveCount = LiveCount;
  return C;
}

NodeId *MethodIL::allocKids(size_t N) {
  constexpr size_t ChunkSize = 1024;
  if (KidChunkUsed + N > KidChunkCap) {
    size_t Cap = std::max(N, ChunkSize);
    KidChunks.push_back(std::make_unique<NodeId[]>(Cap));
    KidChunkUsed = 0;
    KidChunkCap = Cap;
  }
  NodeId *Out = KidChunks.back().get() + KidChunkUsed;
  KidChunkUsed += N;
  return Out;
}

void MethodIL::assignKids(Node &N, const NodeId *K, size_t Count) {
  N.Kids.Count = (uint32_t)Count;
  if (Count <= KidList::InlineSlots) {
    for (size_t I = 0; I < Count; ++I)
      N.Kids.Inline[I] = K[I];
    N.Kids.Ovf = nullptr;
  } else {
    // Always fresh pool storage: two nodes must never alias one overflow
    // list, or an element write through one would be seen by the other.
    NodeId *Slot = allocKids(Count);
    std::copy(K, K + Count, Slot);
    N.Kids.Ovf = Slot;
  }
}

NodeId MethodIL::makeNode(ILOp Op, DataType Type) {
  Node N;
  N.Op = Op;
  N.Type = Type;
  Nodes.push_back(std::move(N));
  ++ModEpoch;
  return (NodeId)Nodes.size() - 1;
}

NodeId MethodIL::makeNode(ILOp Op, DataType Type,
                          std::initializer_list<NodeId> Kids) {
  NodeId Id = makeNode(Op, Type);
  assignKids(Nodes[Id], Kids.begin(), Kids.size());
  return Id;
}

NodeId MethodIL::makeNode(ILOp Op, DataType Type,
                          const std::vector<NodeId> &Kids) {
  NodeId Id = makeNode(Op, Type);
  assignKids(Nodes[Id], Kids.data(), Kids.size());
  return Id;
}

void MethodIL::setKids(NodeId Id, const NodeId *K, size_t N) {
  assert(Id < Nodes.size() && "node id out of range");
  ++ModEpoch;
  assignKids(Nodes[Id], K, N);
}

NodeId MethodIL::makeConstI(DataType Type, int64_t V) {
  NodeId Id = makeNode(ILOp::Const, Type);
  Nodes[Id].ConstI = V;
  return Id;
}

NodeId MethodIL::makeConstF(DataType Type, double V) {
  NodeId Id = makeNode(ILOp::Const, Type);
  Nodes[Id].ConstF = V;
  return Id;
}

BlockId MethodIL::makeBlock() {
  Blocks.emplace_back();
  ++ModEpoch;
  return (BlockId)Blocks.size() - 1;
}

void MethodIL::addEdge(BlockId From, BlockId To) {
  block(From).Succs.push_back(To);
  block(To).Preds.push_back(From);
}

void MethodIL::replaceEdge(BlockId From, BlockId OldTo, BlockId NewTo) {
  bool Replaced = false;
  for (BlockId &S : block(From).Succs)
    if (S == OldTo && !Replaced) {
      S = NewTo;
      Replaced = true;
    }
  assert(Replaced && "edge to replace not found");
  auto &OldPreds = block(OldTo).Preds;
  auto It = std::find(OldPreds.begin(), OldPreds.end(), From);
  assert(It != OldPreds.end() && "stale pred list");
  OldPreds.erase(It);
  block(NewTo).Preds.push_back(From);
}

void MethodIL::recomputePreds() {
  ++ModEpoch;
  for (Block &B : Blocks)
    B.Preds.clear();
  for (BlockId Id = 0; Id < Blocks.size(); ++Id)
    for (BlockId S : Blocks[Id].Succs)
      Blocks[S].Preds.push_back(Id);
}

void MethodIL::computeReachability() {
  std::vector<uint8_t> New(Blocks.size(), 0);
  if (Entry != InvalidBlock) {
    std::vector<BlockId> Stack{Entry};
    New[Entry] = 1;
    while (!Stack.empty()) {
      BlockId Id = Stack.back();
      Stack.pop_back();
      auto Push = [&](BlockId S) {
        if (!New[S]) {
          New[S] = 1;
          Stack.push_back(S);
        }
      };
      for (BlockId S : Blocks[Id].Succs)
        Push(S);
      for (const HandlerRef &H : Blocks[Id].Handlers)
        Push(H.Handler);
    }
  }
  bool Changed = false;
  for (size_t I = 0; I < Blocks.size(); ++I) {
    bool R = New[I] != 0;
    if (Blocks[I].Reachable != R) {
      Blocks[I].Reachable = R;
      Changed = true;
    }
  }
  if (Changed)
    ++ModEpoch;
}

uint32_t MethodIL::countLiveNodes() const {
  if (LiveCountEpoch == ModEpoch)
    return LiveCount;
  std::vector<uint8_t> Seen(Nodes.size(), 0);
  uint32_t Count = 0;
  std::vector<NodeId> Stack;
  Stack.reserve(64);
  for (const Block &B : Blocks) {
    if (!B.Reachable)
      continue;
    for (NodeId Root : B.Trees)
      Stack.push_back(Root);
  }
  while (!Stack.empty()) {
    NodeId Id = Stack.back();
    Stack.pop_back();
    if (Seen[Id])
      continue;
    Seen[Id] = 1;
    ++Count;
    for (NodeId Kid : Nodes[Id].Kids)
      Stack.push_back(Kid);
  }
  LiveCountEpoch = ModEpoch;
  LiveCount = Count;
  return Count;
}

std::vector<BlockId> MethodIL::reversePostOrder() const {
  std::vector<BlockId> Post;
  if (Entry == InvalidBlock)
    return Post;
  std::vector<uint8_t> State(Blocks.size(), 0); // 0 new, 1 open, 2 done
  // Iterative DFS with an explicit stack of (block, next-successor-index).
  std::vector<std::pair<BlockId, size_t>> Stack;
  Stack.reserve(Blocks.size());
  Post.reserve(Blocks.size());
  Stack.emplace_back(Entry, 0);
  State[Entry] = 1;
  // Successor K of a block is Succs[K], then its handlers in order.
  while (!Stack.empty()) {
    auto &[Id, NextIdx] = Stack.back();
    const Block &Blk = Blocks[Id];
    if (NextIdx < Blk.Succs.size() + Blk.Handlers.size()) {
      BlockId S = NextIdx < Blk.Succs.size()
                      ? Blk.Succs[NextIdx]
                      : Blk.Handlers[NextIdx - Blk.Succs.size()].Handler;
      ++NextIdx;
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    State[Id] = 2;
    Post.push_back(Id);
    Stack.pop_back();
  }
  std::reverse(Post.begin(), Post.end());
  return Post;
}
