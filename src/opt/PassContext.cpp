//===- opt/PassContext.cpp ------------------------------------------------===//

#include "opt/PassContext.h"

using namespace jitml;

const MethodIL &PassContext::calleeIL(uint32_t MethodIndex) {
  if (!Callees) {
    OwnCallees = std::make_unique<ILCache>(IL.program());
    Callees = OwnCallees.get();
  }
  assert(&Callees->program() == &IL.program() &&
         "callee IL must come from the caller's program");
  return Callees->get(MethodIndex);
}

const LoopInfo &PassContext::loopInfo() {
  uint64_t E = IL.modEpoch();
  if (!CachedLI || LIEpoch != E) {
    CachedLI = std::make_unique<LoopInfo>(IL);
    LIEpoch = E; // analysis reads via const accessors: epoch unchanged
  }
  return *CachedLI;
}

const DominatorTree &PassContext::dominators() {
  uint64_t E = IL.modEpoch();
  if (!CachedDT || DTEpoch != E) {
    CachedDT = std::make_unique<DominatorTree>(IL);
    DTEpoch = E;
  }
  return *CachedDT;
}

const GuardFacts &PassContext::guardFacts() {
  uint64_t E = IL.modEpoch();
  if (!CachedFacts || FactsEpoch != E) {
    CachedFacts = std::make_unique<GuardFacts>(scanGuardFacts(IL));
    FactsEpoch = E;
  }
  return *CachedFacts;
}

void PassContext::rewriteToConstI(NodeId Id, DataType T, int64_t V) {
  Node &N = IL.node(Id);
  N.Op = ILOp::Const;
  N.Type = T;
  N.A = N.B = 0;
  N.ConstI = V;
  N.ConstF = 0.0;
  N.Kids.clear();
}

void PassContext::rewriteToConstF(NodeId Id, DataType T, double V) {
  Node &N = IL.node(Id);
  N.Op = ILOp::Const;
  N.Type = T;
  N.A = N.B = 0;
  N.ConstI = 0;
  N.ConstF = V;
  N.Kids.clear();
}

void PassContext::rewriteToLoadLocal(NodeId Id, DataType T, uint32_t Slot) {
  Node &N = IL.node(Id);
  N.Op = ILOp::LoadLocal;
  N.Type = T;
  N.A = (int32_t)Slot;
  N.B = 0;
  N.ConstI = 0;
  N.ConstF = 0.0;
  N.Kids.clear();
}

void PassContext::rewriteToCopyOf(NodeId Id, NodeId Source) {
  assert(Id != Source && "self-copy");
  // Snapshot the source first: the destination write below must not read
  // through a reference that aliases it, and the kid list must go through
  // setKids so a wide list gets its own pool storage (two nodes must never
  // share one overflow list).
  const Node &S = cil().node(Source);
  ILOp Op = S.Op;
  DataType Type = S.Type;
  int32_t A = S.A, B = S.B;
  int64_t CI = S.ConstI;
  double CF = S.ConstF;
  std::vector<NodeId> Kids(S.Kids.begin(), S.Kids.end());
  Node &N = IL.node(Id);
  N.Op = Op;
  N.Type = Type;
  N.A = A;
  N.B = B;
  N.ConstI = CI;
  N.ConstF = CF;
  IL.setKids(Id, Kids.data(), Kids.size());
}

NodeId PassContext::cloneTree(
    NodeId Root, const std::unordered_map<uint32_t, uint32_t> *LocalMap) {
  // Copy what the recursion needs up front: every recursive clone calls
  // makeNode, which may reallocate the node table and invalidate any
  // reference into it.
  ILOp Op = cil().node(Root).Op;
  DataType Type = cil().node(Root).Type;
  const KidList &RootKids = cil().node(Root).Kids;
  std::vector<NodeId> OldKids(RootKids.begin(), RootKids.end());
  std::vector<NodeId> Kids;
  Kids.reserve(OldKids.size());
  for (NodeId Kid : OldKids)
    Kids.push_back(cloneTree(Kid, LocalMap));
  NodeId Fresh = IL.makeNode(Op, Type, Kids);
  Node &F = IL.node(Fresh);
  const Node &Orig = cil().node(Root); // re-fetch: makeNode may reallocate
  F.A = Orig.A;
  F.B = Orig.B;
  F.ConstI = Orig.ConstI;
  F.ConstF = Orig.ConstF;
  if (LocalMap && (F.Op == ILOp::LoadLocal || F.Op == ILOp::StoreLocal)) {
    auto It = LocalMap->find((uint32_t)F.A);
    if (It != LocalMap->end())
      F.A = (int32_t)It->second;
  }
  return Fresh;
}

bool PassContext::isPure(NodeId Root) const {
  const Node &N = cil().node(Root);
  if (hasSideEffects(N.Op))
    return false;
  for (NodeId Kid : N.Kids)
    if (!isPure(Kid))
      return false;
  return true;
}

std::vector<uint32_t> jitml::computeRefCounts(const MethodIL &IL) {
  std::vector<uint32_t> Counts(IL.numNodes(), 0);
  // One count per referencing edge (treetop root or parent->child edge);
  // each node's own children are scanned exactly once.
  std::vector<bool> Expanded(IL.numNodes(), false);
  std::vector<NodeId> Stack;
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    if (!IL.block(B).Reachable)
      continue;
    for (NodeId Root : IL.block(B).Trees) {
      ++Counts[Root];
      Stack.push_back(Root);
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        if (Expanded[Id])
          continue;
        Expanded[Id] = true;
        for (NodeId Kid : IL.node(Id).Kids) {
          ++Counts[Kid];
          Stack.push_back(Kid);
        }
      }
    }
  }
  return Counts;
}

bool jitml::shallowEqualNodes(const Node &A, const Node &B) {
  return A.Op == B.Op && A.Type == B.Type && A.A == B.A && A.B == B.B &&
         A.ConstI == B.ConstI && A.ConstF == B.ConstF && A.Kids == B.Kids;
}

uint64_t jitml::shallowHashNode(const Node &N) {
  uint64_t H = (uint64_t)N.Op * 0x9e3779b97f4a7c15ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  Mix((uint64_t)N.Type);
  Mix((uint64_t)(uint32_t)N.A);
  Mix((uint64_t)(uint32_t)N.B);
  Mix((uint64_t)N.ConstI);
  uint64_t FBits;
  static_assert(sizeof(FBits) == sizeof(N.ConstF), "double is 64-bit");
  __builtin_memcpy(&FBits, &N.ConstF, sizeof(FBits));
  Mix(FBits);
  for (NodeId Kid : N.Kids)
    Mix(Kid);
  return H;
}

bool PassContext::isPureAndMemoryFree(NodeId Root) const {
  const Node &N = cil().node(Root);
  if (hasSideEffects(N.Op) || readsMemory(N.Op))
    return false;
  for (NodeId Kid : N.Kids)
    if (!isPureAndMemoryFree(Kid))
      return false;
  return true;
}
