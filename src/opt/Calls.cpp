//===- opt/Calls.cpp - Devirtualization and inlining ----------------------===//
//
// Devirtualization turns virtual dispatches into direct calls when the
// receiver's dynamic type is known or no override is loaded; inlining then
// splices direct callees into the caller. The three plan-level inlining
// tiers share one engine with different budgets.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "support/FlatTables.h"

using namespace jitml;

bool jitml::runDevirtualization(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  const Program &P = IL.program();
  bool Changed = false;
  for (NodeId Id = 0; Id < CIL.numNodes(); ++Id) {
    if (CIL.node(Id).Op != ILOp::Call || CIL.node(Id).B != 1)
      continue;
    Ctx.charge(2);
    uint32_t Callee = (uint32_t)CIL.node(Id).A;
    const MethodInfo &CalleeInfo = P.methodAt(Callee);
    const Node &Receiver = CIL.node(CIL.node(Id).Kids[0]);
    // Exact type known from the allocation site.
    if (Receiver.Op == ILOp::New) {
      int32_t Resolved = (int32_t)P.resolveVirtual(Callee, (uint32_t)Receiver.A);
      Node &N = IL.node(Id);
      N.A = Resolved;
      N.B = 0;
      Ctx.noteChange(TransformationKind::Devirtualization);
      Changed = true;
      continue;
    }
    // Monomorphic in the loaded class hierarchy: final methods or methods
    // with no override anywhere. (If a later class load adds an override,
    // the runtime flags the caller with MF_VirtualOverridden and
    // recompiles it — see runtime/CompilationControl.)
    if (CalleeInfo.hasFlag(MF_Final) || !P.isOverridden(Callee)) {
      IL.node(Id).B = 0;
      Ctx.noteChange(TransformationKind::Devirtualization);
      Changed = true;
    }
  }
  return Changed;
}

namespace {

/// One inlinable call site: the anchor treetop position of a direct call.
struct CallSite {
  BlockId Block;
  size_t TreeIndex;
  NodeId CallNode;
};

/// Splices \p Callee's IL into the caller at \p Site. Returns the number of
/// caller IL nodes added, or 0 when the callee was rejected after IL
/// generation (too big).
uint32_t inlineSite(PassContext &Ctx, const CallSite &Site,
                    uint32_t CalleeNodeBudget) {
  MethodIL &IL = Ctx.il();
  const Program &P = IL.program();
  uint32_t CalleeIdx = (uint32_t)IL.node(Site.CallNode).A;
  const MethodInfo &CalleeInfo = P.methodAt(CalleeIdx);

  const MethodIL &CCal = Ctx.calleeIL(CalleeIdx);
  uint32_t CalleeNodes = CCal.countLiveNodes();
  Ctx.charge((double)CalleeNodes * 2);
  if (CalleeNodes > CalleeNodeBudget)
    return 0;

  // Map callee locals into fresh caller locals.
  std::vector<uint32_t> LocalMap(CCal.numLocals());
  for (uint32_t L = 0; L < CCal.numLocals(); ++L)
    LocalMap[L] = IL.addLocal(CCal.localType(L));

  uint32_t RetSlot = UINT32_MAX;
  if (CalleeInfo.ReturnType != DataType::Void)
    RetSlot = IL.addLocal(CalleeInfo.ReturnType);

  // Split the caller block after the anchor: trees before it stay, trees
  // after it move to the continuation block.
  BlockId B = Site.Block;
  BlockId Cont = IL.makeBlock();
  {
    Block &Blk = IL.block(B);
    Block &ContB = IL.block(Cont);
    ContB.Trees.assign(Blk.Trees.begin() + (std::ptrdiff_t)Site.TreeIndex + 1,
                       Blk.Trees.end());
    Blk.Trees.resize(Site.TreeIndex);
    ContB.Handlers = Blk.Handlers;
    ContB.Frequency = Blk.Frequency;
    ContB.Cold = Blk.Cold;
    ContB.Reachable = true;
    // Move outgoing edges to the continuation.
    ContB.Succs = Blk.Succs;
    for (BlockId S : ContB.Succs) {
      auto &Preds = IL.block(S).Preds;
      for (BlockId &Pd : Preds)
        if (Pd == B)
          Pd = Cont;
    }
    IL.block(B).Succs.clear();
  }

  // Evaluate the arguments into the parameter slots, in order, where the
  // call used to be anchored.
  {
    // Copy the kid list: node references go stale across makeNode calls.
    const KidList &CallKids = Ctx.cil().node(Site.CallNode).Kids;
    std::vector<NodeId> Args(CallKids.begin(), CallKids.end());
    for (uint32_t AI = 0; AI < Args.size(); ++AI) {
      NodeId Store = IL.makeNode(ILOp::StoreLocal, DataType::Void, {Args[AI]});
      IL.node(Store).A = (int32_t)LocalMap[AI];
      IL.block(B).Trees.push_back(Store);
    }
  }

  // Create a caller block for every callee block.
  std::vector<BlockId> BlockMap(CCal.numBlocks());
  for (BlockId CB = 0; CB < CCal.numBlocks(); ++CB) {
    BlockId NB = IL.makeBlock();
    BlockMap[CB] = NB;
  }
  // Deep-copy the callee node arena tree by tree, remapping locals.
  // A node-id translation table keeps callee DAG sharing intact.
  std::vector<NodeId> NodeMap(CCal.numNodes(), InvalidNode);
  auto Import = [&](auto &&Self, NodeId CalleeNode) -> NodeId {
    if (NodeMap[CalleeNode] != InvalidNode)
      return NodeMap[CalleeNode];
    // Only the caller arena grows during the recursion, so references into
    // the callee arena stay valid.
    const Node &Src = CCal.node(CalleeNode);
    std::vector<NodeId> Kids;
    Kids.reserve(Src.Kids.size());
    for (NodeId K : Src.Kids)
      Kids.push_back(Self(Self, K));
    NodeId Fresh = IL.makeNode(Src.Op, Src.Type, Kids);
    Node &F = IL.node(Fresh);
    F.A = Src.A;
    F.B = Src.B;
    F.ConstI = Src.ConstI;
    F.ConstF = Src.ConstF;
    if (F.Op == ILOp::LoadLocal || F.Op == ILOp::StoreLocal)
      F.A = (int32_t)LocalMap[(uint32_t)F.A];
    NodeMap[CalleeNode] = Fresh;
    return Fresh;
  };

  for (BlockId CB = 0; CB < CCal.numBlocks(); ++CB) {
    const Block &Src = CCal.block(CB);
    Block &Dst = IL.block(BlockMap[CB]);
    Dst.IsHandler = Src.IsHandler;
    Dst.Frequency = IL.block(B).Frequency * Src.Frequency;
    Dst.Reachable = Src.Reachable;
    for (const HandlerRef &H : Src.Handlers)
      Dst.Handlers.push_back({BlockMap[H.Handler], H.ClassIndex});
    // The caller's handler scope wraps the inlined body (outermost last).
    for (const HandlerRef &H : IL.block(B).Handlers)
      Dst.Handlers.push_back(H);
    if (!Src.Reachable)
      continue;
    for (NodeId Tree : Src.Trees) {
      const Node &T = CCal.node(Tree);
      if (T.Op == ILOp::Return) {
        if (!T.Kids.empty() && RetSlot != UINT32_MAX) {
          NodeId Val = Import(Import, T.Kids[0]);
          NodeId Store = IL.makeNode(ILOp::StoreLocal, DataType::Void, {Val});
          IL.node(Store).A = (int32_t)RetSlot;
          IL.block(BlockMap[CB]).Trees.push_back(Store);
        }
        IL.block(BlockMap[CB])
            .Trees.push_back(IL.makeNode(ILOp::Goto, DataType::Void));
        IL.addEdge(BlockMap[CB], Cont);
        continue;
      }
      NodeId Imported = Import(Import, Tree);
      IL.block(BlockMap[CB]).Trees.push_back(Imported);
    }
    for (BlockId S : Src.Succs)
      IL.addEdge(BlockMap[CB], BlockMap[S]);
  }

  // Jump from the caller prefix into the inlined entry.
  IL.block(B).Trees.push_back(IL.makeNode(ILOp::Goto, DataType::Void));
  IL.addEdge(B, BlockMap[CCal.entryBlock()]);

  // The call node now stands for the returned value.
  if (RetSlot != UINT32_MAX)
    Ctx.rewriteToLoadLocal(Site.CallNode, CalleeInfo.ReturnType, RetSlot);
  else
    Ctx.rewriteToConstI(Site.CallNode, DataType::Int32, 0);

  IL.computeReachability();
  return CalleeNodes;
}

} // namespace

bool jitml::runInlining(PassContext &Ctx, uint32_t CalleeNodeBudget,
                        uint32_t GrowthBudget) {
  const MethodIL &CIL = Ctx.cil();
  bool Changed = false;
  uint32_t Growth = 0;
  // Remember rejected call nodes so the scan makes progress.
  StampedArray<bool> Rejected;
  while (Growth < GrowthBudget) {
    CallSite Site;
    bool Found = false;
    for (BlockId B = 0; B < CIL.numBlocks() && !Found; ++B) {
      const Block &Blk = CIL.block(B);
      if (!Blk.Reachable)
        continue;
      for (size_t TI = 0; TI < Blk.Trees.size(); ++TI) {
        const Node &N = CIL.node(Blk.Trees[TI]);
        if (N.Op != ILOp::ExprStmt)
          continue;
        const Node &C = CIL.node(N.Kids[0]);
        if (C.Op != ILOp::Call || C.B != 0 || Rejected.get(N.Kids[0]))
          continue;
        uint32_t Callee = (uint32_t)C.A;
        const MethodInfo &M = CIL.program().methodAt(Callee);
        if (Callee == CIL.methodIndex() || M.hasFlag(MF_Synchronized) ||
            M.Code.size() > CalleeNodeBudget) {
          Rejected.set(N.Kids[0], true);
          continue;
        }
        Site = {B, TI, N.Kids[0]};
        Found = true;
        break;
      }
    }
    if (!Found)
      break;
    uint32_t Added = inlineSite(Ctx, Site, CalleeNodeBudget);
    if (Added == 0) {
      Rejected.set(Site.CallNode, true);
      continue;
    }
    // Drop the now-dead anchor: the splice left it in the prefix block as
    // the argument stores took its place, and the call node itself was
    // rewritten to a local load or constant.
    Growth += Added;
    if (CalleeNodeBudget >= 40) {
      // Higher tiers keep going while budget remains.
      Ctx.noteChange(TransformationKind::InlineSmall);
    } else {
      Ctx.noteChange(TransformationKind::InlineTrivial);
    }
    Changed = true;
  }
  return Changed;
}
