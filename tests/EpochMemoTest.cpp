//===- tests/EpochMemoTest.cpp - IL epoch / analysis caches / kid storage -===//
//
// Covers the MethodIL modification epoch protocol (every mutation API
// bumps, no-op recomputes do not), the epoch-keyed analysis caches it
// drives (PassContext's LoopInfo, dominators and guard facts, and
// MethodIL's cached live-node count), and the inline-kids node storage.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "il/Dominators.h"
#include "il/ILGenerator.h"
#include "il/LoopInfo.h"
#include "opt/Optimizer.h"
#include "opt/Passes.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace jitml;
using namespace jitml::testing;

namespace {

std::unique_ptr<MethodIL> makeLoopIL(Program &P) {
  uint32_t M = addSumToN(P);
  return generateIL(P, M);
}

} // namespace

//===----------------------------------------------------------------------===//
// IlEpoch: the modification-epoch protocol
//===----------------------------------------------------------------------===//

TEST(IlEpoch, EveryMutationApiBumps) {
  Program P;
  auto IL = makeLoopIL(P);

  uint64_t E = IL->modEpoch();
  auto Bumped = [&](const char *What) {
    EXPECT_GT(IL->modEpoch(), E) << What << " must bump the epoch";
    E = IL->modEpoch();
  };

  NodeId A = IL->makeNode(ILOp::ExprStmt, DataType::Void);
  Bumped("makeNode");
  NodeId C1 = IL->makeConstI(DataType::Int32, 7);
  Bumped("makeConstI");
  IL->makeConstF(DataType::Double, 1.5);
  Bumped("makeConstF");
  NodeId Kids[1] = {C1};
  IL->setKids(A, Kids, 1);
  Bumped("setKids");
  (void)IL->node(A); // mutable handout: must assume a write
  Bumped("mutable node()");
  (void)IL->block(IL->entryBlock());
  Bumped("mutable block()");
  IL->setEntryBlock(IL->entryBlock());
  Bumped("setEntryBlock");
  IL->addLocal(DataType::Int32);
  Bumped("addLocal");
  BlockId NB = IL->makeBlock();
  Bumped("makeBlock");
  IL->addEdge(IL->entryBlock(), NB);
  Bumped("addEdge");
  BlockId NB2 = IL->makeBlock();
  E = IL->modEpoch();
  IL->replaceEdge(IL->entryBlock(), NB, NB2);
  Bumped("replaceEdge");
  IL->recomputePreds();
  Bumped("recomputePreds");
}

TEST(IlEpoch, ConstReadsDoNotBump) {
  Program P;
  auto IL = makeLoopIL(P);
  const MethodIL &CIL = *IL;
  uint64_t E = IL->modEpoch();
  for (BlockId B = 0; B < CIL.numBlocks(); ++B)
    for (NodeId Root : CIL.block(B).Trees)
      (void)CIL.node(Root).Op;
  (void)CIL.countLiveNodes();
  (void)CIL.reversePostOrder();
  EXPECT_EQ(IL->modEpoch(), E) << "const traversal must not bump";
}

TEST(IlEpoch, ReachabilityRecomputeBumpsOnlyOnChange) {
  Program P;
  auto IL = makeLoopIL(P);
  IL->computeReachability();
  uint64_t E = IL->modEpoch();
  IL->computeReachability(); // flags already correct: no-op
  EXPECT_EQ(IL->modEpoch(), E)
      << "a reachability recompute that changes nothing must stay quiet";
}

TEST(IlEpoch, SurgeryHelpersBump) {
  Program P;
  auto IL = makeLoopIL(P);
  PassContext Ctx(*IL);
  NodeId C = IL->makeConstI(DataType::Int32, 3);

  uint64_t E = IL->modEpoch();
  Ctx.rewriteToConstI(C, DataType::Int32, 9);
  EXPECT_GT(IL->modEpoch(), E);
  E = IL->modEpoch();
  Ctx.rewriteToLoadLocal(C, DataType::Int32, 0);
  EXPECT_GT(IL->modEpoch(), E);
  E = IL->modEpoch();
  Ctx.cloneTree(C, nullptr);
  EXPECT_GT(IL->modEpoch(), E);
}

//===----------------------------------------------------------------------===//
// AnalysisCache: the epoch-keyed analyses against fresh builds
//===----------------------------------------------------------------------===//

TEST(AnalysisCache, StaleLoopInfoNeverServedAfterCfgChange) {
  Program P;
  auto IL = makeLoopIL(P);
  PassContext Ctx(*IL);

  const LoopInfo &LI = Ctx.loopInfo();
  ASSERT_FALSE(LI.loops().empty()) << "sumToN must contain a loop";
  BlockId Header = LI.loops().front().Header;

  // Sever the back edge: the loop is gone, and the next analysis request
  // must observe that rather than serve the cached forest.
  const Block &HB = const_cast<const MethodIL &>(*IL).block(Header);
  BlockId Latch = InvalidBlock;
  for (BlockId Pred : HB.Preds)
    if (LI.loops().front().contains(Pred))
      Latch = Pred;
  ASSERT_NE(Latch, InvalidBlock);
  IL->block(Latch).Succs.clear();
  IL->recomputePreds();
  IL->computeReachability();

  EXPECT_TRUE(Ctx.loopInfo().loops().empty())
      << "analysis cache served a stale loop forest after a CFG edit";
}

namespace {

bool sameLoops(const LoopInfo &A, const LoopInfo &B) {
  if (A.loops().size() != B.loops().size())
    return false;
  for (size_t I = 0; I < A.loops().size(); ++I) {
    const Loop &X = A.loops()[I], &Y = B.loops()[I];
    if (X.Header != Y.Header || X.Blocks != Y.Blocks || X.Depth != Y.Depth ||
        X.TripCount != Y.TripCount || X.Members != Y.Members)
      return false;
  }
  return true;
}

bool sameDominators(const DominatorTree &A, const DominatorTree &B,
                    uint32_t NumBlocks) {
  if (A.rpo() != B.rpo())
    return false;
  for (BlockId Bl = 0; Bl < NumBlocks; ++Bl)
    if (A.idom(Bl) != B.idom(Bl))
      return false;
  return true;
}

/// countLiveNodes() walked afresh: a clone copies the cached count, and a
/// bumped epoch makes it walk.
uint32_t walkedLiveCount(const MethodIL &IL) {
  std::unique_ptr<MethodIL> C = IL.clone();
  C->bumpEpoch();
  return C->countLiveNodes();
}

} // namespace

/// Every method of the 20 stand-ins at all five levels, frequency-annotated
/// the way a compile sees it, driven through its level's plan on one
/// PassContext with the applicability guard optimize() uses. Before each
/// tree-stage entry, every cached analysis must equal one built fresh from
/// the IL as it stands.
TEST(AnalysisCache, MatchesFreshBuildsAtEveryPlanEntry) {
  std::vector<WorkloadSpec> Specs = specJvm98Suite();
  for (const WorkloadSpec &S : daCapoSuite())
    Specs.push_back(S);
  uint64_t Checks = 0, Changed = 0, Mismatches = 0;
  for (const WorkloadSpec &Spec : Specs) {
    Program P = buildWorkload(Spec);
    for (uint32_t M = 0; M < P.numMethods(); ++M) {
      for (unsigned L = 0; L < NumOptLevels; ++L) {
        std::unique_ptr<MethodIL> IL = generateIL(P, M);
        LoopInfo::annotateFrequencies(*IL);
        const MethodIL &CIL = *IL;
        PassContext Ctx(*IL);
        for (TransformationKind K : planForLevel((OptLevel)L).Entries) {
          if (transformationInfo(K).Stage == TransformStage::Codegen)
            continue;
          ++Checks;
          auto Expect = [&](bool Same, const char *What) {
            if (!Same && Mismatches++ < 5)
              ADD_FAILURE() << What << " differs from a fresh build: "
                            << Spec.Code << " method " << M << " level "
                            << optLevelName((OptLevel)L) << " before "
                            << transformationName(K);
          };
          Expect(sameLoops(Ctx.loopInfo(), LoopInfo(CIL)), "loopInfo()");
          Expect(sameDominators(Ctx.dominators(), DominatorTree(CIL),
                                CIL.numBlocks()),
                 "dominators()");
          Expect(Ctx.guardFacts() == scanGuardFacts(CIL), "guardFacts()");
          Expect(CIL.countLiveNodes() == walkedLiveCount(CIL),
                 "countLiveNodes()");
          if (transformationApplicable(K, CIL, Ctx.guardFacts()) &&
              runTransformation(Ctx, K))
            ++Changed;
        }
      }
    }
  }
  EXPECT_EQ(Mismatches, 0u) << "of " << Checks << " plan-entry checks";
  EXPECT_GT(Changed, 0u) << "no entry changed the IL: nothing invalidated";
}

//===----------------------------------------------------------------------===//
// KidList: inline-kids node storage
//===----------------------------------------------------------------------===//

TEST(KidList, InlineAndPooledKidsRoundTrip) {
  Program P;
  auto IL = makeLoopIL(P);
  const MethodIL &CIL = *IL;

  std::vector<NodeId> Kids;
  for (int I = 0; I < 5; ++I)
    Kids.push_back(IL->makeConstI(DataType::Int32, I));

  for (size_t N = 0; N <= Kids.size(); ++N) {
    std::vector<NodeId> Sub(Kids.begin(), Kids.begin() + (std::ptrdiff_t)N);
    NodeId Id = IL->makeNode(ILOp::Call, DataType::Int32, Sub);
    const Node &Made = CIL.node(Id);
    ASSERT_EQ(Made.numKids(), (unsigned)N);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Made.Kids[I], Sub[I]) << "arity " << N << " kid " << I;
    size_t Count = 0;
    for (NodeId K : Made.Kids) { // range-for over both storage layouts
      EXPECT_EQ(K, Sub[Count]);
      ++Count;
    }
    EXPECT_EQ(Count, N);
  }
}

TEST(KidList, SetKidsGrowsAndShrinks) {
  Program P;
  auto IL = makeLoopIL(P);
  const MethodIL &CIL = *IL;

  NodeId A = IL->makeConstI(DataType::Int32, 1);
  NodeId B = IL->makeConstI(DataType::Int32, 2);
  NodeId C = IL->makeConstI(DataType::Int32, 3);
  NodeId Id = IL->makeNode(ILOp::Call, DataType::Int32, {A, B});
  ASSERT_EQ(CIL.node(Id).numKids(), 2u);

  NodeId Three[3] = {A, B, C}; // inline -> pool
  IL->setKids(Id, Three, 3);
  ASSERT_EQ(CIL.node(Id).numKids(), 3u);
  EXPECT_EQ(CIL.node(Id).Kids[2], C);

  NodeId One[1] = {C}; // pool -> inline
  IL->setKids(Id, One, 1);
  ASSERT_EQ(CIL.node(Id).numKids(), 1u);
  EXPECT_EQ(CIL.node(Id).Kids[0], C);
}

TEST(KidList, ClearAndEquality) {
  Program P;
  auto IL = makeLoopIL(P);
  NodeId A = IL->makeConstI(DataType::Int32, 1);
  NodeId B = IL->makeConstI(DataType::Int32, 2);
  NodeId X = IL->makeNode(ILOp::Add, DataType::Int32, {A, B});
  NodeId Y = IL->makeNode(ILOp::Add, DataType::Int32, {A, B});
  NodeId Z = IL->makeNode(ILOp::Add, DataType::Int32, {B, A});

  const MethodIL &CIL = *IL;
  EXPECT_TRUE(CIL.node(X).Kids == CIL.node(Y).Kids);
  EXPECT_FALSE(CIL.node(X).Kids == CIL.node(Z).Kids);

  IL->node(X).Kids.clear();
  EXPECT_EQ(CIL.node(X).numKids(), 0u);
  EXPECT_FALSE(CIL.node(X).Kids == CIL.node(Y).Kids);
}
