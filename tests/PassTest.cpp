//===- tests/PassTest.cpp - Optimization pass unit tests ------------------===//
//
// Each engine gets (a) a structural check that the rewrite fired and (b) a
// semantic check that compiled execution still matches the interpreter.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "il/ILGenerator.h"
#include "il/ILVerifier.h"
#include "opt/Optimizer.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

using namespace jitml;
using namespace jitml::testing;

namespace {

/// Optimizes \p Method with exactly \p Kinds (in order), checks IL
/// soundness, and returns how many times \p Tracked reported a change.
uint32_t runPasses(Program &P, uint32_t Method,
                   std::vector<TransformationKind> Kinds,
                   TransformationKind Tracked,
                   std::unique_ptr<MethodIL> *KeepIL = nullptr) {
  auto IL = generateIL(P, Method);
  PassContext Ctx(*IL);
  for (TransformationKind K : Kinds)
    runTransformation(Ctx, K);
  std::vector<std::string> Errors = verifyIL(*IL);
  EXPECT_TRUE(Errors.empty()) << Errors.front();
  uint32_t Changes = Ctx.changesOf(Tracked);
  if (KeepIL)
    *KeepIL = std::move(IL);
  return Changes;
}

unsigned countOps(const MethodIL &IL, ILOp Op) {
  unsigned Count = 0;
  std::vector<bool> Seen(IL.numNodes(), false);
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    if (!IL.block(B).Reachable)
      continue;
    for (NodeId Root : IL.block(B).Trees) {
      std::vector<NodeId> Stack{Root};
      while (!Stack.empty()) {
        NodeId Id = Stack.back();
        Stack.pop_back();
        if (Seen[Id])
          continue;
        Seen[Id] = true;
        if (IL.node(Id).Op == Op)
          ++Count;
        for (NodeId Kid : IL.node(Id).Kids)
          Stack.push_back(Kid);
      }
    }
  }
  return Count;
}

} // namespace

TEST(Fold, ConstantsAcrossTypes) {
  Program P;
  MethodBuilder MB(P, "k", -1, MF_Static, {}, DataType::Int32);
  MB.constI(DataType::Int32, 6).constI(DataType::Int32, 7);
  MB.binop(BcOp::Mul, DataType::Int32);
  MB.constI(DataType::Int32, 2).binop(BcOp::Shl, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::ConstantFolding},
            TransformationKind::ConstantFolding, &IL);
  // The whole expression folded to one constant: 42 << 2 = 168.
  const Block &Entry = IL->block(IL->entryBlock());
  const Node &Ret = IL->node(Entry.Trees.back());
  ASSERT_EQ(Ret.Op, ILOp::Return);
  const Node &V = IL->node(Ret.Kids[0]);
  EXPECT_EQ(V.Op, ILOp::Const);
  EXPECT_EQ(V.ConstI, 168);
}

TEST(Fold, IntegerWrapAroundMatchesRuntime) {
  Program P;
  MethodBuilder MB(P, "wrap", -1, MF_Static, {}, DataType::Int32);
  MB.constI(DataType::Int32, INT32_MAX).constI(DataType::Int32, 1);
  MB.binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::ConstantFolding},
            TransformationKind::ConstantFolding, &IL);
  const Node &Ret = IL->node(IL->block(IL->entryBlock()).Trees.back());
  EXPECT_EQ(IL->node(Ret.Kids[0]).ConstI, INT32_MIN);
}

TEST(Fold, DivByZeroNotFolded) {
  Program P;
  MethodBuilder MB(P, "dz", -1, MF_Static, {}, DataType::Int32);
  MB.constI(DataType::Int32, 7).constI(DataType::Int32, 0);
  MB.binop(BcOp::Div, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::ConstantFolding},
            TransformationKind::ConstantFolding, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::Div), 1u); // kept: must trap at run time
}

TEST(Fold, ConversionChains) {
  Program P;
  MethodBuilder MB(P, "cv", -1, MF_Static, {}, DataType::Int32);
  MB.constF(DataType::Double, 3.9).conv(DataType::Double, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::ConstantFolding},
            TransformationKind::ConstantFolding, &IL);
  const Node &Ret = IL->node(IL->block(IL->entryBlock()).Trees.back());
  EXPECT_EQ(IL->node(Ret.Kids[0]).ConstI, 3); // truncation toward zero
}

TEST(Simplify, AlgebraicIdentities) {
  Program P;
  MethodBuilder MB(P, "id", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  // ((x + 0) * 1) ^ (x - x)  ->  x
  MB.load(0).constI(DataType::Int32, 0).binop(BcOp::Add, DataType::Int32);
  MB.constI(DataType::Int32, 1).binop(BcOp::Mul, DataType::Int32);
  MB.load(0).load(0).binop(BcOp::Sub, DataType::Int32);
  MB.binop(BcOp::Xor, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  uint32_t Changes = runPasses(
      P, M,
      {TransformationKind::ExpressionSimplification,
       TransformationKind::ExpressionSimplification},
      TransformationKind::ExpressionSimplification);
  (void)Changes;
  EXPECT_EQ(runBothEngines(P, M, 1234, OptLevel::Warm), 1234);
}

TEST(StrengthRed, MulByPowerOfTwoBecomesShift) {
  Program P;
  MethodBuilder MB(P, "sh", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  MB.load(0).constI(DataType::Int32, 8).binop(BcOp::Mul, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::StrengthReduction},
            TransformationKind::StrengthReduction, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::Mul), 0u);
  EXPECT_EQ(countOps(*IL, ILOp::Shl), 1u);
  EXPECT_EQ(runBothEngines(P, M, -37), -296);
}

TEST(StrengthRed, MulByPow2PlusMinusOne) {
  for (int64_t C : {9, 7}) { // 8+1 and 8-1
    Program P;
    MethodBuilder MB(P, "sh", -1, MF_Static, {DataType::Int32},
                     DataType::Int32);
    MB.load(0).constI(DataType::Int32, C).binop(BcOp::Mul, DataType::Int32);
    MB.retValue(DataType::Int32);
    uint32_t M = MB.finish();
    std::unique_ptr<MethodIL> IL;
    runPasses(P, M, {TransformationKind::StrengthReduction},
              TransformationKind::StrengthReduction, &IL);
    EXPECT_EQ(countOps(*IL, ILOp::Mul), 0u) << "C=" << C;
    EXPECT_EQ(runBothEngines(P, M, 13), 13 * C);
  }
}

TEST(Reassoc, ConstantsGatherAndFold) {
  Program P;
  MethodBuilder MB(P, "ra", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  // ((x + 3) + 4) -> x + 7 after reassociation + folding.
  MB.load(0).constI(DataType::Int32, 3).binop(BcOp::Add, DataType::Int32);
  MB.constI(DataType::Int32, 4).binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M,
            {TransformationKind::Reassociation,
             TransformationKind::ConstantFolding},
            TransformationKind::Reassociation, &IL);
  const Node &Ret = IL->node(IL->block(IL->entryBlock()).Trees.back());
  const Node &Add = IL->node(Ret.Kids[0]);
  ASSERT_EQ(Add.Op, ILOp::Add);
  EXPECT_EQ(IL->node(Add.Kids[1]).ConstI, 7);
}

TEST(LocalCSE, CommonsRepeatedSubexpressions) {
  Program P;
  MethodBuilder MB(P, "cse", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  // (x*x) + (x*x): the second multiply should be commoned away.
  MB.load(0).load(0).binop(BcOp::Mul, DataType::Int32);
  MB.load(0).load(0).binop(BcOp::Mul, DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::LocalValueNumbering},
            TransformationKind::LocalValueNumbering, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::Mul), 1u);
  EXPECT_EQ(runBothEngines(P, M, 11), 242);
}

TEST(LocalCSE, LoadLocalKilledByStore) {
  Program P;
  MethodBuilder MB(P, "kill", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t T = MB.addLocal(DataType::Int32);
  // t = x + 1; x' dead... Use: a = x; x(local0) = 9; b = x; return a+b;
  MB.load(0).store(T);                           // t = x
  MB.constI(DataType::Int32, 9).store(0);        // x = 9
  MB.load(T).load(0).binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  // CSE must not merge the pre- and post-store loads of local 0.
  runPasses(P, M, {TransformationKind::LocalValueNumbering},
            TransformationKind::LocalValueNumbering);
  EXPECT_EQ(runBothEngines(P, M, 5), 14);
}

TEST(CopyProp, ConstReachesUse) {
  Program P;
  MethodBuilder MB(P, "cp", -1, MF_Static, {}, DataType::Int32);
  uint32_t A = MB.addLocal(DataType::Int32);
  MB.constI(DataType::Int32, 21).store(A);
  MB.load(A).load(A).binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M,
            {TransformationKind::LocalCopyPropagation,
             TransformationKind::ConstantFolding},
            TransformationKind::LocalCopyPropagation, &IL);
  const Node &Ret = IL->node(IL->block(IL->entryBlock()).Trees.back());
  EXPECT_EQ(IL->node(Ret.Kids[0]).Op, ILOp::Const);
  EXPECT_EQ(IL->node(Ret.Kids[0]).ConstI, 42);
}

TEST(DeadCode, DeadStoreAndTreeRemoved) {
  Program P;
  MethodBuilder MB(P, "dead", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t T = MB.addLocal(DataType::Int32);
  MB.load(0).constI(DataType::Int32, 5).binop(BcOp::Mul, DataType::Int32);
  MB.store(T); // dead: overwritten below
  MB.load(0).store(T);
  MB.load(T).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Dse = runPasses(P, M,
                           {TransformationKind::DeadStoreElimination,
                            TransformationKind::DeadTreeElimination},
                           TransformationKind::DeadStoreElimination, &IL);
  EXPECT_GE(Dse, 1u);
  EXPECT_EQ(countOps(*IL, ILOp::Mul), 0u); // the dead multiply vanished
  EXPECT_EQ(runBothEngines(P, M, 123), 123);
}

TEST(Checks, RedundantNullChecksRemoved) {
  Program P;
  ClassBuilder CB(P, "Obj");
  CB.addField(DataType::Int32);
  uint32_t Cls = CB.finish();
  (void)Cls;
  MethodBuilder MB(P, "nc", -1, MF_Static, {DataType::Object},
                   DataType::Int32);
  MB.load(0).getField(0, DataType::Int32);
  MB.load(0).getField(0, DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::NullCheckElimination},
            TransformationKind::NullCheckElimination, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::NullCheck), 1u); // second check redundant
}

TEST(Checks, DivCheckOnNonzeroConstRemoved) {
  Program P;
  MethodBuilder MB(P, "dc", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  MB.load(0).constI(DataType::Int32, 7).binop(BcOp::Div, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, M, {TransformationKind::DivCheckElimination},
            TransformationKind::DivCheckElimination, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::DivCheck), 0u);
  EXPECT_EQ(runBothEngines(P, M, 700), 100);
}

TEST(Checks, GuardMergingFusesNullIntoBounds) {
  Program P;
  MethodBuilder MB(P, "gm", -1, MF_Static,
                   {DataType::Address, DataType::Int32}, DataType::Int32);
  MB.load(0).load(1).aload(DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Changes = runPasses(P, M, {TransformationKind::GuardMerging},
                               TransformationKind::GuardMerging, &IL);
  EXPECT_EQ(Changes, 1u);
  EXPECT_EQ(countOps(*IL, ILOp::NullCheck), 0u);
  // The surviving bounds check carries the fused flag.
  bool Fused = false;
  for (NodeId Id = 0; Id < IL->numNodes(); ++Id)
    if (IL->node(Id).Op == ILOp::BoundsCheck && IL->node(Id).B == 1)
      Fused = true;
  EXPECT_TRUE(Fused);
}

TEST(Branch, ConstantConditionFolds) {
  Program P;
  MethodBuilder MB(P, "bf", -1, MF_Static, {}, DataType::Int32);
  auto Else = MB.newLabel();
  MB.constI(DataType::Int32, 1).constI(DataType::Int32, 2);
  MB.ifCmp(BcCond::Lt, Else);
  MB.constI(DataType::Int32, 100).retValue(DataType::Int32);
  MB.place(Else);
  MB.constI(DataType::Int32, 200).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Folds = runPasses(P, M,
                             {TransformationKind::BranchFolding,
                              TransformationKind::UnreachableCodeElimination},
                             TransformationKind::BranchFolding, &IL);
  EXPECT_EQ(Folds, 1u);
  EXPECT_EQ(countOps(*IL, ILOp::Branch), 0u);
  EXPECT_EQ(runBothEngines(P, M, 0, OptLevel::Cold), 200); // 1<2 taken
}

TEST(Inline, TrivialCalleeDisappears) {
  Program P = makeSumProgram(); // main calls sumToN (too big for trivial)
  // Add a trivial helper and a caller.
  MethodBuilder H(P, "half", -1, MF_Static, {DataType::Int32},
                  DataType::Int32);
  H.load(0).constI(DataType::Int32, 2).binop(BcOp::Div, DataType::Int32);
  H.retValue(DataType::Int32);
  uint32_t Half = H.finish();
  MethodBuilder C(P, "caller", -1, MF_Static, {DataType::Int32},
                  DataType::Int32);
  C.load(0).call(Half).call(Half).retValue(DataType::Int32);
  uint32_t Caller = C.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, Caller, {TransformationKind::InlineTrivial},
            TransformationKind::InlineTrivial, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::Call), 0u);
  EXPECT_EQ(runBothEngines(P, Caller, 100, OptLevel::Cold), 25);
}

TEST(Inline, SynchronizedCalleeRefused) {
  Program P;
  MethodBuilder H(P, "sync", -1, MF_Static | MF_Synchronized,
                  {DataType::Int32}, DataType::Int32);
  H.load(0).retValue(DataType::Int32);
  uint32_t Sync = H.finish();
  MethodBuilder C(P, "caller", -1, MF_Static, {DataType::Int32},
                  DataType::Int32);
  C.load(0).call(Sync).retValue(DataType::Int32);
  uint32_t Caller = C.finish();
  std::unique_ptr<MethodIL> IL;
  runPasses(P, Caller, {TransformationKind::InlineAggressive},
            TransformationKind::InlineSmall, &IL);
  EXPECT_EQ(countOps(*IL, ILOp::Call), 1u); // still a call
}

TEST(Inline, RecursionBounded) {
  Program P;
  uint32_t Fib = addFib(P);
  std::unique_ptr<MethodIL> IL;
  runPasses(P, Fib, {TransformationKind::InlineAggressive},
            TransformationKind::InlineSmall, &IL);
  // Growth budget stops runaway self-splicing; calls remain.
  EXPECT_GE(countOps(*IL, ILOp::Call), 1u);
  EXPECT_EQ(runBothEngines(P, Fib, 12, OptLevel::VeryHot), 144);
}

TEST(Devirt, MonomorphicCallGoesDirect) {
  Program P;
  uint32_t Base = ClassBuilder(P, "Base").finish();
  MethodBuilder V(P, "val", (int32_t)Base, MF_Public, {DataType::Object},
                  DataType::Int32);
  V.constI(DataType::Int32, 7).retValue(DataType::Int32);
  uint32_t Val = V.finish();
  MethodBuilder C(P, "go", -1, MF_Static, {}, DataType::Int32);
  C.newObject(Base).callVirtual(Val).retValue(DataType::Int32);
  uint32_t Go = C.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Changes = runPasses(P, Go, {TransformationKind::Devirtualization},
                               TransformationKind::Devirtualization, &IL);
  EXPECT_GE(Changes, 1u);
  for (NodeId Id = 0; Id < IL->numNodes(); ++Id) {
    if (IL->node(Id).Op == ILOp::Call) {
      EXPECT_EQ(IL->node(Id).B, 0); // direct now
    }
  }
  EXPECT_EQ(runBothEngines(P, Go, 0, OptLevel::Warm), 7);
}

TEST(Escape, NonEscapingAllocationMarked) {
  Program P;
  ClassBuilder CB(P, "Rec");
  CB.addField(DataType::Int32);
  uint32_t Rec = CB.finish();
  MethodBuilder MB(P, "esc", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t O = MB.addLocal(DataType::Object);
  MB.newObject(Rec).store(O);
  MB.load(O).load(0).putField(0, DataType::Int32);
  MB.load(O).getField(0, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Changes = runPasses(P, M, {TransformationKind::EscapeAnalysis},
                               TransformationKind::EscapeAnalysis, &IL);
  EXPECT_EQ(Changes, 1u);
  bool Marked = false;
  for (NodeId Id = 0; Id < IL->numNodes(); ++Id)
    if (IL->node(Id).Op == ILOp::New && (IL->node(Id).B & 1))
      Marked = true;
  EXPECT_TRUE(Marked);
  EXPECT_EQ(runBothEngines(P, M, 55, OptLevel::Hot), 55);
}

TEST(Escape, ReturnedAllocationEscapes) {
  Program P;
  uint32_t Rec = ClassBuilder(P, "Rec").finish();
  MethodBuilder MB(P, "ret", -1, MF_Static, {}, DataType::Object);
  MB.newObject(Rec).retValue(DataType::Object);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Changes = runPasses(P, M, {TransformationKind::EscapeAnalysis},
                               TransformationKind::EscapeAnalysis, &IL);
  EXPECT_EQ(Changes, 0u);
}

TEST(Monitor, ElidedOnNonEscapingObject) {
  Program P;
  ClassBuilder CB(P, "Rec");
  CB.addField(DataType::Int32);
  uint32_t Rec = CB.finish();
  MethodBuilder MB(P, "mon", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t O = MB.addLocal(DataType::Object);
  MB.newObject(Rec).store(O);
  MB.load(O).monitorEnter();
  MB.load(O).load(0).putField(0, DataType::Int32);
  MB.load(O).monitorExit();
  MB.load(O).getField(0, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Changes = runPasses(P, M, {TransformationKind::MonitorElision},
                               TransformationKind::MonitorElision, &IL);
  EXPECT_EQ(Changes, 2u); // enter + exit both gone
  EXPECT_EQ(countOps(*IL, ILOp::MonitorEnter), 0u);
  EXPECT_EQ(countOps(*IL, ILOp::MonitorExit), 0u);
  EXPECT_EQ(runBothEngines(P, M, 9, OptLevel::Hot), 9);
}

TEST(Loops, LicmHoistsInvariant) {
  Program P;
  uint32_t Kernel = addConstKernel(P);
  std::unique_ptr<MethodIL> IL;
  uint32_t Hoists =
      runPasses(P, Kernel,
                {TransformationKind::LoopCanonicalization,
                 TransformationKind::LoopInvariantCodeMotion},
                TransformationKind::LoopInvariantCodeMotion, &IL);
  EXPECT_GE(Hoists, 1u); // a*b + 11 moves to the preheader
  int64_t Expected = 0;
  for (int I = 0; I < 256; ++I)
    Expected += (7 * 9 + 11) + I * 3;
  VirtualMachine::Config Cfg;
  Cfg.Control.Enabled = false;
  VirtualMachine VM(P, Cfg);
  VM.compileMethod(Kernel, OptLevel::Hot);
  ExecResult R = VM.invoke(Kernel, {Value::ofI(7), Value::ofI(9)});
  EXPECT_EQ(R.Ret.I, Expected);
}

TEST(Loops, UnrollingPreservesSemantics) {
  Program P;
  uint32_t Kernel = addConstKernel(P);
  std::unique_ptr<MethodIL> IL;
  uint32_t Unrolls = runPasses(P, Kernel,
                               {TransformationKind::LoopCanonicalization,
                                TransformationKind::LoopUnrolling},
                               TransformationKind::LoopUnrolling, &IL);
  EXPECT_GE(Unrolls, 1u); // 256 % 2 == 0
  int64_t Expected = 0;
  for (int I = 0; I < 256; ++I)
    Expected += (3 * 5 + 11) + I * 3;
  VirtualMachine::Config Cfg;
  Cfg.Control.Enabled = false;
  VirtualMachine VM(P, Cfg);
  VM.compileMethod(Kernel, OptLevel::VeryHot);
  ExecResult R = VM.invoke(Kernel, {Value::ofI(3), Value::ofI(5)});
  EXPECT_EQ(R.Ret.I, Expected);
}

TEST(Loops, EmptyLoopRemoved) {
  Program P;
  MethodBuilder MB(P, "spin", -1, MF_Static, {}, DataType::Int32);
  uint32_t I = MB.addLocal(DataType::Int32);
  auto Head = MB.newLabel();
  auto Exit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(Head);
  MB.load(I).constI(DataType::Int32, 1000).ifCmp(BcCond::Ge, Exit);
  MB.inc(I, 1);
  MB.gotoLabel(Head);
  MB.place(Exit);
  MB.load(I).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Removed = runPasses(P, M,
                               {TransformationKind::LoopCanonicalization,
                                TransformationKind::EmptyLoopRemoval},
                               TransformationKind::EmptyLoopRemoval, &IL);
  EXPECT_EQ(Removed, 1u);
  // The final induction value must survive.
  EXPECT_EQ(runBothEngines(P, M, 0, OptLevel::Warm), 1000);
}

/// count(n): one live counter and \p Dead self-incremented counters nobody
/// reads, all updated in the one loop block:
///   `int i = 0, d1 = 0, ...; while (i < n) { d1++; ...; i++; } return i;`
uint32_t addDeadCounters(Program &P, unsigned Dead) {
  MethodBuilder MB(P, "count", -1, MF_Static | MF_Public, {DataType::Int32},
                   DataType::Int32);
  uint32_t I = MB.addLocal(DataType::Int32);
  std::vector<uint32_t> D;
  for (unsigned K = 0; K < Dead; ++K)
    D.push_back(MB.addLocal(DataType::Int32));
  auto Head = MB.newLabel();
  auto Exit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(I);
  for (uint32_t Slot : D)
    MB.constI(DataType::Int32, 0).store(Slot);
  MB.place(Head);
  MB.load(I).load(0).ifCmp(BcCond::Ge, Exit);
  for (uint32_t Slot : D)
    MB.inc(Slot, 1);
  MB.inc(I, 1);
  MB.gotoLabel(Head);
  MB.place(Exit);
  MB.load(I).retValue(DataType::Int32);
  return MB.finish();
}

// Induction-variable elimination once erased each dead slot's updates by
// tree indices recorded before any erasure, slot by slot in hash order:
// with many dead recurrences in one block, a later erase removed the wrong
// tree or ran past the end (a crash from 13 dead counters on).
TEST(Loops, DeadRecurrencesSharingABlockAreAllRemoved) {
  for (unsigned Dead : {1u, 12u, 13u, 14u, 40u}) {
    Program P;
    uint32_t M = addDeadCounters(P, Dead);
    std::unique_ptr<MethodIL> IL;
    runPasses(P, M, {TransformationKind::InductionVariableElimination},
              TransformationKind::InductionVariableElimination, &IL);
    // Only the live counter's update is left in the loop body.
    unsigned Stores = 0;
    for (BlockId B = 0; B < IL->numBlocks(); ++B)
      for (NodeId Root : IL->block(B).Trees) {
        const Node &N = IL->node(Root);
        if (N.Op == ILOp::StoreLocal && N.Kids.size() == 1 &&
            IL->node(N.Kids[0]).Op == ILOp::Add)
          ++Stores;
      }
    EXPECT_EQ(Stores, 1u) << Dead << " dead counters";

    // Scorching with induction-variable elimination alone, and every level
    // under its full plan, against the interpreter.
    BitSet64 OnlyIve = BitSet64::allZero(NumTransformations);
    OnlyIve.set((unsigned)TransformationKind::InductionVariableElimination);
    VirtualMachine::Config Cfg;
    Cfg.Control.Enabled = false;
    VirtualMachine VM(P, Cfg);
    VM.compileWithPlan(M, planForLevel(OptLevel::Scorching),
                       PlanModifier::fromRaw(OnlyIve.raw()));
    EXPECT_EQ(VM.invoke(M, {Value::ofI(25)}).Ret.I, 25);
    for (unsigned L = 0; L < NumOptLevels; ++L)
      EXPECT_EQ(runBothEngines(P, M, 25, (OptLevel)L), 25)
          << Dead << " dead counters at level " << L;
  }
}

TEST(Loops, CopyLoopBecomesArrayCopy) {
  Program P;
  MethodBuilder MB(P, "copy", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t Src = MB.addLocal(DataType::Address);
  uint32_t Dst = MB.addLocal(DataType::Address);
  uint32_t I = MB.addLocal(DataType::Int32);
  const int64_t Len = 64;
  MB.constI(DataType::Int32, Len).newArray(DataType::Int32).store(Src);
  MB.constI(DataType::Int32, Len).newArray(DataType::Int32).store(Dst);
  // Fill src with i ^ arg.
  auto FillHead = MB.newLabel();
  auto FillExit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(FillHead);
  MB.load(I).constI(DataType::Int32, Len).ifCmp(BcCond::Ge, FillExit);
  MB.load(Src).load(I);
  MB.load(I).load(0).binop(BcOp::Xor, DataType::Int32);
  MB.astore(DataType::Int32);
  MB.inc(I, 1);
  MB.gotoLabel(FillHead);
  MB.place(FillExit);
  // Copy loop.
  auto CopyHead = MB.newLabel();
  auto CopyExit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(CopyHead);
  MB.load(I).constI(DataType::Int32, Len).ifCmp(BcCond::Ge, CopyExit);
  MB.load(Dst).load(I);
  MB.load(Src).load(I).aload(DataType::Int32);
  MB.astore(DataType::Int32);
  MB.inc(I, 1);
  MB.gotoLabel(CopyHead);
  MB.place(CopyExit);
  MB.load(Dst).constI(DataType::Int32, 5).aload(DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  ASSERT_TRUE(verifyMethod(P, M).ok());
  std::unique_ptr<MethodIL> IL;
  uint32_t Recognized = runPasses(P, M,
                                  {TransformationKind::LoopCanonicalization,
                                   TransformationKind::IdiomRecognition},
                                  TransformationKind::IdiomRecognition, &IL);
  EXPECT_EQ(Recognized, 1u);
  EXPECT_GE(countOps(*IL, ILOp::ArrayCopy), 1u);
  EXPECT_EQ(runBothEngines(P, M, 40, OptLevel::Hot), 5 ^ 40);
}

TEST(Loops, BoundsVersioningDropsChecksInLengthLoop) {
  Program P;
  MethodBuilder MB(P, "scan", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  uint32_t Arr = MB.addLocal(DataType::Address);
  uint32_t Acc = MB.addLocal(DataType::Int32);
  uint32_t I = MB.addLocal(DataType::Int32);
  MB.constI(DataType::Int32, 40).newArray(DataType::Int32).store(Arr);
  MB.constI(DataType::Int32, 0).store(Acc);
  auto Head = MB.newLabel();
  auto Exit = MB.newLabel();
  MB.constI(DataType::Int32, 0).store(I);
  MB.place(Head);
  MB.load(I).load(Arr).arrayLen().ifCmp(BcCond::Ge, Exit);
  MB.load(Acc);
  MB.load(Arr).load(I).aload(DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32).store(Acc);
  MB.inc(I, 1);
  MB.gotoLabel(Head);
  MB.place(Exit);
  MB.load(Acc).load(0).binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Before;
  {
    auto Plain = generateIL(P, M);
    Before = countOps(*Plain, ILOp::BoundsCheck);
  }
  uint32_t Removed = runPasses(P, M,
                               {TransformationKind::LoopCanonicalization,
                                TransformationKind::LoopBoundsVersioning},
                               TransformationKind::LoopBoundsVersioning,
                               &IL);
  EXPECT_GE(Removed, 1u);
  EXPECT_LT(countOps(*IL, ILOp::BoundsCheck), Before);
  EXPECT_EQ(runBothEngines(P, M, 5, OptLevel::Hot), 5);
}

TEST(Codegen, ImplicitNullCheckMarked) {
  Program P;
  ClassBuilder CB(P, "Obj");
  CB.addField(DataType::Int32);
  uint32_t Cls = CB.finish();
  (void)Cls;
  MethodBuilder MB(P, "imp", -1, MF_Static, {DataType::Object},
                   DataType::Int32);
  MB.load(0).getField(0, DataType::Int32).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  std::unique_ptr<MethodIL> IL;
  uint32_t Marked = runPasses(P, M,
                              {TransformationKind::ImplicitExceptionChecks},
                              TransformationKind::ImplicitExceptionChecks,
                              &IL);
  EXPECT_EQ(Marked, 1u);
}

TEST(Plans, SizesMatchPaperSpan) {
  // "A plan may apply from 20 transformations (cold) to more than 170
  // (scorching)".
  EXPECT_EQ(planForLevel(OptLevel::Cold).size(), 20u);
  EXPECT_GE(planForLevel(OptLevel::Scorching).size(), 170u);
  EXPECT_LT(planForLevel(OptLevel::Cold).size(),
            planForLevel(OptLevel::Warm).size());
  EXPECT_LT(planForLevel(OptLevel::Warm).size(),
            planForLevel(OptLevel::Hot).size());
  EXPECT_LT(planForLevel(OptLevel::Hot).size(),
            planForLevel(OptLevel::VeryHot).size());
  EXPECT_LT(planForLevel(OptLevel::VeryHot).size(),
            planForLevel(OptLevel::Scorching).size());
}

TEST(Plans, FiftyEightControllableTransformations) {
  EXPECT_EQ(NumTransformations, 58u);
  // Every kind has a registry entry with a positive cost.
  std::set<std::string> Names;
  for (unsigned K = 0; K < NumTransformations; ++K) {
    const TransformationInfo &Info =
        transformationInfo((TransformationKind)K);
    EXPECT_GT(Info.CostPerNode, 0.0);
    EXPECT_GT(Info.BaseCost, 0.0);
    Names.insert(Info.Name);
  }
  EXPECT_EQ(Names.size(), NumTransformations); // names unique
}

TEST(Optimizer, DisabledEntriesAreSkipped) {
  Program P;
  uint32_t Kernel = addConstKernel(P);
  auto IL = generateIL(P, Kernel);
  BitSet64 None = BitSet64::allZero(NumTransformations);
  OptimizeResult R = optimize(*IL, planForLevel(OptLevel::Hot), None);
  EXPECT_EQ(R.EntriesRun, 0u);
  EXPECT_EQ(R.EntriesDisabled, planForLevel(OptLevel::Hot).size());
}

TEST(Optimizer, GuardSkipsInapplicablePasses) {
  // A loop-free method must skip every loop transformation.
  Program P;
  MethodBuilder MB(P, "flat", -1, MF_Static, {DataType::Int32},
                   DataType::Int32);
  MB.load(0).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  auto IL = generateIL(P, M);
  OptimizeResult R = optimize(*IL, planForLevel(OptLevel::Hot),
                              BitSet64::allOne(NumTransformations));
  EXPECT_GT(R.EntriesSkippedInapplicable, 0u);
}

TEST(Optimizer, CompileEffortScalesWithLevel) {
  Program P;
  uint32_t Kernel = addConstKernel(P);
  double Prev = 0.0;
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    auto IL = generateIL(P, Kernel);
    OptimizeResult R = optimize(*IL, planForLevel((OptLevel)L),
                                BitSet64::allOne(NumTransformations));
    EXPECT_GT(R.CompileCycles, Prev)
        << "level " << optLevelName((OptLevel)L);
    Prev = R.CompileCycles;
  }
}
