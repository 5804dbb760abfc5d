//===- tests/exec/InterpreterFramesTest.cpp - pooled interpreter frames ---===//
//
// The interpreter sizes each pooled operand stack from the method's
// MaxStack. A program that skipped the verifier carries MaxStack 0, so the
// VM verifies such a method itself, once, and a method the verifier
// rejects raises VerifyError instead of running outside its frame.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "bytecode/Verifier.h"
#include "runtime/VirtualMachine.h"

#include <gtest/gtest.h>

using namespace jitml;

namespace {

constexpr int64_t DeepWidth = 64;

/// deep(x, n): pushes x + 0 ... x + DeepWidth-1, then deep(x + 1, n - 1)
/// (or 0 once n is 0) on top of them, and sums the lot. The operand stack
/// peaks at DeepWidth + 3 (while computing n - 1), with n + 1 activations
/// live.
uint32_t addDeepStack(Program &P) {
  MethodInfo Proto;
  Proto.Name = "deep";
  Proto.Flags = MF_Static;
  Proto.ArgTypes = {DataType::Int32, DataType::Int32};
  Proto.ReturnType = DataType::Int32;
  uint32_t Self = P.declarePrototype(std::move(Proto));
  MethodBuilder MB(P, Self);
  for (int64_t K = 0; K < DeepWidth; ++K)
    MB.load(0).constI(DataType::Int32, K).binop(BcOp::Add, DataType::Int32);
  auto Leaf = MB.newLabel();
  auto Sum = MB.newLabel();
  MB.load(1).ifZero(BcCond::Le, Leaf);
  MB.load(0).constI(DataType::Int32, 1).binop(BcOp::Add, DataType::Int32);
  MB.load(1).constI(DataType::Int32, 1).binop(BcOp::Sub, DataType::Int32);
  MB.call(Self).gotoLabel(Sum);
  MB.place(Leaf);
  MB.constI(DataType::Int32, 0);
  MB.place(Sum);
  for (int64_t K = 0; K < DeepWidth; ++K)
    MB.binop(BcOp::Add, DataType::Int32);
  MB.retValue(DataType::Int32);
  return MB.finish();
}

int64_t deepExpected(int64_t X, int64_t N) {
  int64_t S = 0;
  for (int64_t K = 0; K < DeepWidth; ++K)
    S += X + K;
  return S + (N > 0 ? deepExpected(X + 1, N - 1) : 0);
}

/// catcher(): calls a method that throws and swallows the exception. Only
/// the handler's entry puts a value on its operand stack.
uint32_t addCatcher(Program &P) {
  uint32_t Exc = ClassBuilder(P, "Boom").finish();
  MethodBuilder Thrower(P, "boom", -1, MF_Static, {}, DataType::Void);
  Thrower.newObject(Exc).throwRef();
  uint32_t Boom = Thrower.finish();
  MethodBuilder MB(P, "catcher", -1, MF_Static, {}, DataType::Void);
  uint32_t Caught = MB.addLocal(DataType::Address);
  auto Handler = MB.newLabel();
  auto Done = MB.newLabel();
  uint32_t Try = MB.beginTry();
  MB.call(Boom).gotoLabel(Done);
  MB.endTry(Try, Handler);
  MB.place(Handler);
  MB.store(Caught);
  MB.place(Done);
  MB.ret();
  return MB.finish();
}

} // namespace

TEST(InterpreterFrames, UnverifiedProgramsGetTheVerifiedStackBound) {
  // Neither method goes through the verifier, so both carry MaxStack 0.
  // Sizing the pooled operand stack from that alone would write past the
  // frame (ASan reports it; a plain build corrupts the allocator).
  Program P;
  uint32_t Deep = addDeepStack(P);
  uint32_t Catcher = addCatcher(P);
  ASSERT_EQ(P.methodAt(Deep).MaxStack, 0u);
  ASSERT_EQ(P.methodAt(Catcher).MaxStack, 0u);

  Program Verified = P;
  ASSERT_TRUE(verifyProgram(Verified).ok());
  EXPECT_EQ(Verified.methodAt(Deep).MaxStack, (uint32_t)DeepWidth + 3);
  EXPECT_EQ(Verified.methodAt(Catcher).MaxStack, 1u);

  for (const Program *Prog : {&P, &Verified}) {
    VirtualMachine::Config Cfg;
    Cfg.EnableJit = false;
    VirtualMachine VM(*Prog, Cfg);
    for (int64_t N : {0, 3, 7}) {
      ExecResult R = VM.invoke(Deep, {Value::ofI(5), Value::ofI(N)});
      ASSERT_FALSE(R.Exceptional);
      EXPECT_EQ(R.Ret.I, deepExpected(5, N)) << "n = " << N;
    }
    ExecResult C = VM.invoke(Catcher, {});
    EXPECT_FALSE(C.Exceptional);
    EXPECT_EQ(VM.stats().ExceptionsRaised, 1u);
  }
  // The VM derives the bound without writing it into the program.
  EXPECT_EQ(P.methodAt(Deep).MaxStack, 0u);
}

TEST(InterpreterFrames, RaisesVerifyErrorForRejectedMethods) {
  // An add with nothing on the stack has no operand-stack bound: the
  // interpreter raises a VerifyError, as a JVM loading the method would,
  // instead of reading outside its frame.
  Program P;
  MethodBuilder MB(P, "underflow", -1, MF_Static, {}, DataType::Int32);
  MB.binop(BcOp::Add, DataType::Int32).retValue(DataType::Int32);
  uint32_t M = MB.finish();
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  VirtualMachine VM(P, Cfg);
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    ExecResult R = VM.invoke(M, {});
    ASSERT_TRUE(R.Exceptional);
    EXPECT_EQ(VM.heap().classOf(R.ExcRef),
              (int32_t)RtExceptionKind::VerifyError);
  }
}
