//===- bytecode/Verifier.cpp ----------------------------------------------===//

#include "bytecode/Verifier.h"

#include <cstdarg>
#include <cstdio>
#include <deque>

using namespace jitml;

std::string VerifyResult::message() const {
  std::string S;
  for (const auto &E : Errors) {
    if (!S.empty())
      S += '\n';
    S += E;
  }
  return S;
}

bool jitml::stackEffect(const Program &P, const MethodInfo &M, const BcInst &I,
                        unsigned &Pops, unsigned &Pushes) {
  Pops = Pushes = 0;
  switch (I.Op) {
  case BcOp::Nop:
    return true;
  case BcOp::Const:
  case BcOp::Load:
  case BcOp::GetGlobal:
  case BcOp::New:
    Pushes = 1;
    return true;
  case BcOp::Store:
  case BcOp::PutGlobal:
  case BcOp::Pop:
  case BcOp::MonitorEnter:
  case BcOp::MonitorExit:
  case BcOp::Throw:
    Pops = 1;
    return true;
  case BcOp::Inc:
    return true;
  case BcOp::GetField:
  case BcOp::ArrayLen:
  case BcOp::Neg:
  case BcOp::Conv:
  case BcOp::InstanceOf:
  case BcOp::CheckCast:
  case BcOp::NewArray:
    Pops = 1;
    Pushes = 1;
    return true;
  case BcOp::PutField:
  case BcOp::IfCmp:
    Pops = 2;
    return true;
  case BcOp::ALoad:
  case BcOp::Add:
  case BcOp::Sub:
  case BcOp::Mul:
  case BcOp::Div:
  case BcOp::Rem:
  case BcOp::Shl:
  case BcOp::Shr:
  case BcOp::Or:
  case BcOp::And:
  case BcOp::Xor:
  case BcOp::Cmp:
  case BcOp::ArrayCmp:
    Pops = 2;
    Pushes = 1;
    return true;
  case BcOp::AStore:
    Pops = 3;
    return true;
  case BcOp::If:
  case BcOp::IfRef:
    Pops = 1;
    return true;
  case BcOp::Goto:
    return true;
  case BcOp::Call:
  case BcOp::CallVirtual: {
    if (I.A < 0 || (uint32_t)I.A >= P.numMethods())
      return false;
    const MethodInfo &Callee = P.methodAt((uint32_t)I.A);
    Pops = Callee.numArgs();
    Pushes = Callee.ReturnType == DataType::Void ? 0 : 1;
    return true;
  }
  case BcOp::Return:
    Pops = M.ReturnType == DataType::Void ? 0 : 1;
    return true;
  case BcOp::NewMultiArray:
    if (I.A < 2)
      return false;
    Pops = (unsigned)I.A;
    Pushes = 1;
    return true;
  case BcOp::ArrayCopy:
    Pops = 5;
    return true;
  case BcOp::Dup:
    Pops = 1;
    Pushes = 2;
    return true;
  }
  return false;
}

namespace {

class MethodVerifier {
public:
  MethodVerifier(const Program &P, uint32_t MethodIndex)
      : Prog(P), M(P.methodAt(MethodIndex)), MethodIndex(MethodIndex) {}

  VerifyResult run();
  /// The deepest stack any path reaches (valid after a clean run()).
  unsigned maxDepth() const { return MaxDepth; }

private:
  void error(uint32_t Pc, const char *Fmt, ...)
      __attribute__((format(printf, 3, 4)));
  void visit(uint32_t Pc, int Depth);
  void flow(uint32_t Pc, int DepthAfter);

  const Program &Prog;
  const MethodInfo &M;
  uint32_t MethodIndex;
  VerifyResult Result;
  std::vector<int> DepthAt;     ///< -1 = unvisited
  std::deque<uint32_t> Worklist;
  unsigned MaxDepth = 0;
};

void MethodVerifier::error(uint32_t Pc, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  char Line[384];
  std::snprintf(Line, sizeof(Line), "%s @%u: %s",
                Prog.signatureOf(MethodIndex).c_str(), Pc, Buf);
  Result.Errors.push_back(Line);
}

void MethodVerifier::flow(uint32_t Target, int Depth) {
  if (Target >= M.Code.size()) {
    error(Target, "control flows past end of code");
    return;
  }
  if (DepthAt[Target] < 0) {
    DepthAt[Target] = Depth;
    Worklist.push_back(Target);
    return;
  }
  if (DepthAt[Target] != Depth)
    error(Target, "inconsistent stack depth at join (%d vs %d)",
          DepthAt[Target], Depth);
}

void MethodVerifier::visit(uint32_t Pc, int Depth) {
  const BcInst &I = M.Code[Pc];
  unsigned Pops = 0, Pushes = 0;
  if (!stackEffect(Prog, M, I, Pops, Pushes)) {
    error(Pc, "malformed operands for %s", bcOpName(I.Op));
    return;
  }
  if (Depth < (int)Pops) {
    error(Pc, "%s pops %u with stack depth %d", bcOpName(I.Op), Pops, Depth);
    return;
  }
  int After = Depth - (int)Pops + (int)Pushes;
  if ((unsigned)After > MaxDepth)
    MaxDepth = (unsigned)After;

  // Operand validity.
  switch (I.Op) {
  case BcOp::Load:
  case BcOp::Store:
  case BcOp::Inc:
    if (I.A < 0 || (uint32_t)I.A >= M.NumLocals)
      error(Pc, "local slot %d out of range (%u locals)", I.A, M.NumLocals);
    break;
  case BcOp::GetGlobal:
  case BcOp::PutGlobal:
    if (I.A < 0 || (uint32_t)I.A >= Prog.numGlobals())
      error(Pc, "global slot %d out of range", I.A);
    break;
  case BcOp::New:
  case BcOp::InstanceOf:
  case BcOp::CheckCast:
    if (I.A < 0 || (uint32_t)I.A >= Prog.numClasses())
      error(Pc, "class index %d out of range", I.A);
    break;
  case BcOp::Shl:
  case BcOp::Shr:
  case BcOp::Or:
  case BcOp::And:
  case BcOp::Xor:
    if (!isIntegerType(I.Type))
      error(Pc, "%s requires an integer type, got %s", bcOpName(I.Op),
            dataTypeName(I.Type));
    break;
  case BcOp::CallVirtual:
    if (I.A >= 0 && (uint32_t)I.A < Prog.numMethods() &&
        Prog.methodAt((uint32_t)I.A).isStatic())
      error(Pc, "virtual call to static method");
    break;
  default:
    break;
  }
  if (!Result.ok())
    return;

  // Successors.
  switch (I.Op) {
  case BcOp::IfCmp:
  case BcOp::If:
  case BcOp::IfRef:
    if (I.B < 0 || (uint32_t)I.B >= M.Code.size()) {
      error(Pc, "branch target %d out of range", I.B);
      return;
    }
    flow((uint32_t)I.B, After);
    flow(Pc + 1, After);
    return;
  case BcOp::Goto:
    if (I.A < 0 || (uint32_t)I.A >= M.Code.size()) {
      error(Pc, "branch target %d out of range", I.A);
      return;
    }
    flow((uint32_t)I.A, After);
    return;
  case BcOp::Return:
  case BcOp::Throw:
    if (After != 0 && I.Op == BcOp::Return)
      error(Pc, "return leaves %d values on the stack", After);
    return;
  default:
    flow(Pc + 1, After);
    return;
  }
}

VerifyResult MethodVerifier::run() {
  if (M.Code.empty()) {
    error(0, "empty method body");
    return std::move(Result);
  }
  if (M.NumLocals != M.LocalTypes.size())
    error(0, "NumLocals disagrees with LocalTypes");
  DepthAt.assign(M.Code.size(), -1);
  DepthAt[0] = 0;
  Worklist.push_back(0);
  // Exception handlers enter with exactly the thrown reference on the stack.
  for (const ExceptionEntry &E : M.ExceptionTable) {
    if (E.HandlerPc >= M.Code.size() || E.StartPc > E.EndPc ||
        E.EndPc > M.Code.size()) {
      error(E.HandlerPc, "malformed exception table entry");
      continue;
    }
    if (DepthAt[E.HandlerPc] < 0) {
      DepthAt[E.HandlerPc] = 1;
      Worklist.push_back(E.HandlerPc);
      if (MaxDepth < 1)
        MaxDepth = 1;
    }
  }
  while (!Worklist.empty() && Result.ok()) {
    uint32_t Pc = Worklist.front();
    Worklist.pop_front();
    visit(Pc, DepthAt[Pc]);
  }
  return std::move(Result);
}

} // namespace

VerifyResult jitml::verifyMethod(Program &P, uint32_t MethodIndex) {
  uint32_t MaxStack = 0;
  VerifyResult R = checkMethod(P, MethodIndex, MaxStack);
  if (R.ok())
    P.methodAt(MethodIndex).MaxStack = MaxStack;
  return R;
}

VerifyResult jitml::checkMethod(const Program &P, uint32_t MethodIndex,
                                uint32_t &MaxStack) {
  MethodVerifier V(P, MethodIndex);
  VerifyResult R = V.run();
  if (R.ok())
    MaxStack = V.maxDepth();
  return R;
}

VerifyResult jitml::verifyProgram(Program &P) {
  for (uint32_t I = 0; I < P.numMethods(); ++I) {
    VerifyResult R = verifyMethod(P, I);
    if (!R.ok())
      return R;
  }
  return VerifyResult();
}
