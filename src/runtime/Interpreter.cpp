//===- runtime/Interpreter.cpp - Bytecode interpreter ---------------------===//
//
// The pre-JIT execution engine: direct threaded interpretation of the
// stack bytecode with per-opcode dispatch cost. Semantics must match the
// native executor exactly (the differential tests depend on it).
//
// The per-opcode charges come from a table the VM builds once
// (fillInterpCosts); the locals and the operand stack live in the VM's
// frame for this call depth, sized from the method's verified stack bound.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecInternal.h"

#include "runtime/RuntimeOps.h"

using namespace jitml;

namespace {

/// Per-opcode interpretation cost: dispatch overhead plus the operation's
/// intrinsic cost from the shared model.
double interpCost(const CostModel &CM, BcOp Op) {
  double Base = CM.InterpDispatch;
  switch (Op) {
  case BcOp::Mul:
    return Base + CM.MulCost;
  case BcOp::Div:
  case BcOp::Rem:
    return Base + CM.DivCost;
  case BcOp::GetField:
  case BcOp::PutField:
    return Base + CM.FieldAccess;
  case BcOp::ALoad:
  case BcOp::AStore:
    return Base + CM.ElemAccess + CM.BoundsCost;
  case BcOp::GetGlobal:
  case BcOp::PutGlobal:
    return Base + CM.GlobalAccess;
  case BcOp::New:
    return Base + CM.AllocObject;
  case BcOp::NewArray:
  case BcOp::NewMultiArray:
    return Base + CM.AllocArrayBase;
  case BcOp::MonitorEnter:
  case BcOp::MonitorExit:
    return Base + CM.MonitorCost;
  case BcOp::Throw:
    return Base + CM.ThrowCost;
  case BcOp::InstanceOf:
  case BcOp::CheckCast:
    return Base + CM.InstanceOfCost;
  case BcOp::ArrayCopy:
    return Base + CM.ArrayCopyBase;
  case BcOp::ArrayCmp:
    return Base + CM.ArrayCmpBase;
  case BcOp::Call:
  case BcOp::CallVirtual:
    return Base; // call overhead charged by VirtualMachine::invoke
  default:
    return Base + CM.Alu;
  }
}

} // namespace

void jitml::fillInterpCosts(const CostModel &CM,
                            std::array<double, 256> &Costs) {
  for (unsigned Op = 0; Op < Costs.size(); ++Op)
    Costs[Op] = interpCost(CM, (BcOp)Op);
}

ExecResult jitml::interpretMethod(VirtualMachine &VM, uint32_t MethodIndex,
                                  const Value *Args, size_t NumArgs,
                                  unsigned Depth) {
  const Program &P = VM.program();
  const MethodInfo &M = P.methodAt(MethodIndex);
  const CostModel &CM = VM.costModel();
  const std::array<double, 256> &Costs = VM.InterpCosts;
  Heap &H = VM.heap();

  // Frame: [locals | operand stack].
  uint32_t StackBound = 0;
  if (!VM.stackBoundOf(MethodIndex, StackBound))
    return VM.raise(RtExceptionKind::VerifyError);
  assert(NumArgs <= M.NumLocals && "more arguments than locals");
  VirtualMachine::FrameLease Frame(VM, Depth, (size_t)M.NumLocals + StackBound);
  Value *Locals = Frame.data();
  Value *Stack = Locals + M.NumLocals;
  std::copy(Args, Args + NumArgs, Locals);
  std::fill(Locals + NumArgs, Stack, Value());
  Value *Sp = Stack; ///< one past the top of the operand stack

  // The verified bound keeps every push inside the frame.
  auto Push = [&](Value V) {
    assert(Sp < Stack + StackBound && "interpreter stack overflow");
    *Sp++ = V;
  };
  auto Pop = [&]() {
    assert(Sp > Stack && "interpreter stack underflow");
    return *--Sp;
  };

  RegisterClock Clock(VM);
  uint32_t Pc = 0;
  RtExceptionKind TrapKind = RtExceptionKind::NullPointer;
  uint32_t Exc = NullRef; ///< exception being dispatched

  while (true) {
    assert(Pc < M.Code.size() && "interpreter ran off the code");
    const BcInst &I = M.Code[Pc];
    Clock.charge(Costs[(uint8_t)I.Op]);
    switch (I.Op) {
    case BcOp::Nop:
      break;
    case BcOp::Const:
      if (isFloatType(I.Type))
        Push(Value::ofF(I.ImmF));
      else
        Push(Value::ofI(I.ImmI));
      break;
    case BcOp::Load:
      Push(Locals[(uint32_t)I.A]);
      break;
    case BcOp::Store:
      Locals[(uint32_t)I.A] = Pop();
      break;
    case BcOp::Inc:
      Locals[(uint32_t)I.A].I =
          normalizeRtInt(I.Type, Locals[(uint32_t)I.A].I + I.B);
      break;
    case BcOp::GetField: {
      Value Obj = Pop();
      if (H.isNull(Obj.R))
        goto NullTrap;
      Push(H.getSlot(Obj.R, (uint32_t)I.A));
      break;
    }
    case BcOp::PutField: {
      Value V = Pop();
      Value Obj = Pop();
      if (H.isNull(Obj.R))
        goto NullTrap;
      H.setSlot(Obj.R, (uint32_t)I.A, V);
      break;
    }
    case BcOp::GetGlobal:
      Push(VM.getGlobal((uint32_t)I.A));
      break;
    case BcOp::PutGlobal:
      VM.setGlobal((uint32_t)I.A, Pop());
      break;
    case BcOp::ALoad: {
      Value Idx = Pop();
      Value Arr = Pop();
      if (H.isNull(Arr.R))
        goto NullTrap;
      if (Idx.I < 0 || (uint64_t)Idx.I >= H.arrayLength(Arr.R))
        goto BoundsTrap;
      Push(H.getSlot(Arr.R, (uint32_t)Idx.I));
      break;
    }
    case BcOp::AStore: {
      Value V = Pop();
      Value Idx = Pop();
      Value Arr = Pop();
      if (H.isNull(Arr.R))
        goto NullTrap;
      if (Idx.I < 0 || (uint64_t)Idx.I >= H.arrayLength(Arr.R))
        goto BoundsTrap;
      H.setSlot(Arr.R, (uint32_t)Idx.I, V);
      break;
    }
    case BcOp::ArrayLen: {
      Value Arr = Pop();
      if (H.isNull(Arr.R))
        goto NullTrap;
      Push(Value::ofI(H.arrayLength(Arr.R)));
      break;
    }
    case BcOp::Add:
    case BcOp::Sub:
    case BcOp::Mul:
    case BcOp::Div:
    case BcOp::Rem:
    case BcOp::Shl:
    case BcOp::Shr:
    case BcOp::Or:
    case BcOp::And:
    case BcOp::Xor: {
      Value B = Pop();
      Value A = Pop();
      bool DivByZero = false;
      Value R = evalArith(I.Op, I.Type, A, B, DivByZero);
      if (DivByZero) {
        TrapKind = RtExceptionKind::ArithmeticDivByZero;
        goto Trap;
      }
      Push(R);
      break;
    }
    case BcOp::Neg: {
      Value A = Pop();
      if (isFloatType(I.Type))
        Push(Value::ofF(-A.F));
      else
        Push(Value::ofI(normalizeRtInt(I.Type, -A.I)));
      break;
    }
    case BcOp::Cmp: {
      Value B = Pop();
      Value A = Pop();
      Push(Value::ofI(compare3(I.Type, A, B)));
      break;
    }
    case BcOp::Conv:
      Push(convertValue((DataType)I.A, I.Type, Pop()));
      break;
    case BcOp::IfCmp: {
      Value B = Pop();
      Value A = Pop();
      if (testCond((BcCond)I.A, compare3(DataType::Int32, A, B))) {
        Pc = (uint32_t)I.B;
        continue;
      }
      break;
    }
    case BcOp::If: {
      Value A = Pop();
      if (testCond((BcCond)I.A, A.I < 0 ? -1 : (A.I > 0 ? 1 : 0))) {
        Pc = (uint32_t)I.B;
        continue;
      }
      break;
    }
    case BcOp::IfRef: {
      Value A = Pop();
      bool Taken = I.A == 0 ? H.isNull(A.R) : !H.isNull(A.R);
      if (Taken) {
        Pc = (uint32_t)I.B;
        continue;
      }
      break;
    }
    case BcOp::Goto:
      Pc = (uint32_t)I.A;
      continue;
    case BcOp::Call:
    case BcOp::CallVirtual: {
      uint32_t Target = (uint32_t)I.A;
      // The arguments are the top of the operand stack, in order: pass
      // them in place.
      unsigned NumCallArgs = P.methodAt(Target).numArgs();
      assert(Sp - Stack >= (ptrdiff_t)NumCallArgs && "stack underflow");
      Sp -= NumCallArgs;
      const Value *CallArgs = Sp;
      if (I.Op == BcOp::CallVirtual) {
        if (H.isNull(CallArgs[0].R))
          goto NullTrap;
        int32_t DynClass = H.classOf(CallArgs[0].R);
        assert(DynClass >= 0 && "virtual call on a non-object");
        Target = Clock.around(
            [&] { return P.resolveVirtual(Target, (uint32_t)DynClass); });
      }
      ExecResult R = Clock.around([&] {
        return VM.invoke(Target, CallArgs, NumCallArgs, Depth + 1);
      });
      if (R.Exceptional) {
        Exc = R.ExcRef;
        goto Dispatch;
      }
      if (P.methodAt(Target).ReturnType != DataType::Void)
        Push(R.Ret);
      break;
    }
    case BcOp::Return: {
      Value Ret = M.ReturnType == DataType::Void ? Value() : Pop();
      Clock.store();
      return ExecResult::ok(Ret);
    }
    case BcOp::New:
      Push(Value::ofR(
          Clock.around([&] { return H.allocObject(P, (uint32_t)I.A); })));
      break;
    case BcOp::NewArray: {
      Value Len = Pop();
      if (Len.I < 0)
        goto NegativeSizeTrap;
      Clock.charge(CM.AllocArrayPerElem * (double)Len.I);
      Push(Value::ofR(Clock.around(
          [&] { return H.allocArray(I.Type, (uint32_t)Len.I); })));
      break;
    }
    case BcOp::NewMultiArray: {
      unsigned Dims = (unsigned)I.A;
      // The lengths stay where they were pushed while the arrays are built.
      Sp -= Dims;
      const Value *Lens = Sp;
      for (unsigned K = 0; K < Dims; ++K)
        if (Lens[K].I < 0)
          goto NegativeSizeTrap;
      // Build nested arrays depth-first; the allocation charges through
      // the VM itself.
      auto Build = [&VM, &CM, &H, &I, Lens, Dims](auto &&Self,
                                                  unsigned Dim) -> uint32_t {
        uint32_t Len = (uint32_t)Lens[Dim].I;
        DataType ET = Dim + 1 == Dims ? I.Type : DataType::Address;
        VM.charge(CM.AllocArrayPerElem * (double)Len);
        uint32_t Arr = H.allocArray(ET, Len);
        if (Dim + 1 < Dims)
          for (uint32_t K = 0; K < Len; ++K)
            H.setSlot(Arr, K, Value::ofR(Self(Self, Dim + 1)));
        return Arr;
      };
      Push(Value::ofR(Clock.around([&] { return Build(Build, 0); })));
      break;
    }
    case BcOp::InstanceOf: {
      Value Obj = Pop();
      bool Is = false;
      if (!H.isNull(Obj.R)) {
        int32_t Cls = H.classOf(Obj.R);
        Is = Cls >= 0 &&
             Clock.around([&] { return P.isSubclassOf(Cls, I.A); });
      }
      Push(Value::ofI(Is ? 1 : 0));
      break;
    }
    case BcOp::CheckCast: {
      Value Obj = Pop();
      if (!H.isNull(Obj.R)) {
        int32_t Cls = H.classOf(Obj.R);
        if (Cls < 0 ||
            !Clock.around([&] { return P.isSubclassOf(Cls, I.A); })) {
          TrapKind = RtExceptionKind::ClassCast;
          goto Trap;
        }
      }
      Push(Obj);
      break;
    }
    case BcOp::MonitorEnter:
    case BcOp::MonitorExit:
      // Single-threaded: the cost is the semantics.
      if (H.isNull(Pop().R))
        goto NullTrap;
      break;
    case BcOp::Throw:
      Exc = Pop().R;
      if (H.isNull(Exc))
        goto NullTrap;
      VM.noteException();
      goto Dispatch;
    case BcOp::ArrayCopy: {
      Value Len = Pop();
      Value DstPos = Pop();
      Value Dst = Pop();
      Value SrcPos = Pop();
      Value Src = Pop();
      if (H.isNull(Src.R) || H.isNull(Dst.R))
        goto NullTrap;
      if (Len.I < 0 || SrcPos.I < 0 || DstPos.I < 0 ||
          (uint64_t)(SrcPos.I + Len.I) > H.arrayLength(Src.R) ||
          (uint64_t)(DstPos.I + Len.I) > H.arrayLength(Dst.R))
        goto BoundsTrap;
      Clock.charge(CM.ArrayCopyPerElem * (double)Len.I);
      for (int64_t K = 0; K < Len.I; ++K)
        H.setSlot(Dst.R, (uint32_t)(DstPos.I + K),
                  H.getSlot(Src.R, (uint32_t)(SrcPos.I + K)));
      break;
    }
    case BcOp::ArrayCmp: {
      Value B = Pop();
      Value A = Pop();
      if (H.isNull(A.R) || H.isNull(B.R))
        goto NullTrap;
      uint32_t LenA = H.arrayLength(A.R), LenB = H.arrayLength(B.R);
      uint32_t N = std::min(LenA, LenB);
      Clock.charge(CM.ArrayCmpPerElem * (double)N);
      int64_t Cmp = 0;
      for (uint32_t K = 0; K < N && Cmp == 0; ++K) {
        int64_t X = H.getSlot(A.R, K).I, Y = H.getSlot(B.R, K).I;
        Cmp = X < Y ? -1 : (X > Y ? 1 : 0);
      }
      if (Cmp == 0 && LenA != LenB)
        Cmp = LenA < LenB ? -1 : 1;
      Push(Value::ofI(Cmp));
      break;
    }
    case BcOp::Pop:
      Pop();
      break;
    case BcOp::Dup: {
      Value V = Pop();
      Push(V);
      Push(V);
      break;
    }
    }
    ++Pc;
    continue;

    // Runtime traps raise a fresh built-in exception; throws and callee
    // exceptions arrive at Dispatch with the exception already in Exc.
  NullTrap:
    TrapKind = RtExceptionKind::NullPointer;
    goto Trap;
  BoundsTrap:
    TrapKind = RtExceptionKind::ArrayIndexOutOfBounds;
    goto Trap;
  NegativeSizeTrap:
    TrapKind = RtExceptionKind::NegativeArraySize;
  Trap:
    Exc = Clock.around([&] { return H.allocException(TrapKind); });
    VM.noteException();
  Dispatch:
    // Find a handler covering Pc, or unwind.
    for (const ExceptionEntry &E : M.ExceptionTable) {
      if (Pc < E.StartPc || Pc >= E.EndPc)
        continue;
      if (E.ClassIndex >= 0) {
        int32_t Cls = H.classOf(Exc);
        if (Cls < 0 ||
            !Clock.around([&] { return P.isSubclassOf(Cls, E.ClassIndex); }))
          continue;
      }
      Sp = Stack;
      Push(Value::ofR(Exc));
      Pc = E.HandlerPc;
      goto NextInst;
    }
    Clock.charge(CM.UnwindPerFrame);
    Clock.store();
    return ExecResult::exception(Exc);
  NextInst:;
  }
}
