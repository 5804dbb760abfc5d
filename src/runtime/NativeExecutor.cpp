//===- runtime/NativeExecutor.cpp - Simulated native execution ------------===//
//
// Interprets compiled NativeMethod bodies under the cycle cost model:
// per-instruction issue costs, dependency stalls, taken-branch penalties
// relative to the emitted layout, per-block spill penalties, and the
// method-wide icache factor. Semantics match the bytecode interpreter
// exactly; only the cycle accounting differs.
//
// Everything static about those costs is decoded once per body
// (decodeCharges), so the loop charges one precomputed value per executed
// instruction, through a clock held in locals (RegisterClock), in a frame
// the VM reuses per call depth.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecInternal.h"

#include "runtime/RuntimeOps.h"

#include <algorithm>

using namespace jitml;

namespace {

/// Maps NOp arithmetic back to the shared BcOp evaluator.
BcOp arithBcOp(NOp Op) {
  switch (Op) {
  case NOp::Add:
    return BcOp::Add;
  case NOp::Sub:
    return BcOp::Sub;
  case NOp::Mul:
    return BcOp::Mul;
  case NOp::Div:
    return BcOp::Div;
  case NOp::Rem:
    return BcOp::Rem;
  case NOp::Shl:
    return BcOp::Shl;
  case NOp::Shr:
    return BcOp::Shr;
  case NOp::Or:
    return BcOp::Or;
  case NOp::And:
    return BcOp::And;
  case NOp::Xor:
    return BcOp::Xor;
  default:
    assert(false && "not an arithmetic native op");
    return BcOp::Add;
  }
}

/// True when \p I reads register \p R.
bool reads(const NativeInst &I, uint16_t R) {
  return I.A == R || I.B == R ||
         std::find(I.Args.begin(), I.Args.end(), R) != I.Args.end();
}

} // namespace

void jitml::decodeCharges(NativeMethod &Code, const CostModel &CM) {
  double ICache = Code.ICacheFactor;
  // Position of each block in the emitted layout (for taken-branch cost).
  std::vector<uint32_t> LayoutPos(Code.Blocks.size(), UINT32_MAX);
  for (uint32_t I = 0; I < Code.Layout.size(); ++I)
    LayoutPos[Code.Layout[I]] = I;
  auto LeavesLayout = [&](uint32_t From, int32_t To) {
    return To >= 0 && LayoutPos[(uint32_t)To] != LayoutPos[From] + 1;
  };

  Code.MaxCallArgs = 0;
  for (uint32_t BI = 0; BI < Code.Blocks.size(); ++BI) {
    NativeBlock &B = Code.Blocks[BI];
    B.EntryCharge = B.SpillPenalty * ICache;
    B.TakenLeavesLayout = LeavesLayout(BI, B.SuccTaken);
    B.FallLeavesLayout = LeavesLayout(BI, B.SuccFall);
    B.Charges.resize(B.Insts.size());
    for (size_t II = 0; II < B.Insts.size(); ++II) {
      const NativeInst &I = B.Insts[II];
      double Cost = CM.instCost(I);
      // Pipeline stall: the previous instruction's result is consumed
      // immediately. Static: the previous result is NoReg on every block
      // entry and after every exception transfer, which also enters a
      // block, so it is always the previous instruction's in this block.
      if (II > 0 && B.Insts[II - 1].Dst != NoReg &&
          reads(I, B.Insts[II - 1].Dst))
        Cost += CM.StallCost;
      B.Charges[II] = Cost * ICache;
      if (I.Op == NOp::CallM)
        Code.MaxCallArgs = std::max(Code.MaxCallArgs, (uint32_t)I.Args.size());
    }
  }
}

ExecResult jitml::executeNative(VirtualMachine &VM, const NativeMethod &Code,
                                const Value *Args, size_t NumArgs,
                                unsigned Depth) {
  const Program &P = VM.program();
  const CostModel &CM = VM.costModel();
  Heap &H = VM.heap();
  double ICache = Code.ICacheFactor;

  // Frame: [locals | registers | outgoing call arguments].
  uint32_t NumRegs = std::max<uint32_t>(Code.NumVRegs, 1);
  assert(NumArgs <= Code.NumLocals && "more arguments than locals");
  VirtualMachine::FrameLease Frame(VM, Depth,
                                   (size_t)Code.NumLocals + NumRegs +
                                       Code.MaxCallArgs);
  Value *Locals = Frame.data();
  Value *Regs = Locals + Code.NumLocals;
  Value *CallArgs = Regs + NumRegs;
  std::copy(Args, Args + NumArgs, Locals);
  std::fill(Locals + NumArgs, CallArgs, Value());
  Value ExcValue; ///< the in-flight exception for LdExc

  RegisterClock Clock(VM);
  uint32_t Block = Code.Entry;
  RtExceptionKind TrapKind = RtExceptionKind::NullPointer;
  uint32_t Exc = NullRef; ///< exception being dispatched

  while (true) {
    const NativeBlock &B = Code.Blocks[Block];
    assert(B.Charges.size() == B.Insts.size() && "body was not decoded");
    Clock.charge(B.EntryCharge);

    for (size_t II = 0, N = B.Insts.size(); II < N; ++II) {
      const NativeInst &I = B.Insts[II];
      Clock.charge(B.Charges[II]);

      switch (I.Op) {
      case NOp::Nop:
        break;
      case NOp::ConstI:
        Regs[I.Dst] = Value::ofI(I.Imm);
        break;
      case NOp::ConstF:
        Regs[I.Dst] = Value::ofF(I.FImm);
        break;
      case NOp::Move:
        Regs[I.Dst] = Regs[I.A];
        break;
      case NOp::LdLoc:
        Regs[I.Dst] = Locals[(uint32_t)I.Aux];
        break;
      case NOp::StLoc:
        Locals[(uint32_t)I.Aux] = Regs[I.A];
        break;
      case NOp::LdGlob:
        Regs[I.Dst] = VM.getGlobal((uint32_t)I.Aux);
        break;
      case NOp::StGlob:
        VM.setGlobal((uint32_t)I.Aux, Regs[I.A]);
        break;
      case NOp::LdFld: {
        uint32_t Obj = Regs[I.A].R;
        if (H.isNull(Obj))
          goto NullTrap;
        Regs[I.Dst] = H.getSlot(Obj, (uint32_t)I.Aux);
        break;
      }
      case NOp::StFld: {
        uint32_t Obj = Regs[I.A].R;
        if (H.isNull(Obj))
          goto NullTrap;
        H.setSlot(Obj, (uint32_t)I.Aux, Regs[I.B]);
        break;
      }
      case NOp::LdElem: {
        uint32_t Arr = Regs[I.A].R;
        int64_t Idx = Regs[I.B].I;
        if (H.isNull(Arr))
          goto NullTrap;
        if (Idx < 0 || (uint64_t)Idx >= H.arrayLength(Arr))
          goto BoundsTrap;
        Regs[I.Dst] = H.getSlot(Arr, (uint32_t)Idx);
        break;
      }
      case NOp::StElem: {
        uint32_t Arr = Regs[I.A].R;
        int64_t Idx = Regs[I.B].I;
        if (H.isNull(Arr))
          goto NullTrap;
        if (Idx < 0 || (uint64_t)Idx >= H.arrayLength(Arr))
          goto BoundsTrap;
        H.setSlot(Arr, (uint32_t)Idx, Regs[I.Args[0]]);
        break;
      }
      case NOp::ArrLen: {
        uint32_t Arr = Regs[I.A].R;
        if (H.isNull(Arr))
          goto NullTrap;
        Regs[I.Dst] = Value::ofI(H.arrayLength(Arr));
        break;
      }
      case NOp::LdExc:
        Regs[I.Dst] = ExcValue;
        break;
      case NOp::Add:
      case NOp::Sub:
      case NOp::Mul:
      case NOp::Div:
      case NOp::Rem:
      case NOp::Shl:
      case NOp::Shr:
      case NOp::Or:
      case NOp::And:
      case NOp::Xor: {
        bool DivByZero = false;
        Value R =
            evalArith(arithBcOp(I.Op), I.T, Regs[I.A], Regs[I.B], DivByZero);
        if (DivByZero)
          goto DivTrap;
        Regs[I.Dst] = R;
        break;
      }
      case NOp::Neg:
        if (isFloatType(I.T))
          Regs[I.Dst] = Value::ofF(-Regs[I.A].F);
        else
          Regs[I.Dst] = Value::ofI(normalizeRtInt(I.T, -Regs[I.A].I));
        break;
      case NOp::Cmp3:
        Regs[I.Dst] = Value::ofI(compare3(I.T, Regs[I.A], Regs[I.B]));
        break;
      case NOp::CmpCond:
        Regs[I.Dst] = Value::ofI(
            testCond((BcCond)I.Aux, compare3(I.T, Regs[I.A], Regs[I.B]))
                ? 1
                : 0);
        break;
      case NOp::Conv:
        Regs[I.Dst] = convertValue((DataType)I.Aux, I.T, Regs[I.A]);
        break;
      case NOp::Br:
      case NOp::Jmp:
        // Handled below as the terminator.
        break;
      case NOp::CallM: {
        uint32_t Target = (uint32_t)I.Aux;
        size_t NumCallArgs = I.Args.size();
        for (size_t K = 0; K < NumCallArgs; ++K)
          CallArgs[K] = Regs[I.Args[K]];
        if (I.Imm == 1) { // virtual dispatch
          if (H.isNull(CallArgs[0].R))
            goto NullTrap;
          int32_t DynClass = H.classOf(CallArgs[0].R);
          assert(DynClass >= 0 && "virtual call on non-object");
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
        if (I.Dst != NoReg)
          Regs[I.Dst] = R.Ret;
        break;
      }
      case NOp::Ret:
        Clock.store();
        return ExecResult::ok(I.A == NoReg ? Value() : Regs[I.A]);
      case NOp::ThrowR:
        Exc = Regs[I.A].R;
        if (H.isNull(Exc))
          goto NullTrap;
        VM.noteException();
        goto Dispatch;
      case NOp::NewObj:
        Regs[I.Dst] = Value::ofR(
            Clock.around([&] { return H.allocObject(P, (uint32_t)I.Aux); }));
        break;
      case NOp::NewArr: {
        int64_t Len = Regs[I.A].I;
        if (Len < 0)
          goto NegativeSizeTrap;
        Clock.charge(CM.AllocArrayPerElem * (double)Len * ICache);
        Regs[I.Dst] = Value::ofR(
            Clock.around([&] { return H.allocArray(I.T, (uint32_t)Len); }));
        break;
      }
      case NOp::NewMulti: {
        unsigned Dims = (unsigned)I.Aux;
        for (unsigned K = 0; K < Dims; ++K)
          if (Regs[I.Args[K]].I < 0)
            goto NegativeSizeTrap;
        // The nested allocation charges through the VM itself.
        auto Build = [&VM, &CM, &H, &I, Regs, Dims,
                      ICache](auto &&Self, unsigned Dim) -> uint32_t {
          uint32_t Len = (uint32_t)Regs[I.Args[Dim]].I;
          DataType ET = Dim + 1 == Dims ? I.T : DataType::Address;
          VM.charge(CM.AllocArrayPerElem * (double)Len * ICache);
          uint32_t Arr = H.allocArray(ET, Len);
          if (Dim + 1 < Dims)
            for (uint32_t K = 0; K < Len; ++K)
              H.setSlot(Arr, K, Value::ofR(Self(Self, Dim + 1)));
          return Arr;
        };
        Regs[I.Dst] = Value::ofR(Clock.around([&] { return Build(Build, 0); }));
        break;
      }
      case NOp::InstOf: {
        uint32_t Obj = Regs[I.A].R;
        bool Is = false;
        if (!H.isNull(Obj)) {
          int32_t Cls = H.classOf(Obj);
          Is = Cls >= 0 &&
               Clock.around([&] { return P.isSubclassOf(Cls, I.Aux); });
        }
        Regs[I.Dst] = Value::ofI(Is ? 1 : 0);
        break;
      }
      case NOp::ChkCast: {
        uint32_t Obj = Regs[I.A].R;
        if (!H.isNull(Obj)) {
          int32_t Cls = H.classOf(Obj);
          if (Cls < 0 ||
              !Clock.around([&] { return P.isSubclassOf(Cls, I.Aux); })) {
            TrapKind = RtExceptionKind::ClassCast;
            goto Trap;
          }
        }
        break;
      }
      case NOp::MonEnter:
      case NOp::MonExit:
      case NOp::NullChk:
        if (H.isNull(Regs[I.A].R))
          goto NullTrap;
        break;
      case NOp::BndChk: {
        uint32_t Arr = Regs[I.A].R;
        // A fused check covers the null test the guard-merging pass
        // removed.
        if (H.isNull(Arr))
          goto NullTrap;
        int64_t Idx = Regs[I.B].I;
        if (Idx < 0 || (uint64_t)Idx >= H.arrayLength(Arr))
          goto BoundsTrap;
        break;
      }
      case NOp::DivChk:
        if (Regs[I.A].I == 0)
          goto DivTrap;
        break;
      case NOp::ArrCopy: {
        uint32_t Src = Regs[I.Args[0]].R;
        int64_t SrcPos = Regs[I.Args[1]].I;
        uint32_t Dst = Regs[I.Args[2]].R;
        int64_t DstPos = Regs[I.Args[3]].I;
        int64_t Len = Regs[I.Args[4]].I;
        if (H.isNull(Src) || H.isNull(Dst))
          goto NullTrap;
        if (Len < 0 || SrcPos < 0 || DstPos < 0 ||
            (uint64_t)(SrcPos + Len) > H.arrayLength(Src) ||
            (uint64_t)(DstPos + Len) > H.arrayLength(Dst))
          goto BoundsTrap;
        Clock.charge(CM.ArrayCopyPerElem * (double)Len * ICache);
        for (int64_t K = 0; K < Len; ++K)
          H.setSlot(Dst, (uint32_t)(DstPos + K),
                    H.getSlot(Src, (uint32_t)(SrcPos + K)));
        break;
      }
      case NOp::ArrCmp: {
        uint32_t A = Regs[I.A].R, BRef = Regs[I.B].R;
        if (H.isNull(A) || H.isNull(BRef))
          goto NullTrap;
        uint32_t LenA = H.arrayLength(A), LenB = H.arrayLength(BRef);
        uint32_t N = std::min(LenA, LenB);
        Clock.charge(CM.ArrayCmpPerElem * (double)N * ICache);
        int64_t Cmp = 0;
        for (uint32_t K = 0; K < N && Cmp == 0; ++K) {
          int64_t X = H.getSlot(A, K).I, Y = H.getSlot(BRef, K).I;
          Cmp = X < Y ? -1 : (X > Y ? 1 : 0);
        }
        if (Cmp == 0 && LenA != LenB)
          Cmp = LenA < LenB ? -1 : 1;
        Regs[I.Dst] = Value::ofI(Cmp);
        break;
      }
      }
    }

    {
      // Terminator: decide the next block and charge layout-sensitive
      // cost: transfers that do not fall through to the next block in
      // layout order cost extra (branch predictor / fetch redirect).
      const NativeInst &Term = B.Insts.back();
      bool Taken;
      if (Term.Op == NOp::Br) {
        Taken = testCond((BcCond)Term.Aux,
                         compare3(Term.T, Regs[Term.A], Regs[Term.B]));
      } else if (Term.Op == NOp::Jmp) {
        Taken = true;
      } else {
        assert(false && "block fell through without a terminator");
        Clock.store();
        return ExecResult::ok(Value());
      }
      int32_t Next = Taken ? B.SuccTaken : B.SuccFall;
      assert(Next >= 0 && "terminator without a successor");
      if (Taken ? B.TakenLeavesLayout : B.FallLeavesLayout)
        Clock.charge(CM.BranchTakenExtra * ICache);
      Block = (uint32_t)Next;
      continue;
    }

    // Runtime traps raise a fresh built-in exception; throws and callee
    // exceptions arrive at Dispatch with the exception already in Exc.
  NullTrap:
    TrapKind = RtExceptionKind::NullPointer;
    goto Trap;
  BoundsTrap:
    TrapKind = RtExceptionKind::ArrayIndexOutOfBounds;
    goto Trap;
  DivTrap:
    TrapKind = RtExceptionKind::ArithmeticDivByZero;
    goto Trap;
  NegativeSizeTrap:
    TrapKind = RtExceptionKind::NegativeArraySize;
  Trap:
    Exc = Clock.around([&] { return H.allocException(TrapKind); });
    VM.noteException();
  Dispatch:
    // Transfer to a handler of the current block, or unwind.
    for (const auto &[Handler, ClassIdx] : B.Handlers) {
      if (ClassIdx >= 0) {
        int32_t Cls = H.classOf(Exc);
        if (Cls < 0 ||
            !Clock.around([&] { return P.isSubclassOf(Cls, ClassIdx); }))
          continue;
      }
      ExcValue = Value::ofR(Exc);
      Block = (uint32_t)Handler;
      goto NextBlock;
    }
    Clock.charge(CM.UnwindPerFrame * ICache);
    Clock.store();
    return ExecResult::exception(Exc);
  NextBlock:;
  }
}
