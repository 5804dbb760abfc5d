//===- codegen/CodeGenerator.cpp ------------------------------------------===//

#include "codegen/CodeGenerator.h"

#include "support/FlatTables.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

using namespace jitml;

namespace {

/// Lowers one method; native block ids equal IL block ids.
class Lowering {
public:
  Lowering(const MethodIL &IL, const TransformSet &Options, OptLevel Level,
           const CostModel &CM)
      : IL(IL), Options(Options), CM(CM), RegOf(IL.numNodes()) {
    Out.MethodIndex = IL.methodIndex();
    Out.Level = Level;
    Out.NumLocals = IL.numLocals();
    Out.Entry = IL.entryBlock();
  }

  NativeMethod run();

private:
  uint16_t freshReg() {
    assert(NextReg < NoReg && "virtual register file exhausted");
    return NextReg++;
  }

  /// Appends an instruction to the current block; the reference is valid
  /// until the next emit.
  NativeInst &emit(NOp Op, DataType T) {
    NativeInst I;
    I.Op = Op;
    I.T = T;
    Emitted.push_back(std::move(I));
    Charge(8.0); // per-instruction emission effort
    return Emitted.back();
  }

  void Charge(double C) { Out.CompileCycles += C; }

  /// Emits \p Id unless already materialized in this block; returns the
  /// register holding its value (NoReg for void-typed nodes).
  uint16_t value(NodeId Id);
  void statement(NodeId Root);
  void lowerBlock(BlockId B);

  // Codegen-stage passes.
  void peephole(NativeBlock &B);
  void encodeConstants(NativeBlock &B);
  void coalesce();
  void schedule(NativeBlock &B);
  void layout();
  void computePenalties();

  const MethodIL &IL;
  const TransformSet &Options;
  const CostModel &CM;
  NativeMethod Out;
  NativeBlock *Cur = nullptr;
  /// The current block's instructions, moved into it once it is done.
  std::vector<NativeInst> Emitted;
  uint16_t NextReg = 0;
  StampedArray<uint16_t> RegOf; ///< per-block node values, by node id
};

uint16_t Lowering::value(NodeId Id) {
  if (RegOf.has(Id))
    return RegOf.get(Id);
  const Node &N = IL.node(Id);
  uint16_t Dst = NoReg;
  switch (N.Op) {
  case ILOp::Const: {
    Dst = freshReg();
    NativeInst &I = emit(isFloatType(N.Type) ? NOp::ConstF : NOp::ConstI,
                         N.Type);
    I.Dst = Dst;
    I.Imm = N.ConstI;
    I.FImm = N.ConstF;
    break;
  }
  case ILOp::LoadLocal: {
    Dst = freshReg();
    NativeInst &I = emit(NOp::LdLoc, N.Type);
    I.Dst = Dst;
    I.Aux = N.A;
    break;
  }
  case ILOp::LoadGlobal: {
    Dst = freshReg();
    NativeInst &I = emit(NOp::LdGlob, N.Type);
    I.Dst = Dst;
    I.Aux = N.A;
    break;
  }
  case ILOp::LoadField: {
    uint16_t Obj = value(N.Kids[0]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::LdFld, N.Type);
    I.Dst = Dst;
    I.A = Obj;
    I.Aux = N.A;
    break;
  }
  case ILOp::LoadElem: {
    uint16_t Arr = value(N.Kids[0]);
    uint16_t Idx = value(N.Kids[1]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::LdElem, N.Type);
    I.Dst = Dst;
    I.A = Arr;
    I.B = Idx;
    if (N.B & 1)
      I.Flags |= NF_Prefetched;
    break;
  }
  case ILOp::ArrayLen: {
    uint16_t Arr = value(N.Kids[0]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::ArrLen, DataType::Int32);
    I.Dst = Dst;
    I.A = Arr;
    break;
  }
  case ILOp::LoadException: {
    Dst = freshReg();
    NativeInst &I = emit(NOp::LdExc, DataType::Object);
    I.Dst = Dst;
    break;
  }
  case ILOp::Add:
  case ILOp::Sub:
  case ILOp::Mul:
  case ILOp::Div:
  case ILOp::Rem:
  case ILOp::Shl:
  case ILOp::Shr:
  case ILOp::Or:
  case ILOp::And:
  case ILOp::Xor: {
    static const NOp Map[] = {NOp::Add, NOp::Sub, NOp::Mul, NOp::Div,
                              NOp::Rem, NOp::Neg, NOp::Shl, NOp::Shr,
                              NOp::Or,  NOp::And, NOp::Xor};
    uint16_t A = value(N.Kids[0]);
    uint16_t B = value(N.Kids[1]);
    Dst = freshReg();
    NativeInst &I =
        emit(Map[(unsigned)N.Op - (unsigned)ILOp::Add], N.Type);
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    break;
  }
  case ILOp::Neg: {
    uint16_t A = value(N.Kids[0]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::Neg, N.Type);
    I.Dst = Dst;
    I.A = A;
    break;
  }
  case ILOp::Cmp: {
    uint16_t A = value(N.Kids[0]);
    uint16_t B = value(N.Kids[1]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::Cmp3, (DataType)N.B);
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    break;
  }
  case ILOp::CmpCond: {
    uint16_t A = value(N.Kids[0]);
    uint16_t B = value(N.Kids[1]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::CmpCond, DataType::Int32);
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    I.Aux = N.A;
    break;
  }
  case ILOp::Conv: {
    uint16_t A = value(N.Kids[0]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::Conv, N.Type);
    I.Dst = Dst;
    I.A = A;
    I.Aux = N.A; // source type
    break;
  }
  case ILOp::Call: {
    std::vector<uint16_t> Args;
    Args.reserve(N.Kids.size());
    for (NodeId Kid : N.Kids)
      Args.push_back(value(Kid));
    if (N.Type != DataType::Void)
      Dst = freshReg();
    NativeInst &I = emit(NOp::CallM, N.Type);
    I.Dst = Dst;
    I.Aux = N.A;     // method index
    I.Imm = N.B;     // 1 = virtual dispatch
    I.Args = std::move(Args);
    break;
  }
  case ILOp::New: {
    Dst = freshReg();
    NativeInst &I = emit(NOp::NewObj, DataType::Object);
    I.Dst = Dst;
    I.Aux = N.A;
    if (N.B & 1)
      I.Flags |= NF_StackAlloc;
    break;
  }
  case ILOp::NewArray: {
    uint16_t Len = value(N.Kids[0]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::NewArr, N.Type);
    I.Dst = Dst;
    I.A = Len;
    break;
  }
  case ILOp::NewMultiArray: {
    std::vector<uint16_t> Lens;
    for (NodeId Kid : N.Kids)
      Lens.push_back(value(Kid));
    Dst = freshReg();
    NativeInst &I = emit(NOp::NewMulti, N.Type);
    I.Dst = Dst;
    I.Aux = N.A;
    I.Args = std::move(Lens);
    break;
  }
  case ILOp::InstanceOf: {
    uint16_t Obj = value(N.Kids[0]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::InstOf, DataType::Int32);
    I.Dst = Dst;
    I.A = Obj;
    I.Aux = N.A;
    break;
  }
  case ILOp::ArrayCmp: {
    uint16_t A = value(N.Kids[0]);
    uint16_t B = value(N.Kids[1]);
    Dst = freshReg();
    NativeInst &I = emit(NOp::ArrCmp, DataType::Int32);
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    break;
  }
  default:
    assert(false && "statement opcode in expression position");
    break;
  }
  RegOf.set(Id, Dst);
  return Dst;
}

void Lowering::statement(NodeId Root) {
  const Node &N = IL.node(Root);
  switch (N.Op) {
  case ILOp::StoreLocal: {
    uint16_t V = value(N.Kids[0]);
    NativeInst &I = emit(NOp::StLoc, IL.node(N.Kids[0]).Type);
    I.A = V;
    I.Aux = N.A;
    break;
  }
  case ILOp::StoreGlobal: {
    uint16_t V = value(N.Kids[0]);
    NativeInst &I = emit(NOp::StGlob, IL.node(N.Kids[0]).Type);
    I.A = V;
    I.Aux = N.A;
    break;
  }
  case ILOp::StoreField: {
    uint16_t Obj = value(N.Kids[0]);
    uint16_t V = value(N.Kids[1]);
    NativeInst &I = emit(NOp::StFld, IL.node(N.Kids[1]).Type);
    I.A = Obj;
    I.B = V;
    I.Aux = N.A;
    break;
  }
  case ILOp::StoreElem: {
    uint16_t Arr = value(N.Kids[0]);
    uint16_t Idx = value(N.Kids[1]);
    uint16_t V = value(N.Kids[2]);
    NativeInst &I = emit(NOp::StElem, IL.node(N.Kids[2]).Type);
    I.A = Arr;
    I.B = Idx;
    I.Args = {V};
    break;
  }
  case ILOp::NullCheck: {
    uint16_t R = value(N.Kids[0]);
    NativeInst &I = emit(NOp::NullChk, DataType::Object);
    I.A = R;
    if (N.B & 1)
      I.Flags |= NF_ImplicitCheck;
    break;
  }
  case ILOp::BoundsCheck: {
    uint16_t Arr = value(N.Kids[0]);
    uint16_t Idx = value(N.Kids[1]);
    NativeInst &I = emit(NOp::BndChk, DataType::Int32);
    I.A = Arr;
    I.B = Idx;
    if (N.B & 1)
      I.Flags |= NF_FusedNull;
    break;
  }
  case ILOp::DivCheck: {
    uint16_t D = value(N.Kids[0]);
    NativeInst &I = emit(NOp::DivChk, IL.node(N.Kids[0]).Type);
    I.A = D;
    break;
  }
  case ILOp::CastCheck: {
    uint16_t Obj = value(N.Kids[0]);
    NativeInst &I = emit(NOp::ChkCast, DataType::Object);
    I.A = Obj;
    I.Aux = N.A;
    break;
  }
  case ILOp::MonitorEnter:
  case ILOp::MonitorExit: {
    uint16_t Obj = value(N.Kids[0]);
    NativeInst &I = emit(
        N.Op == ILOp::MonitorEnter ? NOp::MonEnter : NOp::MonExit,
        DataType::Object);
    I.A = Obj;
    break;
  }
  case ILOp::ArrayCopy: {
    std::vector<uint16_t> Args;
    for (NodeId Kid : N.Kids)
      Args.push_back(value(Kid));
    NativeInst &I = emit(NOp::ArrCopy, DataType::Void);
    I.Args = std::move(Args);
    break;
  }
  case ILOp::ExprStmt:
    value(N.Kids[0]); // evaluate for effect; value may be reused later
    break;
  case ILOp::Branch: {
    uint16_t A = value(N.Kids[0]);
    uint16_t B = value(N.Kids[1]);
    NativeInst &I = emit(NOp::Br, IL.node(N.Kids[0]).Type);
    I.A = A;
    I.B = B;
    I.Aux = N.A;
    break;
  }
  case ILOp::Goto:
    emit(NOp::Jmp, DataType::Void);
    break;
  case ILOp::Return: {
    uint16_t V = N.Kids.empty() ? NoReg : value(N.Kids[0]);
    NativeInst &I = emit(NOp::Ret, N.Kids.empty()
                                       ? DataType::Void
                                       : IL.node(N.Kids[0]).Type);
    I.A = V;
    break;
  }
  case ILOp::Throw: {
    uint16_t V = value(N.Kids[0]);
    NativeInst &I = emit(NOp::ThrowR, DataType::Object);
    I.A = V;
    if (N.B & 1)
      I.Flags |= NF_FastThrow;
    break;
  }
  default:
    // Bare expression used as a treetop (e.g. a discarded call emitted
    // directly). Evaluate it.
    value(Root);
    break;
  }
}

void Lowering::lowerBlock(BlockId B) {
  const Block &Blk = IL.block(B);
  Cur = &Out.Blocks[B];
  RegOf.clear();
  Cur->Cold = Blk.Cold;
  for (const HandlerRef &H : Blk.Handlers)
    Cur->Handlers.emplace_back((int32_t)H.Handler, H.ClassIndex);
  Emitted.clear();
  for (NodeId Tree : Blk.Trees)
    statement(Tree);
  Cur->Insts.assign(std::make_move_iterator(Emitted.begin()),
                    std::make_move_iterator(Emitted.end()));
  if (Blk.Succs.size() >= 1)
    Cur->SuccTaken = (int32_t)Blk.Succs[0];
  if (Blk.Succs.size() >= 2)
    Cur->SuccFall = (int32_t)Blk.Succs[1];
  // A Jmp's single successor is "taken"; for Br, Succs[0] is the taken
  // target and Succs[1] the fallthrough, mirroring the IL convention.
}

//===--------------------------------------------------------------------===//
// Codegen-stage passes
//===--------------------------------------------------------------------===//

void Lowering::peephole(NativeBlock &B) {
  // Compare-branch fusion: CmpCond feeding only the block-ending Br
  // collapses into the Br itself.
  if (B.Insts.size() >= 2) {
    NativeInst &Br = B.Insts.back();
    if (Br.Op == NOp::Br) {
      // Find the producer of Br.A when Br tests `cc != 0`.
      for (size_t I = B.Insts.size() - 1; I-- > 0;) {
        NativeInst &P = B.Insts[I];
        if (P.Dst != Br.A)
          continue;
        bool OnlyUse = true;
        for (size_t J = 0; J < B.Insts.size(); ++J) {
          if (J == I)
            continue;
          const NativeInst &Q = B.Insts[J];
          if (Q.A == P.Dst || Q.B == P.Dst ||
              std::find(Q.Args.begin(), Q.Args.end(), P.Dst) !=
                  Q.Args.end()) {
            if (&Q != &Br) {
              OnlyUse = false;
              break;
            }
          }
        }
        if (P.Op == NOp::CmpCond && OnlyUse && Br.B != NoReg) {
          // Br currently: if (cc <cond> zero). Only the `cc != 0` and
          // `cc == 0` shapes appear from IL; rewrite both.
          const NativeInst *Zero = nullptr;
          for (const NativeInst &Q : B.Insts)
            if (Q.Dst == Br.B && Q.Op == NOp::ConstI && Q.Imm == 0)
              Zero = &Q;
          BcCond BrCond = (BcCond)Br.Aux;
          if (Zero && (BrCond == BcCond::Ne || BrCond == BcCond::Eq)) {
            BcCond Fused = (BcCond)P.Aux;
            if (BrCond == BcCond::Eq)
              Fused = negateCond(Fused);
            Br.A = P.A;
            Br.B = P.B;
            Br.Aux = (int32_t)Fused;
            Br.T = P.T;
            P.Op = NOp::Nop;
            P.Dst = NoReg;
          }
        }
        break;
      }
    }
  }
  // Drop nops.
  B.Insts.erase(std::remove_if(B.Insts.begin(), B.Insts.end(),
                               [](const NativeInst &I) {
                                 return I.Op == NOp::Nop;
                               }),
                B.Insts.end());
  Charge((double)B.Insts.size() * 2.4);
}

void Lowering::encodeConstants(NativeBlock &B) {
  // A small integer constant consumed inside this block gets encoded into
  // its users' immediate fields: the materializing instruction is free.
  for (NativeInst &I : B.Insts) {
    Charge(1.6);
    if (I.Op != NOp::ConstI || I.Imm < -32768 || I.Imm > 32767)
      continue;
    I.Flags |= NF_EncodedConst;
  }
}

void Lowering::coalesce() {
  // Virtual registers never live across blocks (cross-block values travel
  // through locals), so renumber per block with a free list. Each old
  // register is defined once in the whole method, so its new number needs
  // no per-block reset.
  uint16_t MaxRegs = 0;
  std::vector<uint16_t> Map(NextReg, NoReg);
  std::vector<uint16_t> Free;
  // Registers whose last use is instruction I: DyingAt[DyingBegin[I] ..
  // DyingBegin[I + 1]).
  std::vector<uint32_t> DyingBegin, Cursor;
  std::vector<uint16_t> DyingAt;
  for (NativeBlock &B : Out.Blocks) {
    // The registers dying at one instruction are freed in LastUse's
    // iteration order, and the free list hands out the last one first, so
    // that hash order sets the new register numbers. Keep the map.
    std::unordered_map<uint16_t, size_t> LastUse;
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      const NativeInst &Inst = B.Insts[I];
      auto Track = [&](uint16_t R) {
        if (R != NoReg)
          LastUse[R] = I;
      };
      Track(Inst.A);
      Track(Inst.B);
      Track(Inst.Dst);
      for (uint16_t R : Inst.Args)
        Track(R);
    }
    // Erasing entries never reorders the others, so one walk of LastUse
    // lists each instruction's dying registers in the order a rescan of
    // the map at that instruction would meet them.
    DyingBegin.assign(B.Insts.size() + 1, 0);
    for (const auto &[R, I] : LastUse)
      ++DyingBegin[I + 1];
    for (size_t I = 0; I < B.Insts.size(); ++I)
      DyingBegin[I + 1] += DyingBegin[I];
    Cursor.assign(DyingBegin.begin(), DyingBegin.end() - 1);
    DyingAt.resize(LastUse.size());
    for (const auto &[R, I] : LastUse)
      DyingAt[Cursor[I]++] = R;
    Free.clear();
    uint16_t Next = 0;
    for (size_t I = 0; I < B.Insts.size(); ++I) {
      NativeInst &Inst = B.Insts[I];
      Charge(3.2);
      auto Remap = [&](uint16_t &R) {
        if (R == NoReg)
          return;
        assert(Map[R] != NoReg && "use of undefined virtual register");
        R = Map[R];
      };
      Remap(Inst.A);
      Remap(Inst.B);
      for (uint16_t &R : Inst.Args)
        Remap(R);
      if (Inst.Dst != NoReg) {
        uint16_t Old = Inst.Dst;
        uint16_t NewR;
        if (!Free.empty()) {
          NewR = Free.back();
          Free.pop_back();
        } else {
          NewR = Next++;
        }
        Map[Old] = NewR;
        Inst.Dst = NewR;
      }
      // Free registers of operands at their last use (simple variant:
      // after the defining of Dst so a value is never clobbered by its
      // own user's definition in the same instruction).
      for (uint32_t K = DyingBegin[I]; K < DyingBegin[I + 1]; ++K)
        if (Map[DyingAt[K]] != NoReg)
          Free.push_back(Map[DyingAt[K]]);
    }
    if (Next > MaxRegs)
      MaxRegs = Next;
  }
  Out.NumVRegs = MaxRegs;
}

void Lowering::schedule(NativeBlock &B) {
  // Window scheduling: between side-effect barriers, reorder pure register
  // computations so a value is not consumed by the immediately following
  // instruction (the executor charges a stall for that).
  auto IsPure = [](const NativeInst &I) {
    switch (I.Op) {
    case NOp::ConstI:
    case NOp::ConstF:
    case NOp::Move:
    case NOp::LdLoc:
    case NOp::Add:
    case NOp::Sub:
    case NOp::Mul:
    case NOp::Div:
    case NOp::Rem:
    case NOp::Neg:
    case NOp::Shl:
    case NOp::Shr:
    case NOp::Or:
    case NOp::And:
    case NOp::Xor:
    case NOp::Cmp3:
    case NOp::CmpCond:
    case NOp::Conv:
      return true;
    default:
      return false;
    }
  };
  size_t Start = 0;
  while (Start < B.Insts.size()) {
    size_t End = Start;
    while (End < B.Insts.size() && IsPure(B.Insts[End]))
      ++End;
    size_t Len = End - Start;
    if (Len >= 3) {
      // List-schedule the window: repeatedly pick a ready instruction
      // whose operands were not produced by the previously picked one.
      std::vector<NativeInst> Window(B.Insts.begin() + (std::ptrdiff_t)Start,
                                     B.Insts.begin() + (std::ptrdiff_t)End);
      std::vector<bool> Placed(Len, false);
      std::vector<NativeInst> Sched;
      Sched.reserve(Len);
      auto DefinedBefore = [&](uint16_t R, size_t UpTo) {
        if (R == NoReg)
          return true;
        // Defined outside the window?
        bool InWindow = false;
        for (const NativeInst &I : Window)
          if (I.Dst == R)
            InWindow = true;
        if (!InWindow)
          return true;
        for (size_t K = 0; K < UpTo; ++K)
          if (Sched[K].Dst == R)
            return true;
        return false;
      };
      // StLoc-free window of pure ops: every local-load order stays legal.
      while (Sched.size() < Len) {
        Charge(6.4);
        size_t Pick = SIZE_MAX;
        uint16_t PrevDst =
            Sched.empty() ? NoReg : Sched.back().Dst;
        // First preference: ready and not stalled on the previous result.
        for (size_t K = 0; K < Len; ++K) {
          if (Placed[K])
            continue;
          const NativeInst &I = Window[K];
          if (!DefinedBefore(I.A, Sched.size()) ||
              !DefinedBefore(I.B, Sched.size()))
            continue;
          bool Stalls = PrevDst != NoReg &&
                        (I.A == PrevDst || I.B == PrevDst);
          if (!Stalls) {
            Pick = K;
            break;
          }
          if (Pick == SIZE_MAX)
            Pick = K; // fall back to a stalled-but-ready instruction
        }
        assert(Pick != SIZE_MAX && "scheduling deadlock");
        Placed[Pick] = true;
        Sched.push_back(Window[Pick]);
      }
      std::copy(Sched.begin(), Sched.end(),
                B.Insts.begin() + (std::ptrdiff_t)Start);
    }
    Start = End + 1;
  }
}

void Lowering::layout() {
  std::vector<uint32_t> Warm, Cold;
  uint32_t NB = (uint32_t)Out.Blocks.size();
  std::vector<bool> Placed(NB, false);

  bool Profile = Options.contains(TransformationKind::ProfileGuidedLayout);
  if (Profile) {
    // Greedy chaining by frequency: follow the hotter successor while
    // possible, then start a new chain at the hottest unplaced block.
    auto FreqOf = [&](uint32_t B) { return IL.block(B).Frequency; };
    uint32_t Cursor = Out.Entry;
    while (true) {
      if (!Placed[Cursor] && IL.block(Cursor).Reachable &&
          !Out.Blocks[Cursor].Cold) {
        Placed[Cursor] = true;
        Warm.push_back(Cursor);
        // Prefer the more frequent unplaced successor.
        int32_t Next = -1;
        double BestF = -1;
        for (int32_t S : {Out.Blocks[Cursor].SuccTaken,
                          Out.Blocks[Cursor].SuccFall}) {
          if (S < 0 || Placed[(uint32_t)S] || Out.Blocks[(uint32_t)S].Cold)
            continue;
          if (FreqOf((uint32_t)S) > BestF) {
            BestF = FreqOf((uint32_t)S);
            Next = S;
          }
        }
        if (Next >= 0) {
          Cursor = (uint32_t)Next;
          continue;
        }
      }
      // Start a new chain.
      int32_t Start = -1;
      double BestF = -1;
      for (uint32_t B = 0; B < NB; ++B) {
        if (Placed[B] || !IL.block(B).Reachable || Out.Blocks[B].Cold)
          continue;
        if (FreqOf(B) > BestF) {
          BestF = FreqOf(B);
          Start = (int32_t)B;
        }
      }
      if (Start < 0)
        break;
      Cursor = (uint32_t)Start;
    }
  } else {
    for (uint32_t B = 0; B < NB; ++B)
      if (IL.block(B).Reachable && !Out.Blocks[B].Cold) {
        Warm.push_back(B);
        Placed[B] = true;
      }
  }
  for (uint32_t B = 0; B < NB; ++B)
    if (IL.block(B).Reachable && Out.Blocks[B].Cold)
      Cold.push_back(B);
  Out.Layout = Warm;
  Out.Layout.insert(Out.Layout.end(), Cold.begin(), Cold.end());
  Charge((double)NB * 4.0);

  // ICache pressure is driven by the code the front end actually touches:
  // outlined cold blocks do not pollute the warm stream.
  double WarmInsts = 0;
  for (uint32_t B : Warm)
    WarmInsts += (double)Out.Blocks[B].Insts.size();
  if (Cold.empty() && !Warm.empty()) {
    WarmInsts = 0;
    for (uint32_t B = 0; B < NB; ++B)
      if (IL.block(B).Reachable)
        WarmInsts += (double)Out.Blocks[B].Insts.size();
  }
  Out.ICacheFactor = CM.icacheFactor(WarmInsts);
}

void Lowering::computePenalties() {
  bool Coalesced = Options.contains(TransformationKind::RegisterCoalescing);
  StampedArray<bool> Defined(NextReg); ///< registers defined in the block
  for (NativeBlock &B : Out.Blocks) {
    // Pressure: with coalescing, registers were renumbered with reuse, so
    // the block's max register id approximates simultaneous liveness;
    // without it, every defined value occupies its own register for the
    // rest of the block.
    uint16_t MaxId = 0;
    uint32_t NumDefined = 0;
    Defined.clear();
    for (const NativeInst &I : B.Insts)
      if (I.Dst != NoReg) {
        if (!Defined.has(I.Dst)) {
          Defined.set(I.Dst, true);
          ++NumDefined;
        }
        if (I.Dst > MaxId)
          MaxId = I.Dst;
      }
    double Pressure = Coalesced ? (double)MaxId + 1 : (double)NumDefined;
    B.SpillPenalty =
        std::max(0.0, Pressure - (double)CM.PhysRegs) * CM.SpillCost;
  }
}

NativeMethod Lowering::run() {
  Out.Blocks.resize(IL.numBlocks());
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    if (!IL.block(B).Reachable)
      continue;
    lowerBlock(B);
  }

  if (Options.contains(TransformationKind::PeepholeOptimization))
    for (NativeBlock &B : Out.Blocks)
      peephole(B);
  if (Options.contains(TransformationKind::ConstantEncoding))
    for (NativeBlock &B : Out.Blocks)
      encodeConstants(B);
  // Scheduling must run while registers are still in single-assignment
  // form; coalescing afterwards introduces register reuse that reordering
  // could clobber.
  if (Options.contains(TransformationKind::InstructionScheduling))
    for (NativeBlock &B : Out.Blocks)
      schedule(B);
  if (Options.contains(TransformationKind::RegisterCoalescing))
    coalesce();
  else
    Out.NumVRegs = NextReg;
  layout();
  computePenalties();

  // Leaf routines skip most of the frame setup.
  bool HasCall = false;
  for (const NativeBlock &B : Out.Blocks)
    for (const NativeInst &I : B.Insts)
      if (I.Op == NOp::CallM)
        HasCall = true;
  Out.Leaf =
      !HasCall && Options.contains(TransformationKind::LeafRoutineOptimization);
  return std::move(Out);
}

} // namespace

NativeMethod jitml::generateCode(const MethodIL &IL,
                                 const TransformSet &Options, OptLevel Level,
                                 const CostModel &CM) {
  return Lowering(IL, Options, Level, CM).run();
}
