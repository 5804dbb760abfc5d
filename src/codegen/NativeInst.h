//===- codegen/NativeInst.h - Simulated native ISA --------------*- C++ -*-===//
///
/// \file
/// The target of the code generator: a register-machine ISA executed by
/// runtime::NativeExecutor under a deterministic cycle cost model. The ISA
/// is the stand-in for the physical targets the paper's compiler supports;
/// its cost model (CostModel.h) is where code quality becomes measurable
/// time, which is what the ranking function (Eq. 2) consumes.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_CODEGEN_NATIVEINST_H
#define JITML_CODEGEN_NATIVEINST_H

#include "bytecode/Type.h"
#include "opt/Plan.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jitml {

enum class NOp : uint8_t {
  Nop = 0,
  ConstI, ///< Dst <- Imm
  ConstF, ///< Dst <- FImm
  Move,   ///< Dst <- A
  LdLoc,  ///< Dst <- locals[Aux]
  StLoc,  ///< locals[Aux] <- A
  LdGlob, ///< Dst <- globals[Aux]
  StGlob, ///< globals[Aux] <- A
  LdFld,  ///< Dst <- heap[A].field[Aux]
  StFld,  ///< heap[A].field[Aux] <- B
  LdElem, ///< Dst <- heap[A][B]
  StElem, ///< heap[A][B] <- C (C passed via Args[0])
  ArrLen, ///< Dst <- length(heap[A])
  LdExc,  ///< Dst <- in-flight exception
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Neg,
  Shl,
  Shr,
  Or,
  And,
  Xor,
  Cmp3,    ///< Dst <- three-way(A, B)
  CmpCond, ///< Dst <- (A <Aux> B) ? 1 : 0
  Conv,    ///< Dst <- convert A from type Aux to T
  Br,      ///< if (A <Aux> B) goto block SuccTaken else SuccFall
  Jmp,     ///< goto block SuccTaken
  CallM,   ///< Dst <- call method Aux with Args
  Ret,     ///< return A (A == NoReg for void)
  ThrowR,  ///< raise heap ref in A
  NewObj,  ///< Dst <- allocate class Aux
  NewArr,  ///< Dst <- allocate array of T, length A
  NewMulti,///< Dst <- allocate Aux-dimensional array, lengths in Args
  InstOf,  ///< Dst <- A instanceof class Aux
  ChkCast, ///< trap unless A instanceof class Aux
  MonEnter,
  MonExit,
  NullChk, ///< trap when A is null
  BndChk,  ///< trap unless 0 <= B < length(heap[A])
  DivChk,  ///< trap when A == 0
  ArrCopy, ///< arraycopy(Args[0..4])
  ArrCmp,  ///< Dst <- compare arrays A, B
};

constexpr uint16_t NoReg = UINT16_MAX;

/// Instruction flags (cost-model relevant facts established by the
/// optimizer / codegen passes).
enum NativeFlag : uint8_t {
  NF_ImplicitCheck = 1 << 0, ///< folded into a hardware trap: free
  NF_FusedNull = 1 << 1,     ///< bounds check also covers the null check
  NF_Prefetched = 1 << 2,    ///< strided access, prefetcher hides latency
  NF_StackAlloc = 1 << 3,    ///< escape analysis: frame-local allocation
  NF_EncodedConst = 1 << 4,  ///< constant encoded into its user: free
  NF_FastThrow = 1 << 5,     ///< throw fast path (locally allocated)
};

struct NativeInst {
  NOp Op = NOp::Nop;
  DataType T = DataType::Void;
  uint16_t Dst = NoReg;
  uint16_t A = NoReg;
  uint16_t B = NoReg;
  int32_t Aux = 0; ///< slot/field/class/method/cond/source-type payload
  int64_t Imm = 0;
  double FImm = 0.0;
  uint8_t Flags = 0;
  std::vector<uint16_t> Args; ///< call arguments / multi-array lengths

  bool hasFlag(NativeFlag F) const { return (Flags & F) != 0; }
};

/// One native basic block (mirrors the IL block it was lowered from).
struct NativeBlock {
  std::vector<NativeInst> Insts;
  int32_t SuccTaken = -1;
  int32_t SuccFall = -1;
  /// (handler native block, class filter) pairs, innermost first.
  std::vector<std::pair<int32_t, int32_t>> Handlers;
  bool Cold = false;
  /// Extra cycles charged on each entry of this block, modeling register
  /// spills when the block needs more virtual registers than the machine
  /// has physical ones.
  double SpillPenalty = 0.0;

  // Executor charges, decoded from the VM's cost model when the runtime
  // prepares the body for installation (empty straight out of codegen).
  /// Per instruction: (issue cost + dependency stall) * ICacheFactor.
  std::vector<double> Charges;
  /// SpillPenalty * ICacheFactor, charged on each entry.
  double EntryCharge = 0.0;
  /// Whether a transfer to SuccTaken / SuccFall leaves layout order.
  bool TakenLeavesLayout = false;
  bool FallLeavesLayout = false;
};

/// A fully compiled method body.
struct NativeMethod {
  uint32_t MethodIndex = 0;
  OptLevel Level = OptLevel::Cold;
  std::vector<NativeBlock> Blocks;
  /// Emission order of the blocks; control transfer to the next block in
  /// layout order is free, any other transfer pays the taken-branch cost.
  std::vector<uint32_t> Layout;
  uint32_t Entry = 0;
  uint32_t NumVRegs = 0;
  uint32_t NumLocals = 0;
  bool Leaf = false; ///< no calls: frame setup is cheaper
  /// Instruction-cache pressure factor >= 1.0 derived from warm code size;
  /// every executed cycle in this method is scaled by it.
  double ICacheFactor = 1.0;
  /// Simulated compile cycles spent by code generation (added to the
  /// optimizer's effort to form the method's total compile time).
  double CompileCycles = 0.0;
  /// Most arguments any call in the body passes (decoded with the
  /// charges; sizes the executor's frame).
  uint32_t MaxCallArgs = 0;

  uint32_t totalInsts() const {
    uint32_t N = 0;
    for (const NativeBlock &B : Blocks)
      N += (uint32_t)B.Insts.size();
    return N;
  }
};

const char *nOpName(NOp Op);

/// Disassembles one instruction (debugging aid).
std::string printNativeInst(const NativeInst &I);

/// Disassembles a whole method in layout order.
std::string printNativeMethod(const NativeMethod &M);

} // namespace jitml

#endif // JITML_CODEGEN_NATIVEINST_H
