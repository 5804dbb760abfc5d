//===- codegen/CostModel.cpp ----------------------------------------------===//

#include "codegen/CostModel.h"

using namespace jitml;

const CostModel &CostModel::defaults() {
  static const CostModel Model;
  return Model;
}

double CostModel::instCost(const NativeInst &I) const {
  auto TypeFactor = [this](DataType T) {
    if (T == DataType::LongDouble)
      return LongDoubleFactor;
    if (isDecimalType(T))
      return DecimalFactor;
    return 1.0;
  };
  switch (I.Op) {
  case NOp::Nop:
    return 0.0;
  case NOp::ConstI:
  case NOp::ConstF:
    return I.hasFlag(NF_EncodedConst) ? 0.0 : ConstCost;
  case NOp::Move:
    return MoveCost;
  case NOp::LdLoc:
  case NOp::StLoc:
  case NOp::LdExc:
    return LocalAccess;
  case NOp::LdGlob:
  case NOp::StGlob:
    return GlobalAccess;
  case NOp::LdFld:
  case NOp::StFld:
    return FieldAccess;
  case NOp::LdElem:
    return I.hasFlag(NF_Prefetched) ? ElemPrefetched : ElemAccess;
  case NOp::StElem:
    return ElemAccess;
  case NOp::ArrLen:
    return LocalAccess;
  case NOp::Add:
  case NOp::Sub:
  case NOp::Shl:
  case NOp::Shr:
  case NOp::Or:
  case NOp::And:
  case NOp::Xor:
  case NOp::Neg:
    return (isFloatType(I.T) ? FpAlu : Alu) * TypeFactor(I.T);
  case NOp::Mul:
    return (isFloatType(I.T) ? FpAlu * 2 : MulCost) * TypeFactor(I.T);
  case NOp::Div:
  case NOp::Rem:
    return (isFloatType(I.T) ? FpDiv : DivCost) * TypeFactor(I.T);
  case NOp::Cmp3:
  case NOp::CmpCond:
    return Alu * TypeFactor(I.T);
  case NOp::Conv:
    return Alu * std::max(TypeFactor(I.T), TypeFactor((DataType)I.Aux));
  case NOp::Br:
  case NOp::Jmp:
    return BranchCost;
  case NOp::CallM:
    return 0.0; // the executor charges CallOverhead / LeafCallOverhead
  case NOp::Ret:
    return ReturnCost;
  case NOp::ThrowR:
    return I.hasFlag(NF_FastThrow) ? ThrowFastCost : ThrowCost;
  case NOp::NewObj:
    return I.hasFlag(NF_StackAlloc) ? AllocStack : AllocObject;
  case NOp::NewArr:
  case NOp::NewMulti:
    return AllocArrayBase; // per-element part charged by the executor
  case NOp::InstOf:
    return InstanceOfCost;
  case NOp::ChkCast:
    return CastCheckCost;
  case NOp::MonEnter:
  case NOp::MonExit:
    return MonitorCost;
  case NOp::NullChk:
  case NOp::DivChk:
    return I.hasFlag(NF_ImplicitCheck) ? 0.0 : CheckCost;
  case NOp::BndChk:
    // A fused check (NF_FusedNull) covers the null test for free.
    return BoundsCost;
  case NOp::ArrCopy:
    return ArrayCopyBase; // per-element part charged by the executor
  case NOp::ArrCmp:
    return ArrayCmpBase;
  }
  return Alu;
}
