//===- opt/FoldSimplify.cpp - Expression-level rewrites -------------------===//
//
// Constant folding, algebraic simplification, strength reduction,
// reassociation, conversion cleanups, and the FP/BCD/long-double variants.
// All engines share a post-order visitor that touches every reachable node
// once per run; plans re-run these as cleanup steps after the structural
// passes, exactly like Testarossa's repeated cleanup applications.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include <cmath>

using namespace jitml;

namespace {

/// Normalizes an integer value to the wrap-around behaviour of its type.
int64_t normalizeInt(DataType T, int64_t V) {
  switch (T) {
  case DataType::Int8:
    return (int64_t)(int8_t)V;
  case DataType::Char:
    return (int64_t)(uint16_t)V;
  case DataType::Int16:
    return (int64_t)(int16_t)V;
  case DataType::Int32:
    return (int64_t)(int32_t)V;
  default:
    return V;
  }
}

/// Post-order visitor over every reachable tree; Visit(NodeId) returns true
/// when it rewrote the node. Each node is visited once per run.
template <typename VisitFn>
bool forEachNodePostOrder(PassContext &Ctx, VisitFn Visit) {
  // All reads go through the const view: the mutable accessors bump the
  // IL's modification epoch, which would make every visit look like a
  // write and throw away the epoch-keyed analysis caches.
  const MethodIL &IL = Ctx.cil();
  std::vector<uint8_t> Seen(IL.numNodes(), 0);
  bool Changed = false;
  // Explicit stack: (node, kids-done flag).
  std::vector<std::pair<NodeId, bool>> Stack;
  for (BlockId B = 0; B < IL.numBlocks(); ++B) {
    if (!IL.block(B).Reachable)
      continue;
    for (NodeId Root : IL.block(B).Trees) {
      Stack.emplace_back(Root, false);
      while (!Stack.empty()) {
        auto [Id, KidsDone] = Stack.back();
        Stack.pop_back();
        if (KidsDone) {
          Ctx.charge(1);
          if (Visit(Id))
            Changed = true;
          continue;
        }
        if (Id < Seen.size() && Seen[Id])
          continue;
        if (Id >= Seen.size())
          Seen.resize(IL.numNodes(), 0);
        Seen[Id] = 1;
        Stack.emplace_back(Id, true);
        for (NodeId Kid : IL.node(Id).Kids)
          Stack.emplace_back(Kid, false);
      }
    }
  }
  return Changed;
}

bool isConst(const MethodIL &IL, NodeId Id) {
  return IL.node(Id).Op == ILOp::Const;
}

bool isIntConst(const MethodIL &IL, NodeId Id, int64_t V) {
  const Node &N = IL.node(Id);
  return N.Op == ILOp::Const &&
         (isIntegerType(N.Type) || isDecimalType(N.Type)) && N.ConstI == V;
}

bool isFpConst(const MethodIL &IL, NodeId Id, double V) {
  const Node &N = IL.node(Id);
  return N.Op == ILOp::Const && isFloatType(N.Type) && N.ConstF == V;
}

/// Structural equality of two trees (used by x-x -> 0 style identities when
/// the node ids differ). Only meaningful for pure, memory-free trees.
bool structurallyEqual(const MethodIL &IL, NodeId A, NodeId B) {
  if (A == B)
    return true;
  const Node &NA = IL.node(A);
  const Node &NB = IL.node(B);
  if (NA.Op != NB.Op || NA.Type != NB.Type || NA.A != NB.A || NA.B != NB.B ||
      NA.ConstI != NB.ConstI || NA.ConstF != NB.ConstF ||
      NA.Kids.size() != NB.Kids.size())
    return false;
  for (size_t I = 0; I < NA.Kids.size(); ++I)
    if (!structurallyEqual(IL, NA.Kids[I], NB.Kids[I]))
      return false;
  return true;
}

/// Three-way comparison helper shared by Cmp folding.
template <typename T> int64_t threeWay(T A, T B) {
  if (A < B)
    return -1;
  if (A > B)
    return 1;
  return 0;
}

bool evalCond(BcCond C, int64_t Cmp3) {
  switch (C) {
  case BcCond::Eq:
    return Cmp3 == 0;
  case BcCond::Ne:
    return Cmp3 != 0;
  case BcCond::Lt:
    return Cmp3 < 0;
  case BcCond::Ge:
    return Cmp3 >= 0;
  case BcCond::Gt:
    return Cmp3 > 0;
  case BcCond::Le:
    return Cmp3 <= 0;
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

bool jitml::runConstantFolding(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = IL.node(Id);
    // Unary.
    if (N.Op == ILOp::Neg && isConst(IL, N.Kids[0])) {
      const Node &K = IL.node(N.Kids[0]);
      if (isFloatType(N.Type))
        Ctx.rewriteToConstF(Id, N.Type, -K.ConstF);
      else
        Ctx.rewriteToConstI(Id, N.Type, normalizeInt(N.Type, -K.ConstI));
      return true;
    }
    if (N.Op == ILOp::Conv && isConst(IL, N.Kids[0])) {
      const Node &K = IL.node(N.Kids[0]);
      DataType From = (DataType)N.A;
      DataType To = N.Type;
      if (isReferenceType(From) || isReferenceType(To))
        return false;
      double AsF = isFloatType(From) ? K.ConstF : (double)K.ConstI;
      int64_t AsI = isFloatType(From) ? (int64_t)K.ConstF : K.ConstI;
      if (isFloatType(To))
        Ctx.rewriteToConstF(Id, To,
                            To == DataType::Float ? (double)(float)AsF : AsF);
      else
        Ctx.rewriteToConstI(Id, To, normalizeInt(To, AsI));
      return true;
    }
    if (!isArithOp(N.Op) && N.Op != ILOp::Cmp && N.Op != ILOp::CmpCond)
      return false;
    if (N.Kids.size() != 2 || !isConst(IL, N.Kids[0]) ||
        !isConst(IL, N.Kids[1]))
      return false;
    const Node &L = IL.node(N.Kids[0]);
    const Node &R = IL.node(N.Kids[1]);

    if (N.Op == ILOp::Cmp || N.Op == ILOp::CmpCond) {
      int64_t C3 = isFloatType(L.Type) ? threeWay(L.ConstF, R.ConstF)
                                       : threeWay(L.ConstI, R.ConstI);
      int64_t V = N.Op == ILOp::Cmp ? C3 : (evalCond((BcCond)N.A, C3) ? 1 : 0);
      Ctx.rewriteToConstI(Id, DataType::Int32, V);
      return true;
    }

    if (isFloatType(N.Type)) {
      double A = L.ConstF, B = R.ConstF, V;
      switch (N.Op) {
      case ILOp::Add:
        V = A + B;
        break;
      case ILOp::Sub:
        V = A - B;
        break;
      case ILOp::Mul:
        V = A * B;
        break;
      case ILOp::Div:
        V = A / B;
        break;
      case ILOp::Rem:
        V = std::fmod(A, B);
        break;
      default:
        return false;
      }
      if (N.Type == DataType::Float)
        V = (double)(float)V;
      Ctx.rewriteToConstF(Id, N.Type, V);
      return true;
    }

    int64_t A = L.ConstI, B = R.ConstI, V;
    switch (N.Op) {
    case ILOp::Add:
      V = (int64_t)((uint64_t)A + (uint64_t)B);
      break;
    case ILOp::Sub:
      V = (int64_t)((uint64_t)A - (uint64_t)B);
      break;
    case ILOp::Mul:
      V = (int64_t)((uint64_t)A * (uint64_t)B);
      break;
    case ILOp::Div:
      if (B == 0)
        return false; // keep the runtime exception
      V = A / B;
      break;
    case ILOp::Rem:
      if (B == 0)
        return false;
      V = A % B;
      break;
    case ILOp::Shl:
      V = (int64_t)((uint64_t)A << (B & 63));
      break;
    case ILOp::Shr:
      V = A >> (B & 63);
      break;
    case ILOp::Or:
      V = A | B;
      break;
    case ILOp::And:
      V = A & B;
      break;
    case ILOp::Xor:
      V = A ^ B;
      break;
    default:
      return false;
    }
    Ctx.rewriteToConstI(Id, N.Type, normalizeInt(N.Type, V));
    return true;
  });
}

//===----------------------------------------------------------------------===//
// Algebraic simplification (integer identities)
//===----------------------------------------------------------------------===//

bool jitml::runExpressionSimplification(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = IL.node(Id);
    if (N.Kids.size() == 1 && N.Op == ILOp::Neg) {
      const Node &K = IL.node(N.Kids[0]);
      if (K.Op == ILOp::Neg) { // neg(neg(x)) -> x
        Ctx.rewriteToCopyOf(Id, K.Kids[0]);
        return true;
      }
      return false;
    }
    if (N.Kids.size() != 2 || !isIntegerType(N.Type))
      return false;
    NodeId LId = N.Kids[0], RId = N.Kids[1];

    auto ReplaceWith = [&](NodeId Src) {
      Ctx.rewriteToCopyOf(Id, Src);
      return true;
    };
    auto BecomeZero = [&]() {
      // Safe only when the dropped operand cannot carry an unanchored
      // side effect; ILGen anchors all impure nodes, and memory reads may
      // be skipped freely.
      Ctx.rewriteToConstI(Id, N.Type, 0);
      return true;
    };

    switch (N.Op) {
    case ILOp::Add:
      if (isIntConst(IL, RId, 0))
        return ReplaceWith(LId);
      if (isIntConst(IL, LId, 0))
        return ReplaceWith(RId);
      return false;
    case ILOp::Sub:
      if (isIntConst(IL, RId, 0))
        return ReplaceWith(LId);
      if (LId == RId ||
          (Ctx.isPureAndMemoryFree(LId) && structurallyEqual(IL, LId, RId)))
        return BecomeZero();
      return false;
    case ILOp::Mul:
      if (isIntConst(IL, RId, 1))
        return ReplaceWith(LId);
      if (isIntConst(IL, LId, 1))
        return ReplaceWith(RId);
      if (isIntConst(IL, RId, 0) || isIntConst(IL, LId, 0))
        return BecomeZero();
      return false;
    case ILOp::Div:
      if (isIntConst(IL, RId, 1))
        return ReplaceWith(LId);
      return false;
    case ILOp::Rem:
      if (isIntConst(IL, RId, 1))
        return BecomeZero();
      return false;
    case ILOp::Shl:
    case ILOp::Shr:
      if (isIntConst(IL, RId, 0))
        return ReplaceWith(LId);
      return false;
    case ILOp::Or:
      if (isIntConst(IL, RId, 0))
        return ReplaceWith(LId);
      if (isIntConst(IL, LId, 0))
        return ReplaceWith(RId);
      if (LId == RId)
        return ReplaceWith(LId);
      return false;
    case ILOp::And:
      if (isIntConst(IL, RId, -1))
        return ReplaceWith(LId);
      if (isIntConst(IL, RId, 0) || isIntConst(IL, LId, 0))
        return BecomeZero();
      if (LId == RId)
        return ReplaceWith(LId);
      return false;
    case ILOp::Xor:
      if (isIntConst(IL, RId, 0))
        return ReplaceWith(LId);
      if (LId == RId)
        return BecomeZero();
      return false;
    default:
      return false;
    }
  });
}

//===----------------------------------------------------------------------===//
// Strength reduction: multiplications by constants become shifts/adds.
//===----------------------------------------------------------------------===//

bool jitml::runStrengthReduction(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = CIL.node(Id);
    if (N.Op != ILOp::Mul || !isIntegerType(N.Type) || N.Kids.size() != 2)
      return false;
    // Canonical: constant on the right (reassociation also ensures this).
    NodeId XId = N.Kids[0], CId = N.Kids[1];
    if (!isConst(CIL, CId)) {
      std::swap(XId, CId);
      if (!isConst(CIL, CId))
        return false;
    }
    int64_t C = CIL.node(CId).ConstI;
    if (C <= 0)
      return false;
    DataType T = N.Type;
    auto IsPow2 = [](int64_t V) { return V > 0 && (V & (V - 1)) == 0; };
    auto Log2 = [](int64_t V) {
      unsigned K = 0;
      while ((V >>= 1) != 0)
        ++K;
      return (int64_t)K;
    };
    // All makeNode/makeConstI calls happen before taking the mutable ref:
    // they can reallocate the arena and leave it dangling.
    if (IsPow2(C)) { // x * 2^k -> x << k
      NodeId ShAmt = IL.makeConstI(T, Log2(C));
      Node &M = IL.node(Id);
      M.Op = ILOp::Shl;
      M.Kids = {XId, ShAmt};
      return true;
    }
    if (IsPow2(C - 1)) { // x * (2^k + 1) -> (x << k) + x
      NodeId Shift = IL.makeNode(ILOp::Shl, T,
                                 {XId, IL.makeConstI(T, Log2(C - 1))});
      Node &M = IL.node(Id);
      M.Op = ILOp::Add;
      M.Kids = {Shift, XId};
      return true;
    }
    if (IsPow2(C + 1)) { // x * (2^k - 1) -> (x << k) - x
      NodeId Shift = IL.makeNode(ILOp::Shl, T,
                                 {XId, IL.makeConstI(T, Log2(C + 1))});
      Node &M = IL.node(Id);
      M.Op = ILOp::Sub;
      M.Kids = {Shift, XId};
      return true;
    }
    return false;
  });
}

//===----------------------------------------------------------------------===//
// Reassociation: gathers constants in add/mul chains so folding can act.
//===----------------------------------------------------------------------===//

bool jitml::runReassociation(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = CIL.node(Id);
    if (!isIntegerType(N.Type) || N.Kids.size() != 2)
      return false;
    if (N.Op != ILOp::Add && N.Op != ILOp::Mul)
      return false;
    bool Changed = false;
    // Canonicalize: constant operand on the right.
    if (isConst(CIL, N.Kids[0]) && !isConst(CIL, N.Kids[1])) {
      Node &M = IL.node(Id);
      std::swap(M.Kids[0], M.Kids[1]);
      Changed = true;
    }
    // (x op c1) op c2 -> x op (c1 op c2): rotate so folding finishes it.
    if (isConst(CIL, N.Kids[1])) {
      const Node &L = CIL.node(N.Kids[0]);
      if (L.Op == N.Op && L.Kids.size() == 2 && isConst(CIL, L.Kids[1]) &&
          L.Type == N.Type) {
        int64_t C1 = CIL.node(L.Kids[1]).ConstI;
        int64_t C2 = CIL.node(N.Kids[1]).ConstI;
        int64_t C = N.Op == ILOp::Add
                        ? (int64_t)((uint64_t)C1 + (uint64_t)C2)
                        : (int64_t)((uint64_t)C1 * (uint64_t)C2);
        NodeId X = L.Kids[0];
        DataType MT = N.Type;
        // makeConstI may reallocate the arena: call it before re-taking
        // the mutable ref (N/L are stale past this point).
        NodeId CN = IL.makeConstI(MT, normalizeInt(MT, C));
        Node &M = IL.node(Id);
        M.Kids = {X, CN};
        Changed = true;
      }
    }
    return Changed;
  });
}

//===----------------------------------------------------------------------===//
// Conversion cleanups
//===----------------------------------------------------------------------===//

bool jitml::runSignExtensionElimination(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = IL.node(Id);
    if (N.Op != ILOp::Conv)
      return false;
    DataType From = (DataType)N.A;
    DataType To = N.Type;
    if (From == To) { // conv T->T is a no-op
      Ctx.rewriteToCopyOf(Id, N.Kids[0]);
      return true;
    }
    // conv(A->B) of conv(B->A) collapses when the inner widening is
    // lossless, e.g. int -> long -> int.
    const Node &K = IL.node(N.Kids[0]);
    if (K.Op != ILOp::Conv)
      return false;
    DataType Inner = (DataType)K.A;
    if (Inner != To || !isIntegerType(Inner) || !isIntegerType(From))
      return false;
    if (integerWidth(From) >= integerWidth(Inner)) {
      Ctx.rewriteToCopyOf(Id, K.Kids[0]);
      return true;
    }
    return false;
  });
}

//===----------------------------------------------------------------------===//
// Floating-point variants
//===----------------------------------------------------------------------===//

bool jitml::runFPSimplification(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = IL.node(Id);
    if (!isFloatType(N.Type) || N.Kids.size() != 2)
      return false;
    NodeId LId = N.Kids[0], RId = N.Kids[1];
    switch (N.Op) {
    case ILOp::Add:
      if (isFpConst(IL, RId, 0.0)) {
        Ctx.rewriteToCopyOf(Id, LId);
        return true;
      }
      return false;
    case ILOp::Sub:
      if (isFpConst(IL, RId, 0.0)) {
        Ctx.rewriteToCopyOf(Id, LId);
        return true;
      }
      return false;
    case ILOp::Mul:
      if (isFpConst(IL, RId, 1.0)) {
        Ctx.rewriteToCopyOf(Id, LId);
        return true;
      }
      if (isFpConst(IL, LId, 1.0)) {
        Ctx.rewriteToCopyOf(Id, RId);
        return true;
      }
      return false;
    case ILOp::Div:
      if (isFpConst(IL, RId, 1.0)) {
        Ctx.rewriteToCopyOf(Id, LId);
        return true;
      }
      return false;
    default:
      return false;
    }
  });
}

bool jitml::runFPStrengthReduction(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = CIL.node(Id);
    if (N.Op != ILOp::Div || !isFloatType(N.Type) || N.Kids.size() != 2)
      return false;
    const Node &R = CIL.node(N.Kids[1]);
    if (R.Op != ILOp::Const || R.ConstF == 0.0)
      return false;
    // x / c -> x * (1/c). Exact for powers of two; the plan only schedules
    // this transformation when strict FP compliance is off.
    NodeId Recip = IL.makeConstF(N.Type, 1.0 / R.ConstF);
    Node &M = IL.node(Id);
    M.Op = ILOp::Mul;
    M.Kids[1] = Recip;
    return true;
  });
}

//===----------------------------------------------------------------------===//
// Binary-coded-decimal cleanups
//===----------------------------------------------------------------------===//

bool jitml::runBCDSimplification(PassContext &Ctx) {
  const MethodIL &IL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = IL.node(Id);
    // packed<->zoned round trips are identities.
    if (N.Op == ILOp::Conv && isDecimalType(N.Type)) {
      const Node &K = IL.node(N.Kids[0]);
      if (K.Op == ILOp::Conv && isDecimalType((DataType)N.A) &&
          (DataType)K.A == N.Type) {
        Ctx.rewriteToCopyOf(Id, K.Kids[0]);
        return true;
      }
      return false;
    }
    if (!isDecimalType(N.Type) || N.Kids.size() != 2)
      return false;
    if ((N.Op == ILOp::Add || N.Op == ILOp::Sub) &&
        isIntConst(IL, N.Kids[1], 0)) {
      Ctx.rewriteToCopyOf(Id, N.Kids[0]);
      return true;
    }
    return false;
  });
}

//===----------------------------------------------------------------------===//
// Long-double fast paths
//===----------------------------------------------------------------------===//

bool jitml::runLongDoubleFastPath(PassContext &Ctx) {
  MethodIL &IL = Ctx.il();
  const MethodIL &CIL = Ctx.cil();
  return forEachNodePostOrder(Ctx, [&](NodeId Id) {
    const Node &N = CIL.node(Id);
    // conv(longdouble->double) of conv(double->longdouble) is exact.
    if (N.Op == ILOp::Conv && N.Type == DataType::Double &&
        (DataType)N.A == DataType::LongDouble) {
      const Node &K = CIL.node(N.Kids[0]);
      if (K.Op == ILOp::Conv && (DataType)K.A == DataType::Double) {
        Ctx.rewriteToCopyOf(Id, K.Kids[0]);
        return true;
      }
      return false;
    }
    // op_ld(conv(d->ld) a, conv(d->ld) b) -> conv(d->ld, op_d(a, b)):
    // both operands started as doubles, so the narrower op is exact in the
    // simulated 64-bit long-double carrier.
    if (N.Type != DataType::LongDouble || N.Kids.size() != 2 ||
        !isArithOp(N.Op))
      return false;
    const Node &L = CIL.node(N.Kids[0]);
    const Node &R = CIL.node(N.Kids[1]);
    auto IsWiden = [](const Node &K) {
      return K.Op == ILOp::Conv && (DataType)K.A == DataType::Double;
    };
    if (!IsWiden(L) || !IsWiden(R))
      return false;
    NodeId NarrowOp =
        IL.makeNode(N.Op, DataType::Double, {L.Kids[0], R.Kids[0]});
    Node &M = IL.node(Id);
    M.Op = ILOp::Conv;
    M.A = (int32_t)DataType::Double;
    M.Kids = {NarrowOp};
    return true;
  });
}
