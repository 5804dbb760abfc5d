//===- il/MethodIL.h - Tree IL method representation -----------*- C++ -*-===//
///
/// \file
/// The in-memory IL for one method: a node arena, basic blocks holding
/// treetop lists, and the CFG. This is the representation every one of the
/// 58 controllable transformations operates on, the representation the
/// feature extractor walks "just prior to the start of the optimization
/// stage" (section 4.1), and the input to the code generator.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_IL_METHODIL_H
#define JITML_IL_METHODIL_H

#include "bytecode/Program.h"
#include "il/ILOps.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace jitml {

using NodeId = uint32_t;
using BlockId = uint32_t;
constexpr NodeId InvalidNode = UINT32_MAX;
constexpr BlockId InvalidBlock = UINT32_MAX;

class MethodIL;

/// A node's child list with two inline slots — the unary/binary case that
/// covers almost every IL node — and pool-backed overflow for wider nodes
/// (calls, multi-array allocations). The inline layout removes the
/// per-node heap allocation and the pointer chase a std::vector cost every
/// tree walk in the passes, the feature extractor, the verifier and
/// codegen. Overflow storage lives in MethodIL's kid pool (stable chunk
/// addresses, freed with the method), so KidList itself is move-only and
/// lists wider than two kids are produced through MethodIL::makeNode /
/// MethodIL::setKids, never grown in place.
class KidList {
public:
  static constexpr uint32_t InlineSlots = 2;

  KidList() = default;
  KidList(KidList &&O) noexcept : Ovf(O.Ovf), Count(O.Count) {
    Inline[0] = O.Inline[0];
    Inline[1] = O.Inline[1];
    O.Ovf = nullptr;
    O.Count = 0;
  }
  KidList &operator=(KidList &&O) noexcept {
    Ovf = O.Ovf;
    Inline[0] = O.Inline[0];
    Inline[1] = O.Inline[1];
    Count = O.Count;
    O.Ovf = nullptr;
    O.Count = 0;
    return *this;
  }
  KidList(const KidList &) = delete;
  KidList &operator=(const KidList &) = delete;

  /// In-place assignment of at most two kids — the shape of every rewrite
  /// the expression passes perform. Wider lists must go through
  /// MethodIL::setKids (they need pool storage).
  KidList &operator=(std::initializer_list<NodeId> L) {
    assert(L.size() <= InlineSlots &&
           "inline kid assignment is limited to 2; use MethodIL::setKids");
    Count = (uint32_t)L.size();
    uint32_t I = 0;
    for (NodeId Id : L)
      Inline[I++] = Id;
    return *this;
  }

  NodeId *data() { return Count <= InlineSlots ? Inline : Ovf; }
  const NodeId *data() const { return Count <= InlineSlots ? Inline : Ovf; }
  NodeId *begin() { return data(); }
  NodeId *end() { return data() + Count; }
  const NodeId *begin() const { return data(); }
  const NodeId *end() const { return data() + Count; }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  void clear() { Count = 0; }

  NodeId &operator[](size_t I) {
    assert(I < Count && "kid index out of range");
    return data()[I];
  }
  const NodeId &operator[](size_t I) const {
    assert(I < Count && "kid index out of range");
    return data()[I];
  }

  bool operator==(const KidList &O) const {
    if (Count != O.Count)
      return false;
    const NodeId *A = data(), *B = O.data();
    for (uint32_t I = 0; I < Count; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  bool operator!=(const KidList &O) const { return !(*this == O); }

private:
  friend class MethodIL;
  NodeId *Ovf = nullptr; ///< pool storage when Count > InlineSlots
  NodeId Inline[InlineSlots] = {0, 0};
  uint32_t Count = 0;
};

/// One IL tree node. Nodes live in MethodIL's arena and reference children
/// by id; trees may share subtrees after value numbering (DAG form), which
/// the code generator exploits by emitting shared subtrees once. Nodes are
/// move-only (the kid list may reference pool storage); copy the scalar
/// fields and re-set the kids through MethodIL when duplicating one.
struct Node {
  ILOp Op = ILOp::Const;
  DataType Type = DataType::Void;
  int32_t A = 0;      ///< slot/field/class/method/cond payload (per opcode)
  int32_t B = 0;      ///< secondary payload (e.g. virtual-dispatch flag)
  int64_t ConstI = 0; ///< integer/decimal constant payload
  double ConstF = 0;  ///< floating constant payload
  KidList Kids;

  Node() = default;
  Node(Node &&) = default;
  Node &operator=(Node &&) = default;
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  bool is(ILOp O) const { return Op == O; }
  unsigned numKids() const { return (unsigned)Kids.size(); }
};

/// Exception handler reachable from a block: the handler block plus the
/// class filter (-1 catches everything).
struct HandlerRef {
  BlockId Handler = InvalidBlock;
  int32_t ClassIndex = -1;
};

/// A basic block: an ordered list of treetops ending in a terminator.
struct Block {
  std::vector<NodeId> Trees;
  std::vector<BlockId> Succs; ///< Branch: [taken, fallthrough]; Goto: [next]
  std::vector<BlockId> Preds;
  std::vector<HandlerRef> Handlers; ///< active try regions, innermost first
  /// Estimated execution frequency relative to entry (1.0); set by loop
  /// analysis and used by cold-block outlining and block layout.
  double Frequency = 1.0;
  bool IsHandler = false; ///< entered with the in-flight exception
  bool Reachable = true;
  /// Set by cold-block outlining: the code generator places cold blocks
  /// after all warm code so they stop polluting the instruction cache.
  bool Cold = false;
};

/// The method-level IL container.
///
/// Every mutation — node/block creation, CFG edits, and any access through
/// the non-const node()/block() accessors — bumps a modification epoch.
/// Two observations of the same epoch therefore guarantee byte-identical
/// IL, which is what lets PassContext cache LoopInfo/dominator/guard-fact
/// analyses and lets countLiveNodes() serve a cached count (all
/// invalidated by construction the moment anything could have changed).
/// The epoch over-approximates: a mutable accessor bumps even if the
/// caller never writes, which costs only cache hit-rate, never soundness.
/// A MethodIL is used by one thread at a time (one compile, or one
/// thread's ILCache), so the mutable caches need no synchronization.
class MethodIL {
public:
  MethodIL(const Program &P, uint32_t MethodIndex);
  MethodIL(const MethodIL &) = delete;
  MethodIL &operator=(const MethodIL &) = delete;

  /// Deep copy with the same node ids, blocks, locals and epoch, and fresh
  /// kid-pool storage for the wide nodes. A compile optimizes a clone of
  /// the IL an ILCache keeps; the clone of freshly generated IL matches a
  /// fresh generateIL node for node.
  std::unique_ptr<MethodIL> clone() const;

  const Program &program() const { return *Prog; }
  uint32_t methodIndex() const { return MethodIndex; }
  const MethodInfo &methodInfo() const { return Prog->methodAt(MethodIndex); }

  // --- Modification epoch ---
  uint64_t modEpoch() const { return ModEpoch; }
  void bumpEpoch() { ++ModEpoch; }

  // --- Node arena ---
  NodeId makeNode(ILOp Op, DataType Type);
  NodeId makeNode(ILOp Op, DataType Type, std::initializer_list<NodeId> Kids);
  NodeId makeNode(ILOp Op, DataType Type, const std::vector<NodeId> &Kids);
  NodeId makeConstI(DataType Type, int64_t V);
  NodeId makeConstF(DataType Type, double V);

  /// Replaces \p Id's kid list with [K, K+N), spilling to the kid pool when
  /// it does not fit the inline slots. The only way to give a node more
  /// than two kids after creation.
  void setKids(NodeId Id, const NodeId *K, size_t N);

  Node &node(NodeId Id) {
    assert(Id < Nodes.size() && "node id out of range");
    ++ModEpoch; // mutable access: assume a write (over-approximate)
    return Nodes[Id];
  }
  const Node &node(NodeId Id) const {
    assert(Id < Nodes.size() && "node id out of range");
    return Nodes[Id];
  }
  uint32_t numNodes() const { return (uint32_t)Nodes.size(); }

  /// Reserves room for \p NumNodes nodes and \p NumBlocks blocks, so a
  /// builder that knows its sizes up front does not regrow the tables.
  void reserve(uint32_t NumNodes, uint32_t NumBlocks) {
    Nodes.reserve(NumNodes);
    Blocks.reserve(NumBlocks);
  }

  // --- Blocks / CFG ---
  BlockId makeBlock();
  Block &block(BlockId Id) {
    assert(Id < Blocks.size() && "block id out of range");
    ++ModEpoch; // mutable access: assume a write (over-approximate)
    return Blocks[Id];
  }
  const Block &block(BlockId Id) const {
    assert(Id < Blocks.size() && "block id out of range");
    return Blocks[Id];
  }
  uint32_t numBlocks() const { return (uint32_t)Blocks.size(); }
  BlockId entryBlock() const { return Entry; }
  void setEntryBlock(BlockId B) {
    Entry = B;
    ++ModEpoch;
  }

  /// Adds CFG edge From -> To (appends to Succs/Preds).
  void addEdge(BlockId From, BlockId To);
  /// Replaces the edge From -> OldTo with From -> NewTo.
  void replaceEdge(BlockId From, BlockId OldTo, BlockId NewTo);
  /// Recomputes every block's Preds from Succs.
  void recomputePreds();
  /// Marks blocks unreachable from the entry (including via handler edges).
  /// Bumps the epoch only when some block's flag actually changed, so the
  /// unconditional recompute at the head of unreachable-code elimination
  /// keeps the epoch-keyed caches valid when it finds nothing.
  void computeReachability();

  // --- Locals ---
  /// Locals [0, method numArgs) are parameters; the IL generator and the
  /// optimizer may append temporaries.
  uint32_t numLocals() const { return (uint32_t)LocalTypes.size(); }
  DataType localType(uint32_t Slot) const {
    assert(Slot < LocalTypes.size() && "local slot out of range");
    return LocalTypes[Slot];
  }
  uint32_t addLocal(DataType T) {
    LocalTypes.push_back(T);
    ++ModEpoch;
    return (uint32_t)LocalTypes.size() - 1;
  }

  /// Counts nodes reachable from the treetops of reachable blocks; this is
  /// the "tree nodes" scalar feature and the unit the compile-time cost
  /// model charges per pass. The walk is cached per epoch (the optimizer
  /// asks twice per plan entry).
  uint32_t countLiveNodes() const;

  /// Returns the blocks in reverse post order from the entry (reachable
  /// blocks only) — the iteration order used by the global passes.
  std::vector<BlockId> reversePostOrder() const;

private:
  NodeId *allocKids(size_t N);
  void assignKids(Node &N, const NodeId *K, size_t Count);

  const Program *Prog;
  uint32_t MethodIndex;
  std::vector<Node> Nodes;
  std::vector<Block> Blocks;
  std::vector<DataType> LocalTypes;
  BlockId Entry = InvalidBlock;
  uint64_t ModEpoch = 0;

  /// Bump-pointer pool for kid lists wider than KidList's inline slots.
  /// Chunk addresses are stable (KidList overflow pointers stay valid
  /// while the method lives); storage is reclaimed with the MethodIL.
  std::vector<std::unique_ptr<NodeId[]>> KidChunks;
  size_t KidChunkUsed = 0;
  size_t KidChunkCap = 0;

  /// countLiveNodes() cache, valid while the epoch matches. Mutable: one
  /// thread uses a MethodIL at a time (see class comment).
  mutable uint64_t LiveCountEpoch = UINT64_MAX;
  mutable uint32_t LiveCount = 0;
};

} // namespace jitml

#endif // JITML_IL_METHODIL_H
