// The filter execution engine: one home for every way this repository can
// evaluate a bound set of filters against a packet.
//
// The paper describes a single interpreter (§4) and sketches two §7
// improvements — performing the validity tests ahead of time, and compiling
// the active filter set into a decision table. Those exist here as five
// selectable strategies behind one interface:
//
//   * kChecked    — the historical interpreter: every check per instruction
//                   at run time (§4, InterpretChecked).
//   * kFast       — validate-ahead interpretation: stack and opcode checks
//                   proved once at bind time (§7, InterpretFast).
//   * kTree       — the active conjunction-shaped filters are compiled into
//                   one decision tree; one walk yields every verdict (§7's
//                   "decision table"). Non-conjunction filters fall back to
//                   kFast within the same pass, as does every filter on a
//                   packet too short for some conjunction's words.
//   * kPredecoded — at Bind() time each program is pre-decoded into a flat
//                   array of {op, fetch kind, operand} structs, so the hot
//                   loop does no per-instruction word splitting, literal
//                   fetching, or constant-table lookups. The natural next
//                   step after kFast: *all* static work, not just the safety
//                   tests, is performed ahead of time.
//   * kIndexed    — a hash dispatch index over the conjunction-shaped
//                   filters: Bind() time chooses a small set of
//                   discriminating (word, mask) pairs shared across the
//                   bound set; Match() hashes those words' masked values
//                   once and only the filters in the matching bucket are
//                   (re-)executed. The index is a pruner, never an oracle —
//                   a bucket hit is always re-confirmed by running the
//                   filter itself (pre-decoded), so hash collisions cannot
//                   mis-deliver. Filters outside the conjunction subset,
//                   and packets too short to load every indexed word, fall
//                   back to the sequential pre-decoded pass. Common-case
//                   cost is O(index width), independent of bound_count().
//   * kCompiled   — bind-time compilation (src/pf/compile.h): each program
//                   is lowered to fused ops — constants folded, masks and
//                   compare-and-exit pairs fused into single ops, dead
//                   pushes eliminated, the short-packet guard hoisted out
//                   of the hot loop — and bindings sharing a compiled-op
//                   prefix (e.g. a port's filters testing the same leading
//                   header fields) execute that prefix once per pass.
//                   Exact-accounting ops make every exit report the same
//                   ExecResult the §4 interpreter would have produced, so
//                   charged cost, statuses, and profiles reconcile with
//                   kChecked; the win is wall clock (bench/micro_interpreter).
//                   Packets below a program's guard fall back to the exact
//                   pre-decoded interpreter.
//
// An Engine owns the bound filter set (keyed by an opaque uint32_t — the
// demultiplexer uses its PortId). Match(packet) starts one evaluation pass;
// the returned MatchPass answers per-filter verdicts lazily, so a caller
// that stops after the first accepting filter (fig. 4-1's claim rule) pays
// nothing for the filters it never asks about. Each pass accumulates an
// ExecTelemetry — the single struct the kernel Ledger and the §6 benchmarks
// charge costs from.
#ifndef SRC_PF_ENGINE_H_
#define SRC_PF_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/pf/compile.h"
#include "src/pf/decision_tree.h"
#include "src/pf/interpreter.h"
#include "src/pf/profile.h"
#include "src/pf/program.h"
#include "src/pf/validate.h"

namespace pf {

enum class Strategy : uint8_t {
  kChecked = 0,  // §4 historical interpreter, per-instruction checking
  kFast,         // §7 validate-ahead interpretation
  kTree,         // §7 decision-tree compilation of the conjunction subset
  kPredecoded,   // bind-time pre-decode, no per-instruction operand fetching
  kIndexed,      // hash dispatch on shared discriminating words + re-confirm
  kCompiled,     // bind-time compilation into fused ops (src/pf/compile.h)
};

inline constexpr Strategy kAllStrategies[] = {Strategy::kChecked, Strategy::kFast,
                                              Strategy::kTree, Strategy::kPredecoded,
                                              Strategy::kIndexed, Strategy::kCompiled};
inline constexpr size_t kStrategyCount = sizeof(kAllStrategies) / sizeof(kAllStrategies[0]);

std::string ToString(Strategy strategy);

// Everything one evaluation pass did, in one place. The kernel's Ledger
// (src/kernel/pf_device.cc) and the §6 benchmarks draw from this struct;
// there are no other execution out-params.
struct ExecTelemetry {
  uint32_t filters_run = 0;       // programs interpreted sequentially
  uint64_t insns_executed = 0;    // filter instructions evaluated
  uint32_t tree_probes = 0;       // decision-tree node probes
  uint32_t decode_cache_hits = 0; // verdicts served from a pre-decoded program
  uint32_t index_probes = 0;      // discriminating-word loads for the hash index
  // Fused ops the kCompiled backend actually executed — informational (the
  // runtime-work counterpart of insns_executed, which under kCompiled
  // stays the *original-equivalent* count the ledger charges). Not part of
  // the charged work sum.
  uint64_t fused_ops = 0;

  ExecTelemetry& operator+=(const ExecTelemetry& other) {
    filters_run += other.filters_run;
    insns_executed += other.insns_executed;
    tree_probes += other.tree_probes;
    decode_cache_hits += other.decode_cache_hits;
    index_probes += other.index_probes;
    fused_ops += other.fused_ops;
    return *this;
  }
  friend bool operator==(const ExecTelemetry&, const ExecTelemetry&) = default;
};

// One filter's answer for one packet. Errors reject (§4) and are surfaced in
// `status` so hosts can count them per port. `insns_executed` is how many
// instructions *this* filter ran (0 when the verdict came from the decision
// tree or an index prune); since execution is straight-line, the erroring
// instruction of a non-kOk verdict is pc insns_executed - 1 — the flight
// recorder's "rejecting pc".
struct Verdict {
  bool accept = false;
  ExecStatus status = ExecStatus::kOk;
  bool short_circuited = false;
  uint32_t insns_executed = 0;
};

// One pre-decoded instruction. The operand is resolved at Bind() time:
// PUSHLIT literals and the PUSHZERO/PUSHONE/PUSHFFFF/... constants all
// collapse to kImm with the value in `imm`.
struct PredecodedInsn {
  enum class Fetch : uint8_t {
    kNone,  // no stack push
    kImm,   // push `imm`
    kWord,  // push packet word `word_index`
    kInd,   // v2: pop a byte offset, push the packet word there
  };
  BinaryOp op = BinaryOp::kNop;
  Fetch fetch = Fetch::kNone;
  uint8_t word_index = 0;
  uint16_t imm = 0;
};

class Engine {
 public:
  using Key = uint32_t;

  // One bound filter and everything Bind() precomputed for it. Exposed so
  // hosts can cache a `const Binding*` handle (PacketFilter keeps one per
  // port, refreshed when it rebuilds its priority order) and hand it back
  // to MatchPass::Test(), skipping the per-(packet, key) hash lookup on the
  // demux hot path. A handle stays valid until its key is Unbind()ed or
  // Clear() runs; re-Bind()ing the same key updates it in place.
  struct Binding {
    ValidatedProgram program;
    std::vector<PredecodedInsn> decoded;
    std::optional<std::vector<FieldTest>> conjunction;
    bool indexed = false;  // dispatched through the hash index (kIndexed)
    // Bind-time compilation output (kCompiled). `prefix_group` >= 0 names
    // the engine prefix-cache slot shared with every binding whose first
    // `prefix_len` compiled ops are identical; -1 = no shared prefix.
    CompiledProgram compiled;
    int prefix_group = -1;
    uint32_t prefix_len = 0;
    // Allocated by SetProfiling(true) / Bind() while profiling; updated by
    // the (const) MatchPass, hence mutable. Null whenever profiling has
    // never been on for this binding.
    mutable std::unique_ptr<ProgramProfile> profile;
  };

  explicit Engine(Strategy strategy = Strategy::kFast) : strategy_(strategy) {}

  void set_strategy(Strategy strategy);
  Strategy strategy() const { return strategy_; }

  // --- Observability (src/obs) ---
  // Registers per-strategy counters ("engine.<strategy>.passes" /
  // ".filters_run" / ".insns") and a work histogram
  // ("engine.<strategy>.insns_per_pass"). Metric pointers are cached here,
  // so with no registry attached instrumentation is a null check.
  void AttachMetrics(pfobs::MetricsRegistry* registry);
  // Folds one finished pass's telemetry into the attached registry under
  // the *current* strategy; no-op when none is attached. Hosts that own the
  // whole pass (PacketFilter::Demux, RunOne) call this once per packet.
  void RecordPass(const ExecTelemetry& telemetry);

  // --- The bound filter set ---
  // Bind() performs every ahead-of-time step once: the program arrives
  // already validated, is pre-decoded for kPredecoded, and its conjunction
  // shape (if any) is extracted for kTree.
  void Bind(Key key, ValidatedProgram program);
  bool Unbind(Key key);
  void Clear();
  size_t bound_count() const { return filters_.size(); }
  // The bound program, or nullptr. Pointer invalidated by Bind/Unbind/Clear.
  const ValidatedProgram* Find(Key key) const;
  // The full binding (see struct Binding above), or nullptr. The pointer
  // survives re-Bind() of the same key; Unbind/Clear invalidate it.
  const Binding* FindBinding(Key key) const;

  // --- Tree introspection (meaningful under kTree) ---
  // True once a non-empty tree has been built and the strategy uses it.
  bool tree_in_use() const { return strategy_ == Strategy::kTree && !tree_.empty(); }
  size_t tree_nodes() const { return tree_.node_count(); }

  // --- Index introspection (meaningful under kIndexed) ---
  // These reflect the most recently built index; Match() and Refresh()
  // rebuild it lazily after Bind/Unbind/set_strategy.
  bool index_in_use() const { return strategy_ == Strategy::kIndexed && index_entries_ > 0; }
  // Number of discriminating (word, mask) pairs probed per packet.
  size_t index_width() const { return index_pairs_.size(); }
  // Filters dispatched through the index (the rest run sequentially).
  size_t index_entries() const { return index_entries_; }

  // --- Dispatch (kTree / kIndexed) ---
  // Rebuilds whatever Bind/Unbind/set_strategy left stale (tree, index,
  // compiled prefixes). Match() does this lazily; a host that caches
  // Dispatched() answers calls it first.
  void Refresh();
  // True when passes answer `binding` through the strategy's dispatch
  // structure (kTree's walk, kIndexed's hash bucket): unless it is among
  // MatchPass::survivors(), a pass rejects it with no telemetry and no
  // status (profiling still replays it, uncharged). False for every binding
  // under the sequential strategies. Reflects the structure as of the last
  // Refresh()/Match().
  bool Dispatched(const Binding& binding) const {
    return (tree_in_use() && binding.conjunction.has_value()) ||
           (index_in_use() && binding.indexed);
  }

  // --- Compiled-backend introspection (meaningful under kCompiled) ---
  // Shared-prefix groups found across the bound set; reflects the most
  // recent rebuild (Match() rebuilds lazily after Bind/Unbind/set_strategy).
  size_t compiled_prefix_groups() const { return compiled_prefix_groups_; }

  // --- Filter-program profiling (src/pf/profile.h) ---
  // Opt-in per-binding profiles: per-pc hit counts, exit pcs, and charged
  // (ledger-reconcilable) instruction counts. When a strategy answers a
  // filter without running it (kTree's walk, kIndexed's prune), the pass
  // replays the pre-decoded program once — uncharged — so per-pc *hit*
  // counts are identical across every strategy. Off (the default) the cost
  // is a single branch per filter test.
  void SetProfiling(bool enabled);
  bool profiling() const { return profiling_; }
  // The profile collected for `key`, or nullptr (not bound, or profiling
  // was never enabled for it). Same lifetime rules as FindBinding().
  const ProgramProfile* Profile(Key key) const;
  // Sum over every binding's profile plus the probe work done while
  // profiling was on (the kFilterEval reconciliation inputs).
  ProfileTotals profile_totals() const;
  // Zeroes every profile and the probe totals; keeps profiling enabled.
  void ResetProfiles();

  // One packet's evaluation pass over the bound set. Test() is lazy for the
  // sequential strategies; the kTree constructor front-loads the single
  // walk that yields every conjunction filter's verdict. At most one pass
  // per Engine may be live at a time (it borrows the engine's match
  // buffer), Bind/Unbind/Clear invalidate it, and the packet bytes must
  // outlive the pass (it holds a span, not a copy).
  class MatchPass {
   public:
    // Verdict for the filter bound at `key` (reject if none is bound).
    Verdict Test(Key key);
    // Same, with the binding handle supplied by the caller (must be the
    // engine's binding for `key`, or nullptr) — skips the map lookup.
    Verdict Test(Key key, const Binding* binding);
    const ExecTelemetry& telemetry() const { return telemetry_; }
    // The Dispatched() filters this pass may accept — kTree's walk matches
    // or kIndexed's hash bucket — in no particular order. Test() rejects
    // every other Dispatched() filter with no telemetry and no status, so a
    // caller may skip them. nullopt when the pass dispatched nothing (a
    // sequential strategy, an empty tree or index, or a packet too short
    // to dispatch): then every filter has to be tested.
    std::optional<std::span<const Key>> survivors() const;

   private:
    friend class Engine;
    MatchPass(const Engine* engine, std::span<const uint8_t> packet)
        : engine_(engine), packet_(packet) {}

    const Engine* engine_;
    std::span<const uint8_t> packet_;
    ExecTelemetry telemetry_;
    const std::vector<Key>* tree_matches_ = nullptr;  // kTree: the walk's output
    // kIndexed: candidates in the packet's hash bucket (nullptr = empty
    // bucket, prune everything indexed). Meaningful only when index_active_,
    // which is false when the whole pass runs sequentially (short packet).
    const std::vector<Key>* index_candidates_ = nullptr;
    bool index_active_ = false;
  };

  MatchPass Match(std::span<const uint8_t> packet);

  // Convenience for single-program callers (examples, tests): one packet
  // against one bound filter, telemetry accumulated into *telemetry if
  // non-null. Benchmarks hot-loop Match()+Test() directly instead.
  Verdict RunOne(Key key, std::span<const uint8_t> packet, ExecTelemetry* telemetry = nullptr);

 private:
  // At most this many discriminating (word, mask) pairs are probed per
  // packet — the constant bounding kIndexed's common-case cost.
  static constexpr size_t kMaxIndexWords = 4;

  void RebuildTree();
  void RebuildIndex();
  void RebuildCompiledPrefixes();

  // Per-pass memo for one shared compiled-op prefix: either the prefix
  // itself exited (every group member reports the identical ExecResult —
  // ops compare equal *including* their end_insns accounting) or the
  // machine state at the boundary, from which each member resumes. Charged
  // work is unaffected: insns_executed always derives from end_insns.
  struct PrefixCacheEntry {
    uint64_t gen = 0;  // valid iff == compiled_pass_gen_
    bool exited = false;
    ExecResult exit;
    CompiledCursor cursor;
  };

  struct StrategyMetrics {
    pfobs::Counter* passes = nullptr;
    pfobs::Counter* filters_run = nullptr;
    pfobs::Counter* insns = nullptr;
    pfobs::Histogram* insns_per_pass = nullptr;
  };

  Strategy strategy_;
  bool profiling_ = false;
  // Probe work performed while profiling (accumulated by Match); the
  // per-binding instruction counts live in Binding::profile.
  uint64_t profiled_tree_probes_ = 0;
  uint64_t profiled_index_probes_ = 0;
  pfobs::MetricsRegistry* metrics_registry_ = nullptr;
  StrategyMetrics strategy_metrics_[kStrategyCount];
  std::unordered_map<Key, Binding> filters_;
  DecisionTree tree_;
  bool tree_dirty_ = false;
  std::vector<Key> match_buffer_;  // reused across passes (kTree walk output)

  // --- Hash dispatch index (kIndexed) ---
  bool index_dirty_ = false;
  std::vector<FieldTestKey> index_pairs_;  // the discriminating words, sorted
  std::unordered_map<uint64_t, std::vector<Key>> index_buckets_;
  size_t index_entries_ = 0;

  // Every dispatched filter's word references (the tree's conjunctions, or
  // the indexed filters) fit in a packet of at least this many bytes;
  // shorter packets take the sequential fallback so dispatch can never hide
  // a kOutOfPacket status a sequential run would report.
  size_t dispatch_min_packet_bytes_ = 0;

  // --- Compiled prefix hoisting (kCompiled) ---
  bool compiled_dirty_ = false;
  size_t compiled_prefix_groups_ = 0;
  // One entry per prefix group, written by the (const) MatchPass on the
  // first member tested each pass, hence mutable. Entries invalidate by
  // generation, not by clearing, so Match() stays O(1) in group count.
  mutable std::vector<PrefixCacheEntry> prefix_cache_;
  uint64_t compiled_pass_gen_ = 0;
};

// Bind-time pre-decode of a validated program (exposed for tests and the
// disassembler-style tooling; Engine::Bind calls it).
std::vector<PredecodedInsn> Predecode(const ValidatedProgram& program);

// The kPredecoded hot loop (exposed for tests; Engine uses it internally).
ExecResult InterpretPredecoded(std::span<const PredecodedInsn> insns,
                               std::span<const uint8_t> packet);

}  // namespace pf

#endif  // SRC_PF_ENGINE_H_
