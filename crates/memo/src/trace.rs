//! Trace compilation: flattening hot p-action chains into linear replay
//! segments (the paper's §4 record-then-specialize idea, applied to the
//! replay path itself — compare Embra's translation caches).
//!
//! Node-at-a-time replay pays, per action, a `kind` fetch from the node
//! arena, an `ActionKind` match, and an `advance`/`branch_to` successor
//! resolution (a second random arena access, plus an outcome-edge scan).
//! Once a configuration's chain is *hot* — entered
//! [`hotness_threshold`](PActionCache::hotness_threshold) times — the
//! chain is compiled into a [`TraceSegment`]: one contiguous `Vec` of
//! compact [`TraceOp`]s executed by a linear scan.
//!
//! Compilation rules, chosen so that segment execution is **bit-identical**
//! to node-at-a-time replay (including every `SimStats`/`MemoStats`
//! counter that existed before traces):
//!
//! * Maximal runs of consecutive outcome-less `Advance` actions are
//!   pre-aggregated into one [`TraceOp::Bulk`]: cycles summed,
//!   [`RetireCounts`] merged, and the *logical* action count carried so
//!   `replayed_actions`/`dynamic_actions` still count actions, not ops.
//! * Side-effecting outcome-less actions (`IssueStore`, `CancelLoad`,
//!   `Rollback`) become individual ops with their queue indices
//!   pre-resolved into the op — they cannot be merged across `Advance`s
//!   because stores/cancels observe the *current* cycle count and queue
//!   heads, and retirement pops move those heads.
//! * Each outcome-bearing action (`FetchRecord`/`IssueLoad`/`PollLoad`)
//!   becomes an explicit dispatch op carrying its outcome→target edges as
//!   known at compile time, hot edge (the first recorded one) first: the
//!   hot outcome continues inline to the next op; another carried edge
//!   exits the segment to node-at-a-time replay at its target; an
//!   uncarried outcome exits through the node's *live* edge table (so
//!   edges recorded after compilation are still honoured) and from there
//!   to detailed simulation, exactly like node-at-a-time replay.
//! * A configuration boundary inside the chain sets the `anchored` flag
//!   on the crossed node's own op (a configuration head *is* the first
//!   action of its chain, so the crossing and the action share a node):
//!   execution performs the crossing bookkeeping (fallback anchor,
//!   resume reset, `config_visits`) that node-at-a-time replay performs
//!   when the cursor carries configuration bytes, then the action —
//!   without spending a separate dispatched op on it.
//! * A chain cut — a successor or outcome edge missing at compile time —
//!   ends the segment with [`TraceOp::Cut`] *before* the unreachable
//!   node: the cut node is re-executed node-at-a-time against live links,
//!   so links filled after compilation (by resumed recording or a merge)
//!   behave exactly as without traces.
//! * A cycle in the chain (hot loops) becomes a [`TraceOp::Jump`] back to
//!   the op where the revisited node's ops begin: a hot loop replays
//!   entirely inside one segment with zero per-iteration lookups.
//!
//! Every op records the [`NodeId`]s it covers so execution can set the
//! same `accessed` bits node-at-a-time replay would — GC liveness, and
//! therefore every downstream simulation result, is unchanged.
//!
//! # Superblock chaining
//!
//! A segment exit through a carried cold edge or a cut does not have to
//! bounce through node-at-a-time replay:
//! [`chain_enter`](PActionCache::chain_enter) patches a direct
//! segment→segment link (an epoch-stamped entry in a dense side table)
//! to the exit target's compiled segment, so hot loops and call/return
//! ladders run segment-to-segment without touching the node arena.
//! Targets without a segment are compiled on the spot — the
//! next-executing-tail heuristic from dynamic binary translation:
//! control only reaches a chain target out of an already-hot segment, so
//! the target inherits that hotness instead of re-proving it one bailout
//! at a time. Segments may therefore start at *any* node, not only
//! configuration heads: a mid-chain exit target compiles its own
//! (unanchored-entry) superblock. Chaining is purely a performance
//! feature: the executed per-action work is identical, so simulation
//! results and every architectural statistic are bit-identical to
//! node-at-a-time replay.
//!
//! *Initial* promotion out of node-at-a-time replay
//! ([`trace_enter`](PActionCache::trace_enter)) is adaptive rather than
//! a bare entry count: each entry weighs [`HOT_REENTRY_WEIGHT`] when the
//! node was last entered within [`RECENT_WINDOW`] global entries (a
//! tight replay loop) and `1` otherwise, so genuinely hot heads compile
//! after a handful of entries while heads seen once in a blue moon
//! accumulate slowly toward the same threshold.
//!
//! # Lifecycle
//!
//! Segments never dangle: they are invalidated (together with the hotness
//! counters and chain links) by [`flush`](PActionCache::flush) and
//! [`collect`](PActionCache::collect) — node ids relocate there. Plain
//! appends (new recording) keep existing segments valid by construction:
//! filled links and new edges are only ever *added*, and cuts/uncarried
//! outcomes read the live graph. The same append-only argument lets
//! segments survive [`merge_from`](PActionCache::merge_from) (the master
//! only ever appends) and ride along in [`freeze`](PActionCache::freeze)
//! snapshots: a thawed working copy revives the snapshot's segments after
//! revalidating each against the thawed arena (recomputing
//! [`TraceSegment::fp`] and prefix-checking dispatch edges), and a merge
//! imports the delta's segments that live entirely inside the shared base
//! prefix, so refrozen masters and served warm caches stop recompiling
//! from scratch every merge cycle. Chain links are severed (one epoch
//! bump) on every flush/collect/merge and re-patch on the next
//! segment-to-segment transition; a freeze carries them as per-node bits.

use crate::action::{ActionKind, NodeId, OutcomeKey, RetireCounts};
use crate::cache::{PActionCache, Successors};
use std::sync::Arc;

/// Default hotness threshold: a configuration's chain is trace-compiled
/// after this many replay entries. `0` compiles on first entry;
/// `u32::MAX` disables compilation.
pub const DEFAULT_HOTNESS_THRESHOLD: u32 = 32;

/// Hard cap on compiled ops per segment (bounds compile time and memory
/// for pathological chains; the segment ends with a [`TraceOp::Cut`] and
/// replay continues node-at-a-time).
const MAX_TRACE_OPS: usize = 1024;

/// Adaptive-hotness recency window, in global hotness-counted entries: an
/// entry whose node was last entered at most this many entries ago weighs
/// [`HOT_REENTRY_WEIGHT`] instead of `1`.
pub const RECENT_WINDOW: u32 = 64;

/// Hotness weight of an entry within [`RECENT_WINDOW`] of the node's
/// previous entry.
pub const HOT_REENTRY_WEIGHT: u32 = 4;

/// How a [`TraceOp::Bulk`] records the node ids it covers for `accessed`
/// marking — an 8-byte packed encoding of the two cases exposed by
/// [`TouchedKind`]. A span (`b == u32::MAX`) covers `count` consecutively
/// numbered nodes starting at `a`; otherwise `(a, b)` is a `(start, len)`
/// range into [`TraceSegment::touched`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Touched {
    a: u32,
    b: u32,
}

/// Sentinel `b` value marking a [`Touched`] as a span. A list range can
/// never carry this length: segments are capped at [`MAX_TRACE_OPS`] ops.
const TOUCHED_SPAN: u32 = u32::MAX;

impl Touched {
    /// The run covers consecutively numbered nodes starting at `first` —
    /// the common case for straight-line recordings, marked with a single
    /// slice fill ([`mark_accessed_span`](PActionCache::mark_accessed_span)).
    #[inline]
    pub fn span(first: NodeId) -> Touched {
        Touched { a: first, b: TOUCHED_SPAN }
    }

    /// Arbitrary ids: a `(start, len)` range into
    /// [`TraceSegment::touched`], marked one by one.
    #[inline]
    pub fn list(start: u32, len: u32) -> Touched {
        debug_assert!(len != TOUCHED_SPAN, "list length collides with the span sentinel");
        Touched { a: start, b: len }
    }

    /// Unpacks the encoding.
    #[inline]
    pub fn kind(self) -> TouchedKind {
        if self.b == TOUCHED_SPAN {
            TouchedKind::Span(self.a)
        } else {
            TouchedKind::List(self.a, self.b)
        }
    }
}

/// The unpacked view of a [`Touched`] encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TouchedKind {
    /// Consecutively numbered nodes starting here.
    Span(NodeId),
    /// A `(start, len)` range into [`TraceSegment::touched`].
    List(u32, u32),
}

/// A `(start, len)` range into [`TraceSegment::edges`]: the outcome→target
/// edges of one dispatch op, hot edge first. 8 bytes in the op instead of
/// a 16-byte `Box<[..]>` (plus its heap block and indirection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRange {
    /// First edge index.
    pub start: u32,
    /// Edge count.
    pub len: u32,
}

/// One compact op of a compiled [`TraceSegment`].
///
/// Action ops carry an `anchored` flag instead of the segment spending a
/// separate op on configuration crossings: a configuration head *is* the
/// first action of its chain, so execution performs the crossing
/// bookkeeping and the action in one dispatch.
///
/// Ops are kept at 24 bytes or less (checked at compile time below) so a
/// segment scan touches as few cache lines as possible: wide payloads —
/// the 20-byte [`RetireCounts`] and the variable-length edge lists — live
/// in [`TraceSegment`] side tables and are referenced by 4- and 8-byte
/// indices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceOp {
    /// A maximal run of consecutive `Advance` actions, pre-aggregated:
    /// `cycles` summed, `retired` merged, `count` logical actions,
    /// `touched` the covered node ids for `accessed` marking.
    Bulk {
        /// Total simulated cycles of the run.
        cycles: u32,
        /// Merged retirement counts of the run: an index into
        /// [`TraceSegment::retires`].
        retired: u32,
        /// Logical `Advance` actions aggregated (for action counters).
        count: u32,
        /// The covered node ids.
        touched: Touched,
        /// The run's first node is a configuration head: perform the
        /// crossing bookkeeping before the run's effects.
        anchored: bool,
    },
    /// `IssueStore` with the sQ index pre-resolved into the op.
    IssueStore {
        /// The covered node.
        node: NodeId,
        /// Head-relative sQ position.
        sq_index: u32,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// `CancelLoad` with the lQ index pre-resolved into the op.
    CancelLoad {
        /// The covered node.
        node: NodeId,
        /// Head-relative lQ position.
        lq_index: u32,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// `Rollback` with the cQ index pre-resolved into the op.
    Rollback {
        /// The covered node.
        node: NodeId,
        /// Head-relative cQ position.
        ctrl_index: u32,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// `FetchRecord` dispatch point. `edges` are the outcome→target edges
    /// known at compile time, hot edge first; the hot outcome continues
    /// inline to the next op.
    Fetch {
        /// The dispatching node (for live-edge fallback on uncarried
        /// outcomes).
        node: NodeId,
        /// Outcome edges at compile time, the first inlined (a range into
        /// [`TraceSegment::edges`]).
        edges: EdgeRange,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// `IssueLoad` dispatch point (see [`TraceOp::Fetch`]).
    IssueLoad {
        /// The dispatching node.
        node: NodeId,
        /// Head-relative lQ position, pre-resolved.
        lq_index: u32,
        /// Outcome edges at compile time, the first inlined.
        edges: EdgeRange,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// `PollLoad` dispatch point (see [`TraceOp::Fetch`]).
    PollLoad {
        /// The dispatching node.
        node: NodeId,
        /// Head-relative lQ position, pre-resolved.
        lq_index: u32,
        /// Outcome edges at compile time, the first inlined.
        edges: EdgeRange,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// A `Finish` action: the program completes here.
    Finish {
        /// The covered node.
        node: NodeId,
        /// The node is a configuration head (crossing before action).
        anchored: bool,
    },
    /// Segment end without executing `node`: continue node-at-a-time
    /// replay at `node` (its links are read live there).
    Cut {
        /// The first node *not* covered by the segment.
        node: NodeId,
    },
    /// Loop back to op `op` (whose first covered node is `node`): the
    /// chain revisits a node already compiled into this segment.
    Jump {
        /// Target op index within the same segment.
        op: u32,
        /// The revisited node (for budget-exit bookkeeping).
        node: NodeId,
    },
}

// Segment scans are the warm-replay hot loop: keep every op within 24
// bytes (wide payloads are side-tabled). A change that grows the enum
// past this fails the build here, not in a benchmark regression.
const _: () = assert!(std::mem::size_of::<TraceOp>() <= 24);

/// A compiled linear replay segment for one configuration head. See the
/// module docs above for the format and its equivalence guarantees.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSegment {
    /// The compact ops, executed by a linear scan (plus `Jump`s).
    pub ops: Vec<TraceOp>,
    /// Node ids covered by [`TraceOp::Bulk`] ops, referenced by range.
    pub touched: Vec<NodeId>,
    /// Merged retirement counts of [`TraceOp::Bulk`] ops, referenced by
    /// index (the 20-byte payload would otherwise dominate the op size).
    pub retires: Vec<RetireCounts>,
    /// Outcome edges of dispatch ops, referenced by [`EdgeRange`].
    pub edges: Vec<(OutcomeKey, NodeId)>,
    /// Fingerprint of the covered `(node id, action)` stream, computed at
    /// compile time. Recomputable from the ops and any arena, so snapshot
    /// thaw and merge import revalidate a segment by re-hashing it over
    /// the candidate arena — a mismatch (relocated ids, a different
    /// lineage) drops the segment instead of ever replaying it wrong.
    pub fp: u64,
    /// Highest node id the segment references anywhere (covered nodes,
    /// dispatch edge targets, cut/jump nodes): the segment is meaningful
    /// only for arenas longer than this, and a merge may import it only
    /// when every referenced id lies inside the shared base prefix.
    pub max_node: NodeId,
}

impl TraceSegment {
    /// The nodes covered by a [`TraceOp::Bulk`]'s `touched` range.
    #[inline]
    pub fn touched_slice(&self, range: (u32, u32)) -> &[NodeId] {
        &self.touched[range.0 as usize..(range.0 + range.1) as usize]
    }

    /// The outcome edges of a dispatch op, hot edge first.
    #[inline]
    pub fn edges_slice(&self, range: EdgeRange) -> &[(OutcomeKey, NodeId)] {
        &self.edges[range.start as usize..(range.start + range.len) as usize]
    }

    /// The first chain node the op at `ip` covers (or, for `Cut`/`Jump`,
    /// resumes at) — the correct replay cursor for a pause before `ip`.
    pub fn entry_node(&self, ip: usize) -> NodeId {
        match &self.ops[ip] {
            TraceOp::Bulk { touched, .. } => match touched.kind() {
                TouchedKind::Span(first) => first,
                TouchedKind::List(start, _) => self.touched[start as usize],
            },
            TraceOp::IssueStore { node, .. }
            | TraceOp::CancelLoad { node, .. }
            | TraceOp::Rollback { node, .. }
            | TraceOp::Fetch { node, .. }
            | TraceOp::IssueLoad { node, .. }
            | TraceOp::PollLoad { node, .. }
            | TraceOp::Finish { node, .. }
            | TraceOp::Cut { node }
            | TraceOp::Jump { node, .. } => *node,
        }
    }

    /// Number of logical actions the segment covers (bulk counts
    /// included), for statistics and tests.
    pub fn logical_actions(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                TraceOp::Bulk { count, .. } => *count as u64,
                TraceOp::Cut { .. } | TraceOp::Jump { .. } => 0,
                _ => 1,
            })
            .sum()
    }
}

/// A pending [`TraceOp::Bulk`] accumulation during compilation.
struct BulkAcc {
    cycles: u32,
    retired: RetireCounts,
    count: u32,
    start: u32,
    /// First and last node of the run, and whether every node so far was
    /// the numeric successor of the previous one (straight-line
    /// recordings are): a contiguous run compiles to [`TouchedKind::Span`]
    /// and stores no per-node list at all.
    first: NodeId,
    prev: NodeId,
    contiguous: bool,
    /// The run's first node is a configuration head.
    anchored: bool,
}

/// Seed of a segment fingerprint (FNV-1a offset basis).
const FP_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit lane into a segment fingerprint (FNV-1a).
#[inline]
fn fp_eat(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Folds a covered node's identity and action into a segment fingerprint.
/// Hashing the full action payload (not just the discriminant) means a
/// revalidation pass detects any arena whose covered nodes would replay
/// differently from the arena the segment was compiled against.
fn fp_eat_node(h: &mut u64, n: NodeId, kind: &ActionKind) {
    fp_eat(h, u64::from(n));
    match *kind {
        ActionKind::Advance { cycles, retired } => {
            fp_eat(h, 1);
            fp_eat(h, u64::from(cycles));
            fp_eat(h, u64::from(retired.insts));
            fp_eat(h, u64::from(retired.loads));
            fp_eat(h, u64::from(retired.stores));
            fp_eat(h, u64::from(retired.ctrls));
            fp_eat(h, u64::from(retired.branches));
        }
        ActionKind::FetchRecord => fp_eat(h, 2),
        ActionKind::IssueLoad { lq_index } => {
            fp_eat(h, 3);
            fp_eat(h, u64::from(lq_index));
        }
        ActionKind::PollLoad { lq_index } => {
            fp_eat(h, 4);
            fp_eat(h, u64::from(lq_index));
        }
        ActionKind::IssueStore { sq_index } => {
            fp_eat(h, 5);
            fp_eat(h, u64::from(sq_index));
        }
        ActionKind::CancelLoad { lq_index } => {
            fp_eat(h, 6);
            fp_eat(h, u64::from(lq_index));
        }
        ActionKind::Rollback { ctrl_index } => {
            fp_eat(h, 7);
            fp_eat(h, u64::from(ctrl_index));
        }
        ActionKind::Finish => fp_eat(h, 8),
    }
}

fn flush_bulk(
    ops: &mut Vec<TraceOp>,
    touched: &mut Vec<NodeId>,
    retires: &mut Vec<RetireCounts>,
    bulk: &mut Option<BulkAcc>,
) {
    if let Some(b) = bulk.take() {
        let t = if b.contiguous {
            touched.truncate(b.start as usize);
            Touched::span(b.first)
        } else {
            Touched::list(b.start, touched.len() as u32 - b.start)
        };
        let retired = retires.len() as u32;
        retires.push(b.retired);
        ops.push(TraceOp::Bulk {
            cycles: b.cycles,
            retired,
            count: b.count,
            touched: t,
            anchored: b.anchored,
        });
    }
}

impl PActionCache {
    /// The trace-compilation hotness threshold (see
    /// [`set_hotness_threshold`](PActionCache::set_hotness_threshold)).
    pub fn hotness_threshold(&self) -> u32 {
        self.hotness_threshold
    }

    /// Sets the hotness threshold: a configuration's chain is compiled
    /// into a [`TraceSegment`] once replay has entered it more than
    /// `threshold` times. `0` compiles every chain on first entry;
    /// `u32::MAX` disables trace compilation entirely. Changing the
    /// threshold never invalidates already-compiled segments.
    pub fn set_hotness_threshold(&mut self, threshold: u32) {
        self.hotness_threshold = threshold;
    }

    /// Number of currently compiled trace segments.
    pub fn trace_count(&self) -> usize {
        self.traces.iter().filter(|t| t.is_some()).count()
    }

    /// Whether `id` is a configuration's first action (a trace-entry
    /// candidate and a replay crossing point).
    #[inline]
    pub fn is_config_head(&self, id: NodeId) -> bool {
        self.nodes[id as usize].config.is_some()
    }

    /// Marks `id` accessed (GC liveness), exactly as following a link to
    /// it during node-at-a-time replay would.
    #[inline]
    pub fn mark_accessed(&mut self, id: NodeId) {
        self.accessed[id as usize] = true;
    }

    /// Marks `len` consecutively-numbered nodes starting at `start`
    /// accessed — a slice fill over the dense accessed array, the fast
    /// path for [`TouchedKind::Span`] bulk runs.
    #[inline]
    pub fn mark_accessed_span(&mut self, start: NodeId, len: u32) {
        let s = start as usize;
        self.accessed[s..s + len as usize].fill(true);
    }

    /// Replay is entering the chain of configuration head `head`: returns
    /// the compiled segment if one exists, bumping the (adaptive) hotness
    /// counter and compiling when it crosses the threshold. `None` means
    /// replay should proceed node-at-a-time (chain not hot yet,
    /// compilation disabled, or the chain is too degenerate to compile).
    pub fn trace_enter(&mut self, head: NodeId) -> Option<Arc<TraceSegment>> {
        if self.hotness_threshold == u32::MAX {
            // Disabled: node-at-a-time even when a thawed snapshot carried
            // compiled segments — the node-replay baseline stays pure.
            return None;
        }
        if let Some(seg) = &self.traces[head as usize] {
            self.stats.replay_segments_entered += 1;
            return Some(Arc::clone(seg));
        }
        let weight = self.entry_weight(head as usize);
        let visits = &mut self.hotness[head as usize];
        *visits = visits.saturating_add(weight);
        if *visits <= self.hotness_threshold {
            return None;
        }
        let seg = Arc::new(self.compile_trace(head)?);
        self.stats.trace_segments_compiled += 1;
        self.stats.replay_segments_entered += 1;
        self.traces[head as usize] = Some(Arc::clone(&seg));
        Some(seg)
    }

    /// A segment exited through a carried cold edge or a cut at `n`:
    /// returns the segment to continue in directly (patching the chain
    /// link), or `None` to bail out to node-at-a-time replay.
    ///
    /// Targets without a compiled segment are compiled *immediately* —
    /// the next-executing-tail heuristic from dynamic binary translation:
    /// control only reaches a chain target out of an already-hot segment,
    /// so the target inherits its predecessor's hotness instead of
    /// re-proving it one bailout at a time. (The per-head adaptive
    /// threshold still gates the *initial* promotion out of
    /// node-at-a-time replay; without it no segment would exist to chain
    /// from.) Compile cost stays bounded by the number of distinct exit
    /// targets, while every avoided bailout saves a full bounce through
    /// the node arena. Mid-chain targets compile unanchored superblocks
    /// starting at their own node, so hot exit ladders run
    /// segment-to-segment end to end.
    pub fn chain_enter(&mut self, n: NodeId) -> Option<Arc<TraceSegment>> {
        if self.hotness_threshold == u32::MAX {
            return None;
        }
        let i = n as usize;
        let patched = self.chain_stamp[i] == self.chain_epoch;
        if let Some(seg) = &self.traces[i] {
            let seg = Arc::clone(seg);
            if patched {
                self.stats.chain_follows += 1;
            } else {
                self.chain_stamp[i] = self.chain_epoch;
            }
            self.stats.chained_exits += 1;
            self.stats.replay_segments_entered += 1;
            return Some(seg);
        }
        let seg = Arc::new(self.compile_trace(n)?);
        self.stats.trace_segments_compiled += 1;
        self.stats.chained_exits += 1;
        self.stats.replay_segments_entered += 1;
        self.chain_stamp[i] = self.chain_epoch;
        self.traces[i] = Some(Arc::clone(&seg));
        Some(seg)
    }

    /// Adaptive hotness weight for a hotness-counted entry at node index
    /// `i`: ticks the global entry clock and weighs the entry by how
    /// recently the node was last entered (see the module docs).
    fn entry_weight(&mut self, i: usize) -> u32 {
        let clock = self.entry_clock;
        self.entry_clock = clock.wrapping_add(1);
        // `last_seen` stores clock+1 so 0 always means "never entered".
        let prev = std::mem::replace(&mut self.last_seen[i], clock.wrapping_add(1));
        if prev != 0 && clock.wrapping_sub(prev - 1) <= RECENT_WINDOW {
            HOT_REENTRY_WEIGHT
        } else {
            1
        }
    }

    /// Counts a segment execution that bailed out to node-at-a-time
    /// replay (cold or unseen outcome, or a chain cut).
    #[inline]
    pub fn note_trace_bailout(&mut self) {
        self.stats.replay_bailouts += 1;
    }

    /// Adds to the compact-trace-op execution counter.
    #[inline]
    pub fn note_trace_ops(&mut self, ops: u64) {
        self.stats.replay_trace_ops += ops;
    }

    /// Drops every compiled segment, hotness counter and chain link,
    /// re-sizing the dense side tables to the current arena. Called by
    /// `flush` and `collect` (node ids relocate) — always *after* the
    /// node arena reached its new shape.
    pub(crate) fn invalidate_traces(&mut self) {
        self.traces.clear();
        self.traces.resize(self.nodes.len(), None);
        self.hotness.clear();
        self.hotness.resize(self.nodes.len(), 0);
        self.last_seen.clear();
        self.last_seen.resize(self.nodes.len(), 0);
        self.chain_stamp.clear();
        self.chain_stamp.resize(self.nodes.len(), 0);
        self.bump_chain_epoch();
    }

    /// Grows the trace side tables after a merge appended nodes,
    /// *preserving* the master's compiled segments and hotness counters —
    /// merged growth is append-only, which keeps existing segments valid
    /// by construction (see the module docs) — while severing every chain
    /// link (one epoch bump) so links re-patch against the merged graph.
    pub(crate) fn grow_trace_tables_after_merge(&mut self) {
        self.traces.resize(self.nodes.len(), None);
        self.hotness.resize(self.nodes.len(), 0);
        self.last_seen.resize(self.nodes.len(), 0);
        self.chain_stamp.resize(self.nodes.len(), 0);
        self.bump_chain_epoch();
    }

    /// Severs every chain link by moving to a fresh epoch. On the (rare)
    /// wrap, stale stamps could collide with a reused epoch value, so the
    /// stamp table is cleared once.
    fn bump_chain_epoch(&mut self) {
        self.chain_epoch = self.chain_epoch.wrapping_add(1);
        if self.chain_epoch == 0 {
            self.chain_stamp.iter_mut().for_each(|s| *s = 0);
            self.chain_epoch = 1;
        }
    }

    /// Revalidates `seg` against this cache's *current* arena: every
    /// referenced node must exist, the covered `(node, action)` stream
    /// must re-hash to the segment's stored fingerprint, and each
    /// dispatch op's compiled edges must be a prefix of the live node's
    /// edges (recording and merges only ever append edges, and the
    /// hot-first compile order is the recording order). Used by snapshot
    /// thaw and merge import; `false` means the segment may not replay
    /// bit-identically to node-at-a-time over this arena and must be
    /// dropped.
    pub(crate) fn segment_valid(&self, seg: &TraceSegment) -> bool {
        if (seg.max_node as usize) >= self.nodes.len() {
            return false;
        }
        let mut h: u64 = FP_SEED;
        for op in &seg.ops {
            match *op {
                TraceOp::Bulk { count, touched, .. } => match touched.kind() {
                    TouchedKind::Span(first) => {
                        for n in first..first + count {
                            fp_eat_node(&mut h, n, &self.nodes[n as usize].kind);
                        }
                    }
                    TouchedKind::List(start, len) => {
                        for &n in seg.touched_slice((start, len)) {
                            fp_eat_node(&mut h, n, &self.nodes[n as usize].kind);
                        }
                    }
                },
                TraceOp::IssueStore { node, .. }
                | TraceOp::CancelLoad { node, .. }
                | TraceOp::Rollback { node, .. }
                | TraceOp::Finish { node, .. } => {
                    fp_eat_node(&mut h, node, &self.nodes[node as usize].kind);
                }
                TraceOp::Fetch { node, edges, .. }
                | TraceOp::IssueLoad { node, edges, .. }
                | TraceOp::PollLoad { node, edges, .. } => {
                    fp_eat_node(&mut h, node, &self.nodes[node as usize].kind);
                    let live = self.outcome_edges(node);
                    let compiled = seg.edges_slice(edges);
                    if live.len() < compiled.len() || &live[..compiled.len()] != compiled {
                        return false;
                    }
                }
                TraceOp::Cut { .. } | TraceOp::Jump { .. } => {}
            }
        }
        h == seg.fp
    }

    /// The outcome edges recorded at an outcome-bearing node, in recording
    /// order (the first is the trace compiler's hot edge). Empty for
    /// outcome-less nodes.
    pub fn outcome_edges(&self, id: NodeId) -> &[(OutcomeKey, NodeId)] {
        match &self.nodes[id as usize].next {
            Successors::Multi(edges) => edges,
            Successors::Single(_) => &[],
        }
    }

    /// Compiles the chain starting at configuration head `head` into a
    /// linear segment. Returns `None` for degenerate chains that would
    /// compile to zero action ops (nothing to gain, and an action-less
    /// segment could not make progress).
    pub(crate) fn compile_trace(&mut self, head: NodeId) -> Option<TraceSegment> {
        let mut ops: Vec<TraceOp> = Vec::new();
        let mut touched: Vec<NodeId> = Vec::new();
        let mut retires: Vec<RetireCounts> = Vec::new();
        let mut edge_table: Vec<(OutcomeKey, NodeId)> = Vec::new();
        // First op index of every node that starts an op (jump targets),
        // kept as an epoch-stamped dense scratch reused across compiles:
        // a stamp equal to the current epoch marks a valid entry, so no
        // per-compile clearing (and no per-node hash probes) is needed.
        let mut stamp = std::mem::take(&mut self.compile_stamp);
        let mut op_at = std::mem::take(&mut self.compile_op);
        self.compile_epoch = self.compile_epoch.wrapping_add(1);
        if self.compile_epoch == 0 {
            stamp.iter_mut().for_each(|s| *s = 0);
            self.compile_epoch = 1;
        }
        let epoch = self.compile_epoch;
        if stamp.len() < self.nodes.len() {
            stamp.resize(self.nodes.len(), 0);
            op_at.resize(self.nodes.len(), 0);
        }
        let mut bulk: Option<BulkAcc> = None;
        let mut actions = 0u64;
        // The revalidation fingerprint (covered nodes in visit order —
        // the same order `segment_valid` recovers from the ops) and the
        // highest node id referenced anywhere.
        let mut fp: u64 = FP_SEED;
        let mut max_node: NodeId = head;
        let mut n = head;
        loop {
            // Revisit: the chain loops; jump back into the segment.
            if stamp[n as usize] == epoch {
                flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                ops.push(TraceOp::Jump { op: op_at[n as usize], node: n });
                break;
            }
            if ops.len() >= MAX_TRACE_OPS {
                flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                max_node = max_node.max(n);
                ops.push(TraceOp::Cut { node: n });
                break;
            }
            let node = &self.nodes[n as usize];
            // Configuration heads get the crossing bookkeeping fused into
            // their own op (including the segment's own head). A node that
            // instead *cuts* the segment never emits its op, so the live
            // re-execution performs the crossing itself, exactly once.
            let anchored = node.config.is_some();
            if anchored {
                flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
            }
            macro_rules! cut_at {
                () => {{
                    flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                    max_node = max_node.max(n);
                    ops.push(TraceOp::Cut { node: n });
                    break;
                }};
            }
            // Marks `n`'s op as starting at the current end of `ops` (the
            // pending bulk, if any, was flushed by every caller first).
            macro_rules! mark_op_start {
                () => {{
                    stamp[n as usize] = epoch;
                    op_at[n as usize] = ops.len() as u32;
                }};
            }
            let single_next = |next: &Successors| match next {
                Successors::Single(s) => *s,
                Successors::Multi(_) => unreachable!("single successor on branching node"),
            };
            match node.kind {
                ActionKind::Advance { cycles, retired } => {
                    let Some(next) = single_next(&node.next) else { cut_at!() };
                    fp_eat_node(&mut fp, n, &node.kind);
                    max_node = max_node.max(n);
                    match &mut bulk {
                        // Extend the pending run if the cycle sum fits.
                        Some(b) if b.cycles.checked_add(cycles).is_some() => {
                            b.cycles += cycles;
                            b.retired.add(retired);
                            b.count += 1;
                            b.contiguous &= n == b.prev.wrapping_add(1);
                            b.prev = n;
                        }
                        _ => {
                            flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                            // The bulk op will land at the current end of
                            // `ops` (every other push flushes first).
                            mark_op_start!();
                            bulk = Some(BulkAcc {
                                cycles,
                                retired,
                                count: 1,
                                start: touched.len() as u32,
                                first: n,
                                prev: n,
                                contiguous: true,
                                anchored,
                            });
                        }
                    }
                    touched.push(n);
                    actions += 1;
                    n = next;
                }
                ActionKind::IssueStore { sq_index } => {
                    let Some(next) = single_next(&node.next) else { cut_at!() };
                    fp_eat_node(&mut fp, n, &node.kind);
                    max_node = max_node.max(n);
                    flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                    mark_op_start!();
                    ops.push(TraceOp::IssueStore { node: n, sq_index, anchored });
                    actions += 1;
                    n = next;
                }
                ActionKind::CancelLoad { lq_index } => {
                    let Some(next) = single_next(&node.next) else { cut_at!() };
                    fp_eat_node(&mut fp, n, &node.kind);
                    max_node = max_node.max(n);
                    flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                    mark_op_start!();
                    ops.push(TraceOp::CancelLoad { node: n, lq_index, anchored });
                    actions += 1;
                    n = next;
                }
                ActionKind::Rollback { ctrl_index } => {
                    let Some(next) = single_next(&node.next) else { cut_at!() };
                    fp_eat_node(&mut fp, n, &node.kind);
                    max_node = max_node.max(n);
                    flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                    mark_op_start!();
                    ops.push(TraceOp::Rollback { node: n, ctrl_index, anchored });
                    actions += 1;
                    n = next;
                }
                ActionKind::FetchRecord
                | ActionKind::IssueLoad { .. }
                | ActionKind::PollLoad { .. } => {
                    let edges = match &node.next {
                        Successors::Multi(edges) => edges,
                        Successors::Single(_) => unreachable!("dispatch node without edges"),
                    };
                    if edges.is_empty() {
                        cut_at!()
                    }
                    fp_eat_node(&mut fp, n, &node.kind);
                    max_node = max_node.max(n);
                    for &(_, target) in edges.iter() {
                        max_node = max_node.max(target);
                    }
                    flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                    mark_op_start!();
                    let range = EdgeRange {
                        start: edge_table.len() as u32,
                        len: edges.len() as u32,
                    };
                    edge_table.extend_from_slice(edges);
                    let hot = edges[0].1;
                    ops.push(match node.kind {
                        ActionKind::FetchRecord => {
                            TraceOp::Fetch { node: n, edges: range, anchored }
                        }
                        ActionKind::IssueLoad { lq_index } => {
                            TraceOp::IssueLoad { node: n, lq_index, edges: range, anchored }
                        }
                        ActionKind::PollLoad { lq_index } => {
                            TraceOp::PollLoad { node: n, lq_index, edges: range, anchored }
                        }
                        _ => unreachable!(),
                    });
                    actions += 1;
                    n = hot;
                }
                ActionKind::Finish => {
                    fp_eat_node(&mut fp, n, &node.kind);
                    max_node = max_node.max(n);
                    flush_bulk(&mut ops, &mut touched, &mut retires, &mut bulk);
                    ops.push(TraceOp::Finish { node: n, anchored });
                    actions += 1;
                    break;
                }
            }
        }
        self.compile_stamp = stamp;
        self.compile_op = op_at;
        (actions > 0)
            .then_some(TraceSegment { ops, touched, retires, edges: edge_table, fp, max_node })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ConfigLookup;
    use crate::policy::Policy;

    fn advance(n: u32) -> ActionKind {
        ActionKind::Advance { cycles: n, retired: RetireCounts::default() }
    }

    fn retire(insts: u32) -> RetireCounts {
        RetireCounts { insts, ..RetireCounts::default() }
    }

    /// Consecutive `Advance` actions aggregate into one `Bulk` op with
    /// summed cycles and merged retires — and the logical count survives.
    #[test]
    fn consecutive_advances_aggregate() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(ActionKind::Advance { cycles: 3, retired: retire(2) });
        pc.record_action(ActionKind::Advance { cycles: 4, retired: retire(1) });
        pc.record_action(ActionKind::IssueStore { sq_index: 5 });
        pc.record_action(ActionKind::Finish);
        let seg = pc.compile_trace(head).expect("compilable");
        assert_eq!(seg.ops.len(), 3, "{:?}", seg.ops);
        match &seg.ops[0] {
            TraceOp::Bulk { cycles, retired, count, touched, anchored } => {
                assert_eq!(*cycles, 7);
                assert_eq!(seg.retires[*retired as usize].insts, 3);
                assert_eq!(*count, 2);
                // Straight-line recording: consecutive ids, marked by span.
                assert_eq!(touched.kind(), TouchedKind::Span(head));
                assert!(seg.touched.is_empty(), "span runs store no list");
                // The head's crossing is fused into its own bulk op.
                assert!(*anchored);
            }
            other => panic!("expected Bulk, got {other:?}"),
        }
        assert!(matches!(seg.ops[1], TraceOp::IssueStore { sq_index: 5, anchored: false, .. }));
        assert!(matches!(seg.ops[2], TraceOp::Finish { .. }));
        assert_eq!(seg.logical_actions(), 4);
    }

    /// A dispatch compiles its edges hot-first and the compiler follows
    /// the hot edge inline.
    #[test]
    fn dispatch_carries_edges_and_follows_hot_path() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 2 });
        pc.set_outcome(load, OutcomeKey::Interval(6));
        pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        // A second, colder outcome.
        pc.resume_recording_at(load, Some(OutcomeKey::Interval(9)));
        pc.record_action(advance(9));
        pc.record_action(ActionKind::Finish);
        let seg = pc.compile_trace(head).expect("compilable");
        match &seg.ops[1] {
            TraceOp::IssueLoad { lq_index, edges, .. } => {
                assert_eq!(*lq_index, 2);
                let edges = seg.edges_slice(*edges);
                assert_eq!(edges.len(), 2);
                assert_eq!(edges[0].0, OutcomeKey::Interval(6), "hot edge first");
            }
            other => panic!("expected IssueLoad dispatch, got {other:?}"),
        }
        // Hot path continues to advance(2) then Finish.
        assert!(matches!(seg.ops[2], TraceOp::Bulk { cycles: 2, .. }));
        assert!(matches!(seg.ops[3], TraceOp::Finish { .. }));
    }

    /// A looping chain compiles to a `Jump` back into the segment, not an
    /// unrolled or truncated walk.
    #[test]
    fn loops_compile_to_jump() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        let fetch = pc.record_action(ActionKind::FetchRecord);
        pc.set_outcome(fetch, OutcomeKey::Branch { taken: true, mispredicted: false });
        // The loop body hits config A again: chain links back to head.
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Hit(head));
        let seg = pc.compile_trace(head).expect("compilable");
        assert!(
            matches!(seg.ops[0], TraceOp::Bulk { touched, anchored: true, .. } if touched.kind() == TouchedKind::Span(head))
        );
        match seg.ops.last().expect("non-empty") {
            TraceOp::Jump { op, node } => {
                assert_eq!(*op, 0, "jump lands on the head's anchored op");
                assert_eq!(*node, head);
            }
            other => panic!("expected Jump, got {other:?}"),
        }
    }

    /// A missing successor cuts the segment *before* the dangling node,
    /// and a crossing op pushed for that node is rolled back.
    #[test]
    fn missing_links_cut_before_the_node() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        assert_eq!(pc.register_config(b"B"), ConfigLookup::Miss);
        let b_head = pc.record_action(advance(2));
        // B's chain ends abruptly: advance(2) has no successor.
        let seg = pc.compile_trace(head).expect("compilable");
        // head's advance compiles; B's head is cut without emitting any op
        // (node-at-a-time replay will perform B's crossing itself).
        assert_eq!(
            seg.ops,
            vec![
                TraceOp::Bulk {
                    cycles: 1,
                    retired: 0,
                    count: 1,
                    touched: Touched::span(head),
                    anchored: true,
                },
                TraceOp::Cut { node: b_head },
            ]
        );
        assert_eq!(seg.retires, vec![RetireCounts::default()]);
        // B's own chain is a bare advance with no successor: nothing to
        // compile.
        assert!(pc.compile_trace(b_head).is_none());
    }

    /// A bulk run whose node ids are *not* consecutive (here: a link
    /// grafted by a merge points past the master's old arena end)
    /// compiles to an explicit id list instead of a span.
    #[test]
    fn noncontiguous_bulk_runs_compile_to_lists() {
        let mut master = PActionCache::new(Policy::Unbounded);
        assert_eq!(master.register_config(b"B"), ConfigLookup::Miss);
        master.record_action(advance(2));
        master.record_action(ActionKind::Finish);
        // A's chain dangles: recording was interrupted after one advance.
        assert_eq!(master.register_config(b"A"), ConfigLookup::Miss);
        let a0 = master.record_action(advance(1));
        let snap = master.freeze();

        // Worker 1 grows the master with an unrelated configuration, so
        // worker 2's graft target lands past `a0 + 1`.
        let mut w1 = PActionCache::from_snapshot(&snap);
        assert_eq!(w1.register_config(b"C"), ConfigLookup::Miss);
        w1.record_action(advance(3));
        w1.record_action(ActionKind::Finish);

        // Worker 2 replays A, runs off the chain end, and records on.
        let mut w2 = PActionCache::from_snapshot(&snap);
        let head = match w2.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            ConfigLookup::Miss => panic!("A is frozen"),
        };
        assert_eq!(w2.advance(head), None);
        w2.resume_recording_at(head, None);
        w2.record_action(advance(4));
        w2.record_action(ActionKind::Finish);

        master.merge_from(&w1.freeze());
        master.merge_from(&w2.freeze());

        let seg = master.compile_trace(a0).expect("compilable");
        match &seg.ops[0] {
            TraceOp::Bulk { count: 2, touched, .. } => {
                let TouchedKind::List(start, len) = touched.kind() else {
                    panic!("expected a listed Bulk, got {touched:?}")
                };
                assert_eq!(len, 2);
                let nodes = seg.touched_slice((start, len));
                assert_eq!(nodes[0], a0);
                assert!(nodes[1] != a0 + 1, "graft target is out of line");
            }
            other => panic!("expected a listed Bulk, got {other:?}"),
        }
    }

    /// An outcome-bearing node with no recorded edges ends the segment.
    #[test]
    fn edgeless_dispatch_cuts() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
        let seg = pc.compile_trace(head).expect("compilable");
        assert_eq!(*seg.ops.last().unwrap(), TraceOp::Cut { node: load });
    }

    /// trace_enter promotes adaptively — rapid re-entries weigh
    /// [`HOT_REENTRY_WEIGHT`], sparse ones weigh 1 — caches the compiled
    /// segment, and the sentinel thresholds behave as documented.
    #[test]
    fn hotness_thresholds() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        pc.record_action(ActionKind::Finish);

        pc.set_hotness_threshold(2);
        assert!(pc.trace_enter(head).is_none(), "visit 1 weighs 1: below threshold");
        // A rapid re-entry weighs HOT_REENTRY_WEIGHT and crosses the
        // threshold immediately: 1 + 4 > 2.
        let seg = pc.trace_enter(head).expect("rapid visit 2 compiles");
        assert_eq!(pc.trace_count(), 1);
        assert_eq!(pc.stats().trace_segments_compiled, 1);
        assert_eq!(pc.stats().replay_segments_entered, 1);
        // Subsequent entries reuse the compiled segment.
        let again = pc.trace_enter(head).expect("cached");
        assert!(Arc::ptr_eq(&seg, &again));
        assert_eq!(pc.stats().trace_segments_compiled, 1);
        assert_eq!(pc.stats().replay_segments_entered, 2);

        // Sparse entries (past the recency window) weigh 1 each: the same
        // threshold takes three visits instead of two.
        let mut sparse = PActionCache::new(Policy::Unbounded);
        assert_eq!(sparse.register_config(b"B"), ConfigLookup::Miss);
        let b = sparse.record_action(advance(1));
        sparse.record_action(ActionKind::Finish);
        let mut fillers = Vec::new();
        for i in 0..RECENT_WINDOW + 1 {
            let key = format!("F{i}");
            assert_eq!(sparse.register_config(key.as_bytes()), ConfigLookup::Miss);
            fillers.push(sparse.record_action(advance(1)));
            sparse.record_action(ActionKind::Finish);
        }
        sparse.set_hotness_threshold(2);
        assert!(sparse.trace_enter(b).is_none(), "sparse visit 1");
        for &f in &fillers {
            let _ = sparse.trace_enter(f); // tick the global entry clock
        }
        assert!(sparse.trace_enter(b).is_none(), "sparse visit 2 still weighs 1");
        for &f in &fillers {
            let _ = sparse.trace_enter(f);
        }
        let _ = sparse.trace_enter(b).expect("sparse visit 3 crosses threshold 2");

        // Threshold 0: a fresh cache compiles on first entry.
        let mut eager = PActionCache::new(Policy::Unbounded);
        assert_eq!(eager.register_config(b"A"), ConfigLookup::Miss);
        let h = eager.record_action(advance(1));
        eager.record_action(ActionKind::Finish);
        eager.set_hotness_threshold(0);
        assert!(eager.trace_enter(h).is_some());

        // u32::MAX: never compiles.
        let mut never = PActionCache::new(Policy::Unbounded);
        assert_eq!(never.register_config(b"A"), ConfigLookup::Miss);
        let h = never.record_action(advance(1));
        never.record_action(ActionKind::Finish);
        never.set_hotness_threshold(u32::MAX);
        for _ in 0..64 {
            assert!(never.trace_enter(h).is_none());
        }
        assert_eq!(never.stats().trace_segments_compiled, 0);
    }

    /// Flush and collection invalidate compiled segments (node ids
    /// relocate); merges and freeze/thaw *preserve* them (append-only
    /// growth keeps them valid, and snapshots carry them).
    #[test]
    fn invalidation_on_flush_collect_merge() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        pc.record_action(ActionKind::Finish);
        pc.set_hotness_threshold(0);
        assert!(pc.trace_enter(head).is_some());
        assert_eq!(pc.trace_count(), 1);

        pc.collect(false);
        assert_eq!(pc.trace_count(), 0, "collection relocates node ids");

        let head = match pc.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            ConfigLookup::Miss => panic!("A survives the collection"),
        };
        assert!(pc.trace_enter(head).is_some());
        pc.flush();
        assert_eq!(pc.trace_count(), 0, "flush drops everything");

        // Rebuild, compile, then freeze/thaw and merge a delta: segments
        // now ride along instead of being dropped.
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        pc.record_action(ActionKind::Finish);
        assert!(pc.trace_enter(head).is_some());
        let snap = pc.freeze();
        let mut worker = PActionCache::from_snapshot(&snap);
        assert_eq!(worker.trace_count(), 1, "thaw revives frozen segments");
        assert_eq!(worker.stats().segments_thawed, 1);
        let compiled_before = worker.stats().trace_segments_compiled;
        assert!(worker.trace_enter(head).is_some(), "revived segment is entered directly");
        assert_eq!(
            worker.stats().trace_segments_compiled,
            compiled_before,
            "no recompile after thaw"
        );
        assert_eq!(worker.register_config(b"B"), ConfigLookup::Miss);
        worker.record_action(advance(2));
        worker.record_action(ActionKind::Finish);
        let delta = worker.freeze();
        pc.merge_from(&delta);
        assert_eq!(pc.trace_count(), 1, "master segments survive the merge");
        assert!(pc.traces[head as usize].is_some(), "the surviving segment is A's");
    }

    /// chain_enter: a compiled target is entered directly (first follow
    /// patches the link, later follows take the fast path), a mid-chain
    /// target earns its own superblock, a config head without a segment
    /// defers to trace_enter, and the knob/threshold disable it.
    #[test]
    fn chain_enter_patches_and_compiles_mid_chain() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
        pc.set_outcome(load, OutcomeKey::Interval(6));
        // Hot path: mid-chain continuation after the load.
        let mid = pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        pc.set_hotness_threshold(0);

        // A config head with a compiled segment chains directly.
        let seg = pc.trace_enter(head).expect("head compiles at threshold 0");
        let chained = pc.chain_enter(head).expect("chain into compiled head");
        assert!(Arc::ptr_eq(&seg, &chained));
        assert_eq!(pc.stats().chained_exits, 1);
        assert_eq!(pc.stats().chain_follows, 0, "first follow patches the link");
        let again = pc.chain_enter(head).expect("patched link");
        assert!(Arc::ptr_eq(&seg, &again));
        assert_eq!(pc.stats().chain_follows, 1, "second follow is the fast path");

        // A mid-chain target compiles its own (unanchored) superblock.
        let mid_seg = pc.chain_enter(mid).expect("mid-chain target compiles at threshold 0");
        assert!(matches!(
            mid_seg.ops[0],
            TraceOp::Bulk { cycles: 2, anchored: false, .. }
        ));
        assert_eq!(pc.trace_count(), 2);

        // Chain targets compile eagerly (next-executing-tail): even far
        // below the threshold, an exit into an uncompiled head compiles
        // it — control only gets here out of an already-hot segment. The
        // hotness counter is left alone; it only gates initial promotion.
        assert_eq!(pc.register_config(b"B"), ConfigLookup::Miss);
        let b = pc.record_action(advance(3));
        pc.record_action(ActionKind::Finish);
        pc.set_hotness_threshold(1000);
        assert!(pc.chain_enter(b).is_some(), "chain target compiles eagerly");
        assert_eq!(pc.hotness[b as usize], 0, "chain_enter left the counter alone");
        assert_eq!(pc.trace_count(), 3);

        // The disabled threshold stops chaining.
        pc.set_hotness_threshold(u32::MAX);
        assert!(pc.chain_enter(head).is_none());
    }

    /// segment_valid accepts a segment against the arena it was compiled
    /// from and rejects arenas whose covered nodes differ.
    #[test]
    fn segment_revalidation() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 2 });
        pc.set_outcome(load, OutcomeKey::Interval(6));
        pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        let seg = pc.compile_trace(head).expect("compilable");
        assert!(pc.segment_valid(&seg), "fresh compile matches its own arena");

        // A different cache whose node ids line up but whose actions
        // differ re-hashes to a different fingerprint.
        let mut other = PActionCache::new(Policy::Unbounded);
        assert_eq!(other.register_config(b"A"), ConfigLookup::Miss);
        other.record_action(advance(7));
        other.record_action(ActionKind::IssueStore { sq_index: 0 });
        other.record_action(advance(2));
        other.record_action(ActionKind::Finish);
        assert!(!other.segment_valid(&seg), "diverged arena is rejected");

        // A too-short arena is rejected on bounds alone.
        let mut short = PActionCache::new(Policy::Unbounded);
        assert_eq!(short.register_config(b"A"), ConfigLookup::Miss);
        short.record_action(advance(1));
        assert!(!short.segment_valid(&seg));
    }

    /// The side-tabled representation keeps ops within 24 bytes — the
    /// compile-time assert enforces it, this test documents the number.
    #[test]
    fn trace_ops_stay_compact() {
        assert!(std::mem::size_of::<TraceOp>() <= 24, "{}", std::mem::size_of::<TraceOp>());
        assert_eq!(std::mem::size_of::<Touched>(), 8);
        assert_eq!(std::mem::size_of::<EdgeRange>(), 8);
    }

    /// The op cap bounds segment size on pathologically long chains.
    #[test]
    fn op_cap_cuts_long_chains() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let head = pc.record_action(advance(1));
        // Alternate stores and advances so nothing aggregates away and no
        // node repeats: every pair costs two ops.
        for i in 0..2 * MAX_TRACE_OPS as u32 {
            pc.record_action(ActionKind::IssueStore { sq_index: i });
            pc.record_action(advance(1));
        }
        pc.record_action(ActionKind::Finish);
        let seg = pc.compile_trace(head).expect("compilable");
        // The cap is checked per node; a node may emit a flushed bulk op
        // plus its own op before the check fires again, and the cut
        // itself costs one more.
        assert!(seg.ops.len() <= MAX_TRACE_OPS + 3, "{}", seg.ops.len());
        assert!(matches!(seg.ops.last(), Some(TraceOp::Cut { .. })));
    }
}
