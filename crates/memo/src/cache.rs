//! The p-action cache data structure.

use crate::action::{ActionKind, NodeId, OutcomeKey};
use crate::index::{ConfigIndex, ConfigRef};
use crate::policy::Policy;
use fastsim_hash::hash64;

/// Per-outcome-branch modeled overhead in bytes (key + link).
pub(crate) const BRANCH_BYTES: usize = 12;
/// Per-configuration modeled overhead beyond the encoded bytes (hash-table
/// entry and head link).
pub(crate) const CONFIG_OVERHEAD_BYTES: usize = 24;

/// Successor links of an action node.
#[derive(Clone, Debug)]
pub(crate) enum Successors {
    /// Outcome-less action: at most one successor.
    Single(Option<NodeId>),
    /// Outcome-bearing action: one successor per observed outcome.
    Multi(Vec<(OutcomeKey, NodeId)>),
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub(crate) kind: ActionKind,
    pub(crate) next: Successors,
    /// If this node is the first action of a configuration, where the
    /// encoded configuration bytes live in the cache's
    /// [`ConfigIndex`] arena (offset + length + fingerprint).
    pub(crate) config: Option<ConfigRef>,
    /// Survived at least one minor collection (generational GC).
    pub(crate) tenured: bool,
}

/// Where the next recorded action will be linked from.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Attach {
    /// Nothing to link from (start of simulation, or after a flush).
    None,
    /// Fill the single successor of this node.
    Next(NodeId),
    /// Add an outcome branch to this node.
    Branch(NodeId, OutcomeKey),
}

/// Result of looking up a configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigLookup {
    /// The configuration is cached; fast-forwarding can replay from this
    /// node (its first action).
    Hit(NodeId),
    /// New configuration: detailed simulation continues, and the next
    /// recorded action becomes the configuration's first action.
    Miss,
}

/// Counters for the memoization measurements of Table 5 and §5.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemoStats {
    /// Configurations allocated over the whole run (static count;
    /// cumulative across flushes/collections).
    pub static_configs: u64,
    /// Actions allocated over the whole run.
    pub static_actions: u64,
    /// Current modeled cache size in bytes.
    pub bytes: usize,
    /// Largest modeled size reached.
    pub peak_bytes: usize,
    /// Cache flushes performed (flush-on-full policy).
    pub flushes: u64,
    /// Garbage collections performed.
    pub collections: u64,
    /// Bytes that survived collections (for the survival-rate statistic;
    /// the paper reports ~18% on average).
    pub gc_survived_bytes: u64,
    /// Bytes examined by collections.
    pub gc_scanned_bytes: u64,
    /// Configuration lookups that hit a cached chain.
    pub config_hits: u64,
    /// Configuration lookups that missed (detailed simulation recorded a
    /// new chain).
    pub config_misses: u64,
    /// Inert: always 0. Trace-compiled replay no longer exists; the field
    /// is kept only so that `perfbench/` builds unchanged.
    pub trace_segments_compiled: u64,
    /// Inert: always 0. Kept only so that `perfbench/` builds unchanged.
    pub replay_segments_entered: u64,
    /// Inert: always 0. Kept only so that `perfbench/` builds unchanged.
    pub replay_trace_ops: u64,
    /// Inert: always 0. Kept only so that `perfbench/` builds unchanged.
    pub replay_bailouts: u64,
    /// Inert: always 0. Kept only so that `perfbench/` builds unchanged.
    pub chained_exits: u64,
    /// Inert: always 0. Kept only so that `perfbench/` builds unchanged.
    pub segments_thawed: u64,
}

impl MemoStats {
    /// Fraction of the cache surviving each collection, averaged by bytes.
    pub fn gc_survival_rate(&self) -> f64 {
        if self.gc_scanned_bytes == 0 {
            0.0
        } else {
            self.gc_survived_bytes as f64 / self.gc_scanned_bytes as f64
        }
    }

    /// Fraction of configuration lookups that hit the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.config_hits + self.config_misses;
        if total == 0 {
            0.0
        } else {
            self.config_hits as f64 / total as f64
        }
    }
}

/// The p-action cache. See the [crate documentation](crate) for the model.
///
/// # Example
///
/// ```
/// use fastsim_memo::{ActionKind, ConfigLookup, OutcomeKey, PActionCache, Policy, RetireCounts};
///
/// let mut pc = PActionCache::new(Policy::Unbounded);
/// // First visit: miss, record the configuration's actions.
/// assert_eq!(pc.register_config(b"config-A"), ConfigLookup::Miss);
/// let advance = pc.record_action(ActionKind::Advance {
///     cycles: 6,
///     retired: RetireCounts::default(),
/// });
/// let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
/// pc.set_outcome(load, OutcomeKey::Interval(6));
/// // Second visit: hit — fast-forwarding replays from the first action.
/// assert_eq!(pc.register_config(b"config-A"), ConfigLookup::Hit(advance));
/// ```
#[derive(Clone, Debug)]
pub struct PActionCache {
    pub(crate) nodes: Vec<Node>,
    /// Accessed-since-last-collection bits (GC liveness, paper §4.3),
    /// parallel to `nodes`. Kept out of `Node` deliberately: replay marks
    /// a node per action, and a dense side array means those writes touch
    /// one byte per node instead of dirtying the fat `Node` cache lines.
    pub(crate) accessed: Vec<bool>,
    pub(crate) index: ConfigIndex,
    pub(crate) policy: Policy,
    attach: Attach,
    /// Fingerprint of a registered-but-not-yet-headed configuration; its
    /// bytes sit in `pending_bytes`. The fingerprint was computed by the
    /// miss in [`register_config`](PActionCache::register_config) and is
    /// reused verbatim by the insert in
    /// [`record_action`](PActionCache::record_action) — the miss path
    /// hashes exactly once.
    pending_fp: Option<u64>,
    /// Reusable buffer for the pending configuration's bytes (kept out of
    /// the arena until the head action exists, so flushes can preserve a
    /// pending configuration while dropping the arena).
    pending_bytes: Vec<u8>,
    pub(crate) stats: MemoStats,
    /// Number of leading nodes inherited from a
    /// [`CacheSnapshot`](crate::CacheSnapshot) by
    /// [`from_snapshot`](PActionCache::from_snapshot); `0` for a cache
    /// built from scratch. Reset to `0` by flushes and collections, which
    /// invalidate the id correspondence with the snapshot.
    pub(crate) frozen_base: usize,
    /// Monotonic counter of *replayable-content* mutations: bumped whenever
    /// nodes, links or configuration keys change (recording, flushes,
    /// collections, merges) — but **not** by replay-side accessed-bit
    /// marking, which only feeds GC liveness. [`freeze`](PActionCache::freeze)
    /// stamps the snapshot with the current version, so a long-lived master
    /// can answer "has anything merged since my last freeze?" in O(1)
    /// ([`dirty_since`](PActionCache::dirty_since)) and skip redundant
    /// re-freezes (see [`freeze_if_newer`](PActionCache::freeze_if_newer)).
    pub(crate) version: u64,
}

impl PActionCache {
    /// Creates an empty cache with the given replacement policy.
    pub fn new(policy: Policy) -> PActionCache {
        PActionCache {
            nodes: Vec::new(),
            accessed: Vec::new(),
            index: ConfigIndex::new(),
            policy,
            attach: Attach::None,
            pending_fp: None,
            pending_bytes: Vec::new(),
            stats: MemoStats::default(),
            frozen_base: 0,
            version: 0,
        }
    }

    /// The cache's replayable-content version (see the field docs on
    /// [`PActionCache`]): two calls return different values iff nodes,
    /// links or configuration keys changed in between. Accessed-bit
    /// (GC-liveness) updates do not count.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether this cache's replayable content changed since `snapshot`
    /// was frozen *from this cache's lineage*. Only meaningful for
    /// snapshots produced by this cache (or its clones): version counters
    /// of unrelated caches are not comparable.
    pub fn dirty_since(&self, snapshot: &crate::CacheSnapshot) -> bool {
        self.version != snapshot.version()
    }

    /// The replacement policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Memoization counters.
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// Number of configurations currently cached.
    pub fn config_count(&self) -> usize {
        self.index.len()
    }

    /// Number of action nodes currently in the arena (including any that
    /// became unreachable after flushes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn add_bytes(&mut self, n: usize) {
        self.stats.bytes += n;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.bytes);
    }

    /// Looks up the configuration snapshot taken at the end of an
    /// interaction cycle.
    ///
    /// On a hit, the pending action chain is linked to the cached
    /// configuration's first action (forming the paper's "unbroken chain of
    /// actions") and fast-forwarding can replay from the returned node. On
    /// a miss, the next action recorded becomes the configuration's first
    /// action. A miss is also when the replacement policy runs.
    pub fn register_config(&mut self, bytes: &[u8]) -> ConfigLookup {
        // The hit path is the simulator's innermost loop: one hash, one
        // probe sequence, zero allocations.
        let fp = hash64(bytes);
        if let Some(head) = self.index.lookup(fp, bytes) {
            self.stats.config_hits += 1;
            self.link_attach(head);
            self.attach = Attach::None;
            self.accessed[head as usize] = true;
            return ConfigLookup::Hit(head);
        }
        self.stats.config_misses += 1;
        self.enforce_policy();
        self.pending_bytes.clear();
        self.pending_bytes.extend_from_slice(bytes);
        self.pending_fp = Some(fp);
        ConfigLookup::Miss
    }

    /// Records one action performed by the detailed simulator, linking it
    /// after the previously recorded action (or outcome branch). Returns
    /// the node id — needed to bind an outcome with
    /// [`set_outcome`](PActionCache::set_outcome).
    pub fn record_action(&mut self, kind: ActionKind) -> NodeId {
        self.version += 1;
        let id = self.nodes.len() as NodeId;
        let next = if kind.has_outcome() {
            Successors::Multi(Vec::new())
        } else {
            Successors::Single(None)
        };
        self.nodes.push(Node { kind, next, config: None, tenured: false });
        self.accessed.push(true);
        self.add_bytes(kind.modeled_bytes());
        self.stats.static_actions += 1;
        self.link_attach(id);
        if let Some(fp) = self.pending_fp.take() {
            // The fingerprint from the registering miss is reused — the
            // insert probes but never rehashes the bytes.
            let cref = self.index.insert(fp, &self.pending_bytes, id);
            self.nodes[id as usize].config = Some(cref);
            self.add_bytes(self.pending_bytes.len() + CONFIG_OVERHEAD_BYTES);
            self.stats.static_configs += 1;
        }
        self.attach = match kind {
            ActionKind::Finish => Attach::None,
            k if k.has_outcome() => Attach::None, // bound by set_outcome
            _ => Attach::Next(id),
        };
        id
    }

    /// Binds the observed outcome of the outcome-bearing action `id`; the
    /// next recorded action (or configuration hit) becomes the successor
    /// for that outcome.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `id` does not carry outcomes or this outcome is
    /// already bound (the engine should have replayed it instead).
    pub fn set_outcome(&mut self, id: NodeId, key: OutcomeKey) {
        debug_assert!(self.nodes[id as usize].kind.has_outcome());
        debug_assert!(
            self.branch_to(id, key).is_none(),
            "outcome {key:?} already recorded for node {id}"
        );
        self.attach = Attach::Branch(id, key);
    }

    /// Re-arms recording at a replayed node whose successor was missing:
    /// with `Some(key)`, new actions become that outcome's branch; with
    /// `None`, they fill the node's single successor link (possible after
    /// a collection dropped it).
    pub fn resume_recording_at(&mut self, id: NodeId, key: Option<OutcomeKey>) {
        self.attach = match key {
            Some(k) => Attach::Branch(id, k),
            None => Attach::Next(id),
        };
    }

    fn link_attach(&mut self, to: NodeId) {
        if self.attach != Attach::None {
            self.version += 1;
        }
        match std::mem::replace(&mut self.attach, Attach::None) {
            Attach::None => {}
            Attach::Next(p) => match &mut self.nodes[p as usize].next {
                Successors::Single(slot) => *slot = Some(to),
                Successors::Multi(_) => unreachable!("Next attach on branching node"),
            },
            Attach::Branch(p, key) => match &mut self.nodes[p as usize].next {
                Successors::Multi(branches) => {
                    debug_assert!(branches.iter().all(|(k, _)| *k != key));
                    branches.push((key, to));
                    self.add_bytes(BRANCH_BYTES);
                }
                Successors::Single(_) => unreachable!("Branch attach on single node"),
            },
        }
    }

    // --- Replay navigation ------------------------------------------------

    /// The action stored at `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> ActionKind {
        self.nodes[id as usize].kind
    }

    /// Whether `id` is a configuration's first action (a replay crossing
    /// point).
    #[inline]
    pub fn is_config_head(&self, id: NodeId) -> bool {
        self.nodes[id as usize].config.is_some()
    }

    /// If `id` is a configuration's first action, the encoded
    /// configuration bytes.
    #[inline]
    pub fn config_at(&self, id: NodeId) -> Option<&[u8]> {
        self.nodes[id as usize].config.map(|r| self.index.bytes_at(r))
    }

    /// Follows the single successor of an outcome-less action, marking the
    /// target accessed. `None` means the chain ends here (recording was
    /// interrupted or a collection dropped the tail).
    #[inline]
    pub fn advance(&mut self, id: NodeId) -> Option<NodeId> {
        let next = match &self.nodes[id as usize].next {
            Successors::Single(n) => *n,
            Successors::Multi(_) => {
                unreachable!("advance on outcome-bearing node; use branch_to")
            }
        };
        if let Some(n) = next {
            self.accessed[n as usize] = true;
        }
        next
    }

    /// Follows the successor recorded for `key`, marking the target
    /// accessed. `None` terminates fast-forwarding (unseen outcome).
    #[inline]
    pub fn branch_to(&mut self, id: NodeId, key: OutcomeKey) -> Option<NodeId> {
        let next = match &self.nodes[id as usize].next {
            Successors::Multi(branches) => {
                branches.iter().find(|(k, _)| *k == key).map(|(_, n)| *n)
            }
            Successors::Single(_) => unreachable!("branch_to on single-successor node"),
        };
        if let Some(n) = next {
            self.accessed[n as usize] = true;
        }
        next
    }

    /// Number of outcome branches recorded at `id` (statistics).
    pub fn branch_count(&self, id: NodeId) -> usize {
        match &self.nodes[id as usize].next {
            Successors::Multi(b) => b.len(),
            Successors::Single(_) => 0,
        }
    }

    // --- Replacement policies ----------------------------------------------

    fn enforce_policy(&mut self) {
        let Some(limit) = self.policy.limit() else { return };
        if self.stats.bytes <= limit {
            return;
        }
        match self.policy {
            Policy::FlushOnFull { .. } => self.flush(),
            Policy::CopyingGc { .. } => self.collect(false),
            Policy::GenerationalGc { .. } => {
                self.collect(true);
                if self.stats.bytes > limit {
                    self.collect(false);
                }
            }
            Policy::Unbounded => unreachable!(),
        }
    }

    /// Discards the entire cache (the flush-on-full policy's action).
    pub fn flush(&mut self) {
        self.version += 1;
        self.nodes.clear();
        self.accessed.clear();
        self.index.clear();
        self.attach = Attach::None;
        // A pending configuration (registered but head not yet recorded)
        // stays pending: its bytes live in `pending_bytes`, outside the
        // arena, so its first action will insert it into the fresh index.
        self.stats.bytes = 0;
        self.stats.flushes += 1;
        self.frozen_base = 0;
    }

    /// Runs a collection. `minor` keeps accessed and tenured nodes
    /// (generational nursery collection); otherwise only accessed nodes
    /// survive (full copying collection). Links into collected space are
    /// cut; replay falls back to detailed simulation when it reaches one.
    pub fn collect(&mut self, minor: bool) {
        self.version += 1;
        let scanned = self.stats.bytes;
        // Node ids are contiguous arena indices, so the forwarding table
        // is a dense vector — a HashMap here would hash every node id for
        // nothing.
        let mut forwarding: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut new_nodes: Vec<Node> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if self.accessed[i] || (minor && node.tenured) {
                forwarding[i] = Some(new_nodes.len() as NodeId);
                new_nodes.push(node.clone());
            }
        }
        let mut bytes = 0usize;
        for node in &mut new_nodes {
            match &mut node.next {
                Successors::Single(slot) => {
                    *slot = slot.and_then(|t| forwarding[t as usize]);
                }
                Successors::Multi(branches) => {
                    branches.retain_mut(|(_, t)| match forwarding[*t as usize] {
                        Some(nt) => {
                            *t = nt;
                            true
                        }
                        None => false,
                    });
                }
            }
            bytes += node.kind.modeled_bytes();
            if let Successors::Multi(b) = &node.next {
                bytes += b.len() * BRANCH_BYTES;
            }
            node.tenured = true;
        }
        // Compact the byte arena alongside the nodes: surviving
        // configurations are copied into a fresh arena (carrying their
        // stored fingerprints — nothing is rehashed) and dead ones vanish
        // with the old arena.
        let old_index = std::mem::take(&mut self.index);
        let mut new_index = ConfigIndex::new();
        for (i, node) in new_nodes.iter_mut().enumerate() {
            if let Some(r) = node.config {
                node.config =
                    Some(new_index.insert(r.fp, old_index.bytes_at(r), i as NodeId));
            }
        }
        // Modeled configuration bytes come straight from the compacted
        // arena's occupancy (identical, by construction, to summing the
        // survivors' lengths).
        bytes += new_index.arena_bytes() + new_index.len() * CONFIG_OVERHEAD_BYTES;
        self.attach = match std::mem::replace(&mut self.attach, Attach::None) {
            Attach::Next(p) => {
                forwarding[p as usize].map_or(Attach::None, Attach::Next)
            }
            Attach::Branch(p, k) => {
                forwarding[p as usize].map_or(Attach::None, |np| Attach::Branch(np, k))
            }
            Attach::None => Attach::None,
        };
        // Survivors start the next GC epoch unmarked.
        self.accessed = vec![false; new_nodes.len()];
        self.nodes = new_nodes;
        self.index = new_index;
        self.frozen_base = 0;
        self.stats.bytes = bytes;
        self.stats.collections += 1;
        self.stats.gc_scanned_bytes += scanned as u64;
        self.stats.gc_survived_bytes += bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::RetireCounts;

    fn advance(n: u32) -> ActionKind {
        ActionKind::Advance { cycles: n, retired: RetireCounts::default() }
    }

    #[test]
    fn record_and_replay_chain() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let a1 = pc.record_action(advance(3));
        let a2 = pc.record_action(ActionKind::IssueStore { sq_index: 0 });
        assert_eq!(pc.register_config(b"B"), ConfigLookup::Miss);
        let b1 = pc.record_action(advance(1));
        pc.record_action(ActionKind::Finish);
        // Replay A: chain a1 -> a2 -> b1 (crossing the config boundary).
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Hit(a1));
        assert_eq!(pc.kind(a1), advance(3));
        assert_eq!(pc.advance(a1), Some(a2));
        assert_eq!(pc.advance(a2), Some(b1));
        assert_eq!(pc.config_at(b1), Some(&b"B"[..]));
        assert_eq!(pc.config_at(a2), None);
    }

    #[test]
    fn outcome_branches_grow_lazily() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let a1 = pc.record_action(advance(1));
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
        pc.set_outcome(load, OutcomeKey::Interval(2));
        let hit_path = pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        // Replay: outcome 2 is known, outcome 6 is not.
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Hit(a1));
        assert_eq!(pc.advance(a1), Some(load));
        assert_eq!(pc.branch_to(load, OutcomeKey::Interval(2)), Some(hit_path));
        assert_eq!(pc.branch_to(load, OutcomeKey::Interval(6)), None);
        // Record the new outcome's branch (paper Figure 6).
        pc.resume_recording_at(load, Some(OutcomeKey::Interval(6)));
        let miss_path = pc.record_action(advance(6));
        assert_eq!(pc.branch_to(load, OutcomeKey::Interval(6)), Some(miss_path));
        assert_eq!(pc.branch_count(load), 2);
    }

    #[test]
    fn stats_track_allocation() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        pc.register_config(b"A");
        pc.record_action(advance(1));
        pc.record_action(ActionKind::Finish);
        let s = *pc.stats();
        assert_eq!(s.static_configs, 1);
        assert_eq!(s.static_actions, 2);
        assert!(s.bytes > 0);
        assert_eq!(s.peak_bytes, s.bytes);
    }

    #[test]
    fn flush_on_full_discards_everything() {
        let mut pc = PActionCache::new(Policy::FlushOnFull { limit: 200 });
        let mut misses = 0;
        for i in 0..100u32 {
            let key = i.to_le_bytes();
            if pc.register_config(&key) == ConfigLookup::Miss {
                misses += 1;
                pc.record_action(advance(1));
            }
        }
        assert_eq!(misses, 100);
        assert!(pc.stats().flushes > 0);
        assert!(pc.stats().bytes <= 200 + 100, "bounded near the limit");
        // Cumulative static counters survive flushes.
        assert_eq!(pc.stats().static_configs, 100);
    }

    #[test]
    fn flush_preserves_pending_config() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        pc.flush();
        let head = pc.record_action(advance(1));
        pc.record_action(ActionKind::Finish);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Hit(head));
    }

    #[test]
    fn copying_gc_keeps_accessed_nodes() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        // Config A gets replayed (accessed); config B never again.
        pc.register_config(b"A");
        let a1 = pc.record_action(advance(1));
        pc.register_config(b"B");
        pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        // Age everything, then touch only A.
        pc.collect(false); // clears accessed flags (all were freshly set)
        assert_eq!(pc.config_count(), 2, "fresh nodes all survive the first collection");
        let hit = pc.register_config(b"A");
        let a1_new = match hit {
            ConfigLookup::Hit(id) => id,
            ConfigLookup::Miss => panic!("A must survive"),
        };
        pc.collect(false);
        assert_eq!(pc.config_count(), 1, "B was not accessed and is collected");
        assert_eq!(pc.register_config(b"B"), ConfigLookup::Miss);
        match pc.register_config(b"A") {
            ConfigLookup::Hit(id) => {
                // Still replayable after relocation.
                assert_eq!(pc.kind(id), advance(1));
            }
            ConfigLookup::Miss => panic!("A must survive the second collection"),
        }
        let _ = (a1, a1_new);
    }

    #[test]
    fn gc_cuts_links_to_collected_nodes() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        pc.register_config(b"A");
        let a1 = pc.record_action(advance(1));
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
        pc.set_outcome(load, OutcomeKey::Interval(2));
        pc.register_config(b"B");
        pc.record_action(advance(9));
        pc.record_action(ActionKind::Finish);
        pc.collect(false); // age
        // Touch A's chain but not B.
        let head = match pc.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            _ => panic!(),
        };
        let load_id = pc.advance(head).unwrap();
        pc.collect(false);
        // B's head was collected: the branch from `load` is cut.
        let head = match pc.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            _ => panic!("A survives"),
        };
        let load_id2 = pc.advance(head).unwrap();
        assert_eq!(pc.branch_to(load_id2, OutcomeKey::Interval(2)), None);
        let _ = (a1, load_id);
    }

    #[test]
    fn generational_minor_keeps_tenured() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        pc.register_config(b"A");
        pc.record_action(advance(1));
        pc.collect(false); // everything tenured, flags cleared
        pc.register_config(b"B");
        pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        // Minor collection: tenured A survives even though untouched this
        // epoch; fresh B (accessed) survives too.
        pc.collect(true);
        assert_eq!(pc.config_count(), 2);
        // Full collection now drops both (nothing accessed since).
        pc.collect(false);
        assert_eq!(pc.config_count(), 0);
    }

    #[test]
    fn survival_rate_reported() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        pc.register_config(b"A");
        pc.record_action(advance(1));
        pc.register_config(b"B");
        pc.record_action(advance(2));
        pc.record_action(ActionKind::Finish);
        pc.collect(false);
        pc.collect(false); // second collection drops everything
        let s = pc.stats();
        assert_eq!(s.collections, 2);
        assert!(s.gc_survival_rate() < 1.0);
    }

    #[test]
    fn gc_policy_triggers_on_miss() {
        let mut pc = PActionCache::new(Policy::CopyingGc { limit: 300 });
        for i in 0..50u32 {
            if pc.register_config(&i.to_le_bytes()) == ConfigLookup::Miss {
                pc.record_action(advance(1));
            }
        }
        assert!(pc.stats().collections > 0);
        assert!(pc.stats().bytes < 50 * 60, "collections bound growth");
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::action::RetireCounts;
    use fastsim_prng::for_each_case;

    /// One step of a random exercise of the cache's recording/replay API.
    #[derive(Clone, Debug)]
    enum Step {
        Register(u8),
        RecordAdvance(u8),
        RecordLoadWithOutcome(u8),
        Flush,
        Collect(bool),
    }

    fn random_step(rng: &mut fastsim_prng::Rng) -> Step {
        match rng.range_u32(0..5) {
            0 => Step::Register(rng.next_u8()),
            1 => Step::RecordAdvance(rng.next_u8()),
            2 => Step::RecordLoadWithOutcome(rng.next_u8()),
            3 => Step::Flush,
            _ => Step::Collect(rng.next_bool()),
        }
    }

    /// Arbitrary interleavings of recording, lookup, flushing and
    /// collection never panic and keep the counters coherent.
    #[test]
    fn random_cache_invariants() {
        for_each_case(0xac710, 256, |seed, rng| {
            let steps: Vec<Step> =
                (0..rng.range_usize(1..80)).map(|_| random_step(rng)).collect();
            let mut pc = PActionCache::new(Policy::Unbounded);
            // The engine's discipline: after an outcome-bearing action,
            // bind the outcome before recording the next action.
            for step in steps {
                match step {
                    Step::Register(k) => {
                        match pc.register_config(&[k]) {
                            ConfigLookup::Hit(n) => {
                                // Navigating from a hit never panics.
                                let kind = pc.kind(n);
                                if !kind.has_outcome() {
                                    let _ = pc.advance(n);
                                } else {
                                    let _ = pc.branch_to(n, OutcomeKey::PollReady);
                                }
                            }
                            ConfigLookup::Miss => {
                                // A miss must be followed by a recorded
                                // head before the next registration of the
                                // same key can hit.
                                pc.record_action(ActionKind::Advance {
                                    cycles: 1,
                                    retired: RetireCounts::default(),
                                });
                            }
                        }
                    }
                    Step::RecordAdvance(c) => {
                        pc.record_action(ActionKind::Advance {
                            cycles: c as u32 + 1,
                            retired: RetireCounts::default(),
                        });
                    }
                    Step::RecordLoadWithOutcome(v) => {
                        let id = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
                        pc.set_outcome(id, OutcomeKey::Interval(v as u32));
                    }
                    Step::Flush => pc.flush(),
                    Step::Collect(minor) => pc.collect(minor),
                }
                let s = pc.stats();
                assert!(pc.config_count() as u64 <= s.static_configs, "seed {seed:#x}");
                assert!(pc.node_count() as u64 <= s.static_actions, "seed {seed:#x}");
                assert!(s.bytes <= s.peak_bytes, "seed {seed:#x}");
                assert!(s.gc_survived_bytes <= s.gc_scanned_bytes, "seed {seed:#x}");
            }
        });
    }

    /// Whatever was registered and still cached replays the same first
    /// action after any number of collections.
    #[test]
    fn random_collection_preserves_replayability() {
        for_each_case(0xc011ec7, 256, |seed, rng| {
            let keys: Vec<u8> =
                (0..rng.range_usize(1..30)).map(|_| rng.next_u8()).collect();
            let mut pc = PActionCache::new(Policy::Unbounded);
            let mut recorded: Vec<(u8, u32)> = Vec::new();
            for (i, &k) in keys.iter().enumerate() {
                if pc.register_config(&[k]) == ConfigLookup::Miss {
                    pc.record_action(ActionKind::Advance {
                        cycles: i as u32 + 1,
                        retired: RetireCounts::default(),
                    });
                    recorded.push((k, i as u32 + 1));
                }
            }
            pc.record_action(ActionKind::Finish);
            pc.collect(false); // everything was just accessed: survives
            for (k, cycles) in recorded {
                match pc.register_config(&[k]) {
                    ConfigLookup::Hit(n) => {
                        assert_eq!(
                            pc.kind(n),
                            ActionKind::Advance { cycles, retired: RetireCounts::default() },
                            "seed {seed:#x}"
                        );
                    }
                    ConfigLookup::Miss => panic!("config lost by collection (seed {seed:#x})"),
                }
                // register_config on a Miss path would expect a pending
                // head; all of these are hits, so no cleanup is needed.
            }
        });
    }
}
