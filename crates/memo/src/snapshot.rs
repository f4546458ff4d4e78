//! Frozen snapshots of the p-action cache, and the merge step that folds
//! per-worker deltas back into a master cache.
//!
//! The batch-simulation driver (in `fastsim-core`) shares one warm cache
//! across many worker threads per round:
//!
//! 1. the master cache is **frozen** into an immutable [`CacheSnapshot`]
//!    at round start ([`PActionCache::freeze`]);
//! 2. each worker **thaws** a private working copy
//!    ([`PActionCache::from_snapshot`]) — the snapshot itself is shared
//!    behind an `Arc` and never mutated — and records its own delta while
//!    simulating;
//! 3. between rounds the workers' frozen deltas are **merged** back into
//!    the master ([`PActionCache::merge_from`]) in a deterministic order:
//!    first writer wins on configuration keys, and only the material
//!    actually copied is accounted, which makes the merge idempotent.
//!
//! A thawed cache remembers how many leading nodes it inherited from the
//! snapshot (its *base*). Nodes in the base keep their ids as long as the
//! cache only appends (no flush or collection), so a delta can be merged
//! back by grafting the new outcome branches onto the base prefix and
//! copying only the newly recorded subgraphs. After a flush or collection
//! the correspondence is gone; the merge then falls back to copying
//! everything reachable from new configuration keys.

use crate::action::NodeId;
use crate::cache::{Node, PActionCache, Successors, BRANCH_BYTES, CONFIG_OVERHEAD_BYTES};
use crate::index::ConfigIndex;
use crate::policy::Policy;
use crate::MemoStats;
use std::collections::{HashMap, VecDeque};

/// An immutable, shareable copy of a [`PActionCache`]'s replayable state.
///
/// Snapshots are plain data: they carry the node arena, the configuration
/// table, the policy, and the statistics at freeze time, but none of the
/// recording state (`attach` position, pending configuration). They are
/// `Send + Sync`, so one snapshot behind an `Arc` can seed any number of
/// concurrent simulations.
#[derive(Clone, Debug)]
pub struct CacheSnapshot {
    pub(crate) nodes: Vec<Node>,
    /// Accessed bits at freeze time, parallel to `nodes` (GC liveness
    /// carries across a freeze/thaw round trip).
    pub(crate) accessed: Vec<bool>,
    pub(crate) index: ConfigIndex,
    pub(crate) policy: Policy,
    pub(crate) stats: MemoStats,
    /// The frozen cache's inherited-base length (see
    /// [`PActionCache::frozen_base`]): how many leading nodes it shared,
    /// id-for-id, with the snapshot it was thawed from. Used by
    /// [`PActionCache::merge_from`] to graft deltas precisely.
    pub(crate) base_len: usize,
    /// The source cache's replayable-content version at freeze time (see
    /// [`PActionCache::version`]).
    pub(crate) version: u64,
}

// One snapshot is replayed from by many threads at once.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CacheSnapshot>();
    assert_send_sync::<PActionCache>();
};

impl CacheSnapshot {
    /// Number of configurations cached at freeze time.
    pub fn config_count(&self) -> usize {
        self.index.len()
    }

    /// Number of action nodes in the frozen arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The statistics at freeze time.
    pub fn stats(&self) -> &MemoStats {
        &self.stats
    }

    /// The frozen cache's replacement policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// How many leading nodes the frozen cache inherited from the snapshot
    /// it was thawed from (`0` if built from scratch, or after a flush or
    /// collection broke the correspondence).
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// The source cache's replayable-content version at freeze time. Only
    /// comparable against the same cache lineage (see
    /// [`PActionCache::dirty_since`]).
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// What a [`PActionCache::merge_from`] call actually copied.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MergeOutcome {
    /// New configurations inserted into the master's table.
    pub configs_added: u64,
    /// Action nodes copied into the master's arena.
    pub actions_added: u64,
    /// Outcome branches grafted onto nodes the master already had.
    pub branches_grafted: u64,
    /// Configurations the delta discovered that another delta (or the
    /// master itself) had already recorded — dropped, first writer wins.
    pub configs_deduped: u64,
    /// Modeled bytes added to the master.
    pub bytes_added: usize,
}

impl MergeOutcome {
    /// Whether the merge changed the master at all.
    pub fn is_noop(&self) -> bool {
        self.configs_added == 0 && self.actions_added == 0 && self.branches_grafted == 0
    }
}

/// Resolves a delta-side node id to a master-side id, scheduling the node
/// for copying on first sight. Ids below `base_len` are inherited and map
/// to themselves.
fn resolve(
    t: NodeId,
    base_len: usize,
    forwarding: &mut HashMap<NodeId, NodeId>,
    queue: &mut VecDeque<NodeId>,
    next_new: &mut NodeId,
) -> NodeId {
    if let Some(&m) = forwarding.get(&t) {
        return m;
    }
    if (t as usize) < base_len {
        return t;
    }
    let n = *next_new;
    forwarding.insert(t, n);
    *next_new += 1;
    queue.push_back(t);
    n
}

impl PActionCache {
    /// Freezes the replayable state into an immutable [`CacheSnapshot`].
    ///
    /// Recording state (the attach position and any pending configuration)
    /// is not captured: freeze at a quiescent point — after `Finish`, or
    /// between batch jobs.
    pub fn freeze(&self) -> CacheSnapshot {
        CacheSnapshot {
            nodes: self.nodes.clone(),
            accessed: self.accessed.clone(),
            index: self.index.clone(),
            policy: self.policy,
            stats: self.stats,
            base_len: self.frozen_base,
            version: self.version,
        }
    }

    /// Re-freezes only if the replayable content changed since `prev` was
    /// frozen off this cache: returns `None` (keep using `prev`) when the
    /// version still matches, or a fresh [`CacheSnapshot`] otherwise.
    ///
    /// This is the cheap periodic **re-freeze** primitive for a long-lived
    /// master cache that absorbs worker deltas: freezing clones the whole
    /// arena, so a server that re-freezes on a schedule can skip the copy
    /// entirely across quiet periods. `prev` must come from this cache's
    /// lineage (the version counter is per-lineage, not global).
    pub fn freeze_if_newer(&self, prev: &CacheSnapshot) -> Option<CacheSnapshot> {
        if self.version == prev.version {
            None
        } else {
            Some(self.freeze())
        }
    }

    /// Thaws a private working copy of `snapshot`. The copy starts with the
    /// snapshot's statistics (so cumulative counters survive warm restarts)
    /// and remembers the snapshot length as its inherited base, which lets
    /// [`merge_from`](PActionCache::merge_from) fold the copy's delta back
    /// precisely.
    pub fn from_snapshot(snapshot: &CacheSnapshot) -> PActionCache {
        let mut pc = PActionCache::new(snapshot.policy);
        pc.nodes = snapshot.nodes.clone();
        pc.accessed = snapshot.accessed.clone();
        pc.index = snapshot.index.clone();
        pc.stats = snapshot.stats;
        pc.version = snapshot.version;
        pc.frozen_base = snapshot.nodes.len();
        pc
    }

    /// Folds a worker's frozen `delta` into this master cache.
    ///
    /// The delta must descend from this master: its first
    /// [`base_len`](CacheSnapshot::base_len) nodes are the prefix frozen
    /// off this cache at round start, which the master must still hold
    /// unchanged (the master may only have *appended* since — merging
    /// other deltas is fine, flushing or collecting is not).
    ///
    /// Merge semantics:
    ///
    /// - **First writer wins** on configuration keys: a configuration the
    ///   master already has keeps the master's chain; the delta's version
    ///   is dropped (counted in
    ///   [`configs_deduped`](MergeOutcome::configs_deduped)).
    /// - New outcome branches recorded on inherited nodes are grafted onto
    ///   the master's corresponding nodes (again first writer wins per
    ///   outcome key).
    /// - Subgraphs reachable from new configuration keys or grafted
    ///   branches are copied, in deterministic (node-id, then breadth-first)
    ///   order.
    /// - Only copied material is accounted (static counters, modeled
    ///   bytes), so merging the same delta twice is a no-op the second
    ///   time.
    ///
    /// Returns what was copied.
    ///
    /// # Panics
    ///
    /// Panics if `delta.base_len()` exceeds this cache's node count (the
    /// delta cannot descend from this cache).
    pub fn merge_from(&mut self, delta: &CacheSnapshot) -> MergeOutcome {
        assert!(
            delta.base_len <= self.nodes.len(),
            "delta base ({} nodes) exceeds master ({} nodes): not a descendant",
            delta.base_len,
            self.nodes.len()
        );
        self.merge_with_base(delta, delta.base_len)
    }

    /// Folds a **foreign** snapshot — one that does not descend from this
    /// cache (a peer server's shipped master, a snapshot loaded from disk
    /// into an already-warm group) — into this cache.
    ///
    /// No node ids are shared between the two lineages, so the merge
    /// treats the whole snapshot as delta: every configuration subgraph is
    /// copied (first writer wins on keys, exactly like
    /// [`merge_from`](PActionCache::merge_from)), and nothing is grafted
    /// onto existing nodes. Idempotent: merging
    /// the same snapshot twice copies nothing the second time.
    pub fn merge_foreign(&mut self, snapshot: &CacheSnapshot) -> MergeOutcome {
        self.merge_with_base(snapshot, 0)
    }

    /// The merge engine behind [`merge_from`](PActionCache::merge_from)
    /// and [`merge_foreign`](PActionCache::merge_foreign): `base_len` is
    /// how many leading delta node ids map id-for-id onto this cache
    /// (`0` for a foreign snapshot).
    fn merge_with_base(&mut self, delta: &CacheSnapshot, base_len: usize) -> MergeOutcome {
        let mut out = MergeOutcome::default();
        let mut forwarding: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut next_new = self.nodes.len() as NodeId;

        // Pass 1 — map every delta configuration head. A key the master
        // already has resolves to the master's chain (first writer wins);
        // the rest are roots to copy. Scanning the arena in id order (not
        // the hash table) keeps the merge deterministic.
        let mut roots: Vec<NodeId> = Vec::new();
        for (i, node) in delta.nodes.iter().enumerate() {
            let Some(r) = node.config else { continue };
            // The stored fingerprint travels with the key: the master's
            // lookup never rehashes the delta's bytes.
            if let Some(existing) = self.index.lookup(r.fp, delta.index.bytes_at(r)) {
                forwarding.insert(i as NodeId, existing);
                if i >= base_len {
                    out.configs_deduped += 1;
                }
            } else if i >= base_len {
                roots.push(i as NodeId);
            }
            // An inherited head missing from the master means the master
            // flushed or collected since the freeze; links to it are cut,
            // like any link into collected space.
        }

        // Pass 2 — schedule the new configuration subgraphs.
        for &r in &roots {
            resolve(r, base_len, &mut forwarding, &mut queue, &mut next_new);
        }

        // Pass 3 — graft the delta's additions to inherited nodes: filled
        // single-successor links and new outcome branches.
        let mut links_filled = false;
        for i in 0..base_len {
            match (&delta.nodes[i].next, &mut self.nodes[i].next) {
                (Successors::Single(Some(t)), Successors::Single(slot)) if slot.is_none() => {
                    let mapped =
                        resolve(*t, base_len, &mut forwarding, &mut queue, &mut next_new);
                    *slot = Some(mapped);
                    links_filled = true;
                }
                (Successors::Multi(theirs), Successors::Multi(ours)) => {
                    for (key, t) in theirs {
                        if ours.iter().any(|(k, _)| k == key) {
                            continue; // first writer wins on this outcome
                        }
                        let mapped =
                            resolve(*t, base_len, &mut forwarding, &mut queue, &mut next_new);
                        // Can't call add_bytes here: `ours` borrows nodes.
                        ours.push((*key, mapped));
                        out.branches_grafted += 1;
                        out.bytes_added += BRANCH_BYTES;
                    }
                }
                _ => {}
            }
        }
        self.add_bytes(out.branches_grafted as usize * BRANCH_BYTES);

        // Pass 4 — copy scheduled nodes breadth-first. FIFO order makes
        // append order match reservation order, so each copy lands on the
        // id `resolve` promised for it.
        while let Some(t) = queue.pop_front() {
            debug_assert_eq!(forwarding[&t], self.nodes.len() as NodeId);
            let src = &delta.nodes[t as usize];
            let next = match &src.next {
                Successors::Single(slot) => Successors::Single(slot.map(|s| {
                    resolve(s, base_len, &mut forwarding, &mut queue, &mut next_new)
                })),
                Successors::Multi(branches) => Successors::Multi(
                    branches
                        .iter()
                        .map(|(k, s)| {
                            (*k, resolve(*s, base_len, &mut forwarding, &mut queue, &mut next_new))
                        })
                        .collect(),
                ),
            };
            let mut bytes = src.kind.modeled_bytes();
            if let Successors::Multi(b) = &next {
                bytes += b.len() * BRANCH_BYTES;
            }
            // A copied head always carries a new key (existing keys were
            // resolved to the master's chain in pass 1), so this insert
            // appends the bytes to the master's arena.
            let new_id = self.nodes.len() as NodeId;
            let config = src.config.map(|r| {
                bytes += r.len as usize + CONFIG_OVERHEAD_BYTES;
                let cref = self.index.insert(r.fp, delta.index.bytes_at(r), new_id);
                self.stats.static_configs += 1;
                out.configs_added += 1;
                cref
            });
            self.nodes.push(Node { kind: src.kind, next, config, tenured: src.tenured });
            self.accessed.push(delta.accessed[t as usize]);
            self.add_bytes(bytes);
            self.stats.static_actions += 1;
            out.actions_added += 1;
            out.bytes_added += bytes;
        }
        // A filled single-successor link changes replayable content without
        // moving any `MergeOutcome` counter, so it must bump the version
        // too.
        if !out.is_noop() || links_filled {
            self.version += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionKind, OutcomeKey, RetireCounts};
    use crate::cache::ConfigLookup;

    fn advance(n: u32) -> ActionKind {
        ActionKind::Advance { cycles: n, retired: RetireCounts::default() }
    }

    /// Records one config with a two-action chain per key.
    fn record(pc: &mut PActionCache, key: &[u8], cycles: u32) {
        assert_eq!(pc.register_config(key), ConfigLookup::Miss);
        pc.record_action(advance(cycles));
        pc.record_action(ActionKind::Finish);
    }

    #[test]
    fn freeze_thaw_round_trip_replays() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 3);
        let snap = master.freeze();
        assert_eq!(snap.config_count(), 1);
        assert_eq!(snap.node_count(), 2);
        assert_eq!(snap.stats().static_configs, 1);

        let mut thawed = PActionCache::from_snapshot(&snap);
        match thawed.register_config(b"A") {
            ConfigLookup::Hit(id) => assert_eq!(thawed.kind(id), advance(3)),
            ConfigLookup::Miss => panic!("thawed cache must replay the snapshot"),
        }
        // Cumulative counters carried over.
        assert_eq!(thawed.stats().static_configs, 1);
    }

    #[test]
    fn thawed_mutation_never_touches_the_snapshot() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 1);
        let snap = master.freeze();
        let (cfgs, nodes) = (snap.config_count(), snap.node_count());

        let mut w = PActionCache::from_snapshot(&snap);
        record(&mut w, b"B", 2);
        record(&mut w, b"C", 3);
        w.flush();
        record(&mut w, b"D", 4);

        assert_eq!(snap.config_count(), cfgs);
        assert_eq!(snap.node_count(), nodes);
        assert_eq!(snap.stats().static_configs, 1);
    }

    #[test]
    fn merge_copies_new_configs_and_dedupes_existing() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 1);
        let snap = master.freeze();

        // Worker 1 learns B; worker 2 learns B (differently!) and C.
        let mut w1 = PActionCache::from_snapshot(&snap);
        record(&mut w1, b"B", 10);
        let d1 = w1.freeze();
        let mut w2 = PActionCache::from_snapshot(&snap);
        record(&mut w2, b"B", 99);
        record(&mut w2, b"C", 30);
        let d2 = w2.freeze();

        let o1 = master.merge_from(&d1);
        assert_eq!(o1.configs_added, 1);
        assert_eq!(o1.configs_deduped, 0);
        let o2 = master.merge_from(&d2);
        assert_eq!(o2.configs_added, 1, "only C is new");
        assert_eq!(o2.configs_deduped, 1, "B already merged: first writer wins");

        // First writer won: B replays worker 1's chain.
        match master.register_config(b"B") {
            ConfigLookup::Hit(id) => assert_eq!(master.kind(id), advance(10)),
            ConfigLookup::Miss => panic!("B must be cached"),
        }
        match master.register_config(b"C") {
            ConfigLookup::Hit(id) => assert_eq!(master.kind(id), advance(30)),
            ConfigLookup::Miss => panic!("C must be cached"),
        }
    }

    #[test]
    fn merge_twice_is_idempotent() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 1);
        let snap = master.freeze();
        let mut w = PActionCache::from_snapshot(&snap);
        record(&mut w, b"B", 2);
        // Also graft a branch onto an inherited node: replay A, then record
        // a fresh outcome path... via an outcome-bearing chain.
        assert!(matches!(w.register_config(b"L"), ConfigLookup::Miss));
        let load = w.record_action(ActionKind::IssueLoad { lq_index: 0 });
        w.set_outcome(load, OutcomeKey::Interval(6));
        w.record_action(ActionKind::Finish);
        let delta = w.freeze();

        let first = master.merge_from(&delta);
        assert!(!first.is_noop());
        let snap_after = master.freeze();
        let second = master.merge_from(&delta);
        assert!(second.is_noop(), "second merge must copy nothing: {second:?}");
        let snap_final = master.freeze();
        assert_eq!(snap_after.node_count(), snap_final.node_count());
        assert_eq!(snap_after.config_count(), snap_final.config_count());
        assert_eq!(*snap_after.stats(), *snap_final.stats());
    }

    #[test]
    fn merge_grafts_new_outcome_branches_on_inherited_nodes() {
        // Master has a load with one known outcome.
        let mut master = PActionCache::new(Policy::Unbounded);
        assert!(matches!(master.register_config(b"A"), ConfigLookup::Miss));
        let load = master.record_action(ActionKind::IssueLoad { lq_index: 0 });
        master.set_outcome(load, OutcomeKey::Interval(2));
        master.record_action(ActionKind::Finish);
        let snap = master.freeze();

        // Worker replays A, sees an unseen interval, records the new path.
        let mut w = PActionCache::from_snapshot(&snap);
        let head = match w.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            ConfigLookup::Miss => panic!(),
        };
        assert_eq!(w.branch_to(head, OutcomeKey::Interval(6)), None);
        w.resume_recording_at(head, Some(OutcomeKey::Interval(6)));
        w.record_action(advance(6));
        w.record_action(ActionKind::Finish);
        let delta = w.freeze();

        let out = master.merge_from(&delta);
        assert_eq!(out.branches_grafted, 1);
        assert_eq!(out.actions_added, 2, "advance(6) + Finish copied");
        assert_eq!(out.configs_added, 0);

        // The master now replays both outcomes.
        let head = match master.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            ConfigLookup::Miss => panic!(),
        };
        let hit = master.branch_to(head, OutcomeKey::Interval(2)).expect("old branch");
        assert_eq!(master.kind(hit), ActionKind::Finish);
        let miss = master.branch_to(head, OutcomeKey::Interval(6)).expect("grafted branch");
        assert_eq!(master.kind(miss), advance(6));
        // Idempotent here too.
        assert!(master.merge_from(&delta).is_noop());
    }

    #[test]
    fn merge_after_worker_flush_still_recovers_new_configs() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 1);
        let snap = master.freeze();
        let mut w = PActionCache::from_snapshot(&snap);
        w.flush(); // base correspondence gone (frozen_base = 0)
        record(&mut w, b"B", 2);
        record(&mut w, b"A", 9); // re-learned after the flush
        let delta = w.freeze();
        assert_eq!(delta.base_len(), 0);

        let out = master.merge_from(&delta);
        assert_eq!(out.configs_added, 1, "only B; A keeps the master's chain");
        assert_eq!(out.configs_deduped, 1);
        match master.register_config(b"A") {
            ConfigLookup::Hit(id) => assert_eq!(master.kind(id), advance(1)),
            ConfigLookup::Miss => panic!(),
        }
        match master.register_config(b"B") {
            ConfigLookup::Hit(id) => assert_eq!(master.kind(id), advance(2)),
            ConfigLookup::Miss => panic!(),
        }
    }

    #[test]
    fn merge_accounts_only_copied_material() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 1);
        let before = *master.stats();
        let snap = master.freeze();

        let mut w = PActionCache::from_snapshot(&snap);
        record(&mut w, b"B", 2);
        let delta = w.freeze();

        let out = master.merge_from(&delta);
        let after = *master.stats();
        assert_eq!(after.static_configs, before.static_configs + out.configs_added);
        assert_eq!(after.static_actions, before.static_actions + out.actions_added);
        assert_eq!(after.bytes, before.bytes + out.bytes_added);
        // The worker's own lookup counters stay with the worker; merging is
        // about content, not traffic.
        assert_eq!(after.config_hits, before.config_hits);
        assert_eq!(after.config_misses, before.config_misses);
    }

    #[test]
    fn freeze_if_newer_skips_quiet_periods() {
        let mut master = PActionCache::new(Policy::Unbounded);
        record(&mut master, b"A", 1);
        let snap = master.freeze();
        assert!(!master.dirty_since(&snap));
        assert!(master.freeze_if_newer(&snap).is_none(), "nothing changed: keep `snap`");

        // A worker learns B; merging its delta dirties the master...
        let mut w = PActionCache::from_snapshot(&snap);
        record(&mut w, b"B", 2);
        let delta = w.freeze();
        assert!(!master.merge_from(&delta).is_noop());
        assert!(master.dirty_since(&snap));
        let snap2 = master.freeze_if_newer(&snap).expect("merge must dirty the master");
        assert_eq!(snap2.config_count(), 2);

        // ...but re-merging the same delta is a no-op and stays clean.
        assert!(master.merge_from(&delta).is_noop());
        assert!(!master.dirty_since(&snap2));
        assert!(master.freeze_if_newer(&snap2).is_none());
    }

    #[test]
    fn merge_foreign_imports_a_crossed_lineage() {
        // Two independent caches — different lineages, overlapping keys.
        let mut local = PActionCache::new(Policy::Unbounded);
        record(&mut local, b"A", 1);
        record(&mut local, b"B", 2);
        let mut peer = PActionCache::new(Policy::Unbounded);
        record(&mut peer, b"B", 99); // conflicting chain for B
        record(&mut peer, b"C", 3);
        let shipped = peer.freeze();

        let out = local.merge_foreign(&shipped);
        assert_eq!(out.configs_added, 1, "only C is new");
        assert_eq!(out.configs_deduped, 1, "local B wins");
        assert_eq!(out.branches_grafted, 0, "nothing grafts across lineages");
        match local.register_config(b"B") {
            ConfigLookup::Hit(id) => assert_eq!(local.kind(id), advance(2)),
            ConfigLookup::Miss => panic!("B must stay cached"),
        }
        match local.register_config(b"C") {
            ConfigLookup::Hit(id) => assert_eq!(local.kind(id), advance(3)),
            ConfigLookup::Miss => panic!("C must be imported"),
        }
        // Idempotent, like merge_from.
        assert!(local.merge_foreign(&shipped).is_noop());

        // A non-zero base_len snapshot must not graft when merged foreign:
        // the base prefix is a descendant of *peer*, not of `local`.
        let mut w = PActionCache::from_snapshot(&shipped);
        record(&mut w, b"D", 4);
        let delta = w.freeze();
        assert!(delta.base_len() > 0);
        let out = local.merge_foreign(&delta);
        assert_eq!(out.configs_added, 1, "only D is new");
        match local.register_config(b"D") {
            ConfigLookup::Hit(id) => assert_eq!(local.kind(id), advance(4)),
            ConfigLookup::Miss => panic!("D must be imported"),
        }
    }

    #[test]
    fn merge_foreign_into_empty_equals_thaw_content() {
        let mut src = PActionCache::new(Policy::Unbounded);
        record(&mut src, b"A", 1);
        record(&mut src, b"B", 2);
        let snap = src.freeze();

        let mut fresh = PActionCache::new(Policy::Unbounded);
        let out = fresh.merge_foreign(&snap);
        assert_eq!(out.configs_added, 2);
        assert_eq!(out.actions_added, 4);
        for (key, cycles) in [(&b"A"[..], 1u32), (&b"B"[..], 2)] {
            match fresh.register_config(key) {
                ConfigLookup::Hit(id) => assert_eq!(fresh.kind(id), advance(cycles)),
                ConfigLookup::Miss => panic!("{key:?} must be present"),
            }
        }
    }

    #[test]
    fn chains_crossing_config_boundaries_merge_intact() {
        // Worker records A -> B as one unbroken chain (B's head is A's
        // chain successor, paper §4.2).
        let mut master = PActionCache::new(Policy::Unbounded);
        let snap = master.freeze();
        let mut w = PActionCache::from_snapshot(&snap);
        assert!(matches!(w.register_config(b"A"), ConfigLookup::Miss));
        let _a1 = w.record_action(advance(3));
        assert!(matches!(w.register_config(b"B"), ConfigLookup::Miss));
        w.record_action(advance(1));
        w.record_action(ActionKind::Finish);
        let delta = w.freeze();

        let out = master.merge_from(&delta);
        assert_eq!(out.configs_added, 2);
        assert_eq!(out.actions_added, 3);
        let a1 = match master.register_config(b"A") {
            ConfigLookup::Hit(id) => id,
            ConfigLookup::Miss => panic!(),
        };
        let b1 = master.advance(a1).expect("chain crosses into B");
        assert_eq!(master.config_at(b1), Some(&b"B"[..]));
        assert_eq!(master.kind(b1), advance(1));
    }
}
