//! The configuration index: an open-addressed fingerprint table over one
//! contiguous append-only byte arena.
//!
//! The previous implementation kept `HashMap<Arc<[u8]>, NodeId>`: every
//! miss allocated an `Arc<[u8]>` copy of the configuration bytes, and a
//! miss paid SipHash twice (once in `get`, once in `insert`). This index
//! removes both costs from the per-interaction-cycle hot path:
//!
//! * configuration bytes live in **one byte arena** (`Vec<u8>`), each key
//!   an `(offset, len)` slice of it — no per-configuration allocation,
//!   no pointer chasing, and trivially cheap clones for snapshots;
//! * keys are addressed by a **64-bit fingerprint** from
//!   [`fastsim_hash::hash64`], computed **once** per lookup by the caller
//!   and carried in a [`ConfigRef`] thereafter, so the miss-path insert,
//!   garbage-collection rebuilds and snapshot merges never rehash bytes;
//! * the table is **open-addressed** (linear probing, power-of-two
//!   capacity, ≤ 7/8 load): a hit costs one probe sequence over a flat
//!   `Vec<u32>` with a fingerprint pre-check before any byte comparison.
//!
//! Determinism: slots are appended in insertion order and the arena only
//! ever appends between compactions, so equal operation sequences produce
//! equal arenas, equal slot orders and equal probe layouts — the property
//! the batch driver's bit-identical merge relies on.

use crate::action::NodeId;

/// A configuration key held by the index: where its bytes live in the
/// arena, plus the 64-bit fingerprint so no path ever rehashes them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ConfigRef {
    pub(crate) offset: u32,
    pub(crate) len: u32,
    pub(crate) fp: u64,
}

/// One inserted key (insertion-ordered; the probe table stores indices
/// into this vector).
#[derive(Clone, Copy, Debug)]
struct Slot {
    cref: ConfigRef,
    head: NodeId,
}

/// Probe-table sentinel: empty bucket.
const EMPTY: u32 = u32::MAX;

/// Open-addressed configuration index over a byte arena. See the module
/// docs for the design.
#[derive(Clone, Debug, Default)]
pub(crate) struct ConfigIndex {
    /// All configuration bytes, appended back to back.
    arena: Vec<u8>,
    /// Keys in insertion order.
    slots: Vec<Slot>,
    /// Power-of-two probe table of indices into `slots` (or `EMPTY`).
    table: Vec<u32>,
}

impl ConfigIndex {
    pub(crate) fn new() -> ConfigIndex {
        ConfigIndex::default()
    }

    /// Number of configurations in the index.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Total configuration bytes held (actual arena occupancy; after a
    /// [`compact`](ConfigIndex::compact)-style rebuild this is exactly the
    /// live bytes).
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Drops every key and the whole arena (flush-on-full).
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.slots.clear();
        self.table.clear();
    }

    /// The bytes of a key previously returned by
    /// [`insert`](ConfigIndex::insert).
    pub(crate) fn bytes_at(&self, r: ConfigRef) -> &[u8] {
        &self.arena[r.offset as usize..(r.offset + r.len) as usize]
    }

    /// The whole arena, for serialization.
    pub(crate) fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Every inserted key in insertion order, for serialization.
    pub(crate) fn slot_entries(&self) -> impl Iterator<Item = (ConfigRef, NodeId)> + '_ {
        self.slots.iter().map(|s| (s.cref, s.head))
    }

    /// Rebuilds an index from serialized parts: the arena plus the keys in
    /// insertion order. The probe table is re-derived from the stored
    /// fingerprints (its layout is an implementation detail, not part of
    /// the wire format); lookup results and slot order — everything the
    /// deterministic merge relies on — are reproduced exactly.
    ///
    /// Callers must have validated that every `ConfigRef` is in bounds of
    /// `arena` and that its fingerprint matches its bytes.
    pub(crate) fn from_parts(arena: Vec<u8>, entries: Vec<(ConfigRef, NodeId)>) -> ConfigIndex {
        let mut ix = ConfigIndex {
            arena,
            slots: entries.into_iter().map(|(cref, head)| Slot { cref, head }).collect(),
            table: Vec::new(),
        };
        ix.grow_if_needed(ix.slots.len());
        ix
    }

    #[inline]
    fn mask(&self) -> usize {
        debug_assert!(self.table.len().is_power_of_two());
        self.table.len() - 1
    }

    /// Looks up `bytes` under a fingerprint the caller already computed.
    /// One probe sequence; byte comparison only on fingerprint matches.
    pub(crate) fn lookup(&self, fp: u64, bytes: &[u8]) -> Option<NodeId> {
        self.find_slot(fp, bytes).map(|s| self.slots[s as usize].head)
    }

    /// The slot holding `bytes` (under the fingerprint the caller already
    /// computed), if any.
    pub(crate) fn find_slot(&self, fp: u64, bytes: &[u8]) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = fp as usize & mask;
        loop {
            match self.table[i] {
                EMPTY => return None,
                s => {
                    let slot = &self.slots[s as usize];
                    if slot.cref.fp == fp && self.bytes_at(slot.cref) == bytes {
                        return Some(s);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The key held by slot `slot`.
    pub(crate) fn cref(&self, slot: u32) -> ConfigRef {
        self.slots[slot as usize].cref
    }

    /// The bytes of the key held by slot `slot`.
    pub(crate) fn slot_bytes(&self, slot: u32) -> &[u8] {
        self.bytes_at(self.cref(slot))
    }

    /// Inserts `bytes` (appending them to the arena) under a fingerprint
    /// computed by an earlier [`lookup`](ConfigIndex::lookup) — the miss
    /// path never hashes the bytes a second time — and returns the key's
    /// slot. If the key is already present its head is overwritten in place
    /// and no bytes are appended (matching the previous `HashMap::insert`
    /// semantics).
    pub(crate) fn insert(&mut self, fp: u64, bytes: &[u8], head: NodeId) -> u32 {
        self.grow_if_needed(self.slots.len() + 1);
        let mask = self.mask();
        let mut i = fp as usize & mask;
        loop {
            match self.table[i] {
                EMPTY => break,
                s => {
                    let slot = &mut self.slots[s as usize];
                    if slot.cref.fp == fp
                        && &self.arena[slot.cref.offset as usize
                            ..(slot.cref.offset + slot.cref.len) as usize]
                            == bytes
                    {
                        slot.head = head;
                        return s;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let cref = ConfigRef {
            offset: u32::try_from(self.arena.len()).expect("arena exceeds 4 GiB"),
            len: bytes.len() as u32,
            fp,
        };
        self.arena.extend_from_slice(bytes);
        let s = self.slots.len() as u32;
        self.table[i] = s;
        self.slots.push(Slot { cref, head });
        s
    }

    /// Grows and re-probes the table for `upcoming` slots. Re-probing uses
    /// the stored fingerprints — no byte is ever rehashed.
    fn grow_if_needed(&mut self, upcoming: usize) {
        // ≤ 7/8 load keeps linear-probe chains short.
        if self.table.len() >= 16 && upcoming * 8 <= self.table.len() * 7 {
            return;
        }
        let cap = (upcoming * 2).next_power_of_two().max(16);
        self.table = vec![EMPTY; cap];
        let mask = cap - 1;
        for (s, slot) in self.slots.iter().enumerate() {
            let mut i = slot.cref.fp as usize & mask;
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = s as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_hash::hash64;
    use fastsim_prng::for_each_case;

    fn insert_bytes(ix: &mut ConfigIndex, bytes: &[u8], head: NodeId) -> u32 {
        ix.insert(hash64(bytes), bytes, head)
    }

    #[test]
    fn lookup_miss_then_insert_then_hit() {
        let mut ix = ConfigIndex::new();
        let key = b"config-A";
        let fp = hash64(key);
        assert_eq!(ix.lookup(fp, key), None);
        let slot = ix.insert(fp, key, 7);
        assert_eq!(ix.lookup(fp, key), Some(7));
        assert_eq!(ix.find_slot(fp, key), Some(slot));
        assert_eq!(ix.slot_bytes(slot), key);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.arena_bytes(), key.len());
    }

    #[test]
    fn duplicate_insert_overwrites_without_arena_growth() {
        let mut ix = ConfigIndex::new();
        let r1 = insert_bytes(&mut ix, b"K", 1);
        let r2 = insert_bytes(&mut ix, b"K", 2);
        assert_eq!(r1, r2, "same key, same slot");
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.arena_bytes(), 1);
        assert_eq!(ix.lookup(hash64(b"K"), b"K"), Some(2));
    }

    #[test]
    fn clear_empties_everything() {
        let mut ix = ConfigIndex::new();
        insert_bytes(&mut ix, b"a", 0);
        insert_bytes(&mut ix, b"b", 1);
        ix.clear();
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.arena_bytes(), 0);
        assert_eq!(ix.lookup(hash64(b"a"), b"a"), None);
    }

    #[test]
    fn colliding_fingerprint_buckets_still_resolve_by_bytes() {
        // Force every key to the same probe start by inserting enough keys
        // into a tiny table; the full probe sequence plus byte comparison
        // must keep them distinct.
        let mut ix = ConfigIndex::new();
        let keys: Vec<Vec<u8>> = (0..200u32).map(|i| i.to_le_bytes().to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            insert_bytes(&mut ix, k, i as NodeId);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(ix.lookup(hash64(k), k), Some(i as NodeId), "key {i}");
        }
        assert_eq!(ix.lookup(hash64(b"absent"), b"absent"), None);
    }

    /// Model check against a `HashMap`: arbitrary interleavings of insert,
    /// duplicate insert, lookup and clear agree with the reference map.
    #[test]
    fn random_ops_match_reference_map() {
        use std::collections::HashMap;
        for_each_case(0x1d_c0ffee, 256, |seed, rng| {
            let mut ix = ConfigIndex::new();
            let mut reference: HashMap<Vec<u8>, NodeId> = HashMap::new();
            for step in 0..rng.range_usize(1..120) {
                let key: Vec<u8> = (0..rng.range_usize(1..24)).map(|_| rng.next_u8() & 3).collect();
                match rng.range_u32(0..4) {
                    0 => {
                        let head = step as NodeId;
                        insert_bytes(&mut ix, &key, head);
                        reference.insert(key, head);
                    }
                    1 if rng.range_u32(0..20) == 0 => {
                        ix.clear();
                        reference.clear();
                    }
                    _ => {
                        assert_eq!(
                            ix.lookup(hash64(&key), &key),
                            reference.get(&key).copied(),
                            "seed {seed:#x}"
                        );
                    }
                }
                assert_eq!(ix.len(), reference.len(), "seed {seed:#x}");
            }
            for (key, head) in &reference {
                assert_eq!(ix.lookup(hash64(key), key), Some(*head), "seed {seed:#x}");
            }
        });
    }
}
