//! The non-blocking cache hierarchy timing simulator.

use crate::config::{HierarchyConfig, WritePolicy, MAX_LEVELS};

/// Identifier for an outstanding load, assigned by the caller.
///
/// The FastSim engine uses the load's global `lQ` sequence number, which
/// keeps the µ-architecture state free of cache bookkeeping (a requirement
/// for small memoizable configurations).
pub type LoadId = u64;

/// Result of polling an outstanding load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PollResult {
    /// The data is available; the load is complete and forgotten.
    Ready,
    /// The data is not yet available; poll again after this many cycles.
    Wait(u32),
}

/// Aggregate counters collected by the cache simulator.
///
/// The `l1_*`/`l2_*` fields mirror the paper's two-level reporting and map
/// to levels 0 and 1 of the hierarchy (deeper levels appear only in
/// [`CacheSim::level_stats`]); `writebacks` and `mshr_stall_cycles` sum
/// over every level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Level 0 (L1) load hits.
    pub l1_hits: u64,
    /// Level 0 (L1) load misses.
    pub l1_misses: u64,
    /// Level 1 (L2) load hits (after an L1 miss).
    pub l2_hits: u64,
    /// Level 1 (L2) load misses.
    pub l2_misses: u64,
    /// Dirty lines written back (all levels).
    pub writebacks: u64,
    /// Cycles requests spent queued for a free MSHR (all levels).
    pub mshr_stall_cycles: u64,
}

/// Counters for one level of the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LevelStats {
    /// Load lookups that hit at this level.
    pub hits: u64,
    /// Load lookups that missed at this level.
    pub misses: u64,
    /// Cycles requests spent queued for one of this level's MSHRs.
    pub mshr_stall_cycles: u64,
    /// Dirty lines written back out of this level.
    pub writebacks: u64,
}

/// One cache line's bookkeeping.
#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Smaller is more recently used.
    lru: u32,
}

/// One set-associative tag array (tags only; this is a timing model).
#[derive(Clone, Debug)]
struct Tags {
    lines: Vec<Line>,
    sets: u32,
    assoc: u32,
    line_shift: u32,
}

impl Tags {
    fn new(bytes: u32, assoc: u32, line: u32) -> Tags {
        let sets = bytes / (line * assoc);
        Tags {
            lines: vec![Line::default(); (sets * assoc) as usize],
            sets,
            assoc,
            line_shift: line.trailing_zeros(),
        }
    }

    fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) % self.sets
    }

    fn tag_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) / self.sets
    }

    fn set_slice(&mut self, set: u32) -> &mut [Line] {
        let start = (set * self.assoc) as usize;
        &mut self.lines[start..start + self.assoc as usize]
    }

    /// Probes for `addr`; on hit refreshes LRU and returns `true`.
    fn access(&mut self, addr: u32) -> bool {
        let (set, tag) = (self.set_of(addr), self.tag_of(addr));
        let ways = self.set_slice(set);
        let hit = ways.iter().position(|l| l.valid && l.tag == tag);
        match hit {
            Some(w) => {
                let stamp = ways[w].lru;
                for l in ways.iter_mut() {
                    if l.lru < stamp {
                        l.lru += 1;
                    }
                }
                ways[w].lru = 0;
                true
            }
            None => false,
        }
    }

    /// Marks the line holding `addr` dirty (caller must have hit).
    fn mark_dirty(&mut self, addr: u32) {
        let (set, tag) = (self.set_of(addr), self.tag_of(addr));
        for l in self.set_slice(set) {
            if l.valid && l.tag == tag {
                l.dirty = true;
            }
        }
    }

    /// Fills the line for `addr`, evicting the LRU way.
    /// Returns the victim's address if a dirty line was evicted (it needs
    /// a write-back).
    fn fill(&mut self, addr: u32, dirty: bool) -> Option<u32> {
        let (set, tag) = (self.set_of(addr), self.tag_of(addr));
        let sets = self.sets;
        let line_shift = self.line_shift;
        let ways = self.set_slice(set);
        // If already present (e.g. racing fills to the same line), refresh.
        if let Some(w) = ways.iter().position(|l| l.valid && l.tag == tag) {
            ways[w].dirty |= dirty;
            return None;
        }
        let victim = ways
            .iter()
            .enumerate()
            .max_by_key(|(_, l)| if l.valid { l.lru } else { u32::MAX })
            .map(|(i, _)| i)
            .expect("associativity is non-zero");
        let evicted = (ways[victim].valid && ways[victim].dirty)
            .then(|| (ways[victim].tag * sets + set) << line_shift);
        ways[victim] = Line { tag, valid: true, dirty, lru: 0 };
        for (i, l) in ways.iter_mut().enumerate() {
            if i != victim && l.valid {
                l.lru = l.lru.saturating_add(1);
            }
        }
        evicted
    }
}

/// One level's runtime state.
#[derive(Clone, Debug)]
struct LevelState {
    tags: Tags,
    /// Cycle at which each of this level's MSHRs becomes free.
    mshr_free: Vec<u64>,
}

/// Phase of an outstanding load.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// A hit has been resolved (MSHRs released); data ready at the cycle.
    ReadyAt { ready: u64 },
    /// Missed at every level above `level`; that level's lookup resolves
    /// at the stored cycle. MSHRs are held at levels `0..level`.
    Lookup { level: u8, at: u64 },
    /// Missed at every level; memory delivers at the stored cycle. MSHRs
    /// are held at every level.
    MemWait { ready: u64 },
}

/// An outstanding (in-flight) load.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    addr: u32,
    phase: Phase,
    /// The MSHR index this load holds at each level it has missed in
    /// (meaningful for levels below the current phase's frontier).
    mshrs: [u16; MAX_LEVELS],
}

/// Timing simulator for an N-level non-blocking data cache hierarchy.
///
/// See the [crate-level documentation](crate) for the protocol. Calls must
/// use non-decreasing `now` cycles; this is asserted in debug builds.
///
/// # Example
///
/// ```
/// use fastsim_mem::{CacheSim, HierarchyConfig, PollResult};
///
/// let mut c = CacheSim::new(HierarchyConfig::table1());
/// let interval = c.issue_load(0, 0x8000, 4, 100);
/// let mut now = 100 + interval as u64;
/// loop {
///     match c.poll_load(0, now) {
///         PollResult::Ready => break,
///         PollResult::Wait(w) => now += w as u64,
///     }
/// }
/// // A second access to the same line now hits in L1.
/// let again = c.issue_load(1, 0x8004, 4, now);
/// assert_eq!(again, c.hierarchy().levels[0].hit_latency);
/// ```
#[derive(Clone, Debug)]
pub struct CacheSim {
    hierarchy: HierarchyConfig,
    levels: Vec<LevelState>,
    /// Cycle at which the split-transaction bus is next free.
    bus_free: u64,
    /// Outstanding loads, searched linearly: the pipeline polls or cancels
    /// every load it issues, so the table never outgrows its window.
    in_flight: Vec<(LoadId, InFlight)>,
    stats: CacheStats,
    level_stats: Vec<LevelStats>,
    #[cfg(debug_assertions)]
    last_now: u64,
}

impl CacheSim {
    /// Creates a cache simulator for the given hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`].
    pub fn new(hierarchy: HierarchyConfig) -> CacheSim {
        if let Err(e) = hierarchy.validate() {
            panic!("invalid cache config: {e}");
        }
        let levels = hierarchy
            .levels
            .iter()
            .map(|l| LevelState {
                tags: Tags::new(l.bytes, l.assoc, l.line),
                mshr_free: vec![0; l.mshrs as usize],
            })
            .collect();
        CacheSim {
            levels,
            bus_free: 0,
            in_flight: Vec::new(),
            stats: CacheStats::default(),
            level_stats: vec![LevelStats::default(); hierarchy.levels.len()],
            hierarchy,
            #[cfg(debug_assertions)]
            last_now: 0,
        }
    }

    /// The hierarchy this simulator was built with.
    pub fn hierarchy(&self) -> &HierarchyConfig {
        &self.hierarchy
    }

    /// Aggregate counters collected so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Per-level counters, nearest level first.
    pub fn level_stats(&self) -> &[LevelStats] {
        &self.level_stats
    }

    /// Number of loads currently in flight.
    pub fn outstanding(&self) -> usize {
        self.in_flight.len()
    }

    /// The `in_flight` slot holding `id`.
    fn slot(&self, id: LoadId) -> Option<usize> {
        self.in_flight.iter().position(|&(i, _)| i == id)
    }

    #[cfg(debug_assertions)]
    fn check_time(&mut self, now: u64) {
        debug_assert!(now >= self.last_now, "cache calls must not go back in time");
        self.last_now = now;
    }

    #[cfg(not(debug_assertions))]
    fn check_time(&mut self, _now: u64) {}

    fn record_hit(&mut self, level: usize) {
        self.level_stats[level].hits += 1;
        match level {
            0 => self.stats.l1_hits += 1,
            1 => self.stats.l2_hits += 1,
            _ => {}
        }
    }

    fn record_miss(&mut self, level: usize) {
        self.level_stats[level].misses += 1;
        match level {
            0 => self.stats.l1_misses += 1,
            1 => self.stats.l2_misses += 1,
            _ => {}
        }
    }

    /// Allocates the level's MSHR that frees earliest; returns
    /// (index, stall), charging the stall to the level and the aggregate.
    fn alloc_mshr(&mut self, level: usize, now: u64) -> (usize, u64) {
        let (idx, &earliest) = self.levels[level]
            .mshr_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("MSHR count is non-zero");
        let stall = earliest.saturating_sub(now);
        self.level_stats[level].mshr_stall_cycles += stall;
        self.stats.mshr_stall_cycles += stall;
        (idx, stall)
    }

    /// Fills `addr` into level `k`, handling a dirty eviction: the victim
    /// is written back to the next level (marking it dirty there), or over
    /// the bus to memory if `k` is the last level.
    fn fill_level(&mut self, k: usize, addr: u32, dirty: bool, now: u64) {
        if let Some(victim) = self.levels[k].tags.fill(addr, dirty) {
            self.level_stats[k].writebacks += 1;
            self.stats.writebacks += 1;
            if k + 1 == self.levels.len() {
                self.bus_free = self.bus_free.max(now) + self.hierarchy.line_transfer_cycles();
            } else {
                self.fill_level(k + 1, victim, true, now);
            }
        }
    }

    /// Starts the memory fetch for a load that missed at the last level:
    /// arbitrates for the bus, extends every held MSHR to the delivery
    /// cycle, and returns that cycle.
    fn start_memory_fetch(&mut self, entry: &InFlight, stall: u64, now: u64) -> u64 {
        let transfer = self.hierarchy.line_transfer_cycles();
        let bus_start = self.bus_free.max(now + stall);
        self.bus_free = bus_start + transfer;
        let ready = bus_start + self.hierarchy.memory_latency as u64 + transfer;
        for (k, lvl) in self.levels.iter_mut().enumerate() {
            lvl.mshr_free[entry.mshrs[k] as usize] = ready;
        }
        ready
    }

    /// Issues a load of `width` bytes at `addr` starting at cycle `now`.
    ///
    /// Returns the shortest interval, in cycles, before the data could be
    /// available. The caller should wait that long and then call
    /// [`CacheSim::poll_load`] with the same `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already in flight.
    pub fn issue_load(&mut self, id: LoadId, addr: u32, width: u32, now: u64) -> u32 {
        self.check_time(now);
        let _ = width; // timing model: width does not change latency
        self.stats.loads += 1;
        assert!(self.slot(id).is_none(), "load id {id} already in flight");
        let hit_latency = self.hierarchy.levels[0].hit_latency;
        if self.levels[0].tags.access(addr) {
            self.record_hit(0);
            let ready = now + hit_latency as u64;
            let entry = InFlight { addr, phase: Phase::ReadyAt { ready }, mshrs: [0; MAX_LEVELS] };
            self.in_flight.push((id, entry));
            return hit_latency;
        }
        self.record_miss(0);
        let (mshr, stall) = self.alloc_mshr(0, now);
        let mut entry =
            InFlight { addr, phase: Phase::ReadyAt { ready: 0 }, mshrs: [0; MAX_LEVELS] };
        entry.mshrs[0] = mshr as u16;
        let interval = if self.levels.len() == 1 {
            // Single-level hierarchy: the miss goes straight to memory.
            let ready = self.start_memory_fetch(&entry, stall, now);
            entry.phase = Phase::MemWait { ready };
            ready - now
        } else {
            // Hold the MSHR at least until the next lookup resolves;
            // extended if that lookup misses.
            let at = now + stall + self.hierarchy.levels[0].miss_latency as u64;
            self.levels[0].mshr_free[mshr] = at;
            entry.phase = Phase::Lookup { level: 1, at };
            at - now
        };
        self.in_flight.push((id, entry));
        interval as u32
    }

    /// Polls an outstanding load at cycle `now`.
    ///
    /// Either reports the data ready (completing the load) or returns a
    /// further interval to wait — mirroring the paper's interface, where a
    /// miss at level k+1 is only discovered on the poll after the level-k
    /// miss delay.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in flight.
    pub fn poll_load(&mut self, id: LoadId, now: u64) -> PollResult {
        self.check_time(now);
        let slot = self.slot(id).unwrap_or_else(|| panic!("poll of unknown load id {id}"));
        let entry = self.in_flight[slot].1;
        match entry.phase {
            Phase::ReadyAt { ready } | Phase::MemWait { ready } if now < ready => {
                PollResult::Wait((ready - now) as u32)
            }
            Phase::ReadyAt { .. } => {
                self.in_flight.swap_remove(slot);
                PollResult::Ready
            }
            Phase::Lookup { level, at } => {
                if now < at {
                    return PollResult::Wait((at - now) as u32);
                }
                let k = level as usize;
                if self.levels[k].tags.access(entry.addr) {
                    // Hit at level k: fill every nearer level and release
                    // the MSHRs held on the way down.
                    self.record_hit(k);
                    for j in (0..k).rev() {
                        self.fill_level(j, entry.addr, false, now);
                    }
                    for j in 0..k {
                        self.levels[j].mshr_free[entry.mshrs[j] as usize] = now;
                    }
                    let ready = at + self.hierarchy.levels[k].hit_latency as u64;
                    if now >= ready {
                        self.in_flight.swap_remove(slot);
                        PollResult::Ready
                    } else {
                        self.in_flight[slot].1.phase = Phase::ReadyAt { ready };
                        PollResult::Wait((ready - now) as u32)
                    }
                } else {
                    // Miss at level k: allocate this level's MSHR and
                    // descend — to the next lookup, or to memory from the
                    // last level.
                    self.record_miss(k);
                    let (mshr, stall) = self.alloc_mshr(k, now);
                    let mut entry = entry;
                    entry.mshrs[k] = mshr as u16;
                    if k + 1 == self.levels.len() {
                        let ready = self.start_memory_fetch(&entry, stall, now);
                        entry.phase = Phase::MemWait { ready };
                        self.in_flight[slot].1 = entry;
                        PollResult::Wait((ready - now) as u32)
                    } else {
                        let at = now + stall + self.hierarchy.levels[k].miss_latency as u64;
                        for j in 0..=k {
                            self.levels[j].mshr_free[entry.mshrs[j] as usize] = at;
                        }
                        entry.phase = Phase::Lookup { level: level + 1, at };
                        self.in_flight[slot].1 = entry;
                        PollResult::Wait((at - now) as u32)
                    }
                }
            }
            Phase::MemWait { .. } => {
                // Memory returned: fill every level, outermost first. The
                // last level's MSHR stays reserved until the scheduled
                // delivery; the nearer ones are released now.
                let last = self.levels.len() - 1;
                for j in (0..=last).rev() {
                    self.fill_level(j, entry.addr, false, now);
                }
                for j in 0..last {
                    self.levels[j].mshr_free[entry.mshrs[j] as usize] = now;
                }
                self.in_flight.swap_remove(slot);
                PollResult::Ready
            }
        }
    }

    /// Abandons an outstanding load (its instruction was squashed on a
    /// mispredicted path). Any MSHR it held stays reserved until the
    /// already-scheduled fill time — the hardware request is in flight and
    /// cannot be recalled — but no data will be reported for the id.
    ///
    /// Unknown ids are ignored (the load may already have completed).
    pub fn cancel_load(&mut self, id: LoadId) {
        if let Some(slot) = self.slot(id) {
            self.in_flight.swap_remove(slot);
        }
    }

    /// Issues a store of `width` bytes at `addr` at cycle `now`.
    ///
    /// The store walks the hierarchy from level 0: each write-through
    /// level forwards the word to the next level over one bus slot and
    /// updates its line in place; the first write-back level absorbs the
    /// store — marking the line dirty on a hit, write-allocating it from
    /// memory on a miss. Stores complete asynchronously; they influence
    /// subsequent load timing through bus and MSHR occupancy.
    pub fn issue_store(&mut self, addr: u32, width: u32, now: u64) {
        self.check_time(now);
        let _ = width;
        self.stats.stores += 1;
        for k in 0..self.levels.len() {
            match self.hierarchy.levels[k].write_policy {
                WritePolicy::WriteThrough => {
                    // The word travels onward over one bus slot; a present
                    // line is updated in place and stays clean.
                    self.bus_free = self.bus_free.max(now) + 1;
                    self.levels[k].tags.access(addr);
                }
                WritePolicy::WriteBack => {
                    if self.levels[k].tags.access(addr) {
                        self.levels[k].tags.mark_dirty(addr);
                    } else {
                        // Write-allocate: fetch the line from memory.
                        let (mshr, stall) = self.alloc_mshr(k, now);
                        let transfer = self.hierarchy.line_transfer_cycles();
                        let bus_start = self.bus_free.max(now + stall);
                        self.bus_free = bus_start + transfer;
                        self.levels[k].mshr_free[mshr] =
                            bus_start + self.hierarchy.memory_latency as u64 + transfer;
                        self.fill_level(k, addr, true, now);
                    }
                    return;
                }
            }
        }
        // Every level was write-through: the word has gone to memory.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;

    fn sim() -> CacheSim {
        CacheSim::new(HierarchyConfig::table1())
    }

    /// Drives a load to completion; returns total latency in cycles.
    fn complete_load(c: &mut CacheSim, id: LoadId, addr: u32, start: u64) -> u64 {
        let mut now = start + c.issue_load(id, addr, 4, start) as u64;
        loop {
            match c.poll_load(id, now) {
                PollResult::Ready => return now - start,
                PollResult::Wait(w) => now += w as u64,
            }
        }
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut c = sim();
        let lat = complete_load(&mut c, 0, 0x1_0000, 0);
        let cfg = HierarchyConfig::table1();
        // L1 miss (6) + memory (40) + line transfer (8).
        let expected = cfg.levels[0].miss_latency as u64
            + cfg.memory_latency as u64
            + cfg.line_transfer_cycles();
        assert_eq!(lat, expected);
        assert_eq!(c.stats().l1_misses, 1);
        assert_eq!(c.stats().l2_misses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut c = sim();
        complete_load(&mut c, 0, 0x1_0000, 0);
        let lat = complete_load(&mut c, 1, 0x1_0004, 1000);
        assert_eq!(lat, HierarchyConfig::table1().levels[0].hit_latency as u64);
        assert_eq!(c.stats().l1_hits, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut c = sim();
        let l1 = HierarchyConfig::table1().levels[0];
        // Fill one L1 set three times over: set stride = bytes / assoc.
        let stride = l1.bytes / l1.assoc;
        let mut now = 0;
        for i in 0..3u32 {
            now += complete_load(&mut c, i as u64, 0x10_0000 + i * stride, now) + 10;
        }
        // First address was evicted from L1 but still lives in L2.
        let before_hits = c.stats().l2_hits;
        complete_load(&mut c, 99, 0x10_0000, now + 10);
        assert_eq!(c.stats().l2_hits, before_hits + 1);
    }

    #[test]
    fn mshr_saturation_delays_issue() {
        let mut c = sim();
        let cfg = HierarchyConfig::table1();
        let (l1, l2) = (cfg.levels[0], cfg.levels[1]);
        // Issue 8 misses to distinct lines at cycle 0 — all MSHRs busy.
        for i in 0..l1.mshrs {
            let addr = 0x20_0000 + i * l2.line * 4;
            let interval = c.issue_load(i as u64, addr, 4, 0);
            assert_eq!(interval, l1.miss_latency);
        }
        // The ninth miss must wait for an MSHR.
        let interval = c.issue_load(100, 0x40_0000, 4, 0);
        assert!(interval > l1.miss_latency, "ninth miss waits: {interval}");
        assert!(c.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn bus_contention_serializes_memory_fetches() {
        let mut c = sim();
        let cfg = HierarchyConfig::table1();
        // Two simultaneous L2 misses share the bus: second is slower.
        let i1 = c.issue_load(0, 0x30_0000, 4, 0) as u64;
        let i2 = c.issue_load(1, 0x38_0000, 4, 0) as u64;
        assert_eq!(i1, i2);
        let w1 = match c.poll_load(0, i1) {
            PollResult::Wait(w) => w,
            r => panic!("expected wait, got {r:?}"),
        };
        let w2 = match c.poll_load(1, i2) {
            PollResult::Wait(w) => w,
            r => panic!("expected wait, got {r:?}"),
        };
        assert_eq!(w2 as u64, w1 as u64 + cfg.line_transfer_cycles());
    }

    #[test]
    fn store_write_allocates_l2() {
        let mut c = sim();
        c.issue_store(0x50_0000, 4, 0);
        assert_eq!(c.stats().stores, 1);
        // The line is now in L2 (dirty); a load misses L1 but hits L2.
        complete_load(&mut c, 0, 0x50_0000, 100);
        assert_eq!(c.stats().l2_hits, 1);
        assert_eq!(c.stats().l2_misses, 0);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = sim();
        let l2 = HierarchyConfig::table1().levels[1];
        let stride = l2.bytes / l2.assoc;
        // Dirty a line, then force two more fills into the same L2 set.
        c.issue_store(0x60_0000, 4, 0);
        let mut now = 100;
        for i in 1..=2u32 {
            now += complete_load(&mut c, i as u64, 0x60_0000 + i * stride, now) + 10;
        }
        assert!(c.stats().writebacks >= 1);
    }

    #[test]
    fn poll_before_ready_returns_remaining_wait() {
        let mut c = sim();
        let interval = c.issue_load(0, 0x70_0000, 4, 0);
        assert!(interval >= 2);
        match c.poll_load(0, 1) {
            PollResult::Wait(w) => assert_eq!(w, interval - 1),
            r => panic!("expected wait, got {r:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_id_panics() {
        let mut c = sim();
        c.issue_load(7, 0x1000, 4, 0);
        c.issue_load(7, 0x2000, 4, 0);
    }

    #[test]
    #[should_panic(expected = "poll of unknown load id")]
    fn poll_of_unknown_id_panics() {
        let mut c = sim();
        c.issue_load(7, 0x1000, 4, 0);
        c.poll_load(8, 10);
    }

    #[test]
    fn outstanding_tracks_in_flight() {
        let mut c = sim();
        assert_eq!(c.outstanding(), 0);
        c.issue_load(0, 0x1000, 4, 0);
        c.issue_load(1, 0x2000, 4, 0);
        assert_eq!(c.outstanding(), 2);
        complete_load(&mut c, 2, 0x3000, 10);
        assert_eq!(c.outstanding(), 2);
    }

    #[test]
    fn per_level_stats_mirror_the_aggregate_on_two_levels() {
        let mut c = sim();
        let mut now = 0;
        for i in 0..20u32 {
            now += complete_load(&mut c, i as u64, i * 0x1_0040, now) + 5;
            c.issue_store(i * 0x2_0080, 4, now);
            now += 3;
        }
        let (s, ls) = (*c.stats(), c.level_stats().to_vec());
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].hits, s.l1_hits);
        assert_eq!(ls[0].misses, s.l1_misses);
        assert_eq!(ls[1].hits, s.l2_hits);
        assert_eq!(ls[1].misses, s.l2_misses);
        assert_eq!(ls[0].writebacks + ls[1].writebacks, s.writebacks);
        assert_eq!(
            ls[0].mshr_stall_cycles + ls[1].mshr_stall_cycles,
            s.mshr_stall_cycles
        );
        assert_eq!(ls[0].writebacks, 0, "a write-through L1 never holds dirty lines");
    }

    /// A deliberately tiny three-level hierarchy whose eviction patterns
    /// are easy to construct by hand.
    fn small_three_level() -> HierarchyConfig {
        let lvl = |bytes, hit, miss, policy| CacheLevelConfig {
            bytes,
            assoc: 1,
            line: 32,
            hit_latency: hit,
            miss_latency: miss,
            mshrs: 2,
            write_policy: policy,
        };
        HierarchyConfig {
            levels: vec![
                lvl(64, 1, 2, WritePolicy::WriteThrough),
                lvl(128, 3, 4, WritePolicy::WriteBack),
                lvl(256, 5, 0, WritePolicy::WriteBack),
            ],
            memory_latency: 10,
            bus_bytes: 8,
        }
    }

    #[test]
    fn three_level_cold_miss_walks_every_level() {
        let mut c = CacheSim::new(small_three_level());
        // miss L1 (2) + miss L2 (4) + memory (10) + transfer (32/8 = 4).
        assert_eq!(complete_load(&mut c, 0, 0, 0), 2 + 4 + 10 + 4);
        assert_eq!(c.level_stats()[0].misses, 1);
        assert_eq!(c.level_stats()[1].misses, 1);
        assert_eq!(c.level_stats()[2].misses, 1);
        // Same line again: L1 hit.
        assert_eq!(complete_load(&mut c, 1, 4, 100), 1);
    }

    #[test]
    fn deep_hit_latency_delays_completion() {
        let mut c = CacheSim::new(small_three_level());
        complete_load(&mut c, 0, 0, 0); // fills all levels with line 0
        // Evict line 0 from L1 (2 sets, direct-mapped: 64 B stride) and
        // from L2 (4 sets: 128 B stride), leaving it only in L3.
        complete_load(&mut c, 1, 64, 100);
        complete_load(&mut c, 2, 128, 200);
        let before = c.level_stats()[2].hits;
        // L1 miss (2) + L2 miss (4) + L3 hit latency (5).
        assert_eq!(complete_load(&mut c, 3, 0, 300), 2 + 4 + 5);
        assert_eq!(c.level_stats()[2].hits, before + 1);
    }

    #[test]
    fn mid_level_hit_uses_its_hit_latency() {
        let mut c = CacheSim::new(small_three_level());
        complete_load(&mut c, 0, 0, 0);
        // Evict line 0 from L1 only; it stays resident in L2.
        complete_load(&mut c, 1, 64, 100);
        // L1 miss (2) + L2 hit latency (3).
        assert_eq!(complete_load(&mut c, 2, 0, 200), 2 + 3);
        assert_eq!(c.level_stats()[1].hits, 1);
    }

    #[test]
    fn single_level_write_back_hierarchy() {
        let h = HierarchyConfig::tiny_l1();
        let stride = h.levels[0].bytes / h.levels[0].assoc;
        let mut c = CacheSim::new(h.clone());
        // Cold load: straight to memory — no deeper lookup phase.
        assert_eq!(
            complete_load(&mut c, 0, 0, 0),
            h.memory_latency as u64 + h.line_transfer_cycles()
        );
        assert_eq!(c.level_stats().len(), 1);
        // Stores write-allocate and dirty the level-0 lines; overflowing
        // the set forces a dirty eviction out of the only level.
        let mut now = 100;
        for i in 0..3u32 {
            c.issue_store(0x8000 + i * stride, 4, now);
            now += 50;
        }
        assert!(c.level_stats()[0].writebacks >= 1, "dirty eviction at level 0");
        assert_eq!(c.stats().writebacks, c.level_stats()[0].writebacks);
    }

    #[test]
    fn mid_level_dirty_eviction_cascades_to_next_level() {
        let mut c = CacheSim::new(small_three_level());
        // Dirty line 0 in L2 (write-back level): store misses L2 and
        // write-allocates it dirty.
        c.issue_store(0, 4, 0);
        assert_eq!(c.level_stats()[1].writebacks, 0);
        // Force two more L2 fills into set 0 (128 B stride, direct
        // mapped): the second evicts dirty line 0, writing it back into
        // L3 rather than over the bus.
        complete_load(&mut c, 0, 128, 100);
        assert_eq!(c.level_stats()[1].writebacks, 1);
        assert_eq!(c.level_stats()[2].writebacks, 0);
        // The victim now lives dirty in L3 set 0; the next fill into that
        // set (addr 256) evicts it over the bus — a level-2 writeback.
        complete_load(&mut c, 1, 256, 200);
        assert_eq!(c.level_stats()[2].writebacks, 1);
        assert_eq!(c.stats().writebacks, 2);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use fastsim_hash::{fnv1a_lane, FNV1A_OFFSET};
    use fastsim_prng::{for_each_case, Rng};

    /// One step of a random access pattern.
    #[derive(Clone, Debug)]
    enum Access {
        Load { addr: u32, gap: u8 },
        Store { addr: u32, gap: u8 },
    }

    fn random_accesses(rng: &mut Rng) -> Vec<Access> {
        (0..rng.range_usize(1..60))
            .map(|_| {
                let addr = rng.range_u32(0..0x20_0000);
                let gap = rng.next_u8();
                if rng.next_bool() {
                    Access::Load { addr, gap }
                } else {
                    Access::Store { addr, gap }
                }
            })
            .collect()
    }

    fn presets() -> Vec<HierarchyConfig> {
        vec![
            HierarchyConfig::table1(),
            HierarchyConfig::three_level(),
            HierarchyConfig::tiny_l1(),
        ]
    }

    /// Every load completes in a bounded number of polls, counters stay
    /// consistent, and intervals are always non-zero while waiting — at
    /// every hierarchy depth.
    #[test]
    fn random_loads_always_complete() {
        for_each_case(0xcac4e, 64, |seed, rng| {
            let accesses = random_accesses(rng);
            for h in presets() {
                let depth = h.depth();
                let mut c = CacheSim::new(h);
                let mut now: u64 = 0;
                let mut id: LoadId = 0;
                for acc in &accesses {
                    match *acc {
                        Access::Load { addr, gap } => {
                            let interval = c.issue_load(id, addr & !3, 4, now);
                            assert!(interval > 0, "seed {seed:#x}");
                            let mut t = now + interval as u64;
                            let mut polls = 0;
                            loop {
                                match c.poll_load(id, t) {
                                    PollResult::Ready => break,
                                    PollResult::Wait(w) => {
                                        assert!(w > 0, "seed {seed:#x}");
                                        t += w as u64;
                                    }
                                }
                                polls += 1;
                                assert!(
                                    polls < 8 * depth,
                                    "load must complete quickly (seed {seed:#x})"
                                );
                            }
                            now = t + gap as u64;
                            id += 1;
                        }
                        Access::Store { addr, gap } => {
                            c.issue_store(addr & !3, 4, now);
                            now += gap as u64;
                        }
                    }
                }
                let s = *c.stats();
                let ls = c.level_stats();
                assert_eq!(s.loads, id, "seed {seed:#x}");
                assert_eq!(ls[0].hits + ls[0].misses, s.loads, "seed {seed:#x}");
                for k in 1..depth {
                    assert_eq!(
                        ls[k].hits + ls[k].misses,
                        ls[k - 1].misses,
                        "seed {seed:#x}: level {k} lookups equal level {} misses",
                        k - 1
                    );
                }
                assert_eq!(
                    ls.iter().map(|l| l.writebacks).sum::<u64>(),
                    s.writebacks,
                    "seed {seed:#x}"
                );
                assert_eq!(c.outstanding(), 0, "seed {seed:#x}");
            }
        });
    }

    /// The same access sequence always produces the same timings — the
    /// determinism the memoizer's outcome checks rely on.
    #[test]
    fn random_cache_is_deterministic() {
        for_each_case(0xd37e2, 64, |seed, rng| {
            let addrs: Vec<u32> =
                (0..rng.range_usize(1..40)).map(|_| rng.range_u32(0..0x10_0000)).collect();
            let run = |addrs: &[u32], h: HierarchyConfig| -> Vec<u32> {
                let mut c = CacheSim::new(h);
                let mut out = Vec::new();
                let mut now = 0u64;
                for (i, &a) in addrs.iter().enumerate() {
                    let interval = c.issue_load(i as LoadId, a & !3, 4, now);
                    out.push(interval);
                    let mut t = now + interval as u64;
                    loop {
                        match c.poll_load(i as LoadId, t) {
                            PollResult::Ready => break,
                            PollResult::Wait(w) => {
                                out.push(w);
                                t += w as u64;
                            }
                        }
                    }
                    now = t;
                }
                out
            };
            for h in presets() {
                assert_eq!(run(&addrs, h.clone()), run(&addrs, h), "seed {seed:#x}");
            }
        });
    }

    /// Up to 16 loads in flight at once under sparse, non-monotonic ids,
    /// each polled only once its last interval has elapsed, interleaved
    /// with stores and with cancels of both outstanding and never-issued
    /// ids. Every interval, poll result and final counter folds into one
    /// digest, pinned so that a change to how loads are tracked cannot
    /// move the timing.
    #[test]
    fn many_loads_in_flight_with_cancels() {
        const MAX_OUTSTANDING: usize = 16;
        let mut digest = FNV1A_OFFSET;
        let mut peak = 0;
        for_each_case(0x10ad5, 64, |seed, rng| {
            for h in presets() {
                let mut c = CacheSim::new(h);
                // Outstanding loads: (id, address, cycle the last interval ends).
                let mut live: Vec<(LoadId, u32, u64)> = Vec::new();
                let mut now = 0u64;
                for _ in 0..2_000 {
                    now += rng.range_u64(0..4);
                    match rng.range_u32(0..10) {
                        0..=3 if live.len() < MAX_OUTSTANDING => {
                            // Odd ids from a pool of 256, so completed ids
                            // come back; an even id is never issued.
                            let id = loop {
                                let id =
                                    rng.range_u64(0..256).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                                if live.iter().all(|&(l, ..)| l != id) {
                                    break id;
                                }
                            };
                            let addr = rng.range_u32(0..0x8_0000) & !3;
                            let interval = c.issue_load(id, addr, 4, now);
                            assert!(interval > 0, "seed {seed:#x}");
                            fnv1a_lane(&mut digest, u64::from(interval));
                            live.push((id, addr, now + u64::from(interval)));
                        }
                        // A full window polls instead of issuing.
                        0..=5 if !live.is_empty() => {
                            let i = rng.range_usize(0..live.len());
                            now = now.max(live[i].2);
                            match c.poll_load(live[i].0, now) {
                                PollResult::Ready => {
                                    fnv1a_lane(&mut digest, 0);
                                    live.swap_remove(i);
                                }
                                PollResult::Wait(w) => {
                                    assert!(w > 0, "seed {seed:#x}");
                                    fnv1a_lane(&mut digest, u64::from(w));
                                    live[i].2 = now + u64::from(w);
                                }
                            }
                        }
                        6 => {
                            if rng.next_bool() && !live.is_empty() {
                                let i = rng.range_usize(0..live.len());
                                c.cancel_load(live.swap_remove(i).0);
                            } else {
                                c.cancel_load(rng.next_u64() & !1);
                            }
                        }
                        _ => {
                            // Stores share lines with the loads half the time.
                            let addr = match live.first() {
                                Some(&(_, a, _)) if rng.next_bool() => a,
                                _ => rng.range_u32(0..0x8_0000) & !3,
                            };
                            c.issue_store(addr, 4, now);
                        }
                    }
                    assert_eq!(c.outstanding(), live.len(), "seed {seed:#x}");
                    peak = peak.max(live.len());
                }
                let s = *c.stats();
                for v in [
                    s.loads,
                    s.stores,
                    s.l1_hits,
                    s.l1_misses,
                    s.l2_hits,
                    s.l2_misses,
                    s.writebacks,
                    s.mshr_stall_cycles,
                ] {
                    fnv1a_lane(&mut digest, v);
                }
                for l in c.level_stats() {
                    for v in [l.hits, l.misses, l.mshr_stall_cycles, l.writebacks] {
                        fnv1a_lane(&mut digest, v);
                    }
                }
            }
        });
        assert_eq!(peak, MAX_OUTSTANDING, "the sweep must fill the window");
        assert_eq!(digest, 0x968e_958a_31ef_f8c9, "digest {digest:#018x}");
    }
}
