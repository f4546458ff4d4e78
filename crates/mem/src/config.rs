//! Cache hierarchy configuration: a [`HierarchyConfig`] is an ordered list
//! of [`CacheLevelConfig`]s (level 0 is closest to the processor) plus bus
//! and DRAM parameters. It is what [`crate::CacheSim`] runs; the paper's
//! Table 1 machine is the two-level [`HierarchyConfig::table1`].

/// Maximum number of cache levels a [`HierarchyConfig`] may describe.
///
/// In-flight load state carries a fixed-size array of per-level MSHR
/// indices so it stays `Copy`; eight levels is far beyond any realistic
/// hierarchy.
pub const MAX_LEVELS: usize = 8;

/// What a store does when it reaches a cache level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum WritePolicy {
    /// The word is forwarded to the next level (one bus cycle) and the
    /// line, if present, is updated in place but stays clean.
    WriteThrough,
    /// The line is marked dirty on a hit; on a miss the level
    /// write-allocates the line from memory.
    WriteBack,
}

/// Parameters of one cache level in a [`HierarchyConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub bytes: u32,
    /// Associativity (ways).
    pub assoc: u32,
    /// Line size in bytes.
    pub line: u32,
    /// For level 0: cycles from issue to data ready on a hit. For deeper
    /// levels: extra cycles after the lookup resolves before data is
    /// ready (0 means the hit completes at lookup-resolution time, which
    /// is how the paper's two-level model behaves — the L1 miss latency
    /// already covers the L2 lookup).
    pub hit_latency: u32,
    /// Cycles from a miss at this level until the *next* level's lookup
    /// resolves (the paper's "usually a 6 cycle delay" for L1). Unused at
    /// the last level, whose misses go to memory over the bus.
    pub miss_latency: u32,
    /// Number of miss-status holding registers.
    pub mshrs: u32,
    /// Store handling at this level.
    pub write_policy: WritePolicy,
}

/// Configuration of an N-level non-blocking memory hierarchy.
///
/// `levels[0]` is the cache closest to the processor; the last level
/// fronts DRAM over a split-transaction bus of `bus_bytes` per cycle.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HierarchyConfig {
    /// The cache levels, nearest first. Must contain 1..=[`MAX_LEVELS`].
    pub levels: Vec<CacheLevelConfig>,
    /// DRAM access latency in cycles (before bus transfer).
    pub memory_latency: u32,
    /// Bus width in bytes (per bus cycle).
    pub bus_bytes: u32,
}

impl HierarchyConfig {
    /// The paper's Table 1 hierarchy:
    ///
    /// * non-blocking L1 and L2 data caches, 8 MSHRs each;
    /// * 16 KByte 2-way set-associative write-through L1;
    /// * 1 MByte 2-way set-associative write-back L2;
    /// * 8-byte-wide split-transaction bus.
    ///
    /// Latencies follow the paper's running example ("a load that first
    /// misses in the L1 cache (usually a 6 cycle delay), then misses in the
    /// L2 cache resulting in an additional delay depending on the current
    /// state of the cache").
    pub fn table1() -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![
                CacheLevelConfig {
                    bytes: 16 * 1024,
                    assoc: 2,
                    line: 32,
                    hit_latency: 2,
                    miss_latency: 6,
                    mshrs: 8,
                    write_policy: WritePolicy::WriteThrough,
                },
                CacheLevelConfig {
                    bytes: 1024 * 1024,
                    assoc: 2,
                    line: 64,
                    hit_latency: 0,
                    miss_latency: 0, // last level: misses go to memory
                    mshrs: 8,
                    write_policy: WritePolicy::WriteBack,
                },
            ],
            memory_latency: 40,
            bus_bytes: 8,
        }
    }

    /// A three-level hierarchy: the Table 1 L1, a smaller write-back L2,
    /// and a large L3 with a non-zero hit latency (so deep-level hits
    /// exercise the post-lookup wait state) over a wider bus.
    pub fn three_level() -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![
                CacheLevelConfig {
                    bytes: 16 * 1024,
                    assoc: 2,
                    line: 32,
                    hit_latency: 2,
                    miss_latency: 6,
                    mshrs: 8,
                    write_policy: WritePolicy::WriteThrough,
                },
                CacheLevelConfig {
                    bytes: 128 * 1024,
                    assoc: 4,
                    line: 64,
                    hit_latency: 0,
                    miss_latency: 12,
                    mshrs: 8,
                    write_policy: WritePolicy::WriteBack,
                },
                CacheLevelConfig {
                    bytes: 4 * 1024 * 1024,
                    assoc: 8,
                    line: 128,
                    hit_latency: 4,
                    miss_latency: 0, // last level: misses go to memory
                    mshrs: 16,
                    write_policy: WritePolicy::WriteBack,
                },
            ],
            memory_latency: 60,
            bus_bytes: 16,
        }
    }

    /// A single tiny write-back L1 straight onto the bus — the minimal
    /// depth-1 hierarchy (exercises write-allocate and dirty evictions at
    /// level 0, which the two-level model never does).
    pub fn tiny_l1() -> HierarchyConfig {
        HierarchyConfig {
            levels: vec![CacheLevelConfig {
                bytes: 4 * 1024,
                assoc: 2,
                line: 32,
                hit_latency: 1,
                miss_latency: 0, // last level: misses go to memory
                mshrs: 4,
                write_policy: WritePolicy::WriteBack,
            }],
            memory_latency: 40,
            bus_bytes: 8,
        }
    }

    /// Resolves a named preset (`"table1"`, `"three-level"`, `"tiny-l1"`).
    pub fn preset(name: &str) -> Option<HierarchyConfig> {
        match name {
            "table1" => Some(HierarchyConfig::table1()),
            "three-level" => Some(HierarchyConfig::three_level()),
            "tiny-l1" => Some(HierarchyConfig::tiny_l1()),
            _ => None,
        }
    }

    /// The names accepted by [`HierarchyConfig::preset`].
    pub fn preset_names() -> &'static [&'static str] {
        &["table1", "three-level", "tiny-l1"]
    }

    /// Number of cache levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Bus cycles needed to transfer one last-level line from memory.
    pub fn line_transfer_cycles(&self) -> u64 {
        let line = self.levels.last().map_or(0, |l| l.line);
        (line as u64).div_ceil(self.bus_bytes as u64)
    }

    /// Validates structural parameters with per-level error paths.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter, prefixed
    /// with the offending level where applicable.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels.is_empty() {
            return Err("hierarchy must have at least one cache level".into());
        }
        if self.levels.len() > MAX_LEVELS {
            return Err(format!(
                "hierarchy has {} levels; at most {MAX_LEVELS} are supported",
                self.levels.len()
            ));
        }
        let pow2 = |name: String, v: u32| -> Result<(), String> {
            if v == 0 || !v.is_power_of_two() {
                Err(format!("{name} must be a non-zero power of two, got {v}"))
            } else {
                Ok(())
            }
        };
        let last = self.levels.len() - 1;
        for (i, lvl) in self.levels.iter().enumerate() {
            pow2(format!("level {i}: bytes"), lvl.bytes)?;
            pow2(format!("level {i}: line"), lvl.line)?;
            if lvl.assoc == 0 {
                return Err(format!("level {i}: associativity must be non-zero"));
            }
            if lvl.mshrs == 0 {
                return Err(format!("level {i}: MSHR count must be non-zero"));
            }
            if lvl.mshrs > u16::MAX as u32 {
                return Err(format!("level {i}: MSHR count {} exceeds {}", lvl.mshrs, u16::MAX));
            }
            if !lvl.bytes.is_multiple_of(lvl.line * lvl.assoc) {
                return Err(format!("level {i}: capacity must be divisible by line × assoc"));
            }
            if i == 0 && lvl.hit_latency == 0 {
                return Err("level 0: hit latency must be non-zero".into());
            }
            if i < last && lvl.miss_latency == 0 {
                return Err(format!(
                    "level {i}: miss latency must be non-zero (it covers the level {} lookup)",
                    i + 1
                ));
            }
        }
        pow2("bus_bytes".into(), self.bus_bytes)?;
        if self.memory_latency == 0 {
            return Err("memory latency must be non-zero".into());
        }
        let last_line = self.levels[last].line;
        if self.bus_bytes > last_line || !last_line.is_multiple_of(self.bus_bytes) {
            return Err(format!(
                "bus width {} must divide the last-level line size {last_line}",
                self.bus_bytes
            ));
        }
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> HierarchyConfig {
        HierarchyConfig::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_transfer() {
        assert_eq!(HierarchyConfig::table1().line_transfer_cycles(), 8); // 64B / 8B
        assert_eq!(HierarchyConfig::three_level().line_transfer_cycles(), 8); // 128B / 16B
    }

    #[test]
    fn presets_are_valid() {
        for name in HierarchyConfig::preset_names() {
            let h = HierarchyConfig::preset(name).expect("known preset");
            assert_eq!(h.validate(), Ok(()), "{name}");
        }
        assert!(HierarchyConfig::preset("no-such").is_none());
        assert_eq!(HierarchyConfig::three_level().depth(), 3);
        assert_eq!(HierarchyConfig::tiny_l1().depth(), 1);
    }

    /// One case per check of [`HierarchyConfig::validate`].
    #[test]
    fn hierarchy_validate_reports_the_level() {
        let rejects = |edit: &dyn Fn(&mut HierarchyConfig)| {
            let mut h = HierarchyConfig::table1();
            edit(&mut h);
            h.validate().expect_err("the edit makes the hierarchy invalid")
        };
        assert_eq!(
            rejects(&|h| h.levels.clear()),
            "hierarchy must have at least one cache level"
        );
        assert!(rejects(&|h| h.levels = vec![h.levels[0]; MAX_LEVELS + 1]).contains("at most"));
        assert_eq!(
            rejects(&|h| h.levels[0].bytes = 3000),
            "level 0: bytes must be a non-zero power of two, got 3000"
        );
        assert_eq!(
            rejects(&|h| h.levels[1].line = 48),
            "level 1: line must be a non-zero power of two, got 48"
        );
        assert_eq!(
            rejects(&|h| h.levels[1].assoc = 0),
            "level 1: associativity must be non-zero"
        );
        assert_eq!(rejects(&|h| h.levels[0].mshrs = 0), "level 0: MSHR count must be non-zero");
        assert_eq!(
            rejects(&|h| h.levels[1].mshrs = 1 << 16),
            "level 1: MSHR count 65536 exceeds 65535"
        );
        assert_eq!(
            rejects(&|h| h.levels[0].assoc = 3), // 16384 % (32 * 3) != 0
            "level 0: capacity must be divisible by line × assoc"
        );
        assert_eq!(
            rejects(&|h| h.levels[0].hit_latency = 0),
            "level 0: hit latency must be non-zero"
        );
        assert!(rejects(&|h| h.levels[0].miss_latency = 0).starts_with("level 0: miss latency"));
        assert_eq!(
            rejects(&|h| h.bus_bytes = 12),
            "bus_bytes must be a non-zero power of two, got 12"
        );
        assert_eq!(rejects(&|h| h.memory_latency = 0), "memory latency must be non-zero");
        assert_eq!(
            rejects(&|h| h.bus_bytes = 128), // wider than the 64 B L2 line
            "bus width 128 must divide the last-level line size 64"
        );

        // A deeper level names itself.
        let mut h = HierarchyConfig::three_level();
        h.levels[1].mshrs = 0;
        assert_eq!(h.validate(), Err("level 1: MSHR count must be non-zero".into()));
        let mut h = HierarchyConfig::three_level();
        h.levels[1].miss_latency = 0;
        assert!(h.validate().unwrap_err().starts_with("level 1: miss latency"));
    }
}
