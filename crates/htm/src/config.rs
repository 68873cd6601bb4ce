//! HTM engine configuration.

/// Maximum number of thread slots supported by the runtime.
///
/// Reader tracking uses a 128-bit per-line bitmap (two `u64` words), so the
/// engine supports up to 128 concurrently registered threads — enough for
/// the paper's 80-way POWER8 experiments.
pub const MAX_SLOTS: usize = 128;

/// Configuration of the simulated HTM.
///
/// Capacity defaults are tuned so the paper's synthetic workloads hit the
/// published abort profiles: traversing a 200-element bucket (one line per
/// node) exceeds `htm_read_capacity` about half the time ("high capacity"
/// scenarios, ≈50% capacity aborts), while a 50-element bucket almost never
/// does (≈2%). Real POWER8 tracks roughly 8 KiB of transactional loads —
/// the same order of magnitude (64–128 lines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtmConfig {
    /// Maximum distinct lines a regular transaction may read.
    pub htm_read_capacity: u32,
    /// Maximum distinct lines a regular transaction may write.
    pub htm_write_capacity: u32,
    /// Maximum distinct lines a rollback-only transaction may write.
    /// ROT reads are untracked and therefore unbounded.
    pub rot_write_capacity: u32,
    /// Probability, per transactional access, of a simulated transient
    /// interrupt (page fault, TLB shootdown, scheduler tick) aborting the
    /// transaction. Models the VM-subsystem aborts of the paper's
    /// low-capacity/low-contention scenario. 0.0 disables injection.
    pub page_fault_prob: f64,
    /// Base seed for per-thread interrupt-injection RNGs (slot id is mixed
    /// in), making single-threaded tests deterministic.
    pub seed: u64,
    /// SMT group size: hardware threads of one core share transactional
    /// tracking resources (paper footnote 4). Slots `[k·g, (k+1)·g)` form
    /// a group; a transaction's effective capacity is the configured
    /// budget divided by the number of *concurrently active* transactions
    /// in its group. `1` disables sharing (each slot is its own core);
    /// the paper's POWER8 runs 8 threads per core.
    pub smt_group_size: u32,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            htm_read_capacity: 96,
            htm_write_capacity: 64,
            rot_write_capacity: 512,
            page_fault_prob: 0.0,
            seed: 0x5eed_1e55_c0ff_ee00,
            smt_group_size: 1,
        }
    }
}

impl HtmConfig {
    /// Returns the config with transient-interrupt injection enabled.
    pub fn with_page_faults(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.page_fault_prob = prob;
        self
    }

    /// Returns the config with the given RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with SMT resource sharing over groups of
    /// `group_size` slots.
    pub fn with_smt_group(mut self, group_size: u32) -> Self {
        assert!(group_size >= 1, "group size must be at least 1");
        self.smt_group_size = group_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = HtmConfig::default();
        assert!(c.htm_read_capacity > 0);
        assert!(c.rot_write_capacity > c.htm_write_capacity);
        assert_eq!(c.page_fault_prob, 0.0);
        assert_eq!(c.smt_group_size, 1);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_panics() {
        let _ = HtmConfig::default().with_page_faults(1.5);
    }
}
