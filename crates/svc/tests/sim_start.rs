//! What building the simulated store costs the memory system: its start
//! pays only for the memory its prefill fills. The arena and the HTM
//! conflict table arrive zeroed from the kernel, untouched, and the
//! prefill writes about 7 MiB of nodes, so with transparent huge pages
//! the build takes a few dozen minor faults. Writing either the arena
//! or the table up front costs thousands of faults (the table is not
//! advised onto huge pages) and tens of MiB of resident memory.
//!
//! Its own test binary, with one test, so no other test's allocations
//! land in the counts.

use svc::procstat;
use workloads::backend::SimBackend;
use workloads::sharded::buckets_per_shard;
use workloads::SchemeKind;

/// The `svc-sim` store: `rwled --backend sim` at its default sizes.
const SHARDS: usize = 16;
const PREFILL: u64 = 100_000;
const CAPACITY: u64 = 400_000;
const THREADS: usize = 4;

/// Minor faults the build may take with huge pages available (about 20
/// once the arena and the table stay untouched, about 3 900 when the
/// table is written at start-up).
const FAULT_BUDGET: u64 = 512;

/// Resident memory the build may add: the prefill's nodes and bucket
/// arrays fill about 8 MiB; writing the 35 MiB arena or the 14 MB
/// table adds either.
const RSS_BUDGET_KIB: u64 = 16 * 1024;

/// `VmRSS` of this process in KiB, where `/proc` has it.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Whether the kernel serves `madvise(MADV_HUGEPAGE)` ranges huge pages
/// (`always` or `madvise`). Without them the prefill's 7 MiB are about
/// 1 800 faults of 4 KiB, and only the resident-memory budget applies.
fn huge_pages_on() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| !mode.contains("[never]"))
}

#[test]
fn the_sim_store_build_pays_only_for_what_it_fills() {
    let (Some(faults_before), Some(rss_before)) = (procstat::minor_faults("self"), rss_kib())
    else {
        eprintln!("skipped: no /proc/self/stat or /proc/self/status here");
        return;
    };
    let store = SimBackend::create(
        SchemeKind::RwLeOpt,
        SHARDS,
        buckets_per_shard(PREFILL, SHARDS),
        PREFILL,
        CAPACITY,
        THREADS,
        1,
    )
    .expect("the svc-sim store builds");
    let faults = procstat::minor_faults("self").expect("read once") - faults_before;
    let rss = rss_kib().expect("read once").saturating_sub(rss_before);
    eprintln!("build: {faults} minor faults, {rss} KiB resident");
    assert!(
        rss < RSS_BUDGET_KIB,
        "the build made {rss} KiB resident (budget {RSS_BUDGET_KIB}): \
         is the arena or the conflict table written at start-up?"
    );
    if huge_pages_on() {
        assert!(
            faults < FAULT_BUDGET,
            "the build took {faults} minor faults (budget {FAULT_BUDGET}): \
             is the arena or the conflict table written at start-up?"
        );
    }
    drop(store);
}
