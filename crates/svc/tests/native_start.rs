//! What building `svc-read`'s store costs the memory system: 16 shards
//! of 250 k keys, each a bulk build whose leaves (3.94 MiB a shard) are
//! reserved as one block and advised onto transparent huge pages over
//! every 2 MiB region they fill to at least 7/8. Both of a shard's
//! regions qualify, so with huge pages the 64 MiB of leaves take a few
//! dozen faults and the build about 570; advising only the regions the
//! leaves fill whole leaves the second on 4 KiB pages, about 8 450
//! faults.
//!
//! Its own test binary, with one test, so no other test's allocations
//! land in the counts. The fold's threads are the process's too:
//! `/proc/self/stat` counts their faults.

use svc::procstat;
use workloads::native::NativeBackend;

/// `svc-read`'s store: `rwled --backend native --prefill 4000000`.
const SHARDS: usize = 16;
const PREFILL: u64 = 4_000_000;
const THREADS: usize = 4;

/// Minor faults the build may take with huge pages available (about
/// 570 with every region advised, about 8 450 with the regions the
/// leaves fill in part left on 4 KiB pages).
const FAULT_BUDGET: u64 = 2048;

/// Resident memory the build may add: 64 MiB of leaves, with at most
/// 256 KiB a shard of advised region that no leaf fills, plus the
/// routing nodes.
const RSS_BUDGET_KIB: u64 = 72 * 1024;

/// `VmRSS` of this process in KiB, where `/proc` has it.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.split_whitespace().next()?.parse().ok()
}

/// Whether the kernel serves `madvise(MADV_HUGEPAGE)` ranges huge pages
/// (`always` or `madvise`). Without them the 64 MiB of leaves are about
/// 16 400 faults of 4 KiB, and only the resident-memory budget applies.
fn huge_pages_on() -> bool {
    std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .is_ok_and(|mode| !mode.contains("[never]"))
}

#[test]
fn the_native_store_build_puts_its_leaves_on_huge_pages() {
    let (Some(faults_before), Some(rss_before)) = (procstat::minor_faults("self"), rss_kib())
    else {
        eprintln!("skipped: no /proc/self/stat or /proc/self/status here");
        return;
    };
    let store = NativeBackend::create(SHARDS, THREADS, PREFILL);
    let faults = procstat::minor_faults("self").expect("read once") - faults_before;
    let rss = rss_kib().expect("read once").saturating_sub(rss_before);
    eprintln!("build: {faults} minor faults, {rss} KiB resident");
    assert!(
        rss < RSS_BUDGET_KIB,
        "the build made {rss} KiB resident (budget {RSS_BUDGET_KIB}): \
         does an advised region reach far past the leaves?"
    );
    if huge_pages_on() {
        assert!(
            faults < FAULT_BUDGET,
            "the build took {faults} minor faults (budget {FAULT_BUDGET}): \
             is a region the leaves fill to 7/8 left unadvised?"
        );
    }
    drop(store);
}
