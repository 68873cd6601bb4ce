//! What `/proc` tells about a process's memory: the minor page faults it
//! has taken and the transparent huge pages it holds. `rwled` reports
//! both for its start, and `recovery_time` reads them from the servers it
//! starts. Each is `None` where the platform has no such file.

/// The minor page faults process `pid` (a number, or `"self"`) has
/// taken so far: field 10 of `/proc/<pid>/stat`.
pub fn minor_faults(pid: &str) -> Option<u64> {
    parse_minor_faults(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// The KiB of transparent huge pages process `pid` holds:
/// `AnonHugePages` in `/proc/<pid>/smaps_rollup`.
pub fn huge_page_kib(pid: &str) -> Option<u64> {
    parse_huge_page_kib(&std::fs::read_to_string(format!("/proc/{pid}/smaps_rollup")).ok()?)
}

/// Field 10 of a stat line. Field 2, the command name, is in
/// parentheses and may hold spaces and parentheses itself, so the
/// fields are counted from the last `)`.
fn parse_minor_faults(stat: &str) -> Option<u64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    after_name.split_whitespace().nth(7)?.parse().ok()
}

fn parse_huge_page_kib(rollup: &str) -> Option<u64> {
    let line = rollup
        .lines()
        .find_map(|l| l.strip_prefix("AnonHugePages:"))?;
    line.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fields_are_read_where_proc_puts_them() {
        let stat = "4242 (rw (led) x) S 1 4242 4242 0 -1 4194560 8474 0 3 0 12 4";
        assert_eq!(parse_minor_faults(stat), Some(8474));
        assert_eq!(parse_minor_faults("4242 (rwled) S 1"), None);
        let rollup = "Rss:  69000 kB\nAnonymous:  68000 kB\nAnonHugePages:     32768 kB\n";
        assert_eq!(parse_huge_page_kib(rollup), Some(32768));
        assert_eq!(parse_huge_page_kib("Rss:  69000 kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn this_process_has_both() {
        assert!(minor_faults("self").is_some_and(|n| n > 0));
        assert!(huge_page_kib("self").is_some());
    }
}
