//! `xlint`: workspace-native protocol-conformance linter.
//!
//! Machine-checks what PROTOCOL.md promises about the RW-LE
//! implementation: the atomics audit (A1, against `docs/orderings.toml`),
//! unsafe hygiene (A2), scheduler spin discipline (A3), suspend-closure
//! purity (A4), the test-sleep ban (A5), and litmus coverage of the
//! ordering dichotomies (A6, against the `wmm` suites). Free of external
//! dependencies by design — it must build in the offline container
//! before anything else does; its only workspace dependency is `wmm`,
//! which backs A6 and the `mutate` subcommand.

pub mod lexer;
pub mod lints;
pub mod manifest;
pub mod scan;
pub mod table;

use lints::{Finding, SiteGroup};
use manifest::Manifest;
use std::path::{Path, PathBuf};

/// The crates whose `Ordering::*` sites the manifest must cover and to
/// which all five lints apply. `workloads` joined the list when the
/// native backend landed: its copy-on-write publication runs on real
/// hardware memory, so its orderings are protocol, not hygiene.
/// `rind` joined with the reader-indicator layer: its bias word and
/// visible-readers table are the read-side half of the NS fallback
/// protocol. `wal` joined with the durability layer: its durable
/// frontier is the publication edge that lets an acked reply imply a
/// synced record.
pub const LINT_CRATES: [&str; 11] = [
    "epoch",
    "htm",
    "rwle",
    "hle",
    "locks",
    "rind",
    "rlu",
    "sched",
    "svc",
    "wal",
    "workloads",
];

/// Crates outside the protocol core that still get the hygiene lints
/// (A2–A5) but whose `Ordering::*` sites the manifest does not track —
/// simulated memory is sequentially consistent by construction, the
/// bench/stats layers publish nothing through atomics, and `wmm`'s
/// memory model speaks its own `MemOrder` vocabulary (its exploration
/// state lives under a mutex precisely so no real atomics are needed).
pub const HYGIENE_CRATES: [&str; 4] = ["simmem", "stats", "bench", "wmm"];

/// Workspace-relative path of the orderings manifest.
pub const MANIFEST_PATH: &str = "docs/orderings.toml";

/// Workspace-relative path of the document carrying the generated table.
pub const PROTOCOL_PATH: &str = "docs/PROTOCOL.md";

/// Locates the workspace root: `--root` wins, else walk up from the
/// current directory looking for `crates/epoch`, else fall back to the
/// build-time manifest location.
pub fn find_root(explicit: Option<&str>) -> Result<PathBuf, String> {
    if let Some(r) = explicit {
        let p = PathBuf::from(r);
        if p.join("crates").join("epoch").is_dir() {
            return Ok(p);
        }
        return Err(format!("--root {r}: no crates/epoch directory there"));
    }
    if let Ok(mut cwd) = std::env::current_dir() {
        loop {
            if cwd.join("crates").join("epoch").is_dir() {
                return Ok(cwd);
            }
            if !cwd.pop() {
                break;
            }
        }
    }
    let baked = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if baked.join("crates").join("epoch").is_dir() {
        return Ok(baked);
    }
    Err("cannot locate the workspace root (looked for crates/epoch); pass --root".to_string())
}

/// All `.rs` files the lints apply to, as (workspace-relative path,
/// absolute path), sorted for deterministic output.
pub fn lint_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    files_of(root, &LINT_CRATES)
}

/// The hygiene-only file set (see [`HYGIENE_CRATES`]).
pub fn hygiene_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    files_of(root, &HYGIENE_CRATES)
}

fn files_of(root: &Path, crates: &[&str]) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    for krate in crates {
        let base = root.join("crates").join(krate);
        for sub in ["src", "tests", "benches"] {
            let dir = base.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut out)?;
            }
        }
    }
    let mut pairs = Vec::with_capacity(out.len());
    for abs in out {
        let rel = abs
            .strip_prefix(root)
            .map_err(|_| format!("{} escapes the root", abs.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        pairs.push((rel, abs));
    }
    pairs.sort();
    Ok(pairs)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads and parses the manifest.
pub fn load_manifest(root: &Path) -> Result<Manifest, String> {
    let path = root.join(MANIFEST_PATH);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Manifest::parse(&text).map_err(|e| format!("{MANIFEST_PATH}: {e}"))
}

/// Scans every lint-scope file and returns (per-file findings from
/// A2–A5, all A1 site groups).
pub fn scan_workspace(root: &Path) -> Result<(Vec<Finding>, Vec<SiteGroup>), String> {
    let mut findings = Vec::new();
    let mut groups = Vec::new();
    for (rel, abs) in lint_files(root)? {
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        let scan = scan::scan_source(&source);
        findings.extend(lints::check_file(&rel, &scan));
        groups.extend(lints::group_sites(&rel, &scan));
    }
    // Hygiene-only crates: A2–A5 apply, but their Ordering sites are out
    // of the manifest's scope.
    for (rel, abs) in hygiene_files(root)? {
        let source =
            std::fs::read_to_string(&abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
        findings.extend(lints::check_file(&rel, &scan::scan_source(&source)));
    }
    Ok((findings, groups))
}

/// Runs the full check (A1–A6) over the workspace; findings are sorted
/// by (file, line, lint).
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let manifest = load_manifest(root)?;
    let (mut findings, groups) = scan_workspace(root)?;
    findings.extend(lints::check_manifest(&manifest, &groups, MANIFEST_PATH));
    findings.extend(lints::check_litmus(&manifest, MANIFEST_PATH));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(findings)
}
