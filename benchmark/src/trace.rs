//! Spans around the calls into each layer.
//!
//! Each replay thread records into its own preallocated buffer (no
//! locks, no allocation while timing); buffers are collected and
//! written out when the replay ends. A span names its layer, its start
//! and end, the span that caused it and the batch it belongs to.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Index of a span's parent when it has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds after the trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (see `layers::SPAN_*`).
    pub name: &'static str,
    /// Index of the causing span in the same thread's buffer.
    pub parent: u32,
    /// Batch the span belongs to; spans of one batch share it.
    pub batch: u32,
    /// Start, ns after the epoch.
    pub start_ns: u64,
    /// End, ns after the epoch.
    pub end_ns: u64,
}

struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
    epoch: Instant,
    batch: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread into a buffer of `capacity` spans.
pub fn install(capacity: usize, epoch: Instant) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            epoch,
            batch: 0,
        })
    });
}

/// Stops recording on this thread and returns its spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Whether this thread's buffer has room for `n` more spans (true when
/// not recording: there is nothing to fill).
pub fn has_room(n: usize) -> bool {
    TRACER.with(|t| match &*t.borrow() {
        Some(t) => t.spans.capacity() - t.spans.len() >= n,
        None => true,
    })
}

/// Sets the batch id stamped on the spans that follow.
pub fn set_batch(batch: u32) {
    TRACER.with(|t| {
        if let Some(t) = &mut *t.borrow_mut() {
            t.batch = batch;
        }
    });
}

/// Runs `f` inside a span named `name`, child of the innermost open
/// span. Without an installed tracer (or with a full buffer) it only
/// runs `f`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        if t.spans.len() == t.spans.capacity() {
            return None;
        }
        let idx = t.spans.len() as u32;
        let parent = t.open.last().copied().unwrap_or(NO_PARENT);
        let batch = t.batch;
        t.open.push(idx);
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            parent,
            batch,
            start_ns,
            end_ns: start_ns,
        });
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        TRACER.with(|t| {
            if let Some(t) = &mut *t.borrow_mut() {
                t.spans[idx as usize].end_ns = t.epoch.elapsed().as_nanos() as u64;
                t.open.pop();
            }
        });
    }
    out
}

/// Self time per span of one thread's buffer: the span's duration minus
/// the part of its interval its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer name over all threads, in first-seen order.
pub fn self_time_by_name(threads: &[Vec<Span>]) -> Vec<(&'static str, u64)> {
    let mut totals: Vec<(&'static str, u64)> = Vec::new();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
    }
    totals
}

/// Writes every span as one JSON line.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"batch\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.batch, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            batch: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            s("batch", NO_PARENT, 0, 100),
            s("decode", 0, 10, 30),
            s("apply", 0, 40, 90),
            s("wal", 2, 50, 70),
            // Overlaps `apply` (50..60 is counted once) and pokes past the
            // parent's end (clipped to 100).
            s("encode", 0, 80, 120),
        ];
        let own = self_times(&spans);
        // batch: 100 − (20 + 50 + 10 more up to 100) = 20.
        assert_eq!(own, vec![20, 20, 30, 20, 40]);
        let by_name = self_time_by_name(&[spans.clone(), spans]);
        assert_eq!(by_name[0], ("batch", 40));
        assert_eq!(by_name[3], ("wal", 40));
        // Within the root's interval self times add up to its duration.
        let inside: u64 = own[..4].iter().sum::<u64>() + 20;
        assert_eq!(inside, 110);
    }

    #[test]
    fn spans_nest_and_stop_at_capacity() {
        install(3, Instant::now());
        set_batch(9);
        let v = span("a", || span("b", || 7));
        span("c", || ());
        span("dropped", || ());
        assert!(!has_room(1));
        let spans = take();
        assert_eq!(v, 7);
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("a", NO_PARENT));
        assert_eq!((spans[1].name, spans[1].parent), ("b", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("c", NO_PARENT));
        assert!(spans.iter().all(|s| s.batch == 9 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        // Not recording: spans are free and there is always room.
        assert!(has_room(usize::MAX));
        assert_eq!(span("off", || 1), 1);
        assert!(take().is_empty());
    }
}
