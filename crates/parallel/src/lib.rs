//! # harmony-parallel
//!
//! A deterministic, order-preserving work pool for the workspace's
//! embarrassingly-parallel driver loops: the Performance Tuner's sweep,
//! the conformance/pinned matrices, and the `repro` figure sweeps. Each
//! item runs on its own state; nothing is carried from one item to the
//! next.
//!
//! Design constraints (DESIGN.md §7):
//!
//! * **Determinism.** [`par_map`] returns results in input order, and each
//!   item is processed by a pure function of that item alone — so the
//!   output is byte-identical whatever the worker count (1, 2, or N).
//!   Worker threads only decide *which* items they claim, never what a
//!   result contains or where it lands.
//! * **No added dependencies.** Built on `std::thread::scope` (stable
//!   scoped threads); items are claimed from an atomic cursor, so work is
//!   dynamically balanced without channels or unsafe code.
//!
//! Worker count resolution: an explicit [`with_workers`] override wins,
//! then the `HARMONY_WORKERS` environment variable, then
//! `std::thread::available_parallelism`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Process-wide worker override installed by [`with_workers`]
/// (0 = no override).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Whether a malformed `HARMONY_WORKERS` value has already been reported
/// (the warning is one-time per process, not per [`worker_count`] call).
static WORKERS_ENV_WARNED: AtomicBool = AtomicBool::new(false);

/// Parses a `HARMONY_WORKERS` value: a positive integer, or an error
/// message naming the rejected value. Split out of [`worker_count`] so
/// the rejection paths are unit-testable without mutating process-global
/// environment state.
fn parse_workers_env(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        Ok(_) => Err(format!(
            "HARMONY_WORKERS must be a positive worker count, got `{raw}`"
        )),
        Err(_) => Err(format!(
            "HARMONY_WORKERS must be a positive integer, got `{raw}`"
        )),
    }
}

/// Resolves the worker count: [`with_workers`] override, else the
/// `HARMONY_WORKERS` environment variable, else available parallelism
/// (at least 1). A set-but-malformed `HARMONY_WORKERS` (e.g. `abc` or
/// `0`) falls back to available parallelism with a one-time stderr
/// warning naming the rejected value — a misconfigured CI job must not
/// silently serialize or oversubscribe.
pub fn worker_count() -> usize {
    let o = WORKER_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("HARMONY_WORKERS") {
        match parse_workers_env(&v) {
            Ok(n) => return n,
            Err(msg) => {
                if !WORKERS_ENV_WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!("warning: {msg}; falling back to available parallelism");
                }
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the worker count pinned to `n` (restoring the previous
/// override afterwards, including on panic). Used by the determinism
/// tests, which compare 1-worker output with N-worker output byte for
/// byte.
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER_OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let prev = WORKER_OVERRIDE.swap(n.max(1), Ordering::Relaxed);
    let _restore = Restore(prev);
    f()
}

/// Order-preserving parallel map with the resolved [`worker_count`].
///
/// Each worker claims the next unprocessed index from a shared cursor,
/// computes `f(index, &items[index])`, and the results are reassembled in
/// input order — so the returned vector is identical to
/// `items.iter().enumerate().map(...)` regardless of worker count or
/// claim interleaving. `f` must be deterministic per item for the
/// workspace's byte-identical guarantees to hold.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_workers(worker_count(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let mut slots: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        mine.push((i, f(i, &items[i])));
                    }
                    mine
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for h in handles {
            // A worker panic propagates: the pool never swallows failures.
            for (i, r) in h.join().expect("worker panicked") {
                slots[i] = Some(r);
            }
        }
        slots
    });
    slots
        .iter_mut()
        .map(|s| s.take().expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let out = par_map_workers(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..53).collect();
        let run = |w| par_map_workers(w, &items, |_, &x| x.wrapping_mul(0x9E3779B97F4A7C15));
        let base = run(1);
        for w in [2, 3, 4, 8, 64] {
            assert_eq!(run(w), base, "worker count {w} changed results");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_workers(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map_workers(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn with_workers_overrides_and_restores() {
        let before = worker_count();
        with_workers(3, || assert_eq!(worker_count(), 3));
        assert_eq!(worker_count(), before);
        with_workers(2, || {
            with_workers(5, || assert_eq!(worker_count(), 5));
            assert_eq!(worker_count(), 2);
        });
    }

    #[test]
    fn workers_exceeding_items_are_clamped() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(par_map_workers(100, &items, |_, &x| x * 2), vec![0, 2, 4]);
    }

    #[test]
    fn workers_env_rejects_non_numeric_and_zero() {
        assert_eq!(parse_workers_env("4"), Ok(4));
        assert_eq!(parse_workers_env(" 2 "), Ok(2));
        let zero = parse_workers_env("0").unwrap_err();
        assert!(zero.contains("`0`"), "message must name the value: {zero}");
        let junk = parse_workers_env("abc").unwrap_err();
        assert!(
            junk.contains("`abc`"),
            "message must name the value: {junk}"
        );
        assert!(parse_workers_env("-3").is_err());
        assert!(parse_workers_env("").is_err());
        assert!(parse_workers_env("4.5").is_err());
    }
}
