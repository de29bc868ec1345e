//! Throttled single-line progress reporting (`sweep --progress`).
//!
//! The reporter rewrites one stderr line (`\r`, no newline until
//! [`Progress::finish`]) with cells done/total, throughput, cache hit
//! rate and an ETA. Redraws are bounded: a draw happens on the first
//! completed cell, when `min_interval` has elapsed since the previous
//! draw, and once at the end — a 10k-cell campaign does not emit 10k
//! lines. Counters are atomics, so workers call
//! [`Progress::cell_done`] straight from the hot loop; the draw itself
//! takes a mutex only when the throttle window is open.

use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shared progress state; see the module docs.
pub struct Progress {
    out: Mutex<Box<dyn Write + Send>>,
    min_interval: Duration,
    start: Instant,
    total: AtomicUsize,
    threads: AtomicUsize,
    done: AtomicUsize,
    hits: AtomicUsize,
    draws: AtomicUsize,
    last_draw: Mutex<Option<Instant>>,
}

impl Progress {
    /// A reporter on stderr redrawing at most five times per second.
    #[must_use]
    pub fn stderr() -> Self {
        Self::with_writer(Box::new(io::stderr()), Duration::from_millis(200))
    }

    /// A reporter over any writer with an explicit redraw throttle
    /// (tests use a shared buffer and an hour-long interval).
    #[must_use]
    #[allow(clippy::disallowed_methods, reason = "the progress line's rate is telemetry on stderr")]
    pub fn with_writer(out: Box<dyn Write + Send>, min_interval: Duration) -> Self {
        Self {
            out: Mutex::new(out),
            min_interval,
            start: Instant::now(),
            total: AtomicUsize::new(0),
            threads: AtomicUsize::new(1),
            done: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            draws: AtomicUsize::new(0),
            last_draw: Mutex::new(None),
        }
    }

    /// Announces the campaign size and worker count before the first
    /// cell completes.
    pub fn begin(&self, total: usize, threads: usize) {
        self.total.store(total, Ordering::Relaxed);
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// Records one completed cell (cached or simulated) and redraws if
    /// the throttle window is open.
    pub fn cell_done(&self, cached: bool) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        self.maybe_draw(false);
    }

    /// Forces a final draw and terminates the line.
    pub fn finish(&self) {
        self.maybe_draw(true);
        let mut out = self.out.lock().expect("lock poisoned");
        let _ = writeln!(out);
        let _ = out.flush();
    }

    /// How many times the line has been (re)drawn — the throttling
    /// tests read this.
    #[must_use]
    pub fn redraw_count(&self) -> usize {
        self.draws.load(Ordering::Relaxed)
    }

    fn maybe_draw(&self, force: bool) {
        let mut last = self.last_draw.lock().expect("lock poisoned");
        #[allow(clippy::disallowed_methods, reason = "redraw throttling only: output on stderr")]
        let now = Instant::now();
        let due = match *last {
            None => true,
            Some(prev) => now.duration_since(prev) >= self.min_interval,
        };
        if !(force || due) {
            return;
        }
        *last = Some(now);
        self.draws.fetch_add(1, Ordering::Relaxed);
        let line = self.render();
        let mut out = self.out.lock().expect("lock poisoned");
        let _ = write!(out, "\r{line}");
        let _ = out.flush();
    }

    fn render(&self) -> String {
        let total = self.total.load(Ordering::Relaxed);
        let done = self.done.load(Ordering::Relaxed);
        let hits = self.hits.load(Ordering::Relaxed);
        let threads = self.threads.load(Ordering::Relaxed).max(1);
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = done as f64 / elapsed;
        let hit_rate = if done == 0 { 0.0 } else { 100.0 * hits as f64 / done as f64 };
        let pct = if total == 0 { 100.0 } else { 100.0 * done as f64 / total as f64 };
        let eta = if done == 0 || done >= total {
            "0s".to_owned()
        } else {
            format_secs((total - done) as f64 / rate.max(1e-9))
        };
        // Trailing spaces wipe leftovers from a previously longer line.
        format!(
            "sweep: {done}/{total} cells {pct:5.1}%  {rate:.2} cells/s ({:.2}/thread x{threads})  hits {hit_rate:.1}%  ETA {eta}   ",
            rate / threads as f64
        )
    }
}

fn format_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!("{:.0}h{:02.0}m", (s / 3600.0).floor(), (s % 3600.0) / 60.0)
    } else if s >= 60.0 {
        format!("{:.0}m{:02.0}s", (s / 60.0).floor(), s % 60.0)
    } else {
        format!("{s:.0}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().expect("lock poisoned").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn redraws_are_throttled_to_the_interval() {
        let buf = SharedBuf::default();
        let p = Progress::with_writer(Box::new(buf.clone()), Duration::from_secs(3600));
        p.begin(1000, 4);
        for _ in 0..500 {
            p.cell_done(false);
        }
        // First completion draws; the next 499 fall inside the window.
        assert_eq!(p.redraw_count(), 1);
        p.finish();
        assert_eq!(p.redraw_count(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("500/1000 cells"), "{text}");
        assert!(text.ends_with('\n'), "finish terminates the line");
    }

    #[test]
    fn unthrottled_reporter_draws_every_cell() {
        let buf = SharedBuf::default();
        let p = Progress::with_writer(Box::new(buf.clone()), Duration::ZERO);
        p.begin(3, 1);
        for _ in 0..3 {
            p.cell_done(true);
        }
        assert_eq!(p.redraw_count(), 3);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("hits 100.0%"), "{text}");
        assert!(text.contains("ETA 0s"), "{text}");
    }

    #[test]
    fn eta_formatting_covers_magnitudes() {
        assert_eq!(format_secs(12.4), "12s");
        assert_eq!(format_secs(75.0), "1m15s");
        assert_eq!(format_secs(3723.0), "1h02m");
    }
}
