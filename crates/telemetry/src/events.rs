//! JSONL cell-lifecycle event stream (`sweep --trace-out events.jsonl`).
//!
//! One JSON object per line, written atomically under a mutex so lines
//! never interleave even with many workers. Every event carries the
//! canonical cell index, the cell's cache key and a monotonic timestamp (`t_us`, microseconds since the sink was
//! created); `cell_finish` adds the cell's wall time and whether it was
//! served from the cache. Within one cell the runner emits
//! `cell_start` strictly before `cell_finish`/`cell_panic` from the
//! same thread, so per-cell ordering is guaranteed by write order.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::span::elapsed_us;

/// One cell-lifecycle event. String fields are borrowed — events are
/// built on the emitting thread and serialized immediately.
#[derive(Clone, Copy, Debug)]
pub enum Event<'a> {
    /// A worker picked the cell up for simulation.
    CellStart { cell: usize, key: &'a str },
    /// The cell's result was served from the cache store.
    CacheHit { cell: usize, key: &'a str, lookup_us: u64 },
    /// The cell produced a result (simulated, or decoded from cache).
    CellFinish { cell: usize, key: &'a str, wall_us: u64, cached: bool },
    /// The cell's simulation panicked.
    CellPanic { cell: usize, key: &'a str, cause: &'a str },
}

impl Event<'_> {
    /// The `ev` tag written on the line.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Event::CellStart { .. } => "cell_start",
            Event::CacheHit { .. } => "cache_hit",
            Event::CellFinish { .. } => "cell_finish",
            Event::CellPanic { .. } => "cell_panic",
        }
    }

    fn to_json(self, t_us: u64) -> Json {
        let (cell, key) = match self {
            Event::CellStart { cell, key }
            | Event::CacheHit { cell, key, .. }
            | Event::CellFinish { cell, key, .. }
            | Event::CellPanic { cell, key, .. } => (cell, key),
        };
        let mut fields = vec![
            ("ev".to_owned(), Json::Str(self.tag().to_owned())),
            ("t_us".to_owned(), Json::u64(t_us)),
            ("cell".to_owned(), Json::u64(cell as u64)),
            ("key".to_owned(), Json::Str(key.to_owned())),
        ];
        match self {
            Event::CellStart { .. } => {}
            Event::CacheHit { lookup_us, .. } => {
                fields.push(("lookup_us".to_owned(), Json::u64(lookup_us)));
            }
            Event::CellFinish { wall_us, cached, .. } => {
                fields.push(("wall_us".to_owned(), Json::u64(wall_us)));
                fields.push(("cached".to_owned(), Json::Bool(cached)));
            }
            Event::CellPanic { cause, .. } => {
                fields.push(("cause".to_owned(), Json::Str(cause.to_owned())));
            }
        }
        Json::Obj(fields)
    }
}

/// A line-buffered JSONL sink, shareable across worker threads.
pub struct EventSink {
    out: Mutex<Box<dyn Write + Send>>,
    start: Instant,
}

impl EventSink {
    /// A sink appending to a fresh file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn to_path(path: &Path) -> io::Result<Self> {
        Ok(Self::to_writer(Box::new(BufWriter::new(File::create(path)?))))
    }

    /// A sink over any writer (tests pass a shared buffer).
    #[must_use]
    #[allow(
        clippy::disallowed_methods,
        reason = "event timestamps are telemetry: they never reach a report"
    )]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Self { out: Mutex::new(out), start: Instant::now() }
    }

    /// Writes one event as a single flushed line. I/O errors are
    /// swallowed: telemetry must never fail a campaign.
    pub fn emit(&self, event: &Event<'_>) {
        let line = event.to_json(elapsed_us(self.start)).compact();
        let mut out = self.out.lock().expect("lock poisoned");
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` handle into a shared byte buffer.
    #[derive(Clone, Default)]
    pub(crate) struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

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
    fn lines_are_valid_json_in_emit_order() {
        let buf = SharedBuf::default();
        let sink = EventSink::to_writer(Box::new(buf.clone()));
        sink.emit(&Event::CellStart { cell: 3, key: "aa" });
        sink.emit(&Event::CacheHit { cell: 4, key: "bb", lookup_us: 7 });
        sink.emit(&Event::CellFinish { cell: 3, key: "aa", wall_us: 10, cached: false });
        sink.emit(&Event::CellPanic { cell: 5, key: "cc", cause: "boom \"q\"" });
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let docs: Vec<Json> = lines.iter().map(|l| Json::parse(l).unwrap()).collect();
        let tags: Vec<_> =
            docs.iter().map(|d| d.get("ev").unwrap().as_str().unwrap().to_owned()).collect();
        assert_eq!(tags, ["cell_start", "cache_hit", "cell_finish", "cell_panic"]);
        assert_eq!(docs[0].get("cell").unwrap().as_u64(), Some(3));
        assert_eq!(docs[1].get("lookup_us").unwrap().as_u64(), Some(7));
        assert_eq!(docs[2].get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(docs[3].get("cause").unwrap().as_str(), Some("boom \"q\""));
        // Timestamps are monotone non-decreasing in write order.
        let ts: Vec<_> = docs.iter().map(|d| d.get("t_us").unwrap().as_u64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
    }
}
