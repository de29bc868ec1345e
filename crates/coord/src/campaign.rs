//! Pure campaign bookkeeping: which cells are leased, done, or waiting.
//!
//! [`Campaign`] is the coordinator's single source of truth and is
//! deliberately free of I/O and clocks — every mutating call takes the
//! current time as a `now_ms` argument, so lease expiry is unit-testable
//! with a mock clock and the server owns the one (lint-allowed) mapping
//! from `Instant` to milliseconds.
//!
//! The determinism contract makes the bookkeeping forgiving: every cell
//! is a pure function of the spec, so a range that gets computed twice
//! (a lease expired, was re-issued, and the original worker's results
//! arrived late anyway) produces byte-identical lines and first-write
//! dedup is always safe.

use std::collections::{BTreeMap, VecDeque};

/// Default cells-per-lease for a campaign of `total` cells: coarse
/// enough to amortize a round trip, fine enough that ~8 leases are in
/// flight and a dead worker forfeits little work.
#[must_use]
pub fn default_lease_cells(total: usize) -> usize {
    (total / 8).clamp(1, 64)
}

/// One outstanding lease: a contiguous range of canonical cell indices
/// granted to a worker until a deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Coordinator-assigned id, echoed by the worker in results and
    /// heartbeats.
    pub id: u64,
    /// First canonical cell index of the range.
    pub start: usize,
    /// Number of cells in the range.
    pub len: usize,
    /// The worker holding the lease (connection-scoped name).
    pub worker: String,
    /// Absolute deadline in campaign milliseconds; results or
    /// heartbeats push it forward, passing it re-queues the range.
    pub deadline_ms: u64,
}

/// Outcome of a lease request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grant {
    /// A range to compute: cells `start .. start + len`.
    Range {
        /// The new lease's id.
        lease_id: u64,
        /// First canonical cell index.
        start: usize,
        /// Cell count (always ≥ 1).
        len: usize,
    },
    /// Nothing leasable right now: other workers hold the remaining
    /// ranges. The server holds the request until a range is re-queued
    /// or the campaign completes.
    Wait,
    /// Every cell is done; the worker should disconnect.
    Drain,
}

/// Lease/result bookkeeping for one campaign over `total` canonical
/// cells. See the module docs for the clock and dedup discipline.
#[derive(Debug)]
pub struct Campaign {
    total: usize,
    lease_cells: usize,
    lease_timeout_ms: u64,
    /// First canonical index never leased yet.
    next_fresh: usize,
    next_lease_id: u64,
    active: BTreeMap<u64, Lease>,
    /// Ranges forfeited by dead/expired leases, re-issued before fresh
    /// cells.
    requeued: VecDeque<(usize, usize)>,
    /// Completed cells: canonical index → encoded result line
    /// (first-write wins).
    done: BTreeMap<usize, String>,
    reissued: usize,
}

impl Campaign {
    /// Creates the bookkeeping for `total` cells with the given lease
    /// geometry.
    #[must_use]
    pub fn new(total: usize, lease_cells: usize, lease_timeout_ms: u64) -> Self {
        Self {
            total,
            lease_cells: lease_cells.max(1),
            lease_timeout_ms,
            next_fresh: 0,
            next_lease_id: 1,
            active: BTreeMap::new(),
            requeued: VecDeque::new(),
            done: BTreeMap::new(),
            reissued: 0,
        }
    }

    /// True once every cell has a recorded result.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.done.len() == self.total
    }

    /// Cells still lacking a result.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.total - self.done.len()
    }

    /// How many forfeited leases have been re-queued for re-issue.
    #[must_use]
    pub fn reissue_count(&self) -> usize {
        self.reissued
    }

    /// Completed results in canonical order: index → encoded line.
    #[must_use]
    pub fn done_rows(&self) -> &BTreeMap<usize, String> {
        &self.done
    }

    /// Currently outstanding leases (diagnostics).
    #[must_use]
    pub fn active_leases(&self) -> usize {
        self.active.len()
    }

    /// The earliest deadline among outstanding leases, i.e. when
    /// [`expire`](Self::expire) can next retire one; `None` while no
    /// lease is out.
    #[must_use]
    pub fn next_deadline(&self) -> Option<u64> {
        self.active.values().map(|l| l.deadline_ms).min()
    }

    /// Sweeps leases whose deadline has passed, re-queueing their
    /// ranges for re-issue. Returns the expired leases for logging.
    pub fn expire(&mut self, now_ms: u64) -> Vec<Lease> {
        let expired: Vec<u64> =
            self.active.values().filter(|l| l.deadline_ms < now_ms).map(|l| l.id).collect();
        let mut out = Vec::with_capacity(expired.len());
        for id in expired {
            let lease = self.active.remove(&id).expect("id from active");
            self.requeue(lease.start, lease.len);
            out.push(lease);
        }
        out
    }

    /// Drops every lease held by `worker` (its connection died) and
    /// re-queues the ranges. Returns the abandoned leases for logging.
    pub fn abandon_worker(&mut self, worker: &str) -> Vec<Lease> {
        let ids: Vec<u64> =
            self.active.values().filter(|l| l.worker == worker).map(|l| l.id).collect();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let lease = self.active.remove(&id).expect("id from active");
            self.requeue(lease.start, lease.len);
            out.push(lease);
        }
        out
    }

    fn requeue(&mut self, start: usize, len: usize) {
        self.requeued.push_back((start, len));
        self.reissued += 1;
    }

    /// Trims already-completed cells off both ends of a range; returns
    /// `None` when nothing in it remains to compute.
    fn trim(&self, mut start: usize, mut len: usize) -> Option<(usize, usize)> {
        while len > 0 && self.done.contains_key(&start) {
            start += 1;
            len -= 1;
        }
        while len > 0 && self.done.contains_key(&(start + len - 1)) {
            len -= 1;
        }
        (len > 0).then_some((start, len))
    }

    /// Grants the next range to `worker`: expired leases are swept and
    /// re-issued first, then fresh cells in canonical order.
    pub fn lease(&mut self, worker: &str, now_ms: u64) -> Grant {
        self.expire(now_ms);
        if self.is_complete() {
            return Grant::Drain;
        }
        let range = loop {
            if let Some((start, len)) = self.requeued.pop_front() {
                match self.trim(start, len) {
                    Some(range) => break Some(range),
                    None => continue,
                }
            }
            if self.next_fresh < self.total {
                let start = self.next_fresh;
                let len = self.lease_cells.min(self.total - start);
                self.next_fresh = start + len;
                break Some((start, len));
            }
            break None;
        };
        match range {
            Some((start, len)) => {
                let id = self.next_lease_id;
                self.next_lease_id += 1;
                self.active.insert(
                    id,
                    Lease {
                        id,
                        start,
                        len,
                        worker: worker.to_string(),
                        deadline_ms: now_ms + self.lease_timeout_ms,
                    },
                );
                Grant::Range { lease_id: id, start, len }
            }
            None => Grant::Wait,
        }
    }

    /// Extends a live lease's deadline. Returns false when the lease is
    /// no longer active (already expired and re-issued, or completed) —
    /// the worker may keep computing; its results still dedup cleanly.
    pub fn heartbeat(&mut self, lease_id: u64, now_ms: u64) -> bool {
        match self.active.get_mut(&lease_id) {
            Some(lease) => {
                lease.deadline_ms = now_ms + self.lease_timeout_ms;
                true
            }
            None => false,
        }
    }

    /// Records completed cells. Rows may cover part of a lease (a
    /// throttled worker streams cell by cell); the lease is retired
    /// once its whole range is done. Duplicate cells are ignored
    /// (first write wins — results are deterministic, so the bytes are
    /// identical either way). Returns how many rows were new.
    ///
    /// # Errors
    /// A row index at or past the campaign size is rejected.
    pub fn complete(
        &mut self,
        lease_id: u64,
        rows: Vec<(usize, String)>,
        now_ms: u64,
    ) -> Result<usize, String> {
        if let Some(&(index, _)) = rows.iter().find(|&&(index, _)| index >= self.total) {
            return Err(format!("cell index {index} out of range (campaign has {})", self.total));
        }
        let mut fresh = 0;
        for (index, line) in rows {
            if let std::collections::btree_map::Entry::Vacant(slot) = self.done.entry(index) {
                slot.insert(line);
                fresh += 1;
            }
        }
        if let Some(lease) = self.active.get(&lease_id) {
            let done_range =
                (lease.start..lease.start + lease.len).all(|i| self.done.contains_key(&i));
            if done_range {
                self.active.remove(&lease_id);
            } else if let Some(lease) = self.active.get_mut(&lease_id) {
                // Partial progress is liveness: push the deadline out.
                lease.deadline_ms = now_ms + self.lease_timeout_ms;
            }
        }
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grant_range(g: Grant) -> (u64, usize, usize) {
        match g {
            Grant::Range { lease_id, start, len } => (lease_id, start, len),
            other => panic!("expected a range, got {other:?}"),
        }
    }

    fn line(i: usize) -> String {
        format!("line-{i}")
    }

    #[test]
    fn leases_cover_the_matrix_in_canonical_order() {
        let mut c = Campaign::new(16, 2, 1_000);
        for k in 0..8 {
            let (_, start, len) = grant_range(c.lease("w1", 0));
            assert_eq!((start, len), (k * 2, 2));
        }
        assert_eq!(c.lease("w1", 0), Grant::Wait, "all ranges out, none done");
    }

    #[test]
    fn default_lease_size_scales_with_the_campaign() {
        assert_eq!(default_lease_cells(0), 1);
        assert_eq!(default_lease_cells(7), 1);
        assert_eq!(default_lease_cells(16), 2);
        assert_eq!(default_lease_cells(512), 64);
        assert_eq!(default_lease_cells(1_000_000), 64);
    }

    #[test]
    fn expired_leases_are_reissued_with_a_mock_clock() {
        let mut c = Campaign::new(4, 2, 100);
        let (id1, start1, len1) = grant_range(c.lease("w1", 0));
        assert_eq!((start1, len1), (0, 2));
        // Within the deadline nothing expires; w2 gets the next range.
        let (_, start2, _) = grant_range(c.lease("w2", 50));
        assert_eq!(start2, 2);
        c.complete(id1, vec![], 50).unwrap();
        // Past w1's deadline its range comes back — and is handed out
        // before any fresh cells (there are none left here).
        let expired_then = c.lease("w3", 201);
        let (id3, start3, len3) = grant_range(expired_then);
        assert_ne!(id3, id1, "a re-issue is a new lease");
        assert_eq!((start3, len3), (0, 2));
        assert_eq!(c.reissue_count(), 2, "w1 and w2 both timed out");
    }

    #[test]
    fn heartbeats_extend_the_deadline() {
        let mut c = Campaign::new(4, 2, 100);
        let (id, _, _) = grant_range(c.lease("w1", 0));
        assert!(c.heartbeat(id, 90));
        // Without the heartbeat this sweep (at t=150) would expire the
        // lease; with it the deadline moved to 190.
        assert!(c.expire(150).is_empty());
        let expired = c.expire(191);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, id);
        assert!(!c.heartbeat(id, 200), "expired lease no longer beats");
    }

    #[test]
    fn next_deadline_tracks_the_earliest_live_lease() {
        let mut c = Campaign::new(6, 2, 100);
        assert_eq!(c.next_deadline(), None, "nothing leased yet");
        let (a, _, _) = grant_range(c.lease("w1", 0));
        assert_eq!(c.next_deadline(), Some(100), "a grant sets it");
        let (b, _, _) = grant_range(c.lease("w2", 10));
        grant_range(c.lease("w3", 20));
        assert_eq!(c.next_deadline(), Some(100), "the earliest lease wins");
        assert!(c.heartbeat(a, 50));
        assert_eq!(c.next_deadline(), Some(110), "a heartbeat pushes it out");
        c.complete(b, vec![(2, line(2)), (3, line(3))], 60).unwrap();
        assert_eq!(c.next_deadline(), Some(120), "complete clears the finished lease");
        assert_eq!(c.abandon_worker("w3").len(), 1);
        assert_eq!(c.next_deadline(), Some(150), "abandon clears the dead worker's lease");
        assert_eq!(c.expire(151).len(), 1);
        assert_eq!(c.next_deadline(), None, "expire clears the last one");
    }

    #[test]
    fn dead_worker_ranges_are_reissued_and_trimmed_to_undone_cells() {
        let mut c = Campaign::new(4, 4, 1_000);
        let (id, _, _) = grant_range(c.lease("w1", 0));
        // w1 streams two cells, then its connection dies.
        c.complete(id, vec![(0, line(0)), (1, line(1))], 10).unwrap();
        let lost = c.abandon_worker("w1");
        assert_eq!(lost.len(), 1);
        assert_eq!(c.reissue_count(), 1);
        // The re-issued range is trimmed to what is actually missing.
        let (_, start, len) = grant_range(c.lease("w2", 20));
        assert_eq!((start, len), (2, 2));
        assert!(c.abandon_worker("w1").is_empty(), "nothing left to abandon");
    }

    #[test]
    fn duplicate_results_dedup_first_write_wins() {
        let mut c = Campaign::new(2, 2, 100);
        let (id, _, _) = grant_range(c.lease("w1", 0));
        // The lease expires and is re-issued to w2; both finish anyway.
        let (id2, _, _) = grant_range(c.lease("w2", 500));
        assert_eq!(c.complete(id2, vec![(0, line(0)), (1, line(1))], 510).unwrap(), 2);
        assert_eq!(c.complete(id, vec![(0, line(0)), (1, line(1))], 520).unwrap(), 0);
        assert!(c.is_complete());
        assert_eq!(c.lease("w1", 530), Grant::Drain);
        assert_eq!(c.done_rows().len(), 2);
    }

    #[test]
    fn out_of_range_rows_are_rejected() {
        let mut c = Campaign::new(2, 2, 100);
        let (id, _, _) = grant_range(c.lease("w1", 0));
        assert!(c.complete(id, vec![(2, line(2))], 0).is_err());
    }

    #[test]
    fn partial_batches_keep_the_lease_alive_until_the_range_is_done() {
        let mut c = Campaign::new(2, 2, 100);
        let (id, _, _) = grant_range(c.lease("w1", 0));
        c.complete(id, vec![(0, line(0))], 80).unwrap();
        // The partial batch refreshed the deadline: at t=150 (past the
        // original 100) the lease is still live.
        assert!(c.expire(150).is_empty());
        c.complete(id, vec![(1, line(1))], 150).unwrap();
        assert_eq!(c.active_leases(), 0, "full range retires the lease");
        assert!(c.is_complete());
    }
}
