//! DMA transaction causal spans: one record per Rx descriptor, threading
//! it from preparation (allocation + mapping) through device DMA to
//! completion (unmap + invalidation wait).
//!
//! Each record carries the child-span durations the critical path is made
//! of — mapping CPU at preparation, the invalidation-queue wait at
//! completion — so the 50–60% invalidation-wait share the span table
//! reports in aggregate becomes visible *per transaction*. The Chrome
//! exporter renders the records as async `b`/`e` span pairs plus
//! `s`/`f` flow events so Perfetto draws the causal arrows.
//!
//! Transaction IDs are the driver's monotonically assigned descriptor IDs
//! (no RNG); records live in a bounded ring, oldest-overwritten, and every
//! dump is emitted in completion order — an armed run stays bit-identical
//! to a bare run modulo the dump itself.

use std::collections::BTreeMap;

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::Nanos;

/// Default completed-transaction ring capacity.
pub const DEFAULT_TXN_CAPACITY: u32 = 8192;

/// One descriptor's causal span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnRecord {
    /// Descriptor ID (monotone per run; doubles as the Chrome span ID).
    pub id: u64,
    /// Core the descriptor was prepared on.
    pub flow: u32,
    /// Pages in the descriptor.
    pub pages: u32,
    /// Preparation sim-time.
    pub start_ns: Nanos,
    /// CPU spent mapping at preparation (child span).
    pub map_ns: Nanos,
    /// CPU spent waiting on the invalidation queue at completion (child
    /// span; the per-transaction face of the invalidation-wait share).
    pub inv_wait_ns: Nanos,
    /// Completion sim-time (0 while the transaction is open).
    pub end_ns: Nanos,
}

impl TxnRecord {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.id);
        w.u32(self.flow);
        w.u32(self.pages);
        w.u64(self.start_ns);
        w.u64(self.map_ns);
        w.u64(self.inv_wait_ns);
        w.u64(self.end_ns);
    }

    fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Self {
            id: r.u64()?,
            flow: r.u32()?,
            pages: r.u32()?,
            start_ns: r.u64()?,
            map_ns: r.u64()?,
            inv_wait_ns: r.u64()?,
            end_ns: r.u64()?,
        })
    }
}

/// The live transaction recorder: open spans keyed by descriptor ID plus
/// a bounded ring of completed records.
#[derive(Debug, Clone)]
pub struct TxnTrace {
    capacity: usize,
    done: Vec<TxnRecord>,
    head: usize,
    /// Completed records overwritten after the ring filled.
    pub dropped: u64,
    /// Open (prepared, not yet completed) spans. Bounded in practice by
    /// ring occupancy: a descriptor is completed before its slot is
    /// reposted.
    open: BTreeMap<u64, TxnRecord>,
}

impl TxnTrace {
    /// Creates a recorder with a completed-record ring of `capacity`.
    pub fn new(capacity: u32) -> Self {
        Self {
            capacity: capacity.max(1) as usize,
            done: Vec::new(),
            head: 0,
            dropped: 0,
            open: BTreeMap::new(),
        }
    }

    /// Opens a transaction at preparation time.
    pub fn start(&mut self, id: u64, at: Nanos, flow: u32, pages: u32, map_ns: Nanos) {
        self.open.insert(
            id,
            TxnRecord {
                id,
                flow,
                pages,
                start_ns: at,
                map_ns,
                inv_wait_ns: 0,
                end_ns: 0,
            },
        );
    }

    /// Completes a transaction and returns the finished record; unmatched
    /// IDs (e.g. descriptors prepared before the recorder was armed) are
    /// ignored.
    pub fn complete(&mut self, id: u64, at: Nanos, inv_wait_ns: Nanos) -> Option<TxnRecord> {
        let mut rec = self.open.remove(&id)?;
        rec.inv_wait_ns = inv_wait_ns;
        rec.end_ns = at;
        if self.done.len() < self.capacity {
            self.done.push(rec);
        } else {
            self.done[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
        Some(rec)
    }

    /// Completed records currently held.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no record has completed.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Dumps completed records in completion order (open spans are
    /// counted, not listed — they are still in flight).
    pub fn dump(&self) -> TxnDump {
        let mut records = self.done.clone();
        records.rotate_left(self.head);
        TxnDump {
            enabled: true,
            records,
            open: self.open.len() as u64,
            dropped: self.dropped,
        }
    }

    /// Serializes the recorder (ring + open table, deterministic order).
    pub fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.capacity);
        w.usize(self.head);
        w.u64(self.dropped);
        w.seq(self.done.len());
        for rec in &self.done {
            rec.snap(w);
        }
        w.seq(self.open.len());
        for rec in self.open.values() {
            rec.snap(w);
        }
    }

    /// Rebuilds a recorder captured by [`TxnTrace::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let capacity = r.usize()?;
        let head = r.usize()?;
        let dropped = r.u64()?;
        let n = r.seq()?;
        if capacity == 0 || n > capacity || (head >= n && head != 0) {
            return Err(SnapError::BadTag {
                what: "txn ring geometry",
                tag: n as u64,
            });
        }
        let mut done = Vec::with_capacity(n);
        for _ in 0..n {
            done.push(TxnRecord::unsnap(r)?);
        }
        let m = r.seq()?;
        let mut open = BTreeMap::new();
        for _ in 0..m {
            let rec = TxnRecord::unsnap(r)?;
            open.insert(rec.id, rec);
        }
        Ok(Self {
            capacity,
            done,
            head,
            dropped,
            open,
        })
    }
}

/// End-of-run transaction dump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnDump {
    /// Whether a recorder was armed at all.
    pub enabled: bool,
    /// Completed records in completion order (oldest retained first).
    pub records: Vec<TxnRecord>,
    /// Spans still open at the end of the run.
    pub open: u64,
    /// Completed records lost to the ring bound.
    pub dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_in_order_and_overwrites_oldest() {
        let mut t = TxnTrace::new(2);
        for id in 0..3u64 {
            t.start(id, id * 10, 0, 64, 5);
            t.complete(id, id * 10 + 7, 3);
        }
        let d = t.dump();
        assert_eq!(d.dropped, 1);
        assert_eq!(
            d.records.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(d.records[0].end_ns, 17);
        assert_eq!(d.open, 0);
    }

    #[test]
    fn unmatched_completion_is_ignored() {
        let mut t = TxnTrace::new(4);
        t.complete(42, 10, 1);
        assert!(t.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_preserves_open_spans() {
        let mut t = TxnTrace::new(4);
        t.start(1, 10, 0, 64, 5);
        t.complete(1, 20, 2);
        t.start(2, 30, 1, 64, 6);
        let mut w = SnapWriter::new();
        t.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let mut back = TxnTrace::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back.dump(), t.dump());
        back.complete(2, 40, 3);
        assert_eq!(back.dump().records.len(), 2);
    }
}
