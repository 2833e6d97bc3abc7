//! Dense per-flow state tables for the simulation hot path.
//!
//! Every event the host simulation dispatches looks up per-flow transport
//! state (senders, receivers, core affinity). The original implementation
//! kept these in `BTreeMap<FlowId, _>`, paying a pointer-chasing tree
//! descent per packet. Flow ids are small and dense by construction —
//! peer→DUT flows count up from 0 and DUT→peer flows count up from
//! [`TX_FLOW_BASE`] — so a pair of flat `Vec<Option<T>>` segments indexed
//! by flow id replaces the tree with one bounds-checked array access.
//!
//! Iteration order is ascending flow id (low segment, then high), which is
//! exactly the `BTreeMap` order the metrics collection relied on, so the
//! swap changes no simulated counter.

use fns_net::packet::FlowId;

/// Flow-id offset for DUT→peer flows; ids at or above this land in the
/// high segment of a [`FlowTable`].
pub const TX_FLOW_BASE: u32 = 1000;

/// Splits a flow id into (segment, index-within-segment).
#[inline]
fn split(flow: FlowId) -> (bool, usize) {
    if flow.0 >= TX_FLOW_BASE {
        (true, (flow.0 - TX_FLOW_BASE) as usize)
    } else {
        (false, flow.0 as usize)
    }
}

/// Slots each segment needs to hold every flow id in `ids`: `(low, high)`.
fn segment_lens(ids: std::ops::Range<u32>) -> (usize, usize) {
    if ids.is_empty() {
        return (0, 0);
    }
    let low = if ids.start < TX_FLOW_BASE {
        ids.end.min(TX_FLOW_BASE)
    } else {
        0
    };
    (low as usize, ids.end.saturating_sub(TX_FLOW_BASE) as usize)
}

/// A dense map from [`FlowId`] to `T`, segmented at [`TX_FLOW_BASE`].
///
/// # Examples
///
/// ```
/// use fns_core::flow_table::{FlowTable, TX_FLOW_BASE};
/// use fns_net::packet::FlowId;
///
/// let mut t = FlowTable::new();
/// t.insert(FlowId(3), "rx");
/// t.insert(FlowId(TX_FLOW_BASE + 1), "tx");
/// assert_eq!(t.get(FlowId(3)), Some(&"rx"));
/// assert_eq!(t.get(FlowId(7)), None);
/// let ids: Vec<u32> = t.iter().map(|(f, _)| f.0).collect();
/// assert_eq!(ids, vec![3, TX_FLOW_BASE + 1]);
/// ```
#[derive(Debug, Clone)]
pub struct FlowTable<T> {
    low: Vec<Option<T>>,
    high: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for FlowTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlowTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            low: Vec::new(),
            high: Vec::new(),
            len: 0,
        }
    }

    /// Number of flows present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no flows are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn segment(&self, high: bool) -> &Vec<Option<T>> {
        if high {
            &self.high
        } else {
            &self.low
        }
    }

    fn segment_mut(&mut self, high: bool) -> &mut Vec<Option<T>> {
        if high {
            &mut self.high
        } else {
            &mut self.low
        }
    }

    /// Pre-sizes each segment for the flow ids in `ids` that land in it,
    /// so datacenter-scale scenarios (tens of thousands of flows) fill the
    /// table without the doubling reallocations that `insert`'s
    /// incremental `resize_with` would otherwise trigger. Repeated calls
    /// keep the largest size asked of each segment. Capacity-only: no
    /// observable state changes.
    pub fn reserve(&mut self, ids: std::ops::Range<u32>) {
        let (low, high) = segment_lens(ids);
        self.low.reserve(low.saturating_sub(self.low.len()));
        self.high.reserve(high.saturating_sub(self.high.len()));
    }

    /// Inserts (or replaces) the state for `flow`; returns the old value.
    pub fn insert(&mut self, flow: FlowId, value: T) -> Option<T> {
        let (hi, idx) = split(flow);
        let seg = self.segment_mut(hi);
        if idx >= seg.len() {
            seg.resize_with(idx + 1, || None);
        }
        let old = seg[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up the state for `flow`.
    #[inline]
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        let (hi, idx) = split(flow);
        self.segment(hi).get(idx)?.as_ref()
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        let (hi, idx) = split(flow);
        self.segment_mut(hi).get_mut(idx)?.as_mut()
    }

    /// Iterates `(flow, &state)` in ascending flow-id order (the order a
    /// `BTreeMap<FlowId, T>` would yield).
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        let lows = self
            .low
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (FlowId(i as u32), v)));
        let highs = self
            .high
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (FlowId(TX_FLOW_BASE + i as u32), v)));
        lows.chain(highs)
    }

    /// Iterates the states in ascending flow-id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Serializes both segments slot by slot for checkpointing, so a
    /// restore allocates no more slots than the snapshot spells out.
    pub fn snap_with(
        &self,
        w: &mut fns_snap::SnapWriter,
        mut f: impl FnMut(&mut fns_snap::SnapWriter, &T),
    ) {
        for seg in [&self.low, &self.high] {
            w.seq(seg.len());
            for slot in seg {
                w.opt(slot, &mut f);
            }
        }
    }

    /// Rebuilds a table captured by [`FlowTable::snap_with`].
    pub fn unsnap_with(
        r: &mut fns_snap::SnapReader,
        mut f: impl FnMut(&mut fns_snap::SnapReader) -> Result<T, fns_snap::SnapError>,
    ) -> Result<Self, fns_snap::SnapError> {
        let mut t = Self::new();
        for high in [false, true] {
            let n = r.seq()?;
            let mut seg = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                seg.push(r.opt(&mut f)?);
            }
            t.len += seg.iter().flatten().count();
            *t.segment_mut(high) = seg;
        }
        Ok(t)
    }
}

/// A dense set of flow ids (same segmentation as [`FlowTable`]); used for
/// the at-most-one-timer-per-sender bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    low: Vec<bool>,
    high: Vec<bool>,
}

impl FlowSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes both segments (see [`FlowTable::reserve`]).
    pub fn reserve(&mut self, ids: std::ops::Range<u32>) {
        let (low, high) = segment_lens(ids);
        self.low.reserve(low.saturating_sub(self.low.len()));
        self.high.reserve(high.saturating_sub(self.high.len()));
    }

    /// Adds `flow`; returns `true` if it was not already present.
    pub fn insert(&mut self, flow: FlowId) -> bool {
        let (hi, idx) = split(flow);
        let seg = if hi { &mut self.high } else { &mut self.low };
        if idx >= seg.len() {
            seg.resize(idx + 1, false);
        }
        !std::mem::replace(&mut seg[idx], true)
    }

    /// Removes `flow`; returns `true` if it was present.
    pub fn remove(&mut self, flow: FlowId) -> bool {
        let (hi, idx) = split(flow);
        let seg = if hi { &mut self.high } else { &mut self.low };
        match seg.get_mut(idx) {
            Some(slot) => std::mem::replace(slot, false),
            None => false,
        }
    }

    /// Returns `true` if `flow` is present.
    pub fn contains(&self, flow: FlowId) -> bool {
        let (hi, idx) = split(flow);
        let seg = if hi { &self.high } else { &self.low };
        seg.get(idx).copied().unwrap_or(false)
    }

    /// Serializes both segments verbatim for checkpointing.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.seq(self.low.len());
        for &b in &self.low {
            w.bool(b);
        }
        w.seq(self.high.len());
        for &b in &self.high {
            w.bool(b);
        }
    }

    /// Rebuilds a set captured by [`FlowSet::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let n = r.seq()?;
        let mut low = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            low.push(r.bool()?);
        }
        let n = r.seq()?;
        let mut high = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            high.push(r.bool()?);
        }
        Ok(Self { low, high })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_replace() {
        let mut t = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(FlowId(2), 20), None);
        assert_eq!(t.insert(FlowId(TX_FLOW_BASE), 30), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.insert(FlowId(2), 21), Some(20));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(FlowId(2)), Some(&21));
        assert_eq!(t.get(FlowId(0)), None);
        assert_eq!(t.get(FlowId(TX_FLOW_BASE + 5)), None);
        *t.get_mut(FlowId(TX_FLOW_BASE)).unwrap() = 31;
        assert_eq!(t.get(FlowId(TX_FLOW_BASE)), Some(&31));
    }

    #[test]
    fn iteration_matches_btreemap_order() {
        use std::collections::BTreeMap;
        let ids = [5u32, 0, TX_FLOW_BASE + 7, 3, TX_FLOW_BASE, 999];
        let mut t = FlowTable::new();
        let mut b = BTreeMap::new();
        for (v, &id) in ids.iter().enumerate() {
            t.insert(FlowId(id), v);
            b.insert(FlowId(id), v);
        }
        let dense: Vec<(FlowId, usize)> = t.iter().map(|(f, &v)| (f, v)).collect();
        let tree: Vec<(FlowId, usize)> = b.iter().map(|(&f, &v)| (f, v)).collect();
        assert_eq!(dense, tree);
        let dense_vals: Vec<usize> = t.values().copied().collect();
        let tree_vals: Vec<usize> = b.values().copied().collect();
        assert_eq!(dense_vals, tree_vals);
    }

    #[test]
    fn reserved_flow_ids_fill_without_reallocating() {
        use crate::config::{SimConfig, Workload};
        use crate::mode::ProtectionMode;
        // dc-scale's 20 480 peer flows run past TX_FLOW_BASE into the high
        // segment; bidir's DUT flows live only there.
        let mut dc = SimConfig::paper_default(ProtectionMode::FastAndSafe);
        dc.flows = 20_480;
        let mut bidir = dc;
        bidir.flows = 1000;
        bidir.workload = Workload::Bidirectional { tx_flows: 1000 };
        for cfg in [dc, bidir] {
            let (peer, dut) = cfg.flow_ids();
            for ids in [peer, dut] {
                let mut t = FlowTable::new();
                let mut set = FlowSet::new();
                t.reserve(ids.clone());
                set.reserve(ids.clone());
                let before = (t.low.as_ptr(), t.high.as_ptr());
                let set_before = (set.low.as_ptr(), set.high.as_ptr());
                for id in ids.clone() {
                    t.insert(FlowId(id), id);
                    set.insert(FlowId(id));
                }
                assert_eq!(t.len(), ids.len());
                assert_eq!((t.low.as_ptr(), t.high.as_ptr()), before, "{ids:?}");
                assert_eq!((set.low.as_ptr(), set.high.as_ptr()), set_before);
            }
        }
    }

    #[test]
    fn flow_set_semantics() {
        let mut s = FlowSet::new();
        assert!(s.insert(FlowId(4)));
        assert!(!s.insert(FlowId(4)), "double insert reports present");
        assert!(s.insert(FlowId(TX_FLOW_BASE + 4)), "segments are disjoint");
        assert!(s.contains(FlowId(4)));
        assert!(s.remove(FlowId(4)));
        assert!(!s.remove(FlowId(4)));
        assert!(!s.contains(FlowId(4)));
        assert!(!s.remove(FlowId(777)), "never-seen flow");
    }
}
