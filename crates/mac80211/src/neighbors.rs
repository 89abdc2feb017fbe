//! Propagation neighbor cache and event-fan-out wait-list structures.
//!
//! The DCF hot path in [`crate::sim`] used to pay O(n) per
//! transmission three times over: a link-budget evaluation for every
//! station at tx start, a full-table scan to deliver busy edges, and
//! another full-table scan at tx end to resume frozen backoffs. This
//! module provides the three data structures that cut those to the
//! stations actually involved, without changing a single trace byte:
//!
//! - [`NeighborCache`] — pairwise rx-power rows (in dBm and, mirrored
//!   bit-for-bit, in linear milliwatts for the interference sums)
//!   plus, per transmitter, the sorted list of stations that can hear
//!   it at the carrier-sense threshold. Static topologies compute
//!   propagation once; mobility dirties only the moved station's row
//!   and its entries in other rows. Every row is *keyed*: it stores
//!   entries for a sorted neighborhood of its transmitter — the
//!   stations a [`crate::grid::SpatialGrid`] 27-cell query returns
//!   (everyone within one cell edge, a superset of audibility when the
//!   cell edge is at least the maximum audible range), or every other
//!   station when the world cannot be grid-indexed. Grid neighborhoods
//!   turn an O(n²) build into O(n·k) and a mobility patch into O(k).
//! - [`AudibleSet`] — the per-station set of in-flight transmission
//!   ids, with O(1) insert and O(members) removal instead of the old
//!   `Vec::retain` full scan.
//! - [`IdBitSet`] — the contender wait-list: stations with an armed
//!   backoff, iterated in ascending id order so the idle-edge rearm
//!   visits exactly the stations the old 0..n scan would have acted
//!   on, in the same order.
//!
//! Equivalence with the per-transmission path (a time-varying loss
//! model evaluates every row fresh, over every other station, with the
//! same [`NeighborCache::evaluate_row`]) is load-bearing: audibility here
//! is *raw* co-channel power against the CS threshold, a superset of
//! what any receiver on an overlapping channel can hear after the
//! spectral-mask discount, so per-member awake/channel/leak checks in
//! the MAC stay exactly where they were. A row's omissions are sound
//! for every threshold decision: an omitted station is beyond one grid
//! cell edge, hence below the carrier-sense floor by construction, and
//! reads back as −∞. Interference sums are a different matter — energy
//! between the noise floor and the carrier-sense floor still lowers
//! SINR — so the reception path fills the omitted terms on demand
//! ([`RxRow::fill_missing`]) and the sum stays the direct path's.
//! Rows are `Arc`-shared copy-on-write: an in-flight transmission
//! snapshots its row at start time for free, and a mobility update
//! clones the row before writing, leaving the snapshot untouched.

use std::sync::Arc;

use crate::sim::StationId;
use wn_phy::units::Dbm;

/// One transmitter's received-power row, as snapshotted by an
/// in-flight transmission record.
///
/// A row stores entries for its sorted keys only (the transmitter
/// excluded), with the bit-exact linear-milliwatt mirror the
/// interference sums use, and answers −∞ for everyone else — omitted
/// stations are below the carrier-sense floor by grid construction.
/// Memoized rows and the rows a time-varying world evaluates per
/// transmission (keyed by every other station) are the same type,
/// built by the same [`NeighborCache::evaluate_row`].
#[derive(Clone, Default)]
pub struct RxRow {
    keys: Arc<Vec<StationId>>,
    dbm: Arc<Vec<Dbm>>,
    mw: Arc<Vec<f64>>,
}

impl RxRow {
    /// Received power at `dst`; −∞ for entries the row omits (beyond
    /// the grid neighborhood, hence below the CS floor).
    pub fn get(&self, dst: StationId) -> Dbm {
        match self.keys.binary_search(&dst) {
            Ok(i) => self.dbm[i],
            Err(_) => Dbm(f64::NEG_INFINITY),
        }
    }

    /// [`get`](Self::get) for ascending `dst` sequences: `cursor`
    /// (starting at 0 for each fresh sequence) advances monotonically
    /// through the keys, making a whole candidates sweep O(k) instead
    /// of O(c·log k).
    pub fn get_seq(&self, dst: StationId, cursor: &mut usize) -> Dbm {
        if seek(&self.keys, dst, cursor) {
            self.dbm[*cursor]
        } else {
            Dbm(f64::NEG_INFINITY)
        }
    }

    /// Adds this row's linear-milliwatt image into `acc` at its key
    /// slots, in ascending key order — each slot receives at most one
    /// term per transmission, in record order. At full overlap the
    /// terms come from the memoized mirror; a fractional spectral
    /// overlap discounts every dBm entry by `shift` dB and converts it.
    pub fn accumulate_mw(&self, shift: Option<f64>, acc: &mut [f64]) {
        match shift {
            None => {
                for (&k, &m) in self.keys.iter().zip(self.mw.iter()) {
                    acc[k] += m;
                }
            }
            Some(shift) => {
                for (&k, &p) in self.keys.iter().zip(self.dbm.iter()) {
                    acc[k] += Dbm(p.value() + shift).to_milliwatts();
                }
            }
        }
    }

    /// Completes an interference sum over the stations this row omits:
    /// for every `dst` in the ascending `candidates` (other than the
    /// transmitter `src`) that the row stores no entry for,
    /// `acc[dst] += term(dst)`. Called right after the row's own
    /// accumulate, so every slot still receives exactly one term per
    /// record, in record order — the float sum an every-station row
    /// computes. A row covering all `acc.len() − 1` other stations
    /// returns after one length comparison.
    pub fn fill_missing(
        &self,
        src: StationId,
        candidates: &[StationId],
        acc: &mut [f64],
        mut term: impl FnMut(StationId) -> f64,
    ) {
        if self.keys.len() + 1 >= acc.len() {
            return;
        }
        let mut cursor = 0;
        for &dst in candidates {
            if dst != src && !seek(&self.keys, dst, &mut cursor) {
                acc[dst] += term(dst);
            }
        }
    }
}

/// Advances `cursor` through the sorted `keys` to the first key not
/// below `dst`; reports whether that key is `dst`.
fn seek(keys: &[StationId], dst: StationId, cursor: &mut usize) -> bool {
    while *cursor < keys.len() && keys[*cursor] < dst {
        *cursor += 1;
    }
    *cursor < keys.len() && keys[*cursor] == dst
}

/// Pairwise rx-power cache with per-transmitter audible-neighbor lists.
///
/// `rows[src]` is the [`RxRow`] of a transmission from `src`, keyed by
/// the sorted neighborhood of `src` with `src` itself excluded —
/// stations beyond the neighborhood are below the carrier-sense floor
/// by construction and read back as −∞. Each row mirrors its dBm
/// entries in linear milliwatts (`Dbm::to_milliwatts` of the same
/// entry, bit for bit) — the interference sums in the reception path
/// run in the linear domain, and memoizing the dB→mW conversion is
/// where most of the transcendental math in a saturated cell goes.
/// `audible[src]` lists every `dst != src` whose raw power meets the
/// carrier-sense threshold, ascending; audible lists are always a
/// subset of the row's keys.
#[derive(Default)]
pub struct NeighborCache {
    rows: Vec<RxRow>,
    audible: Vec<Arc<Vec<StationId>>>,
}

impl NeighborCache {
    /// An empty (unbuilt) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether [`build`](Self::build) has run since the last
    /// [`clear`](Self::clear).
    pub fn is_built(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Total stored pair entries — the sum of neighborhood sizes
    /// (n·(n−1) when every row covers the whole world).
    pub fn stored_entries(&self) -> usize {
        self.rows.iter().map(|r| r.keys.len()).sum()
    }

    /// Drops all cached state (topology-shaping setup calls, e.g. a
    /// radio swap, call this; the next use rebuilds).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.audible.clear();
    }

    /// Builds keyed rows for `n` stations: for each `src`,
    /// `neighbors_of(src, &mut scratch)` must append the sorted
    /// candidate set (a 27-cell grid neighborhood, or all of `0..n`;
    /// `src` itself may be included and is skipped). Only those pairs
    /// are evaluated and stored — O(n·k) for grid neighborhoods.
    /// Soundness is the caller's contract: every station outside the
    /// candidate set must be below `cs` from `src`.
    pub fn build(
        &mut self,
        n: usize,
        cs: Dbm,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
        mut neighbors_of: impl FnMut(StationId, &mut Vec<StationId>),
    ) {
        self.clear();
        self.rows.resize(n, RxRow::default());
        self.audible.resize(n, Arc::default());
        let mut scratch = Vec::new();
        for src in 0..n {
            scratch.clear();
            neighbors_of(src, &mut scratch);
            debug_assert!(
                scratch.windows(2).all(|w| w[0] < w[1]),
                "neighborhood for {src} not sorted/unique"
            );
            self.set_row(src, cs, &mut power, &scratch);
        }
    }

    /// The one row evaluator, shared by the cache and by worlds that
    /// evaluate rows per transmission: `src`'s powers at the ascending
    /// `keys` (`src` itself skipped), their milliwatt mirror, and the
    /// keys whose power meets `cs` — the audible list.
    pub fn evaluate_row(
        src: StationId,
        cs: Dbm,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
        keys: impl ExactSizeIterator<Item = StationId>,
    ) -> (RxRow, Arc<Vec<StationId>>) {
        let mut ks = Vec::with_capacity(keys.len());
        let mut dbm = Vec::with_capacity(keys.len());
        let mut mw = Vec::with_capacity(keys.len());
        let mut aud = Vec::new();
        for dst in keys.filter(|&dst| dst != src) {
            let p = power(src, dst);
            if p.value() >= cs.value() {
                aud.push(dst);
            }
            ks.push(dst);
            dbm.push(p);
            mw.push(p.to_milliwatts());
        }
        let row = RxRow {
            keys: Arc::new(ks),
            dbm: Arc::new(dbm),
            mw: Arc::new(mw),
        };
        (row, Arc::new(aud))
    }

    /// Replaces `src`'s row and audible list with fresh evaluations
    /// over the sorted `keys` (`src` itself skipped).
    fn set_row(
        &mut self,
        src: StationId,
        cs: Dbm,
        power: &mut impl FnMut(StationId, StationId) -> Dbm,
        keys: &[StationId],
    ) {
        (self.rows[src], self.audible[src]) =
            Self::evaluate_row(src, cs, power, keys.iter().copied());
    }

    /// Mobility patch after station `id` moved (or changed its radio):
    /// its row is rebuilt over `new_keys` (its sorted post-move
    /// neighborhood; `id` itself is skipped), every station in
    /// `new_keys` gains or refreshes its entry *to* `id`, and every
    /// station in `stale` (the pre-move neighborhood minus the
    /// post-move one) drops its entry — O(k) for grid neighborhoods.
    /// Rows shared with in-flight transmission records are cloned
    /// before writing (copy-on-write), and the keys, powers and
    /// milliwatt mirror of a patched row always change together, so
    /// those records keep an internally consistent start-time
    /// snapshot.
    pub fn rebuild_station(
        &mut self,
        id: StationId,
        cs: Dbm,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
        new_keys: &[StationId],
        stale: &[StationId],
    ) {
        debug_assert!(id < self.rows.len(), "rebuild_station on an unbuilt cache");
        debug_assert!(new_keys.windows(2).all(|w| w[0] < w[1]));
        self.set_row(id, cs, &mut power, new_keys);
        for &src in new_keys {
            if src == id {
                continue;
            }
            let p = power(src, id);
            let row = &mut self.rows[src];
            match row.keys.binary_search(&id) {
                Ok(i) => {
                    // Entry exists: refresh the value in place.
                    Arc::make_mut(&mut row.dbm)[i] = p;
                    Arc::make_mut(&mut row.mw)[i] = p.to_milliwatts();
                }
                Err(i) => {
                    Arc::make_mut(&mut row.keys).insert(i, id);
                    Arc::make_mut(&mut row.dbm).insert(i, p);
                    Arc::make_mut(&mut row.mw).insert(i, p.to_milliwatts());
                }
            }
            self.patch_audible(src, id, p.value() >= cs.value());
        }
        for &src in stale {
            if src == id {
                continue;
            }
            let row = &mut self.rows[src];
            if let Ok(i) = row.keys.binary_search(&id) {
                Arc::make_mut(&mut row.keys).remove(i);
                Arc::make_mut(&mut row.dbm).remove(i);
                Arc::make_mut(&mut row.mw).remove(i);
            }
            self.patch_audible(src, id, false);
        }
    }

    fn patch_audible(&mut self, src: StationId, dst: StationId, hears: bool) {
        let list = &self.audible[src];
        match list.binary_search(&dst) {
            Ok(pos) if !hears => {
                Arc::make_mut(&mut self.audible[src]).remove(pos);
            }
            Err(pos) if hears => {
                Arc::make_mut(&mut self.audible[src]).insert(pos, dst);
            }
            _ => {}
        }
    }

    /// The cached power row for `src` (shared, copy-on-write).
    pub fn row(&self, src: StationId) -> RxRow {
        self.rows[src].clone()
    }

    /// The sorted audible-neighbor list for `src` (shared).
    pub fn audible_list(&self, src: StationId) -> Arc<Vec<StationId>> {
        Arc::clone(&self.audible[src])
    }

    /// Verifies every cached entry (powers, their milliwatt mirror and
    /// audible lists) against a fresh evaluation — the oracle behind
    /// the mobility-invalidation property test, the grid-coherence
    /// fuzz oracle and the debug-build cache contract. An *absent*
    /// pair is coherent only if its fresh power is below `cs` (the
    /// grid's soundness claim) and it is not listed audible; such a
    /// violation reports the −∞ the row would answer. Returns the
    /// first mismatch as `(src, dst, cached, fresh)`.
    pub fn find_incoherence(
        &self,
        cs: Dbm,
        mut power: impl FnMut(StationId, StationId) -> Dbm,
    ) -> Option<(StationId, StationId, Dbm, Dbm)> {
        let n = self.rows.len();
        for src in 0..n {
            let row = &self.rows[src];
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                let fresh = power(src, dst);
                let listed = self.audible[src].binary_search(&dst).is_ok();
                let Ok(i) = row.keys.binary_search(&dst) else {
                    // Omitted by the grid: must be genuinely sub-CS.
                    if fresh.value() >= cs.value() || listed {
                        return Some((src, dst, Dbm(f64::NEG_INFINITY), fresh));
                    }
                    continue;
                };
                // The mw mirror must stay bit-identical to the dBm
                // entry's conversion, not merely numerically close.
                let cached = row.dbm[i];
                if cached.value() != fresh.value()
                    || listed != (fresh.value() >= cs.value())
                    || row.mw[i].to_bits() != fresh.to_milliwatts().to_bits()
                {
                    return Some((src, dst, cached, fresh));
                }
            }
        }
        None
    }
}

/// The set of in-flight transmission ids a station can hear.
///
/// Membership is tiny in practice (the number of concurrent audible
/// transmissions), so an unsorted `Vec` with `swap_remove` beats any
/// tree: O(1) insert, one linear pass to remove or test. Order is
/// never observed — the MAC only asks "empty?" and "contains?".
#[derive(Default, Clone)]
pub struct AudibleSet {
    ids: Vec<u64>,
}

impl AudibleSet {
    /// Adds an id (caller guarantees it is not already present) and
    /// returns the new member count.
    pub fn insert(&mut self, id: u64) -> usize {
        debug_assert!(!self.ids.contains(&id), "duplicate audible id {id}");
        self.ids.push(id);
        self.ids.len()
    }

    /// Removes an id if present; reports whether it was a member.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.ids.iter().position(|&t| t == id) {
            Some(i) => {
                self.ids.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Membership test.
    pub fn contains(&self, id: u64) -> bool {
        self.ids.contains(&id)
    }

    /// Whether no transmission is audible.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of audible transmissions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Forgets everything (doze, channel switch).
    pub fn clear(&mut self) {
        self.ids.clear();
    }
}

/// A station-id bitset iterated in ascending order — the contender
/// wait-list.
///
/// Saturated cells freeze and re-arm every station on every
/// transmission, so the structure must take O(1) per membership flip;
/// a sorted container would pay a shift per insert and lose to the
/// plain O(n) scan it replaces. Word-and-trailing-zeros iteration
/// preserves the ascending visit order the old `0..n` loop had, which
/// the trace fingerprints depend on.
#[derive(Default)]
pub struct IdBitSet {
    words: Vec<u64>,
}

impl IdBitSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id` (idempotent).
    pub fn insert(&mut self, id: usize) {
        let word = id / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (id % 64);
    }

    /// Removes `id` (idempotent).
    pub fn remove(&mut self, id: usize) {
        if let Some(w) = self.words.get_mut(id / 64) {
            *w &= !(1u64 << (id % 64));
        }
    }

    /// Membership test.
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Empties the set, keeping its capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Appends the members to `out` in ascending order.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audible_set_tracks_overlapping_transmissions() {
        // Two transmissions overlap in time; the first to end must be
        // removed without disturbing the second — the bookkeeping the
        // MAC does at every tx-end edge.
        let mut s = AudibleSet::default();
        assert!(s.is_empty());
        assert_eq!(s.insert(7), 1);
        assert_eq!(s.insert(9), 2);
        assert!(s.contains(7) && s.contains(9));
        assert!(s.remove(7));
        assert!(!s.contains(7));
        assert!(s.contains(9));
        assert_eq!(s.len(), 1);
        assert!(!s.remove(7), "double-remove must report absence");
        assert!(s.remove(9));
        assert!(s.is_empty());
    }

    #[test]
    fn bitset_iterates_ascending_across_words() {
        let mut b = IdBitSet::new();
        for &id in &[200, 3, 64, 0, 127, 65] {
            b.insert(id);
        }
        b.remove(64);
        b.insert(64); // idempotent re-add
        b.remove(3);
        let mut got = Vec::new();
        b.collect_into(&mut got);
        assert_eq!(got, vec![0, 64, 65, 127, 200]);
        assert!(b.contains(127) && !b.contains(3) && !b.contains(1000));
        b.remove(1000); // out of range is a no-op
    }

    fn power(xs: &[f64; 4]) -> impl FnMut(StationId, StationId) -> Dbm + '_ {
        move |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0)
    }

    #[test]
    fn cache_builds_and_patches_moved_station() {
        // Full-neighborhood rows (what a world the grid cannot index
        // builds), with powers derived from a mutable "position" table
        // so the test can move a station and demand row+column
        // patching.
        let mut xs = [0.0f64, 10.0, 20.0, 80.0];
        let cs = Dbm(-82.0);
        let everyone = [0usize, 1, 2, 3];
        let mut c = NeighborCache::new();
        c.build(4, cs, power(&xs), |_, out| out.extend(everyone));
        assert!(c.is_built());
        assert_eq!(c.stored_entries(), 12);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());
        // 0 hears 1 (−50) and 2 (−60) but not 3 (−120).
        assert_eq!(*c.audible_list(0), vec![1, 2]);

        // A record snapshots row 0 (both domains), then station 3
        // moves next to 0: the snapshots must keep the old power, the
        // cache the new — in dBm and in the milliwatt mirror alike.
        let snapshot = c.row(0);
        xs[3] = 5.0;
        c.rebuild_station(3, cs, power(&xs), &everyone, &[]);
        assert_eq!(c.stored_entries(), 12);
        assert_eq!(snapshot.get(3), Dbm(-120.0));
        assert_eq!(c.row(0).get(3), Dbm(-45.0));
        let mut mw = vec![0.0; 4];
        snapshot.accumulate_mw(None, &mut mw);
        assert_eq!(mw[3].to_bits(), Dbm(-120.0).to_milliwatts().to_bits());
        assert_eq!(mw[0], 0.0, "a row never stores its own transmitter");
        let mut mw = vec![0.0; 4];
        c.row(0).accumulate_mw(None, &mut mw);
        assert_eq!(mw[3].to_bits(), Dbm(-45.0).to_milliwatts().to_bits());
        assert_eq!(*c.audible_list(0), vec![1, 2, 3]);
        assert_eq!(*c.audible_list(3), vec![0, 1, 2]);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());

        c.clear();
        assert!(!c.is_built());
    }

    #[test]
    fn sparse_rows_store_only_the_neighborhood_and_patch_moves() {
        // Four stations on a line; the "grid" neighborhood is within
        // 30 units. Station 3 (at 80) is beyond everyone's horizon and
        // beyond the CS floor, so its omission is sound.
        let mut xs = [0.0f64, 10.0, 20.0, 80.0];
        let cs = Dbm(-75.0);
        fn hood(xs: &[f64; 4]) -> impl FnMut(StationId, &mut Vec<StationId>) + '_ {
            move |src, out| {
                out.extend((0..4).filter(|&d| (xs[src] - xs[d]).abs() <= 30.0));
            }
        }
        let mut c = NeighborCache::new();
        c.build(4, cs, power(&xs), hood(&xs));
        assert!(c.stored_entries() < 12, "sparse must omit far pairs");
        assert!(c.find_incoherence(cs, power(&xs)).is_none());
        assert_eq!(*c.audible_list(0), vec![1, 2]);
        assert_eq!(c.row(0).get(3), Dbm(f64::NEG_INFINITY));
        assert_eq!(c.row(0).get(1), Dbm(-50.0));

        // Sequential access agrees with random access.
        let row = c.row(0);
        let mut cur = 0;
        for d in [1usize, 2, 3] {
            assert_eq!(row.get_seq(d, &mut cur), row.get(d));
        }

        // Station 3 moves next to the cluster: its row rebuilds over
        // the new neighborhood, everyone gains an entry to it, and a
        // pre-move snapshot still answers −∞.
        let snapshot = c.row(0);
        xs[3] = 5.0;
        let new_keys = [0usize, 1, 2];
        c.rebuild_station(3, cs, power(&xs), &new_keys, &[]);
        assert_eq!(snapshot.get(3), Dbm(f64::NEG_INFINITY));
        assert_eq!(c.row(0).get(3), Dbm(-45.0));
        assert_eq!(*c.audible_list(0), vec![1, 2, 3]);
        assert_eq!(*c.audible_list(3), vec![0, 1, 2]);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());

        // And back out again: stale entries must disappear.
        xs[3] = 80.0;
        c.rebuild_station(3, cs, power(&xs), &[], &new_keys);
        assert_eq!(c.row(0).get(3), Dbm(f64::NEG_INFINITY));
        assert_eq!(*c.audible_list(0), vec![1, 2]);
        assert!(c.find_incoherence(cs, power(&xs)).is_none());
    }

    #[test]
    fn fill_missing_completes_a_sparse_sum_exactly() {
        // Station 3 is outside row 0's neighborhood: the row adds the
        // stored terms, the fill adds exactly the omitted candidate —
        // never the transmitter itself, never a stored slot twice —
        // and the result is the every-station row's sum, bit for bit.
        let xs = [0.0f64, 10.0, 20.0, 80.0];
        let cs = Dbm(-75.0);
        let mut c = NeighborCache::new();
        c.build(4, cs, power(&xs), |src, out| {
            out.extend((0..4).filter(|&d| (xs[src] - xs[d]).abs() <= 30.0))
        });
        let (full, _) = NeighborCache::evaluate_row(0, cs, power(&xs), 0..4);
        let candidates = [0usize, 1, 2, 3];
        let mut sparse = vec![0.0; 4];
        let row = c.row(0);
        row.accumulate_mw(None, &mut sparse);
        row.fill_missing(0, &candidates, &mut sparse, |d| {
            power(&xs)(0, d).to_milliwatts()
        });
        let mut dense = vec![0.0; 4];
        full.accumulate_mw(None, &mut dense);
        for d in 1..4 {
            assert_eq!(sparse[d].to_bits(), dense[d].to_bits(), "slot {d}");
        }
        assert_eq!(sparse[0], 0.0, "the transmitter's own slot stays empty");

        // A row that already covers everyone skips the fill outright.
        c.build(4, cs, power(&xs), |_, out| out.extend(candidates));
        let mut untouched = vec![0.0; 4];
        c.row(0)
            .fill_missing(0, &candidates, &mut untouched, |_| unreachable!());
        full.fill_missing(0, &candidates, &mut untouched, |_| unreachable!());
    }

    #[test]
    fn sparse_incoherence_flags_an_omitted_audible_pair() {
        // A neighborhood that wrongly omits an audible station must be
        // reported: the grid's soundness contract is what the fuzz
        // oracle leans on.
        let xs = [0.0f64, 10.0];
        let cs = Dbm(-75.0);
        let mut c = NeighborCache::new();
        c.build(
            2,
            cs,
            |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0),
            |_, _| {},
        );
        let got = c.find_incoherence(cs, |a, b| Dbm(-((xs[a] - xs[b]).abs()) - 40.0));
        assert_eq!(got, Some((0, 1, Dbm(f64::NEG_INFINITY), Dbm(-50.0))));
    }
}
