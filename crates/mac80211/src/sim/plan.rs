//! Propagation and planning: link-budget rows, the audible reach, the
//! neighbor-cache build and its mobility patches, and shard planning
//! and re-validation (DESIGN.md §13, §15, §17).

use std::collections::HashMap;
use std::sync::Arc;

use super::{LossContract, StationId, WlanWorld};
use crate::grid::SpatialGrid;
use crate::neighbors::{NeighborCache, RxRow};
use wn_phy::geom::Point;
use wn_phy::medium::coupled_rx_power;
use wn_phy::units::Dbm;
use wn_sim::{SimDuration, SimTime};

impl WlanWorld {
    pub(super) fn rx_power_at(&self, src: StationId, dst: StationId, now: SimTime) -> Dbm {
        let a = &self.stations[src];
        let b = &self.stations[dst];
        let loss = (self.loss)(a.pos, b.pos, self.budget.frequency, now);
        coupled_rx_power(&a.radio, &b.radio, loss)
    }

    /// Drops the neighbor cache and its backing grid together (they
    /// are built as a unit and must die as one).
    pub(super) fn invalidate_neighbors(&mut self) {
        self.neighbors.clear();
        self.grid = None;
    }

    /// The maximum distance at which any pair of this world's radios
    /// can meet the carrier-sense threshold, probed radially against
    /// the loss closure (exponential search for the first inaudible
    /// distance, then bisection — the same shape as
    /// `LinkBudget::max_range_for_rate`). Uses the worst-case coupling
    /// over the radios actually present: the strongest EIRP paired
    /// with the highest receive gain, so the bound holds for every
    /// pair. `None` when the model is not isotropic (a single ray
    /// would under-estimate reach through wall-free directions) or the
    /// reach exceeds the probe horizon — callers must then fall back
    /// to exhaustive scans.
    pub fn audible_reach_m(&self, now: SimTime) -> Option<f64> {
        if self.loss_contract != LossContract::StaticIsotropic || self.stations.is_empty() {
            return None;
        }
        let mut eirp = f64::NEG_INFINITY;
        let mut rx_gain = f64::NEG_INFINITY;
        for s in &self.stations {
            eirp = eirp.max(s.radio.tx_power.value() + s.radio.tx_gain.value());
            rx_gain = rx_gain.max(s.radio.rx_gain.value());
        }
        let max_loss = eirp + rx_gain - self.cfg.cs_threshold.value();
        let origin = Point::new(0.0, 0.0);
        let loss_at =
            |d: f64| (self.loss)(origin, Point::new(d, 0.0), self.budget.frequency, now).value();
        // Propagation models clamp below 1 m, and the grid clamps its
        // cell edge to 1 m anyway.
        if loss_at(1.0) > max_loss {
            return Some(1.0);
        }
        const HORIZON_M: f64 = 1.0e7;
        let mut hi = 2.0;
        while loss_at(hi) <= max_loss {
            hi *= 2.0;
            if hi > HORIZON_M {
                return None;
            }
        }
        let mut lo = hi / 2.0;
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if loss_at(mid) <= max_loss {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // The upper bisection bound: strictly inaudible, so every
        // audible pair is strictly inside one cell edge.
        Some(hi)
    }

    /// Builds the spatial grid for the current deployment when
    /// eligible: an isotropic loss model and a finite probed audible
    /// reach (the cell edge).
    fn build_grid(&self, now: SimTime) -> Option<SpatialGrid> {
        let reach = self.audible_reach_m(now)?;
        Some(SpatialGrid::build(
            reach,
            self.stations.iter().map(|s| s.pos),
        ))
    }

    /// Builds the neighbor cache if it is not current (it is
    /// otherwise built lazily at the first transmission): rows over
    /// 27-cell grid neighborhoods when the grid is eligible — O(n·k) —
    /// rows over every other station otherwise. Debug builds check the
    /// fresh cache against a per-pair evaluation (rows, milliwatt
    /// mirror and audible lists: the only inputs in which the memoized
    /// and per-transmission paths can differ).
    fn ensure_neighbors(&mut self, now: SimTime) {
        if self.neighbors.is_built() {
            return;
        }
        let mut cache = std::mem::take(&mut self.neighbors);
        let n = self.stations.len();
        let grid = self.build_grid(now);
        cache.build(
            n,
            self.cfg.cs_threshold,
            |a, b| self.rx_power_at(a, b, now),
            |src, out| match &grid {
                Some(grid) => grid.neighborhood_into(grid.cell_of(src), out),
                None => out.extend(0..n),
            },
        );
        self.grid = grid;
        self.neighbors = cache;
        debug_assert_eq!(
            self.neighbor_cache_incoherence(now),
            None,
            "neighbor cache build diverged from a fresh evaluation"
        );
    }

    /// Forces the lazy neighbor-cache build now; no-op under a
    /// time-varying loss model. Test/bench hook.
    pub fn prime_neighbor_cache(&mut self, now: SimTime) {
        if self.neighbor_cache_enabled() {
            self.ensure_neighbors(now);
        }
    }

    /// `(grid-indexed, stored pair entries)` of the built neighbor
    /// cache — `None` before the lazy build. Grid-indexed rows store
    /// only grid neighborhoods, other worlds n·(n−1) entries; this is
    /// the hook the storage-factor claims and the perfsuite grid
    /// section read.
    pub fn neighbor_cache_stats(&self) -> Option<(bool, usize)> {
        self.neighbors
            .is_built()
            .then(|| (self.grid.is_some(), self.neighbors.stored_entries()))
    }

    /// Compares every cached (src, dst) power and audibility entry
    /// against a fresh link-budget evaluation at `now`; `None` means
    /// coherent (trivially so before the cache is built). The oracle
    /// behind the mobility-invalidation property test.
    pub fn neighbor_cache_incoherence(
        &self,
        now: SimTime,
    ) -> Option<(StationId, StationId, Dbm, Dbm)> {
        self.neighbors
            .find_incoherence(self.cfg.cs_threshold, |a, b| self.rx_power_at(a, b, now))
    }

    /// Grid/world coherence for the `grid-coherence` fuzz oracle:
    /// the spatial grid's structural invariants against the current
    /// positions, plus the rows' stored-vs-fresh check — which
    /// includes the grid-soundness claim that every omitted pair is
    /// below the carrier-sense floor. Empty when coherent, or when no
    /// grid is active (worlds whose rows cover everyone have nothing
    /// grid-shaped to contradict).
    pub fn grid_incoherence(&self, now: SimTime) -> Vec<String> {
        let mut out = Vec::new();
        let Some(grid) = &self.grid else {
            return out;
        };
        if let Some(e) = grid.find_incoherence(|id| self.stations[id].pos) {
            out.push(format!("grid structure: {e}"));
        }
        if let Some((src, dst, cached, fresh)) = self.neighbor_cache_incoherence(now) {
            out.push(format!(
                "grid row {src}->{dst}: cached {cached:?}, fresh {fresh:?}"
            ));
        }
        out
    }

    /// Moves a station (the
    /// [`MacEvent::SetPosition`](super::MacEvent::SetPosition) handler,
    /// exposed for mobility models driving the world directly). With a live
    /// grid the patch is O(k): the mover's cell membership updates,
    /// its row rebuilds over the *new* neighborhood, and only the rows
    /// of stations entering or leaving that neighborhood are touched —
    /// stations two cells away never were and never become audible, so
    /// their rows are correct untouched. Without a grid the
    /// neighborhood is everyone: an O(n) row+column rebuild. Debug
    /// builds check the patched cache against a per-pair evaluation.
    pub fn set_position(&mut self, station: StationId, pos: Point, now: SimTime) {
        self.stations[station].pos = pos;
        // Only a static loss model ever builds the cache.
        if !self.neighbors.is_built() {
            return;
        }
        // Mobility dirties exactly one row and one column; rows
        // snapshotted by in-flight records keep their start-time
        // values (copy-on-write).
        let (new_hood, stale): (Vec<StationId>, Vec<StationId>) = match &mut self.grid {
            Some(grid) => {
                let mut old_hood = std::mem::take(&mut self.hood_scratch);
                old_hood.clear();
                grid.neighborhood_into(grid.cell_of(station), &mut old_hood);
                grid.move_station(station, pos);
                let mut new_hood = Vec::new();
                grid.neighborhood_into(grid.cell_of(station), &mut new_hood);
                // Stations in the old neighborhood but not the new one
                // fell out of audible reach on both sides of the pair.
                let stale = old_hood
                    .iter()
                    .copied()
                    .filter(|id| new_hood.binary_search(id).is_err())
                    .collect();
                self.hood_scratch = old_hood;
                (new_hood, stale)
            }
            // Without a grid every row covers the whole world.
            None => ((0..self.stations.len()).collect(), Vec::new()),
        };
        let mut cache = std::mem::take(&mut self.neighbors);
        cache.rebuild_station(
            station,
            self.cfg.cs_threshold,
            |a, b| self.rx_power_at(a, b, now),
            &new_hood,
            &stale,
        );
        self.neighbors = cache;
        debug_assert_eq!(
            self.neighbor_cache_incoherence(now),
            None,
            "neighbor cache patch for station {station} diverged from a fresh evaluation"
        );
    }

    /// Computes the interference-shard partition of the current
    /// deployment (DESIGN.md §15): the connected components of the
    /// conflict graph that couples two stations when their channels
    /// spectrally overlap **and** they are within
    /// `max_interference_range_m` of each other or audible in either
    /// direction per the propagation model. Stations in different
    /// components can never exchange MAC-observable energy, so each
    /// component can advance as an independent world.
    ///
    /// `None` for the range couples every overlapping-channel pair
    /// regardless of distance unless neither direction is audible —
    /// the most conservative co-channel split.
    ///
    /// The grid-backed scan is O(n·k): stations pair only against
    /// their 27-cell neighborhood, with the cell edge at
    /// `max(range, audible reach)` so any omitted pair is uncoupled by
    /// construction. An infinite range collapses to channel-class
    /// unions (distance is irrelevant there), and worlds the grid
    /// cannot index (anisotropic loss) fall back to the exhaustive
    /// O(n²) scan, which debug builds also run as a cross-check
    /// asserting the two partitions identical.
    pub fn shard_plan(
        &self,
        now: SimTime,
        max_interference_range_m: Option<f64>,
    ) -> crate::shard::ShardPlan {
        match self.shard_plan_grid(now, max_interference_range_m) {
            Some(plan) => {
                #[cfg(debug_assertions)]
                {
                    let exhaustive = self.shard_plan_exhaustive(now, max_interference_range_m);
                    debug_assert_eq!(
                        plan.shard_of, exhaustive.shard_of,
                        "grid shard plan diverged from the exhaustive scan"
                    );
                    debug_assert_eq!(plan.lookahead, exhaustive.lookahead);
                }
                plan
            }
            None => self.shard_plan_exhaustive(now, max_interference_range_m),
        }
    }

    /// Union-find with path halving; roots are always the smallest
    /// member seen so far, but the canonical numbering in
    /// [`shard_plan_finish`](Self::shard_plan_finish) does not depend
    /// on it.
    fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    fn uf_union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (Self::uf_find(parent, a), Self::uf_find(parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }

    /// The shard-coupling predicate for one pair (spectral overlap
    /// and in-range-or-audible), shared by every planning path.
    fn pair_coupled(&self, i: StationId, j: StationId, range: f64, now: SimTime) -> bool {
        if Self::channel_overlap(self.dcf.channel[i], self.dcf.channel[j]) <= 0.0 {
            return false;
        }
        let d = self.stations[i].pos.distance_to(self.stations[j].pos);
        d <= range
            || self.audible_at(self.rx_power_at(i, j, now))
            || self.audible_at(self.rx_power_at(j, i, now))
    }

    /// Grid-accelerated planner; `None` when the world is not grid
    /// eligible (finite range but no probeable reach).
    fn shard_plan_grid(
        &self,
        now: SimTime,
        max_interference_range_m: Option<f64>,
    ) -> Option<crate::shard::ShardPlan> {
        let n = self.stations.len();
        let mut parent: Vec<usize> = (0..n).collect();
        match max_interference_range_m {
            None => {
                // Infinite range: `d <= range` holds for every pair,
                // so two stations couple iff their channels spectrally
                // overlap — the components are unions of channel
                // classes, O(n + C²) with no geometry at all.
                let mut first_on: HashMap<u8, usize> = HashMap::new();
                let mut channels: Vec<u8> = Vec::new();
                for i in 0..n {
                    let ch = self.dcf.channel[i];
                    match first_on.get(&ch) {
                        Some(&rep) => Self::uf_union(&mut parent, rep, i),
                        None => {
                            first_on.insert(ch, i);
                            channels.push(ch);
                        }
                    }
                }
                channels.sort_unstable();
                for (ai, &ca) in channels.iter().enumerate() {
                    for &cb in &channels[ai + 1..] {
                        if Self::channel_overlap(ca, cb) > 0.0 {
                            Self::uf_union(&mut parent, first_on[&ca], first_on[&cb]);
                        }
                    }
                }
                Some(self.shard_plan_finish(parent, f64::INFINITY))
            }
            Some(range) => {
                // Coupled ⇒ within max(range, reach) ⇒ cell indices
                // differ by at most one per axis ⇒ the 27-cell
                // neighborhood enumerates every coupled pair.
                let reach = self.audible_reach_m(now)?;
                let cell = range.max(reach);
                let grid = SpatialGrid::build(cell, self.stations.iter().map(|s| s.pos));
                let mut hood = Vec::new();
                for i in 0..n {
                    hood.clear();
                    grid.neighborhood_into(grid.cell_of(i), &mut hood);
                    for &j in &hood {
                        if j <= i {
                            continue;
                        }
                        if Self::uf_find(&mut parent, i) == Self::uf_find(&mut parent, j) {
                            continue;
                        }
                        if self.pair_coupled(i, j, range, now) {
                            Self::uf_union(&mut parent, i, j);
                        }
                    }
                }
                Some(self.shard_plan_finish(parent, range))
            }
        }
    }

    /// The reference O(n²) pair scan (union-find root identity,
    /// memoized spectral overlap, distance before any link-budget
    /// evaluation). The planner for worlds the grid cannot index, and
    /// public so the `fuzz --cache-diff` planning leg can compare it
    /// against the grid planner on any world.
    pub fn shard_plan_exhaustive(
        &self,
        now: SimTime,
        max_interference_range_m: Option<f64>,
    ) -> crate::shard::ShardPlan {
        let n = self.stations.len();
        let range = max_interference_range_m.unwrap_or(f64::INFINITY);
        let mut parent: Vec<usize> = (0..n).collect();

        // Spectral overlap memo for the 2.4 GHz channel plan — the
        // pair scan would otherwise re-derive the same channel pair
        // millions of times on city-scale worlds.
        let mut overlap_memo = [[f64::NAN; 16]; 16];
        let mut overlap = |a: u8, b: u8| -> f64 {
            if a == b {
                return 1.0;
            }
            if a < 16 && b < 16 {
                let v = overlap_memo[a as usize][b as usize];
                if !v.is_nan() {
                    return v;
                }
                let v = Self::channel_overlap(a, b);
                overlap_memo[a as usize][b as usize] = v;
                return v;
            }
            Self::channel_overlap(a, b)
        };

        for i in 0..n {
            for j in (i + 1)..n {
                if Self::uf_find(&mut parent, i) == Self::uf_find(&mut parent, j) {
                    continue;
                }
                if overlap(self.dcf.channel[i], self.dcf.channel[j]) <= 0.0 {
                    continue;
                }
                let d = self.stations[i].pos.distance_to(self.stations[j].pos);
                let coupled = d <= range
                    || self.audible_at(self.rx_power_at(i, j, now))
                    || self.audible_at(self.rx_power_at(j, i, now));
                if coupled {
                    Self::uf_union(&mut parent, i, j);
                }
            }
        }
        self.shard_plan_finish(parent, range)
    }

    /// Renumbers a union-find forest into the canonical plan:
    /// components in first-occurrence order (each shard's index is
    /// determined by its smallest member id, so the partition is a
    /// pure function of the deployment), plus the bounding-box
    /// lookahead.
    fn shard_plan_finish(&self, mut parent: Vec<usize>, range: f64) -> crate::shard::ShardPlan {
        use crate::shard::propagation_delay;
        let n = parent.len();
        let mut shard_of = vec![usize::MAX; n];
        let mut shards: Vec<Vec<StationId>> = Vec::new();
        let mut root_shard: HashMap<usize, usize> = HashMap::new();
        for (i, slot) in shard_of.iter_mut().enumerate() {
            let r = Self::uf_find(&mut parent, i);
            let s = *root_shard.entry(r).or_insert_with(|| {
                shards.push(Vec::new());
                shards.len() - 1
            });
            *slot = s;
            shards[s].push(i);
        }

        // Lookahead: a lower bound on the smallest cross-shard
        // distance via per-shard bounding boxes (O(K²) instead of
        // O(n²); a lower bound keeps the propagation-delay claim
        // conservative).
        let mut lookahead = SimDuration::MAX;
        if shards.len() >= 2 {
            let boxes: Vec<([f64; 3], [f64; 3])> = shards
                .iter()
                .map(|members| {
                    let mut lo = [f64::INFINITY; 3];
                    let mut hi = [f64::NEG_INFINITY; 3];
                    for &m in members {
                        let p = self.stations[m].pos;
                        for (k, v) in [p.x, p.y, p.z].into_iter().enumerate() {
                            lo[k] = lo[k].min(v);
                            hi[k] = hi[k].max(v);
                        }
                    }
                    (lo, hi)
                })
                .collect();
            let mut min_d2 = f64::INFINITY;
            for a in 0..boxes.len() {
                for b in (a + 1)..boxes.len() {
                    let mut d2 = 0.0;
                    for k in 0..3 {
                        let gap = (boxes[a].0[k] - boxes[b].1[k])
                            .max(boxes[b].0[k] - boxes[a].1[k])
                            .max(0.0);
                        d2 += gap * gap;
                    }
                    min_d2 = min_d2.min(d2);
                }
            }
            lookahead = propagation_delay(min_d2.sqrt());
        }

        crate::shard::ShardPlan {
            shard_of,
            shards,
            lookahead,
            max_interference_range_m: range,
        }
    }

    /// Re-validates a [`ShardPlan`](crate::shard::ShardPlan) against
    /// the world's *current* state: station count unchanged, no
    /// coupled pair straddling shards, and every cross-shard pair's
    /// propagation delay at least the plan's lookahead. `None` means
    /// coherent. The check behind the `shard-coherence` oracle —
    /// mobility patches move stations after the plan is computed, and
    /// a stale plan must be caught, not trusted.
    pub fn shard_plan_incoherence(
        &self,
        plan: &crate::shard::ShardPlan,
        now: SimTime,
    ) -> Option<crate::shard::ShardIncoherence> {
        match self.shard_plan_incoherence_grid(plan, now) {
            Some(verdict) => verdict,
            None => self.shard_plan_incoherence_exhaustive(plan, now),
        }
    }

    /// Grid-accelerated re-validation. Outer `None` means the world is
    /// not grid eligible and the caller must fall back to the
    /// exhaustive scan; `Some(verdict)` is authoritative. Both checks
    /// are distance-bounded — coupling by `max(range, reach)` and the
    /// lookahead claim by `lookahead · c` (`delay(d) < L ⇔ d < L·c`
    /// because delay is a floor to integer nanoseconds) — so a sweep
    /// over the 27-cell neighborhoods of a grid whose edge is the
    /// larger bound enumerates every pair that could violate either.
    /// An infinite interference range needs no geometry at all for
    /// coupling: any spectral overlap couples, so cross-shard
    /// violations reduce to channel classes straddling shards.
    fn shard_plan_incoherence_grid(
        &self,
        plan: &crate::shard::ShardPlan,
        now: SimTime,
    ) -> Option<Option<crate::shard::ShardIncoherence>> {
        use crate::shard::{propagation_delay, ShardIncoherence, METRES_PER_NANOSECOND};
        use std::collections::BTreeMap;
        let n = self.stations.len();
        if plan.shard_of.len() != n {
            return Some(Some(ShardIncoherence::StationCountChanged {
                planned: plan.shard_of.len(),
                actual: n,
            }));
        }
        let range = plan.max_interference_range_m;
        let coupling_cell = if range.is_finite() {
            match self.audible_reach_m(now) {
                Some(reach) => Some(range.max(reach)),
                None => return None,
            }
        } else {
            // Infinite range: every spectrally overlapping pair is
            // coupled regardless of distance, so a cross-shard
            // violation exists iff some overlapping channel pair
            // straddles shards. BTreeMaps keep the scan — and the
            // reported witness pair — deterministic.
            let mut classes: BTreeMap<u8, BTreeMap<usize, StationId>> = BTreeMap::new();
            for i in 0..n {
                classes
                    .entry(self.dcf.channel[i])
                    .or_default()
                    .entry(plan.shard_of[i])
                    .or_insert(i);
            }
            let chans: Vec<u8> = classes.keys().copied().collect();
            for (ai, &ca) in chans.iter().enumerate() {
                for &cb in &chans[ai..] {
                    if Self::channel_overlap(ca, cb) <= 0.0 {
                        continue;
                    }
                    let witness = if ca == cb {
                        let mut it = classes[&ca].values();
                        it.next().copied().zip(it.next().copied())
                    } else {
                        classes[&ca].iter().find_map(|(&sa, &a)| {
                            classes[&cb]
                                .iter()
                                .find(|&(&sb, _)| sb != sa)
                                .map(|(_, &b)| (a, b))
                        })
                    };
                    if let Some((a, b)) = witness {
                        let (a, b) = (a.min(b), a.max(b));
                        return Some(Some(ShardIncoherence::CoupledAcrossShards {
                            a,
                            b,
                            dist_m: self.stations[a].pos.distance_to(self.stations[b].pos),
                        }));
                    }
                }
            }
            None
        };
        let lookahead_dist = (plan.lookahead != SimDuration::MAX)
            .then(|| plan.lookahead.as_nanos() as f64 * METRES_PER_NANOSECOND);
        let cell = match (coupling_cell, lookahead_dist) {
            (None, None) => return Some(None),
            (a, b) => a.unwrap_or(0.0).max(b.unwrap_or(0.0)),
        };
        let grid = SpatialGrid::build(cell, self.stations.iter().map(|s| s.pos));
        let mut hood = Vec::new();
        for i in 0..n {
            hood.clear();
            grid.neighborhood_into(grid.cell_of(i), &mut hood);
            for &j in &hood {
                if j <= i || plan.shard_of[i] == plan.shard_of[j] {
                    continue;
                }
                let d = self.stations[i].pos.distance_to(self.stations[j].pos);
                if coupling_cell.is_some()
                    && Self::channel_overlap(self.dcf.channel[i], self.dcf.channel[j]) > 0.0
                {
                    let coupled = d <= range
                        || self.audible_at(self.rx_power_at(i, j, now))
                        || self.audible_at(self.rx_power_at(j, i, now));
                    if coupled {
                        return Some(Some(ShardIncoherence::CoupledAcrossShards {
                            a: i,
                            b: j,
                            dist_m: d,
                        }));
                    }
                }
                if plan.lookahead != SimDuration::MAX && propagation_delay(d) < plan.lookahead {
                    return Some(Some(ShardIncoherence::LookaheadExceedsDelay {
                        a: i,
                        b: j,
                        delay: propagation_delay(d),
                    }));
                }
            }
        }
        Some(None)
    }

    /// The reference O(n²) re-validation scan; public so the fuzz
    /// differential legs can compare it against the grid path.
    pub fn shard_plan_incoherence_exhaustive(
        &self,
        plan: &crate::shard::ShardPlan,
        now: SimTime,
    ) -> Option<crate::shard::ShardIncoherence> {
        use crate::shard::{propagation_delay, ShardIncoherence};
        let n = self.stations.len();
        if plan.shard_of.len() != n {
            return Some(ShardIncoherence::StationCountChanged {
                planned: plan.shard_of.len(),
                actual: n,
            });
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if plan.shard_of[i] == plan.shard_of[j] {
                    continue;
                }
                let d = self.stations[i].pos.distance_to(self.stations[j].pos);
                if Self::channel_overlap(self.dcf.channel[i], self.dcf.channel[j]) > 0.0 {
                    let coupled = d <= plan.max_interference_range_m
                        || self.audible_at(self.rx_power_at(i, j, now))
                        || self.audible_at(self.rx_power_at(j, i, now));
                    if coupled {
                        return Some(ShardIncoherence::CoupledAcrossShards {
                            a: i,
                            b: j,
                            dist_m: d,
                        });
                    }
                }
                if plan.lookahead != SimDuration::MAX && propagation_delay(d) < plan.lookahead {
                    return Some(ShardIncoherence::LookaheadExceedsDelay {
                        a: i,
                        b: j,
                        delay: propagation_delay(d),
                    });
                }
            }
        }
        None
    }

    /// Start-time received powers and audible-candidate list for a
    /// transmission from `id`: the cached row under a static loss
    /// model, a fresh O(n) evaluation of the same row shape under a
    /// time-varying one. Candidates are the stations whose *raw*
    /// co-channel power meets the CS threshold — cross-channel leakage
    /// is never stronger than raw power, so this is a superset of
    /// anything any receiver configuration can hear, and the
    /// per-member awake/channel/leak checks stay in the MAC.
    pub(super) fn tx_powers(
        &mut self,
        id: StationId,
        now: SimTime,
    ) -> (RxRow, Arc<Vec<StationId>>) {
        if self.loss_contract == LossContract::TimeVarying {
            return NeighborCache::evaluate_row(
                id,
                self.cfg.cs_threshold,
                |a, b| self.rx_power_at(a, b, now),
                0..self.stations.len(),
            );
        }
        self.ensure_neighbors(now);
        (self.neighbors.row(id), self.neighbors.audible_list(id))
    }

    pub(super) fn audible_at(&self, power: Dbm) -> bool {
        power.value() >= self.cfg.cs_threshold.value()
    }

    /// Spectral overlap between two 2.4 GHz channels (1.0 co-channel,
    /// 0.0 orthogonal) — adjacent channels leak energy into each other,
    /// the §6 interference mechanism behind the 1/6/11 channel plan.
    pub(crate) fn channel_overlap(a: u8, b: u8) -> f64 {
        if a == b {
            return 1.0;
        }
        match (
            wn_phy::bands::Channel::ism24(a),
            wn_phy::bands::Channel::ism24(b),
        ) {
            (Ok(ca), Ok(cb)) => ca.overlap_with(cb),
            _ => 0.0,
        }
    }

    /// Received power of a cross-channel emission after the spectral
    /// mask discount; `None` when fully orthogonal.
    pub(super) fn leaked_power(power: Dbm, overlap: f64) -> Option<Dbm> {
        if overlap >= 1.0 {
            Some(power)
        } else if overlap <= 0.0 {
            None
        } else {
            Some(Dbm(power.value() + 10.0 * overlap.log10()))
        }
    }
}
