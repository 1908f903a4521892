//! Dynamic variable reordering by Rudell sifting (ICCAD 1993), as CUDD's
//! `CUDD_REORDER_SIFT` used in the reproduced paper.
//!
//! The primitive is an in-place swap of two adjacent levels: nodes at the
//! upper level are rewritten so every live node keeps denoting the same
//! Boolean function afterwards. Protected handles therefore survive
//! reordering unchanged.
//!
//! A sifting pass adds two devices of CUDD's sifting, neither of which
//! changes the order a pass ends in. The **interaction matrix** (built once
//! per pass, after its garbage collection) records which variables occur
//! together in the support of some root function; a swap of two adjacent
//! variables that do not interact is a relabel of their levels. The
//! **lower bound** of Drechsler, Günther and Somenzi (IEEE TCAD 2001) ends
//! a sift direction once no position left in it can beat the best size
//! seen.

use crate::hasher::{pair_hash, FxBuildHasher};
#[cfg(test)]
use crate::manager::Bdd;
use crate::manager::{BddManager, BddVar, Node, NIL};
use std::collections::HashMap;

/// Which variable pairs occur together in the support of some root
/// function: a symmetric bit matrix with one row per variable.
struct Interactions {
    words: usize,
    rows: Vec<u64>,
}

impl Interactions {
    /// Whether variables `a` and `b` (creation indices) interact.
    fn test(&self, a: u32, b: u32) -> bool {
        let b = b as usize;
        self.rows[a as usize * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

/// One sifting pass: its interaction matrix and the counts its
/// `bdd.reorder` span reports.
struct SiftPass {
    interactions: Interactions,
    /// Adjacent swaps, relabels included.
    swaps: u64,
    /// Swaps done as relabels of non-interacting levels.
    relabel_swaps: u64,
    /// Sift directions ended by the lower bound.
    pruned: u64,
}

impl BddManager {
    /// Swaps the variables at `level` and `level + 1` in place.
    ///
    /// All live nodes keep their identity and meaning; dead nodes at the two
    /// levels (and anything they exclusively referenced) are reclaimed.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1` is not a valid level.
    pub fn swap_adjacent(&mut self, level: u32) {
        let lev_u = level;
        let lev_v = level + 1;
        assert!((lev_v as usize) < self.tables.len(), "level out of range");
        // Stale cache entries would reference nodes this swap may free.
        self.cache.clear();

        let u_nodes = self.drain_level(lev_u);
        let v_nodes = self.drain_level(lev_v);

        // Pass 1: u-nodes independent of v keep their children and simply
        // move down one level. They must be inserted before pass 2 so the
        // rebuild below finds them instead of creating duplicates.
        let mut dependent = Vec::new();
        for idx in u_nodes {
            let (lo, hi) = {
                let n = &self.nodes[idx as usize];
                (n.lo, n.hi)
            };
            if self.level(lo) != lev_v && self.level(hi) != lev_v {
                self.nodes[idx as usize].level = lev_v;
                self.table_insert(lev_v, idx);
            } else {
                dependent.push(idx);
            }
        }

        // Pass 2: rebuild the dependent u-nodes in place. A node
        // `ite(u, F0, F1)` becomes `ite(v, G0, G1)` with
        // `G0 = ite(u, F00, F10)` and `G1 = ite(u, F01, F11)`.
        for idx in dependent {
            let (f0, f1) = {
                let n = &self.nodes[idx as usize];
                (n.lo, n.hi)
            };
            // Expanding a child distributes its complement tag onto the
            // grandchildren. `f1` is a stored then-edge, hence regular.
            debug_assert_eq!(f1 & 1, 0, "stored then-edge must be regular");
            let (f00, f01) = if self.level(f0) == lev_v {
                let n = &self.nodes[(f0 >> 1) as usize];
                let tag = f0 & 1;
                (n.lo ^ tag, n.hi ^ tag)
            } else {
                (f0, f0)
            };
            let (f10, f11) = if self.level(f1) == lev_v {
                let n = &self.nodes[(f1 >> 1) as usize];
                (n.lo, n.hi)
            } else {
                (f1, f1)
            };
            let g0 = self.mk(lev_v, f00, f10);
            let g1 = self.mk(lev_v, f01, f11);
            debug_assert_ne!(g0, g1, "rebuilt node would be redundant");
            // Both rebuilt children take their then-slot from `f1`'s regular
            // expansion, so neither acquires a complement tag and the
            // rewritten node keeps the canonical (regular then-edge) form.
            debug_assert_eq!(g1.0 & 1, 0, "rebuilt then-edge must stay regular");
            self.inc_node(g0.0);
            self.inc_node(g1.0);
            self.dec_node(f0);
            self.dec_node(f1);
            let n = &mut self.nodes[idx as usize];
            n.lo = g0.0;
            n.hi = g1.0;
            // Level stays `lev_u`: the node now branches on v, which is
            // about to move to the upper level.
            self.table_insert(lev_u, idx);
        }

        // Pass 3: surviving v-nodes move up; dead ones are reclaimed.
        for idx in v_nodes {
            if self.nodes[idx as usize].refs > 0 {
                self.nodes[idx as usize].level = lev_u;
                self.table_insert(lev_u, idx);
            } else {
                self.free_detached(idx);
            }
        }

        self.exchange_labels(lev_u);
    }

    /// Exchanges the variable labels of `level` and `level + 1`.
    fn exchange_labels(&mut self, level: u32) {
        let (upper, lower) = (level as usize, level as usize + 1);
        self.level_to_var.swap(upper, lower);
        self.var_to_level[self.level_to_var[upper] as usize] = level;
        self.var_to_level[self.level_to_var[lower] as usize] = level + 1;
    }

    /// Unlinks every node of `level`'s unique table and returns their ids.
    fn drain_level(&mut self, level: u32) -> Vec<u32> {
        let bucket_count = self.tables[level as usize].buckets.len();
        let mut out = Vec::with_capacity(self.tables[level as usize].count);
        for b in 0..bucket_count {
            let mut cursor = self.tables[level as usize].buckets[b];
            self.tables[level as usize].buckets[b] = NIL;
            while cursor != NIL {
                let next = self.nodes[cursor as usize].next;
                self.nodes[cursor as usize].next = NIL;
                out.push(cursor);
                cursor = next;
            }
        }
        self.tables[level as usize].count = 0;
        out
    }

    /// Frees a dead node that is already detached from its unique table,
    /// cascading to children that die with it.
    fn free_detached(&mut self, idx: u32) {
        debug_assert_eq!(self.nodes[idx as usize].refs, 0);
        let (lo, hi) = {
            let n = &self.nodes[idx as usize];
            (n.lo, n.hi)
        };
        self.nodes[idx as usize] = Node { level: 0, lo: NIL, hi: NIL, refs: 0, next: NIL };
        self.free.push(idx);
        self.dead -= 1;
        self.adjust_live(-1);
        self.cascade_release(lo);
        self.cascade_release(hi);
    }

    fn cascade_release(&mut self, edge: u32) {
        self.dec_node(edge);
        let idx = edge >> 1;
        if idx != 0 && self.nodes[idx as usize].refs == 0 {
            let level = self.nodes[idx as usize].level;
            self.table_remove(level, idx);
            self.free_detached(idx);
        }
    }

    /// Swaps the variables at `level` and `level + 1` when they do not
    /// interact. No node at `level` then has a child at `level + 1`, so
    /// the full swap would only move every node of both levels to the
    /// other level: here the two unique tables trade places whole (their
    /// buckets hash children only) and the nodes' `level` fields follow.
    /// Nothing is created, freed or re-hashed, and the computed table stays
    /// valid since every node keeps its function.
    fn relabel_adjacent(&mut self, level: u32) {
        let (upper, lower) = (level as usize, level as usize + 1);
        debug_assert_eq!(self.dead, 0, "relabelling needs a graph without dead nodes");
        debug_assert!(
            self.level_nodes(upper).all(|idx| {
                let n = &self.nodes[idx as usize];
                self.level(n.lo) != level + 1 && self.level(n.hi) != level + 1
            }),
            "relabelled levels interact: an upper node has a lower child"
        );
        self.relevel(upper, level + 1);
        self.relevel(lower, level);
        self.tables.swap(upper, lower);
        self.exchange_labels(level);
    }

    /// Rewrites the `level` field of every node chained in `table`.
    fn relevel(&mut self, table: usize, level: u32) {
        for b in 0..self.tables[table].buckets.len() {
            let mut cursor = self.tables[table].buckets[b];
            while cursor != NIL {
                let n = &mut self.nodes[cursor as usize];
                n.level = level;
                cursor = n.next;
            }
        }
    }

    /// The node ids chained in the unique table of `level`.
    fn level_nodes(&self, level: usize) -> impl Iterator<Item = u32> + '_ {
        self.tables[level].buckets.iter().flat_map(move |&head| {
            let first = Some(head).filter(|&c| c != NIL);
            std::iter::successors(first, move |&c| {
                Some(self.nodes[c as usize].next).filter(|&n| n != NIL)
            })
        })
    }

    /// The interaction matrix of the current graph: variables `a` and `b`
    /// interact when some externally referenced node (more references than
    /// in-graph parents) has both in its support.
    ///
    /// Call it on a graph without dead nodes. Then every node hangs below a
    /// node without parents, which is externally referenced, and a node's
    /// support lies inside each ancestor's; so the parentless nodes alone
    /// give the whole matrix. Supports are computed bottom-up and interned,
    /// so nodes with equal supports share one bit set.
    fn interactions(&self) -> Interactions {
        const HAS_PARENT: u32 = 1 << 31;
        let vars = self.var_count();
        let words = vars.div_ceil(64).max(1);
        let fingerprint = |set: &[u64]| {
            set.iter().fold(0, |h: u64, &w| pair_hash(((h ^ w) >> 32) as u32, (h ^ w) as u32))
        };
        // Interned support sets of `words` words each, keyed by fingerprint
        // (a collision moves on to the next key). Set 0 is the terminal's
        // empty set, so below only free slots and the terminal stay 0.
        let mut sets = vec![0u64; words];
        let mut ids: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
        ids.insert(fingerprint(&sets), 0);
        // Per node: its support's id, plus `HAS_PARENT` once a parent is seen.
        let mut support = vec![0u32; self.nodes.len()];
        let mut set = vec![0u64; words];
        for level in (0..self.tables.len()).rev() {
            let var = self.level_to_var[level] as usize;
            for idx in self.level_nodes(level) {
                let n = &self.nodes[idx as usize];
                let (lo, hi) = ((n.lo >> 1) as usize, (n.hi >> 1) as usize);
                support[lo] |= HAS_PARENT;
                support[hi] |= HAS_PARENT;
                let lo_set = (support[lo] & !HAS_PARENT) as usize * words;
                let hi_set = (support[hi] & !HAS_PARENT) as usize * words;
                for (w, word) in set.iter_mut().enumerate() {
                    *word = sets[lo_set + w] | sets[hi_set + w];
                }
                set[var / 64] |= 1 << (var % 64);
                let mut key = fingerprint(&set);
                support[idx as usize] = loop {
                    match ids.get(&key) {
                        Some(&id) if sets[id as usize * words..][..words] == set[..] => break id,
                        Some(_) => key = key.wrapping_add(1),
                        None => {
                            let id = (sets.len() / words) as u32;
                            sets.extend_from_slice(&set);
                            ids.insert(key, id);
                            break id;
                        }
                    }
                };
            }
        }
        let mut rows = vec![0u64; vars * words];
        let mut marked = vec![false; sets.len() / words];
        for &entry in &support {
            // A live parentless node, and the first one with this support.
            if entry == 0
                || entry & HAS_PARENT != 0
                || std::mem::replace(&mut marked[entry as usize], true)
            {
                continue;
            }
            let set = &sets[entry as usize * words..][..words];
            for a in (0..vars).filter(|&a| set[a / 64] >> (a % 64) & 1 == 1) {
                for (row, word) in rows[a * words..][..words].iter_mut().zip(set) {
                    *row |= word;
                }
            }
        }
        Interactions { words, rows }
    }

    /// Swaps `level` and `level + 1` within a sifting pass: a relabel when
    /// their variables do not interact, the full swap otherwise.
    fn sift_swap(&mut self, level: u32, pass: &mut SiftPass) {
        pass.swaps += 1;
        let upper = self.level_to_var[level as usize];
        let lower = self.level_to_var[level as usize + 1];
        if pass.interactions.test(upper, lower) {
            self.swap_adjacent(level);
        } else {
            pass.relabel_swaps += 1;
            self.relabel_adjacent(level);
        }
    }

    /// Moves `var` to `target` by adjacent sifting swaps.
    fn sift_to(&mut self, var: BddVar, target: u32, pass: &mut SiftPass) {
        let mut pos = self.level_of(var);
        while pos < target {
            self.sift_swap(pos, pass);
            pos += 1;
        }
        while pos > target {
            self.sift_swap(pos - 1, pass);
            pos -= 1;
        }
    }

    /// Sum over `levels` holding a variable that interacts with `var` of
    /// the level's nodes other than its pinned projection.
    fn reducible(&self, var: BddVar, levels: std::ops::Range<u32>, pass: &SiftPass) -> usize {
        levels
            .filter(|&l| pass.interactions.test(var.0, self.level_to_var[l as usize]))
            .map(|l| self.tables[l as usize].count - 1)
            .sum()
    }

    /// Moves `var` through the order to its locally best position: toward
    /// the nearer end first, back to the best level seen, toward the other
    /// end, then back to the best level.
    ///
    /// A direction ends once the size exceeds `max_growth` times the size
    /// at the start, or before a swap once a lower bound on the size at
    /// every position left in that direction reaches the best size seen.
    /// While `var` moves, only its own level and the interacting levels it
    /// passes change; every other level keeps its nodes, and every level
    /// keeps its pinned projection. Moving down, the nodes at `var`'s level
    /// do not vanish either: each stays the root of a function that depends
    /// on `var`, now at `var`'s new level or at an interacting level it
    /// passed. So the bound is the size minus the non-projection nodes of
    /// the interacting levels below; moving up, it is the size minus those
    /// of the interacting levels above and of `var`'s own level. No
    /// position past the cut can be strictly smaller, so the sift ends
    /// where one without the bound would.
    fn sift_var(&mut self, var: BddVar, max_growth: f64, pass: &mut SiftPass) {
        let levels = self.tables.len() as u32;
        if levels < 2 {
            return;
        }
        let start = self.level_of(var);
        let limit = (self.live_count() as f64 * max_growth) as usize + 2;
        let mut best_size = self.live_count();
        let mut best_level = start;
        let down_first = (levels - 1 - start) <= start;
        for down in [down_first, !down_first] {
            self.sift_to(var, best_level, pass);
            let mut pos = best_level;
            let mut reducible = if down {
                self.reducible(var, pos + 1..levels, pass)
            } else {
                self.reducible(var, 0..pos, pass)
            };
            loop {
                let (next, floor) = if down {
                    if pos + 1 >= levels {
                        break;
                    }
                    (pos + 1, self.live_count() - reducible)
                } else {
                    if pos == 0 {
                        break;
                    }
                    let own = self.tables[pos as usize].count - 1;
                    (pos - 1, self.live_count() - reducible - own)
                };
                if floor >= best_size {
                    pass.pruned += 1;
                    break;
                }
                // The level about to be passed leaves the bound's range; its
                // count has not changed since the sum was taken.
                if pass.interactions.test(var.0, self.level_to_var[next as usize]) {
                    reducible -= self.tables[next as usize].count - 1;
                }
                self.sift_swap(pos.min(next), pass);
                pos = next;
                let size = self.live_count();
                if size < best_size {
                    best_size = size;
                    best_level = pos;
                }
                if size > limit {
                    break;
                }
            }
        }
        self.sift_to(var, best_level, pass);
    }

    /// Rudell's schedule: every variable once, most populous level first.
    fn sift_schedule(&self) -> Vec<BddVar> {
        let mut vars: Vec<(usize, u32)> =
            (0..self.tables.len()).map(|l| (self.tables[l].count, self.level_to_var[l])).collect();
        vars.sort_by_key(|v| std::cmp::Reverse(v.0));
        vars.into_iter().map(|(_, var)| BddVar(var)).collect()
    }

    /// One full sifting pass: every variable is sifted once, most populous
    /// level first (Rudell's ordering).
    ///
    /// Dead nodes are collected first; protected handles survive unchanged.
    /// Returns the live node count after the pass.
    pub fn reorder(&mut self) -> usize {
        let span = if self.tracer.enabled() {
            let s = self.tracer.span("bdd.reorder");
            s.set_attr("kind", "sift");
            Some(s)
        } else {
            None
        };
        self.collect_garbage();
        let live_before = self.live_count();
        if let Some(s) = &span {
            s.set_attr("live_before", live_before);
        }
        self.cache.clear();
        let max_growth = self.reorder_settings.max_growth;
        let mut pass =
            SiftPass { interactions: self.interactions(), swaps: 0, relabel_swaps: 0, pruned: 0 };
        for var in self.sift_schedule() {
            self.sift_var(var, max_growth, &mut pass);
        }
        self.note_reordering();
        let live = self.live_count();
        if let Some(s) = span {
            s.set_attr("live_after", live);
            s.set_attr("swaps", pass.swaps);
            s.set_attr("relabel_swaps", pass.relabel_swaps);
            s.set_attr("pruned", pass.pruned);
            self.tracer.record("bdd.reorder.live_after", live as u64);
        }
        self.flight_note("reorder", live_before as u64, live as u64);
        live
    }

    /// One pass of **window-3 permutation** reordering: for every window of
    /// three adjacent levels, all six permutations are tried (via adjacent
    /// swaps) and the best is kept. Cheaper but weaker than sifting; kept
    /// as an ablation point and a fast clean-up pass.
    ///
    /// Returns the live node count after the pass.
    pub fn reorder_window3(&mut self) -> usize {
        let span = if self.tracer.enabled() {
            let s = self.tracer.span("bdd.reorder");
            s.set_attr("kind", "window3");
            Some(s)
        } else {
            None
        };
        self.collect_garbage();
        let live_before = self.live_count();
        if let Some(s) = &span {
            s.set_attr("live_before", live_before);
        }
        self.cache.clear();
        let levels = self.tables.len();
        if levels < 3 {
            return live_before;
        }
        for top in 0..levels - 2 {
            let i = top as u32;
            // Enumerate the 6 permutations of levels (i, i+1, i+2) by a
            // fixed swap schedule; track the best prefix.
            // Swap sequence: s0 s1 s0 s1 s0 cycles through all 6 states.
            let mut best_size = self.live_count();
            let mut best_state = 0usize;
            let schedule = [i, i + 1, i, i + 1, i];
            for (state, &level) in schedule.iter().enumerate() {
                self.swap_adjacent(level);
                let size = self.live_count();
                if size < best_size {
                    best_size = size;
                    best_state = state + 1;
                }
            }
            // Rewind from state 5 back to the best state.
            for state in (best_state..5).rev() {
                self.swap_adjacent(schedule[state]);
            }
        }
        self.note_reordering();
        let live = self.live_count();
        if let Some(s) = span {
            s.set_attr("live_after", live);
        }
        self.flight_note("reorder", live_before as u64, live as u64);
        live
    }

    /// Repeats [`BddManager::reorder`] until a pass stops shrinking the
    /// graph (or `max_passes` is hit).
    pub fn sift_to_fixpoint(&mut self, max_passes: usize) -> usize {
        let mut size = self.live_count();
        for _ in 0..max_passes {
            let new_size = self.reorder();
            if new_size >= size {
                return new_size;
            }
            size = new_size;
        }
        size
    }

    /// Triggers [`BddManager::reorder`] if automatic reordering is enabled
    /// and the stored node count ([`BddStats::live_nodes`](crate::BddStats::live_nodes),
    /// dead nodes awaiting collection included) exceeds the configured
    /// threshold. The pass collects garbage before it sifts.
    ///
    /// Returns `true` if a reordering pass ran. Call this between
    /// operations only — never while unprotected intermediate results are
    /// held.
    pub fn maybe_reorder(&mut self) -> bool {
        if !self.reorder_settings.enabled || self.live_count() <= self.reorder_settings.threshold {
            return false;
        }
        self.reorder();
        let next = (self.live_count() as f64 * self.reorder_settings.growth) as usize;
        self.reorder_settings.threshold = self.reorder_settings.threshold.max(next);
        true
    }

    /// Rearranges the levels to match `order` exactly (top to bottom).
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of all declared variables.
    pub fn set_var_order(&mut self, order: &[BddVar]) {
        assert_eq!(order.len(), self.var_count(), "order must mention every variable");
        let mut seen = vec![false; self.var_count()];
        for v in order {
            assert!(!std::mem::replace(&mut seen[v.0 as usize], true), "duplicate variable");
        }
        self.collect_garbage();
        for (target, &var) in order.iter().enumerate() {
            // Bubble `var` up to `target`; everything above `target` is done.
            let mut pos = self.level_of(var);
            debug_assert!(pos >= target as u32);
            while pos > target as u32 {
                self.swap_adjacent(pos - 1);
                pos -= 1;
            }
        }
    }

    /// The current order as a top-to-bottom list of variables.
    pub fn var_order(&self) -> Vec<BddVar> {
        self.level_to_var.iter().map(|&v| BddVar(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReorderSettings;
    use bbec_trace::{AttrValue, Trace, TraceEvent, Tracer};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    impl BddManager {
        /// The sift without interaction matrix or lower bound: full swaps
        /// only, each direction run to the growth limit or the end.
        fn sift_var_reference(&mut self, var: BddVar, max_growth: f64) {
            let levels = self.tables.len() as u32;
            if levels < 2 {
                return;
            }
            let start = self.level_of(var);
            let start_size = self.live_count();
            let limit = (start_size as f64 * max_growth) as usize + 2;
            let mut best_size = start_size;
            let mut best_level = start;
            let down_first = (levels - 1 - start) <= start;
            let order: [i8; 2] = if down_first { [1, -1] } else { [-1, 1] };
            let mut pos = start;
            for (phase, &dir) in order.iter().enumerate() {
                if phase == 1 {
                    while pos < best_level {
                        self.swap_adjacent(pos);
                        pos += 1;
                    }
                    while pos > best_level {
                        self.swap_adjacent(pos - 1);
                        pos -= 1;
                    }
                }
                loop {
                    if dir > 0 {
                        if pos + 1 >= levels {
                            break;
                        }
                        self.swap_adjacent(pos);
                        pos += 1;
                    } else {
                        if pos == 0 {
                            break;
                        }
                        self.swap_adjacent(pos - 1);
                        pos -= 1;
                    }
                    let size = self.live_count();
                    if size < best_size {
                        best_size = size;
                        best_level = pos;
                    }
                    if size > limit {
                        break;
                    }
                }
            }
            while pos < best_level {
                self.swap_adjacent(pos);
                pos += 1;
            }
            while pos > best_level {
                self.swap_adjacent(pos - 1);
                pos -= 1;
            }
        }

        /// [`BddManager::reorder`] with the reference sift.
        fn reorder_reference(&mut self) -> usize {
            self.collect_garbage();
            self.cache.clear();
            let max_growth = self.reorder_settings.max_growth;
            for var in self.sift_schedule() {
                self.sift_var_reference(var, max_growth);
            }
            self.note_reordering();
            self.live_count()
        }
    }

    /// A seeded random forest of separately protected roots over 2 to 14
    /// variables in a shuffled order. Variables fall into groups: a root
    /// over one group has a support disjoint from other groups' roots, a
    /// root over two groups shares it. Random negations put complement
    /// edges everywhere; unprotected intermediates stay behind as garbage.
    fn random_forest(seed: u64, max_growth: f64) -> (BddManager, Vec<Bdd>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = BddManager::with_reordering(ReorderSettings {
            enabled: false,
            max_growth,
            ..ReorderSettings::default()
        });
        let n = rng.random_range(2..=14usize);
        let vars = m.new_vars(n);
        let mut order = vars.clone();
        order.shuffle(&mut rng);
        m.set_var_order(&order);
        let groups = rng.random_range(1..=n.min(4));
        let group: Vec<usize> = (0..n).map(|_| rng.random_range(0..groups)).collect();
        let mut roots = Vec::new();
        for _ in 0..rng.random_range(1..=6) {
            let (g1, g2) = (rng.random_range(0..groups), rng.random_range(0..groups));
            let g2 = if rng.random_bool(0.4) { g2 } else { g1 };
            let mut pool: Vec<Bdd> = (0..n)
                .filter(|&i| group[i] == g1 || group[i] == g2)
                .map(|i| m.var(vars[i]))
                .collect();
            if pool.is_empty() {
                continue;
            }
            for _ in 0..rng.random_range(1..=2 * pool.len()) {
                let f = pool[rng.random_range(0..pool.len())];
                let g = pool[rng.random_range(0..pool.len())];
                let g = if rng.random_bool(0.5) { m.not(g) } else { g };
                let h = match rng.random_range(0..4) {
                    0 => m.and(f, g),
                    1 => m.or(f, g),
                    2 => m.xor(f, g),
                    _ => {
                        let c = pool[rng.random_range(0..pool.len())];
                        m.ite(c, f, g)
                    }
                };
                pool.push(h);
            }
            roots.push(m.protect(pool[pool.len() - 1]));
        }
        (m, roots)
    }

    /// Sums one numeric attribute over the `bdd.reorder` spans of a trace.
    fn reorder_attr(trace: &Trace, key: &str) -> u64 {
        trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name: "bdd.reorder", attrs, .. } => {
                    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
                }
                _ => None,
            })
            .map(|v| match v {
                AttrValue::U64(n) => n,
                other => panic!("{key} is not a count: {other:?}"),
            })
            .sum()
    }

    #[test]
    fn bounded_relabelling_sift_ends_where_the_reference_does() {
        let tracer = Tracer::new();
        for seed in 0..300 {
            let max_growth = [1.0, 1.2, 2.0][seed as usize % 3];
            let (mut m, roots) = random_forest(seed, max_growth);
            let (mut reference, _) = random_forest(seed, max_growth);
            m.set_tracer(tracer.clone());
            let n = m.var_count();
            let tables: Vec<Vec<bool>> = roots.iter().map(|&f| truth_table(&m, f, n)).collect();
            for pass in 0..2 {
                m.reorder();
                reference.reorder_reference();
                m.check_invariants();
                assert_eq!(m.var_order(), reference.var_order(), "seed {seed}, pass {pass}");
                assert_eq!(
                    m.stats().live_nodes,
                    reference.stats().live_nodes,
                    "seed {seed}, pass {pass}"
                );
                assert_eq!(m.dead_nodes(), 0, "a sifting swap left dead nodes");
            }
            for (&f, table) in roots.iter().zip(&tables) {
                assert_eq!(&truth_table(&m, f, n), table, "seed {seed}: a root changed");
            }
        }
        // Both shortcuts must have fired, or the equivalence is vacuous.
        let trace = tracer.finish();
        let relabels = reorder_attr(&trace, "relabel_swaps");
        assert!(relabels > 0, "no swap was a relabel");
        assert!(reorder_attr(&trace, "swaps") > relabels, "every swap was a relabel");
        assert!(reorder_attr(&trace, "pruned") > 0, "the lower bound never ended a direction");
    }

    #[test]
    fn interaction_matrix_matches_support_pairs_of_the_roots() {
        for seed in 0..100 {
            let (mut m, roots) = random_forest(seed, 1.2);
            m.collect_garbage();
            let matrix = m.interactions();
            let supports: Vec<Vec<BddVar>> = roots.iter().map(|&f| m.support(f)).collect();
            let n = m.var_count() as u32;
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).filter(|(a, b)| a != b) {
                let together =
                    supports.iter().any(|s| s.contains(&BddVar(a)) && s.contains(&BddVar(b)));
                assert_eq!(matrix.test(a, b), together, "seed {seed}: variables {a} and {b}");
            }
        }
    }

    /// Builds f = (x0 ∧ x1) ∨ (x2 ∧ x3) ∨ (x4 ∧ x5) and returns (manager, f).
    fn two_level_example() -> (BddManager, Bdd, Vec<BddVar>) {
        let mut m = BddManager::new();
        let vars = m.new_vars(6);
        let mut f = m.constant(false);
        for pair in vars.chunks(2) {
            let a = m.var(pair[0]);
            let b = m.var(pair[1]);
            let t = m.and(a, b);
            f = m.or(f, t);
        }
        m.protect(f);
        (m, f, vars)
    }

    fn truth_table(m: &BddManager, f: Bdd, n: usize) -> Vec<bool> {
        (0..1u32 << n)
            .map(|bits| {
                let assign: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                m.eval(f, &assign)
            })
            .collect()
    }

    #[test]
    fn swap_preserves_semantics() {
        let (mut m, f, _) = two_level_example();
        let before = truth_table(&m, f, 6);
        for level in 0..5 {
            m.swap_adjacent(level);
            m.check_invariants();
            assert_eq!(truth_table(&m, f, 6), before, "swap at level {level} broke f");
        }
    }

    #[test]
    fn swap_twice_is_identity_order() {
        let (mut m, f, vars) = two_level_example();
        let order_before = m.var_order();
        let size_before = m.node_count(f);
        m.swap_adjacent(2);
        m.swap_adjacent(2);
        assert_eq!(m.var_order(), order_before);
        assert_eq!(m.node_count(f), size_before);
        let _ = vars;
    }

    #[test]
    fn interleaved_order_shrinks_disjoint_conjunctions() {
        // With order x0 x2 x4 x1 x3 x5 the function needs exponentially many
        // nodes; sifting must recover (close to) the interleaved order.
        let mut m = BddManager::new();
        let vars = m.new_vars(6);
        let bad = [vars[0], vars[2], vars[4], vars[1], vars[3], vars[5]];
        m.set_var_order(&bad);
        let mut f = m.constant(false);
        for pair in [(0, 1), (2, 3), (4, 5)] {
            let a = m.var(vars[pair.0]);
            let b = m.var(vars[pair.1]);
            let t = m.and(a, b);
            f = m.or(f, t);
        }
        m.protect(f);
        let before = m.node_count(f);
        let tt = truth_table(&m, f, 6);
        m.reorder();
        m.check_invariants();
        let after = m.node_count(f);
        assert!(after < before, "sifting failed to shrink: {before} -> {after}");
        assert_eq!(truth_table(&m, f, 6), tt);
    }

    #[test]
    fn set_var_order_applies_permutation() {
        let (mut m, f, vars) = two_level_example();
        let tt = truth_table(&m, f, 6);
        let target = vec![vars[5], vars[3], vars[1], vars[0], vars[2], vars[4]];
        m.set_var_order(&target);
        assert_eq!(m.var_order(), target);
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 6), tt);
    }

    #[test]
    fn window3_preserves_semantics_and_shrinks() {
        let mut m = BddManager::new();
        let vars = m.new_vars(6);
        let bad = [vars[0], vars[2], vars[4], vars[1], vars[3], vars[5]];
        m.set_var_order(&bad);
        let mut f = m.constant(false);
        for pair in [(0, 1), (2, 3), (4, 5)] {
            let a = m.var(vars[pair.0]);
            let b = m.var(vars[pair.1]);
            let t = m.and(a, b);
            f = m.or(f, t);
        }
        m.protect(f);
        let tt = truth_table(&m, f, 6);
        let before = m.node_count(f);
        // A few passes: window-3 is local, so iterate.
        for _ in 0..4 {
            m.reorder_window3();
        }
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 6), tt);
        assert!(m.node_count(f) <= before);
    }

    #[test]
    fn window3_on_tiny_managers_is_noop() {
        let mut m = BddManager::new();
        let v = m.new_vars(2);
        let a = m.var(v[0]);
        let b = m.var(v[1]);
        let f = m.and(a, b);
        m.protect(f);
        let size = m.reorder_window3();
        assert_eq!(size, m.stats().live_nodes);
    }

    #[test]
    fn maybe_reorder_respects_threshold() {
        let mut m = BddManager::with_reordering(crate::ReorderSettings {
            threshold: 1_000_000,
            ..Default::default()
        });
        let vars = m.new_vars(4);
        let a = m.var(vars[0]);
        let b = m.var(vars[1]);
        let f = m.and(a, b);
        m.protect(f);
        assert!(!m.maybe_reorder(), "below threshold must not reorder");
    }

    #[test]
    fn dead_nodes_alone_can_trigger_reordering() {
        let threshold = 24;
        let mut m = BddManager::with_reordering(ReorderSettings {
            threshold,
            ..ReorderSettings::default()
        });
        let vars = m.new_vars(8);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let f = m.and(lits[0], lits[1]);
        m.protect(f);
        let kept = m.stats().live_nodes;
        assert!(kept <= threshold);
        // Unprotected parity prefixes: garbage awaiting collection.
        let mut parity = m.constant(false);
        for &l in &lits {
            parity = m.xor(parity, l);
        }
        assert!(m.stats().live_nodes > threshold, "the garbage must cross the threshold");
        assert!(m.maybe_reorder(), "the trigger counts unreferenced nodes");
        // The pass collected the garbage first and sifted the rest.
        assert_eq!(m.stats().live_nodes, kept);
    }

    #[test]
    fn reorder_reclaims_dead_nodes() {
        let (mut m, f, _) = two_level_example();
        // Create garbage.
        for _ in 0..4 {
            let g = m.not(f);
            let _ = m.not(g);
        }
        let tt = truth_table(&m, f, 6);
        m.reorder();
        m.check_invariants();
        assert_eq!(truth_table(&m, f, 6), tt);
        assert_eq!(m.dead_nodes(), 0);
    }

    #[test]
    fn projections_survive_reordering() {
        let (mut m, _, vars) = two_level_example();
        m.reorder();
        for (i, &v) in vars.iter().enumerate() {
            let lit = m.var(v);
            let mut assign = vec![false; 6];
            assert!(!m.eval(lit, &assign));
            assign[i] = true;
            assert!(m.eval(lit, &assign));
        }
    }
}
