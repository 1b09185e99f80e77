//! Incremental (dirty-path) evaluation of a synthesized clock tree.
//!
//! [`SynthesizedTree::evaluate`] walks the whole tree twice per call;
//! the post-CTS optimization loops (buffer sizing, end-point refinement,
//! DSE) call it once per *trial move*, making them O(moves × n). This
//! module keeps the full evaluation state resident and repairs only what a
//! mutation dirties, the standard trick of incremental timing engines:
//!
//! * **caps travel up, arrivals travel down.** Changing the knob of edge
//!   `e` (buffer scale, pattern, or the star buffer at its sink end)
//!   changes the capacitance `e` presents upstream; that propagates along
//!   the *ancestor path* only, and stops early at the first edge whose
//!   presented cap is unchanged — in practice the first shielding buffer.
//!   Arrival times change only below the topmost node whose load changed,
//!   so they are re-propagated over that *subtree* only. Total cost per
//!   mutation: O(depth + dirty subtree) instead of O(n).
//! * **bit-identical state invariant.** After every successful mutation,
//!   `cap`, `up_cap`, `arr`, `slew`, the per-star bases and the per-sink
//!   arrivals are bit-identical (as `f64`s) to what a from-scratch
//!   [`SynthesizedTree::evaluate`] of the mutated tree would compute: all
//!   repairs re-run the *same* arithmetic in the *same* order as the batch
//!   evaluator (shared helpers in `synth`), and early termination happens
//!   only when a recomputed value compares equal to the stored one. The
//!   property suite `incremental_matches_batch` enforces this for both
//!   [`EvalModel`]s under arbitrary interleaved mutations and undos.
//! * **journaled undo.** Every overwritten value is recorded in an undo
//!   journal, so a rejected trial move, a group of moves (one refinement
//!   round) or an infeasible mutation is reverted exactly.
//!
//! # Architecture: one evaluator, K corner states
//!
//! The resident evaluator is [`crate::mcmm::MultiCornerEval`]. It owns the
//! tree borrow (and writes accepted knobs through to it) plus K
//! crate-internal `CornerState`s — one per PVT corner of a
//! [`dscts_tech::CornerSet`]; single-technology callers run it over
//! [`dscts_tech::CornerSet::nominal_only`], K = 1. This module holds the
//! per-corner half: the state (caps, arrivals, slews, star bases, sink
//! arrivals) and the dirty-path repairs, which record into one concrete
//! corner-tagged journal type, so a trial move pays no dynamic dispatch.

use crate::error::CtsError;
use crate::pattern::{Pattern, PatternEval};
use crate::synth::{resources, star_loads, EvalModel, SynthesizedTree, TreeMetrics};
use dscts_geom::TreeCsr;
use dscts_tech::{Side, Technology};
use dscts_timing::{wire_slew, ArrivalStats};

/// One overwritten value, recorded for rollback.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Entry {
    /// `buffer_scales[edge]` previous value.
    Scale(u32, f64),
    /// `patterns[edge]` previous value.
    Pattern(u32, Option<Pattern>),
    /// `star_buffers[si]` previous value.
    StarBuffer(u32, bool),
    /// `cap[node]` previous value.
    Cap(u32, f64),
    /// `up_cap[node]` previous value.
    UpCap(u32, f64),
    /// `arr[node]` previous value.
    Arr(u32, f64),
    /// `slew[node]` previous value.
    Slew(u32, f64),
    /// `(star_base, star_base_slew)[si]` previous values.
    StarBase(u32, f64, f64),
    /// `arrivals[sink]` previous value.
    SinkArr(u32, f64),
}

/// The undo journal: overwritten values tagged with the corner whose
/// state they belong to (or the evaluator's knob tag).
pub(crate) type Journal = Vec<(u32, Entry)>;

/// Where a [`CornerState`] records overwritten values: a [`Journal`]
/// plus the tag of the corner being repaired.
/// The evaluator's serial fan-out points every corner at its shared
/// journal; the parallel fan-out gives each corner its own scratch
/// vector and appends them in corner order afterwards.
pub(crate) struct TaggedJournal<'j> {
    pub(crate) corner: u32,
    pub(crate) entries: &'j mut Journal,
}

impl TaggedJournal<'_> {
    /// Records one overwritten value under this journal's corner tag.
    #[inline]
    fn record(&mut self, e: Entry) {
        self.entries.push((self.corner, e));
    }
}

/// The resident evaluation state of one tree under one technology: the
/// per-topology constants plus every quantity the dirty-path repairs
/// maintain. Owns no tree borrow — [`crate::mcmm::MultiCornerEval`]
/// holds one per corner over the same tree.
///
/// Repair methods never roll themselves back: on infeasibility they
/// return `false`/`None` with their journal entries in place, and the
/// owning evaluator reverts through its journal (which also restores the
/// knob and every corner touched before the failing one).
#[derive(Debug, Clone)]
pub(crate) struct CornerState {
    /// Per-star unshielded load (wire + sink pins): constant per topology.
    star_load: Vec<f64>,
    /// Per-sink star-branch Elmore delay: constant per topology.
    branch_d: Vec<f64>,
    /// Per-star min/max of `branch_d` over its sinks (−∞ max for an empty
    /// star): constant per topology.
    star_min_d: Vec<f64>,
    star_max_d: Vec<f64>,
    /// Downstream capacitance at each trunk node (the load at the sink end
    /// of its incoming edge).
    cap: Vec<f64>,
    /// Capacitance each trunk node's incoming edge presents to its parent
    /// (undefined for node 0).
    up_cap: Vec<f64>,
    /// Arrival time at each trunk node.
    arr: Vec<f64>,
    /// Transition time at each trunk node.
    slew: Vec<f64>,
    /// Per-star arrival/slew at the star root, after the optional
    /// refinement buffer.
    star_base: Vec<f64>,
    star_base_slew: Vec<f64>,
    /// Per-sink arrival times (the batch evaluator's `arrivals` vector).
    arrivals: Vec<f64>,
    /// Grow-only DFS stack reused by every arrival re-propagation, so a
    /// trial move performs no per-move heap allocation once the stack has
    /// reached its high-water mark (asserted by the sizing micro-bench).
    arrival_scratch: Vec<u32>,
}

impl CornerState {
    /// Builds the constants and the bottom-up caps with one
    /// batch-equivalent pass, then propagates arrivals over the whole
    /// tree.
    ///
    /// An edge that is electrically infeasible under `tech` — a pattern
    /// the DP placed near its buffer's max load at nominal can overload
    /// it under a capacitance-derating corner — is reported as the typed
    /// [`CtsError::NoFeasiblePattern`] of the first such edge in
    /// bottom-up order, exactly as [`SynthesizedTree::try_evaluate`]
    /// reports it.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern (a structural invariant of
    /// every synthesized tree).
    pub(crate) fn new(
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
    ) -> Result<Self, CtsError> {
        let topo = &tree.topo;
        let n = topo.nodes.len();
        let rc_front = tech.rc(Side::Front);
        let star_load = star_loads(topo, tech);

        // Constant star-branch delays and their per-star extremes.
        let mut branch_d = vec![0.0f64; topo.sink_pos.len()];
        let mut star_min_d = vec![f64::INFINITY; topo.stars.len()];
        let mut star_max_d = vec![f64::NEG_INFINITY; topo.stars.len()];
        for (si, s) in topo.stars.iter().enumerate() {
            for (&sk, &len) in s.sinks.iter().zip(&s.branch_len) {
                let d = rc_front.res(len) * (rc_front.cap(len) + topo.sink_cap[sk as usize]);
                branch_d[sk as usize] = d;
                star_min_d[si] = star_min_d[si].min(d);
                star_max_d[si] = star_max_d[si].max(d);
            }
        }

        // Bottom-up caps: same arithmetic and order as the batch pass.
        let mut cap = vec![0.0f64; n];
        let mut up_cap = vec![0.0f64; n];
        let buf = tech.buffer();
        for &v in csr.order().iter().rev() {
            let vu = v as usize;
            if let Some(si) = topo.nodes[vu].star {
                cap[vu] += if tree.star_buffers[si as usize] {
                    buf.input_cap_ff()
                } else {
                    star_load[si as usize]
                };
            }
            for &c in csr.children(v) {
                let cu = c as usize;
                let p = tree.patterns[cu].expect("assigned pattern");
                let ev = p
                    .eval_scaled(
                        topo.nodes[cu].edge_len,
                        cap[cu],
                        tech,
                        tree.buffer_scales[cu],
                    )
                    .ok_or(CtsError::NoFeasiblePattern {
                        node: c,
                        edge_len_nm: topo.nodes[cu].edge_len,
                    })?;
                up_cap[cu] = ev.up_cap_ff;
                cap[vu] += ev.up_cap_ff;
            }
        }

        let n_stars = topo.stars.len();
        let n_sinks = topo.sink_pos.len();
        let mut this = CornerState {
            star_load,
            branch_d,
            star_min_d,
            star_max_d,
            cap,
            up_cap,
            arr: vec![0.0; n],
            slew: vec![0.0; n],
            star_base: vec![0.0; n_stars],
            star_base_slew: vec![0.0; n_stars],
            arrivals: vec![0.0; n_sinks],
            arrival_scratch: Vec::new(),
        };
        // Top-down arrivals over the whole tree (node 0 = root driver),
        // then discard the bookkeeping journal: this is the base state.
        // The arrival pass re-evaluates every edge at the caps the
        // bottom-up pass just vetted, so it cannot fail here.
        let mut scratch = Vec::new();
        let mut journal = TaggedJournal {
            corner: 0,
            entries: &mut scratch,
        };
        let ok = this.recompute_arrivals_from(tree, tech, model, csr, 0, &mut journal);
        debug_assert!(ok, "arrival pass re-evaluates vetted edges");
        Ok(this)
    }

    // --- Queries ----------------------------------------------------------

    /// Per-sink arrival times, bit-identical to [`TreeMetrics::arrivals`]
    /// of a batch evaluation.
    pub(crate) fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Downstream capacitance at trunk node `v`.
    pub(crate) fn load_at(&self, v: usize) -> f64 {
        self.cap[v]
    }

    /// Unshielded load of star `si` (wire + sink pins).
    pub(crate) fn star_load(&self, si: usize) -> f64 {
        self.star_load[si]
    }

    /// Earliest sink arrival within star `si`.
    pub(crate) fn star_earliest(&self, si: usize) -> f64 {
        self.star_base[si] + self.star_min_d[si]
    }

    /// `(latency_ps, skew_ps)` in one fold over the stars. Within a star,
    /// arrivals are `base + d` with `d ≥ 0` constant, and `x ↦ base + x`
    /// is monotone, so the per-star extremes are attained at the extreme
    /// `d`s and the fold equals the fold over all sinks.
    pub(crate) fn latency_skew_ps(&self) -> (f64, f64) {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (si, &d) in self.star_max_d.iter().enumerate() {
            if d != f64::NEG_INFINITY {
                max = max.max(self.star_base[si] + d);
                min = min.min(self.star_base[si] + self.star_min_d[si]);
            }
        }
        (max, max - min)
    }

    /// Full metrics of the current state, bit-identical to
    /// [`SynthesizedTree::evaluate`] of the same tree under the same
    /// technology.
    pub(crate) fn metrics(&self, tree: &SynthesizedTree, tech: &Technology) -> TreeMetrics {
        let stats = ArrivalStats::from_arrivals(self.arrivals.iter().copied())
            .expect("designs have at least one sink");
        let res = resources(tree, tech);
        let mut max_sink_slew = 0.0f64;
        for (si, s) in tree.topo.stars.iter().enumerate() {
            for &sk in &s.sinks {
                max_sink_slew = max_sink_slew.max(wire_slew(
                    self.star_base_slew[si],
                    self.branch_d[sk as usize],
                ));
            }
        }
        TreeMetrics {
            latency_ps: stats.latency(),
            skew_ps: stats.skew(),
            buffers: res.buffers,
            ntsvs: res.ntsvs,
            wirelength_nm: tree.topo.total_wirelength(),
            trunk_wirelength_nm: tree.topo.trunk_wirelength(),
            switched_cap_ff: res.switched_cap_ff,
            cell_area_nm2: res.cell_area_nm2,
            max_sink_slew_ps: max_sink_slew,
            arrivals: self.arrivals.clone(),
        }
    }

    // --- Dirty-path propagation ------------------------------------------

    /// Electrical evaluation of the edge into `v` under the current state.
    fn eval_edge(
        &self,
        tree: &SynthesizedTree,
        tech: &Technology,
        v: usize,
    ) -> Option<PatternEval> {
        let p = tree.patterns[v].expect("assigned pattern");
        p.eval_scaled(
            tree.topo.nodes[v].edge_len,
            self.cap[v],
            tech,
            tree.buffer_scales[v],
        )
    }

    /// Recomputes the downstream cap of `v` from its star contribution and
    /// its children's `up_cap`s, in the batch evaluator's summation order.
    fn node_cap(&self, tree: &SynthesizedTree, tech: &Technology, csr: &TreeCsr, v: usize) -> f64 {
        let topo = &tree.topo;
        let buf = tech.buffer();
        let mut cap = 0.0f64;
        if let Some(si) = topo.nodes[v].star {
            cap += if tree.star_buffers[si as usize] {
                buf.input_cap_ff()
            } else {
                self.star_load[si as usize]
            };
        }
        for &c in csr.children(v as u32) {
            cap += self.up_cap[c as usize];
        }
        cap
    }

    /// After a knob change on the edge into `edge` (its downstream cap is
    /// unchanged): refresh its presented cap, push the change up the
    /// ancestor path, and re-propagate the dirty subtree's arrivals.
    /// Returns `false` — with the journal entries in place for the owner
    /// to revert — when the path becomes infeasible.
    pub(crate) fn repropagate_edge(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
        edge: usize,
        journal: &mut TaggedJournal<'_>,
    ) -> bool {
        let Some(ev) = self.eval_edge(tree, tech, edge) else {
            return false;
        };
        let mut top = edge;
        if ev.up_cap_ff != self.up_cap[edge] {
            journal.record(Entry::UpCap(edge as u32, self.up_cap[edge]));
            self.up_cap[edge] = ev.up_cap_ff;
            let p = tree.topo.nodes[edge].parent.expect("non-root") as usize;
            let new_cap = self.node_cap(tree, tech, csr, p);
            if new_cap != self.cap[p] {
                journal.record(Entry::Cap(p as u32, self.cap[p]));
                self.cap[p] = new_cap;
                top = p;
                if p != 0 {
                    match self.propagate_caps_up(tree, tech, csr, p, journal) {
                        Some(t) => top = t,
                        None => return false,
                    }
                }
            }
        }
        self.recompute_arrivals_from(tree, tech, model, csr, top, journal)
    }

    /// The state half of a star-buffer toggle (the knob was already
    /// written to the tree): refresh the star root's cap and either
    /// re-time the star alone (cap bit-unchanged) or push the cap change
    /// up and re-propagate the dirty subtree. Returns `false` — journal
    /// entries left for the owner to revert — on infeasibility.
    pub(crate) fn apply_star_toggle(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
        si: usize,
        journal: &mut TaggedJournal<'_>,
    ) -> bool {
        let v = tree.topo.stars[si].node as usize;
        let new_cap = self.node_cap(tree, tech, csr, v);
        if new_cap == self.cap[v] {
            // Load at the star root is (bit-)unchanged, so no trunk state
            // moves — but the star's own stage delay did change.
            self.recompute_star(tree, tech, model, si, journal);
            return true;
        }
        journal.record(Entry::Cap(v as u32, self.cap[v]));
        self.cap[v] = new_cap;
        let top = if v == 0 {
            0
        } else {
            match self.propagate_caps_up(tree, tech, csr, v, journal) {
                Some(top) => top,
                None => return false,
            }
        };
        self.recompute_arrivals_from(tree, tech, model, csr, top, journal)
    }

    /// `cap[start]` just changed (`start` ≠ 0): walk the ancestor path,
    /// refreshing each edge's presented cap, until a presented cap (or an
    /// aggregated node cap) is bit-unchanged — typically at the first
    /// shielding buffer — or the root is reached. Returns the topmost node
    /// whose downstream cap changed (the arrival-recompute root), or
    /// `None` when an edge on the path becomes infeasible (caller reverts
    /// through the journal).
    fn propagate_caps_up(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        csr: &TreeCsr,
        start: usize,
        journal: &mut TaggedJournal<'_>,
    ) -> Option<usize> {
        let mut top = start;
        let mut v = start;
        while v != 0 {
            let ev = self.eval_edge(tree, tech, v)?;
            if ev.up_cap_ff == self.up_cap[v] {
                break;
            }
            journal.record(Entry::UpCap(v as u32, self.up_cap[v]));
            self.up_cap[v] = ev.up_cap_ff;
            let p = tree.topo.nodes[v].parent.expect("non-root") as usize;
            let new_cap = self.node_cap(tree, tech, csr, p);
            if new_cap == self.cap[p] {
                break;
            }
            journal.record(Entry::Cap(p as u32, self.cap[p]));
            self.cap[p] = new_cap;
            top = p;
            v = p;
        }
        Some(top)
    }

    /// Re-propagates arrivals and slews over the subtree rooted at `top`
    /// (whose own incoming-edge delay is dirty; `top == 0` re-times the
    /// root driver and therefore the whole tree), refreshing every star
    /// stage it passes. Returns `false` — journal entries left for the
    /// owner to revert — if an edge in the subtree is infeasible (only
    /// possible for edges whose caps changed, which the cap pass already
    /// vetted — kept defensive).
    fn recompute_arrivals_from(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        csr: &TreeCsr,
        top: usize,
        journal: &mut TaggedJournal<'_>,
    ) -> bool {
        let buf = tech.buffer();
        // Grow-only reuse: the stack is taken out of `self` for the
        // traversal (it cannot live in `self` while `self` is mutably
        // borrowed below) and put back — including on the infeasible exit —
        // so steady-state trial moves never touch the allocator.
        let mut stack = std::mem::take(&mut self.arrival_scratch);
        stack.clear();
        stack.push(top as u32);
        let mut ok = true;
        while let Some(v) = stack.pop() {
            let vu = v as usize;
            let computed = if vu == 0 {
                let nominal = buf.nominal_slew_ps();
                let a = match model {
                    EvalModel::Elmore => buf.delay_ps(self.cap[0]),
                    EvalModel::Nldm => buf.delay_nldm_ps(nominal, self.cap[0]),
                };
                Some((a, buf.output_slew_ps(nominal, self.cap[0])))
            } else {
                self.eval_edge(tree, tech, vu).map(|ev| {
                    let p = tree.topo.nodes[vu].parent.expect("non-root") as usize;
                    match (model, ev.stage) {
                        (EvalModel::Elmore, _) | (EvalModel::Nldm, None) => (
                            self.arr[p] + ev.delay_ps,
                            wire_slew(self.slew[p], ev.delay_ps),
                        ),
                        (EvalModel::Nldm, Some(st)) => {
                            let slew_in = wire_slew(self.slew[p], st.pre_delay_ps);
                            let d_buf = buf.delay_nldm_ps(slew_in, st.load_ff);
                            (
                                self.arr[p] + st.pre_delay_ps + d_buf + st.post_delay_ps,
                                wire_slew(
                                    buf.output_slew_ps(slew_in, st.load_ff),
                                    st.post_delay_ps,
                                ),
                            )
                        }
                    }
                })
            };
            let Some((new_arr, new_slew)) = computed else {
                ok = false;
                break;
            };
            journal.record(Entry::Arr(v, self.arr[vu]));
            self.arr[vu] = new_arr;
            journal.record(Entry::Slew(v, self.slew[vu]));
            self.slew[vu] = new_slew;
            if let Some(si) = tree.topo.nodes[vu].star {
                self.recompute_star(tree, tech, model, si as usize, journal);
            }
            stack.extend_from_slice(csr.children(v));
        }
        self.arrival_scratch = stack;
        ok
    }

    /// Refreshes star `si`'s base arrival/slew (through the optional
    /// refinement buffer) and its sinks' arrivals, mirroring the batch
    /// evaluator's sink stage exactly.
    fn recompute_star(
        &mut self,
        tree: &SynthesizedTree,
        tech: &Technology,
        model: EvalModel,
        si: usize,
        journal: &mut TaggedJournal<'_>,
    ) {
        let v = tree.topo.stars[si].node as usize;
        let buf = tech.buffer();
        let mut base = self.arr[v];
        let mut base_slew = self.slew[v];
        if tree.star_buffers[si] {
            let slew_in = self.slew[v];
            base += match model {
                EvalModel::Elmore => buf.delay_ps(self.star_load[si]),
                EvalModel::Nldm => buf.delay_nldm_ps(slew_in, self.star_load[si]),
            };
            base_slew = buf.output_slew_ps(slew_in, self.star_load[si]);
        }
        journal.record(Entry::StarBase(
            si as u32,
            self.star_base[si],
            self.star_base_slew[si],
        ));
        self.star_base[si] = base;
        self.star_base_slew[si] = base_slew;
        for &sk in &tree.topo.stars[si].sinks {
            let sku = sk as usize;
            journal.record(Entry::SinkArr(sk, self.arrivals[sku]));
            self.arrivals[sku] = base + self.branch_d[sku];
        }
    }

    /// Reverts one overwritten numeric value. Knob entries belong to the
    /// owning evaluator (they mutate the tree, not this state).
    pub(crate) fn undo_entry(&mut self, e: Entry) {
        match e {
            Entry::Cap(v, old) => self.cap[v as usize] = old,
            Entry::UpCap(v, old) => self.up_cap[v as usize] = old,
            Entry::Arr(v, old) => self.arr[v as usize] = old,
            Entry::Slew(v, old) => self.slew[v as usize] = old,
            Entry::StarBase(si, base, slew) => {
                self.star_base[si as usize] = base;
                self.star_base_slew[si as usize] = slew;
            }
            Entry::SinkArr(sk, old) => self.arrivals[sk as usize] = old,
            Entry::Scale(..) | Entry::Pattern(..) | Entry::StarBuffer(..) => {
                unreachable!("knob entries are reverted by the owning evaluator")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dp::{run_dp, DpConfig, MoesWeights};
    use crate::mcmm::MultiCornerEval;
    use crate::route::HierarchicalRouter;
    use crate::synth::{EvalModel, SynthesizedTree};
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::{CornerSet, Technology};

    fn tree() -> (SynthesizedTree, Technology) {
        let d = BenchmarkSpec::c4_riscv32i().generate();
        let tech = Technology::asap7();
        let mut topo = HierarchicalRouter::new().route(&d, &tech);
        topo.subdivide(40_000);
        let cfg = DpConfig {
            moes: MoesWeights {
                alpha: 1.0,
                beta: 0.0,
                gamma: 0.0,
                delta: 0.0,
            },
            ..DpConfig::default()
        };
        let res = run_dp(&topo, &tech, &cfg);
        (SynthesizedTree::new(topo, res.assignment), tech)
    }

    fn buffered_edge(t: &SynthesizedTree) -> usize {
        (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge")
    }

    /// A single-corner evaluator: the one resident evaluator at K = 1.
    fn nominal<'a>(
        t: &'a mut SynthesizedTree,
        corners: &'a CornerSet,
        model: EvalModel,
    ) -> MultiCornerEval<'a> {
        MultiCornerEval::new(t, corners, model).expect("feasible at nominal")
    }

    #[test]
    fn construction_matches_batch() {
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        for model in [EvalModel::Elmore, EvalModel::Nldm] {
            let batch = t.evaluate(&tech, model);
            let inc = nominal(&mut t, &corners, model);
            assert_eq!(inc.metrics(), batch);
            assert_eq!(inc.latency_skew_ps(), (batch.latency_ps, batch.skew_ps));
        }
    }

    #[test]
    fn scale_mutation_matches_batch_and_undo_restores() {
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        let edge = buffered_edge(&t);
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = nominal(&mut t, &corners, EvalModel::Elmore);
        assert!(inc.set_buffer_scale(edge, 2.0));
        let mutated = inc.metrics();
        inc.undo();
        assert_eq!(inc.metrics(), baseline);
        assert!(inc.set_buffer_scale(edge, 2.0));
        assert_eq!(inc.metrics(), mutated);
        drop(inc);
        // The evaluator wrote the accepted knob through to the tree.
        assert_eq!(t.buffer_scales[edge], 2.0);
        assert_eq!(t.evaluate(&tech, EvalModel::Elmore), mutated);
    }

    #[test]
    fn star_buffer_mutation_matches_batch() {
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        let mut inc = nominal(&mut t, &corners, EvalModel::Nldm);
        assert!(inc.set_star_buffer(0, true));
        let mutated = inc.metrics();
        drop(inc);
        assert_eq!(t.evaluate(&tech, EvalModel::Nldm), mutated);
    }

    #[test]
    fn infeasible_scale_rolls_back() {
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        // A vanishing buffer cannot drive its load: mutation must refuse
        // and leave no trace.
        let edge = buffered_edge(&t);
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = nominal(&mut t, &corners, EvalModel::Elmore);
        assert!(!inc.set_buffer_scale(edge, 1e-6));
        assert_eq!(inc.metrics(), baseline);
        assert_eq!(inc.mark(), 0, "failed mutation leaves an empty journal");
    }

    #[test]
    fn mark_groups_roll_back_together() {
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        let baseline = t.evaluate(&tech, EvalModel::Elmore);
        let mut inc = nominal(&mut t, &corners, EvalModel::Elmore);
        let mark = inc.mark();
        assert!(inc.set_star_buffer(0, true));
        assert!(inc.set_star_buffer(1, true));
        assert_ne!(inc.metrics(), baseline);
        inc.undo_to(mark);
        assert_eq!(inc.metrics(), baseline);
    }

    #[test]
    fn load_at_matches_probe_semantics() {
        // The resident downstream load: the root drives a positive load.
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        let inc = nominal(&mut t, &corners, EvalModel::Elmore);
        assert!(inc.load_at(0) > 0.0);
    }

    #[test]
    fn trial_eval_object_view_matches_inherent() {
        // At K = 1 the objective view the passes score with is the one
        // corner's view, whatever the configured robust objective.
        use crate::mcmm::RobustObjective;
        let (mut t, tech) = tree();
        let corners = CornerSet::nominal_only(&tech);
        for objective in [RobustObjective::WorstCorner, RobustObjective::Nominal] {
            let mut inc = nominal(&mut t, &corners, EvalModel::Elmore).with_objective(objective);
            let inherent = inc.corner_metrics(0);
            assert_eq!(inc.metrics(), inherent);
            assert_eq!(inc.focus_corner(), 0);
            assert_eq!(
                inc.latency_skew_ps(),
                (inherent.latency_ps, inherent.skew_ps)
            );
            assert_eq!(inc.star_earliest(0), {
                let s = &inc.tree().topo.stars[0];
                s.sinks
                    .iter()
                    .map(|&sk| inherent.arrivals[sk as usize])
                    .fold(f64::INFINITY, f64::min)
            });
            assert!(inc.set_star_buffer(0, true));
            inc.undo();
            assert_eq!(inc.metrics(), inherent);
        }
    }
}
