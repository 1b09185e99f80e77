//! Multi-corner multi-mode (MCMM) evaluation and robust optimization.
//!
//! The paper optimizes skew/latency/resources under a single nominal
//! delay model, but real double-side CTS sign-off is multi-corner:
//! front/back RC, nTSV and buffer delays derate differently across PVT
//! corners (`dscts_tech::CornerSet`), and a tree sized at nominal can be
//! badly skewed at SS. This module holds the one resident evaluator every
//! optimizer and sweep runs on:
//!
//! * [`MultiCornerEval`] — K resident per-corner evaluation states (the
//!   crate's `incremental` module holds the dirty-path invariants) over the
//!   **same** [`SynthesizedTree`], one per corner of a [`CornerSet`].
//!   Single-technology callers pass [`CornerSet::nominal_only`] (K = 1);
//!   a corner-aware pipeline passes its PVT set. Every mutation
//!   ([`MultiCornerEval::set_buffer_scale`],
//!   [`MultiCornerEval::set_pattern`],
//!   [`MultiCornerEval::set_star_buffer`]) writes the knob once and fans
//!   the dirty-path repair out to all corners — each corner walks *its
//!   own* dirty ancestor path and subtree (early stops differ per corner
//!   because shielding is electrical), never a full re-evaluate — under a
//!   **single shared undo journal** whose entries are corner-tagged, so
//!   one [`MultiCornerEval::mark`]/[`MultiCornerEval::undo_to`] pair
//!   reverts the knob and every corner atomically. A mutation that is
//!   infeasible in *any* corner rolls the whole fan-out back and returns
//!   `false`.
//! * [`RobustObjective`] — which cross-corner reduction the evaluator's
//!   *objective view* ([`MultiCornerEval::latency_skew_ps`],
//!   [`MultiCornerEval::star_earliest`], [`MultiCornerEval::star_load`],
//!   [`MultiCornerEval::tech`]) reports to the optimization passes: the
//!   nominal corner, or the component-wise worst corner (minimax).
//!   Running an [`crate::opt`] schedule over a PVT set therefore
//!   optimizes worst-corner MOES instead of nominal without changing a
//!   pass; at K = 1 both objectives are the one corner's view.
//! * [`RobustMetrics`] / [`CornerReport`] — cross-corner summaries:
//!   worst-corner latency/skew (and which corner attains them) plus the
//!   cross-corner arrival spread, an OCV proxy (the maximum over sinks
//!   of the corner-to-corner arrival range).
//!
//! # Bit-identity and cost
//!
//! Each corner state runs exactly the batch evaluator's arithmetic, so
//! corner `k`'s metrics equal [`SynthesizedTree::evaluate`] under
//! `corners.tech(k)` after any interleaving of mutations and undos —
//! enforced by `incremental_proptests` (K = 1, both [`EvalModel`]s) and
//! the per-corner unit tests below. A K-corner mutation costs K dirty
//! paths (O(K·(depth + subtree))), which the `mcmm_eval` criterion group
//! shows is far cheaper than the K full `evaluate()` calls a
//! non-incremental MCMM loop would pay. The fan-out records into one
//! concrete journal type with no dynamic dispatch, so a K = 1 trial move
//! costs little beyond its one dirty-path repair (`opt_micro` prints
//! the annealer at K = 1 and K = 3).

use crate::error::CtsError;
use crate::incremental::{CornerState, Entry, Journal, TaggedJournal};
use crate::pattern::Pattern;
use crate::resilience::{fault, CancelToken};
use crate::synth::{EvalModel, SynthesizedTree, TreeMetrics};
use dscts_geom::TreeCsr;
use dscts_tech::{CornerSet, Technology};
use rayon::prelude::*;

/// Journal tag marking a knob entry (tree mutation) rather than a
/// per-corner numeric entry.
const KNOB: u32 = u32::MAX;

/// Minimum trunk-node count before the auto gate turns the corner-parallel
/// fan-out on. Below this, a per-corner dirty path is microseconds and the
/// shim's per-call thread spawn would dominate (the C1–C5 trunks are ~1k
/// nodes); above it — the 100k+-sink scaled designs — the per-corner
/// repair work amortizes the spawn.
const PAR_FANOUT_MIN_NODES: usize = 10_000;

/// Which cross-corner reduction the evaluator's objective view reports
/// to the optimization passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RobustObjective {
    /// Score with the nominal corner only — the single-corner behaviour,
    /// with the other corners along for reporting.
    Nominal,
    /// Score with the component-wise worst corner: the maximum latency
    /// and the maximum skew over all corners (possibly attained at
    /// different corners). Minimizing a weighted sum of these minimizes
    /// an upper bound on every corner's MOES — the minimax ("robust")
    /// objective. Star-level rankings ([`MultiCornerEval::star_earliest`],
    /// [`MultiCornerEval::star_load`], [`MultiCornerEval::tech`]) come
    /// from the corner currently attaining the worst skew, the one a
    /// skew-repair pass needs to fix.
    #[default]
    WorstCorner,
}

/// Cross-corner robust summary of one tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustMetrics {
    /// Maximum latency over all corners (ps).
    pub worst_latency_ps: f64,
    /// Index of the corner attaining it.
    pub worst_latency_corner: usize,
    /// Maximum skew over all corners (ps).
    pub worst_skew_ps: f64,
    /// Index of the corner attaining it.
    pub worst_skew_corner: usize,
    /// The OCV proxy: the maximum over sinks of the cross-corner arrival
    /// range `max_k arr_k − min_k arr_k` (ps). Zero for a single corner.
    pub arrival_spread_ps: f64,
}

impl RobustMetrics {
    /// Folds per-corner metrics (in corner order) into the robust
    /// summary. All corners must report the same sink count.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or mismatched arrival arities.
    pub fn from_corner_metrics(per_corner: &[TreeMetrics]) -> RobustMetrics {
        assert!(!per_corner.is_empty(), "at least one corner");
        let (mut worst_latency_ps, mut worst_latency_corner) = (f64::NEG_INFINITY, 0);
        let (mut worst_skew_ps, mut worst_skew_corner) = (f64::NEG_INFINITY, 0);
        for (k, m) in per_corner.iter().enumerate() {
            if m.latency_ps > worst_latency_ps {
                worst_latency_ps = m.latency_ps;
                worst_latency_corner = k;
            }
            if m.skew_ps > worst_skew_ps {
                worst_skew_ps = m.skew_ps;
                worst_skew_corner = k;
            }
        }
        let n_sinks = per_corner[0].arrivals.len();
        assert!(
            per_corner.iter().all(|m| m.arrivals.len() == n_sinks),
            "corners must share the sink set"
        );
        let mut arrival_spread_ps = 0.0f64;
        for s in 0..n_sinks {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for m in per_corner {
                lo = lo.min(m.arrivals[s]);
                hi = hi.max(m.arrivals[s]);
            }
            arrival_spread_ps = arrival_spread_ps.max(hi - lo);
        }
        RobustMetrics {
            worst_latency_ps,
            worst_latency_corner,
            worst_skew_ps,
            worst_skew_corner,
            arrival_spread_ps,
        }
    }
}

/// Per-corner metrics of one finished tree plus the robust summary —
/// the optional corner report a corner-aware pipeline run attaches to
/// its [`crate::Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct CornerReport {
    /// Corner names, in corner order.
    pub corner_names: Vec<String>,
    /// Full metrics per corner, in corner order.
    pub per_corner: Vec<TreeMetrics>,
    /// Index of the nominal corner.
    pub nominal: usize,
    /// The cross-corner summary.
    pub robust: RobustMetrics,
}

impl CornerReport {
    /// Assembles a report from per-corner metrics (in `corners` order),
    /// folding the robust summary — the one place the report's fields
    /// are populated, shared by [`CornerReport::evaluate`] and
    /// [`MultiCornerEval::corner_report`].
    pub fn from_per_corner(corners: &CornerSet, per_corner: Vec<TreeMetrics>) -> CornerReport {
        let robust = RobustMetrics::from_corner_metrics(&per_corner);
        CornerReport {
            corner_names: corners
                .corners()
                .iter()
                .map(|c| c.name().to_owned())
                .collect(),
            per_corner,
            nominal: corners.nominal_index(),
            robust,
        }
    }

    /// Evaluates `tree` under every corner of `corners` (batch
    /// evaluation per corner) and folds the robust summary.
    ///
    /// # Panics
    ///
    /// Panics if an assigned pattern is infeasible under one of the
    /// corner technologies — possible whenever a corner derates
    /// capacitances upward; sign-off paths should use
    /// [`CornerReport::try_evaluate`] instead.
    pub fn evaluate(tree: &SynthesizedTree, corners: &CornerSet, model: EvalModel) -> CornerReport {
        CornerReport::try_evaluate(tree, corners, model).expect("tree feasible at every corner")
    }

    /// Fallible [`CornerReport::evaluate`]: a pattern the DP chose near
    /// its buffer's max-load budget at nominal can overload that buffer
    /// under a capacitance-derating corner. That is a data-dependent
    /// infeasibility of *this* tree at *this* corner, reported as the
    /// typed [`CtsError::NoFeasiblePattern`] of the first offending
    /// corner (in corner order) so callers can retry through the
    /// recovery ladder — relaxations change the pattern assignment —
    /// instead of crashing mid-sign-off.
    ///
    /// [`CtsError::NoFeasiblePattern`]: crate::CtsError::NoFeasiblePattern
    pub fn try_evaluate(
        tree: &SynthesizedTree,
        corners: &CornerSet,
        model: EvalModel,
    ) -> Result<CornerReport, crate::CtsError> {
        Ok(CornerReport::from_per_corner(
            corners,
            corners
                .techs()
                .iter()
                .map(|tech| tree.try_evaluate(tech, model))
                .collect::<Result<Vec<_>, _>>()?,
        ))
    }
}

/// The resident incremental evaluator: K per-corner evaluation states
/// over one [`SynthesizedTree`], mutated in lockstep under a single
/// corner-tagged undo journal. K = 1 ([`CornerSet::nominal_only`]) is the
/// single-technology evaluator. See the [module docs](self).
#[derive(Debug)]
pub struct MultiCornerEval<'a> {
    tree: &'a mut SynthesizedTree,
    corners: &'a CornerSet,
    model: EvalModel,
    objective: RobustObjective,
    /// Flat trunk adjacency, shared by every corner state (cloned from the
    /// topology's cache so the tree can stay mutably borrowed).
    csr: TreeCsr,
    /// One resident evaluation state per corner, in corner order.
    states: Vec<CornerState>,
    /// The shared journal: `(corner, entry)` pairs, with [`KNOB`] tagging
    /// tree-knob entries. One `mark`/`undo_to` reverts knob and all
    /// corners atomically.
    journal: Journal,
    /// Journal position at the start of the last mutation.
    last_mark: usize,
    /// Memoized [`MultiCornerEval::focus_corner`]: the worst-skew fold
    /// is O(corners × stars), and passes query the objective view once
    /// per star when ranking — without this cache a ranking sweep would
    /// be O(corners × stars²). Invalidated by every mutation and undo.
    focus: std::cell::Cell<Option<usize>>,
    /// Corner-parallel fan-out control: `Some(true)` forces the parallel
    /// path, `Some(false)` forces serial, `None` (default) auto-gates on
    /// tree size and thread count. See [`MultiCornerEval::with_parallel`].
    parallel: Option<bool>,
    /// Reusable per-corner scratch journals for the parallel fan-out
    /// (grow-only, so steady-state parallel mutations allocate nothing).
    scratch: Vec<Journal>,
    /// Optional run-budget token: a deadline firing mid-move rejects the
    /// move (fully rolled back) instead of leaving corners half-repaired.
    cancel: Option<CancelToken>,
    /// Telemetry counter for corner fan-outs, resolved once at
    /// construction: the per-move hot path is a branch on `None` when no
    /// collector is installed — no atomic, no lock, no allocation (the
    /// bench crate's counting-allocator harness pins this).
    corner_evals: Option<dscts_telemetry::Counter>,
}

impl<'a> MultiCornerEval<'a> {
    /// Builds the K per-corner states with one batch-equivalent pass
    /// each, under the default [`RobustObjective::WorstCorner`] view.
    ///
    /// Derated wire caps can push a pattern the DP placed near its
    /// buffer's max load at nominal over that limit in some corner. That
    /// data-dependent infeasibility is reported as the typed
    /// [`CtsError::NoFeasiblePattern`] of the first offending corner (in
    /// corner order), exactly as [`CornerReport::try_evaluate`] reports
    /// it, so a pipeline can retry through its recovery ladder.
    ///
    /// # Panics
    ///
    /// Panics if any edge lacks a pattern (a structural invariant of
    /// every synthesized tree).
    pub fn new(
        tree: &'a mut SynthesizedTree,
        corners: &'a CornerSet,
        model: EvalModel,
    ) -> Result<Self, CtsError> {
        let csr = tree.topo.csr().clone();
        let states = corners
            .techs()
            .iter()
            .map(|tech| CornerState::new(tree, tech, model, &csr))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MultiCornerEval {
            tree,
            corners,
            model,
            objective: RobustObjective::default(),
            csr,
            states,
            journal: Vec::new(),
            last_mark: 0,
            focus: std::cell::Cell::new(None),
            parallel: None,
            scratch: Vec::new(),
            cancel: None,
            corner_evals: dscts_telemetry::active().map(|t| t.counter("mcmm.corner_evals")),
        })
    }

    /// Sets the objective view (builder style).
    pub fn with_objective(mut self, objective: RobustObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Controls the corner-parallel mutation fan-out (builder style).
    ///
    /// The K per-corner dirty-path repairs of one mutation are independent
    /// given the shared knob write, so they can run on separate threads.
    /// `Some(true)` forces the parallel path, `Some(false)` forces the
    /// serial loop, and `None` (the default) picks automatically: parallel
    /// only when there is more than one corner, more than one thread, and
    /// the trunk is at least `PAR_FANOUT_MIN_NODES` nodes (so the repair
    /// work amortizes the per-mutation thread spawn).
    ///
    /// Both paths are bit-identical at any thread count: each corner
    /// journals into its own scratch buffer and the buffers are appended
    /// to the shared journal in corner order — exactly the order the
    /// serial loop would have produced.
    pub fn with_parallel(mut self, parallel: Option<bool>) -> Self {
        self.parallel = parallel;
        self
    }

    /// Attaches (or clears) a run-budget cancellation token. Once the
    /// token trips, every subsequent mutation is rejected — knob and all
    /// corners rolled back, `false` returned — exactly like an infeasible
    /// corner, so a budgeted optimization pass winds down through its
    /// normal reject path. `None` (the default) never rejects.
    pub fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The attached run-budget token, if any. Passes poll it inside their
    /// trial loops and charge each attempted move to its trial budget.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether the next mutation will fan out in parallel.
    fn use_parallel(&self) -> bool {
        let eligible = self.states.len() > 1;
        match self.parallel {
            Some(p) => p && eligible,
            None => {
                eligible
                    && self.tree.topo.nodes.len() >= PAR_FANOUT_MIN_NODES
                    && rayon::current_num_threads() > 1
            }
        }
    }

    /// The configured objective view.
    pub fn objective(&self) -> RobustObjective {
        self.objective
    }

    /// The corner set this evaluator fans out over.
    pub fn corner_set(&self) -> &CornerSet {
        self.corners
    }

    /// Number of corners.
    pub fn corner_count(&self) -> usize {
        self.states.len()
    }

    /// The underlying tree (knobs reflect all non-undone mutations).
    pub fn tree(&self) -> &SynthesizedTree {
        self.tree
    }

    /// The delay model every corner propagates.
    pub fn model(&self) -> EvalModel {
        self.model
    }

    // --- Per-corner queries ----------------------------------------------

    /// `(latency_ps, skew_ps)` of corner `k`.
    pub fn corner_latency_skew_ps(&self, k: usize) -> (f64, f64) {
        self.states[k].latency_skew_ps()
    }

    /// Full metrics of corner `k`, bit-identical to
    /// [`SynthesizedTree::evaluate`] under that corner's technology.
    pub fn corner_metrics(&self, k: usize) -> TreeMetrics {
        self.states[k].metrics(self.tree, self.corners.tech(k))
    }

    /// Per-sink arrivals of corner `k`.
    pub fn corner_arrivals(&self, k: usize) -> &[f64] {
        self.states[k].arrivals()
    }

    // --- Cross-corner queries --------------------------------------------

    /// Component-wise worst `(latency_ps, skew_ps)` over all corners, in
    /// one fold per corner — the robust inner-loop objective.
    pub fn worst_latency_skew_ps(&self) -> (f64, f64) {
        let mut lat = f64::NEG_INFINITY;
        let mut skew = f64::NEG_INFINITY;
        for s in &self.states {
            let (l, k) = s.latency_skew_ps();
            lat = lat.max(l);
            skew = skew.max(k);
        }
        (lat, skew)
    }

    /// The corner the objective view ranks stars with: the nominal
    /// corner, or — under [`RobustObjective::WorstCorner`] with more than
    /// one corner — the corner currently attaining the worst skew.
    /// Memoized between mutations (see the `focus` field) so per-star
    /// objective-view queries stay O(1) after the first; a single corner
    /// is its own focus without any fold.
    pub fn focus_corner(&self) -> usize {
        match self.objective {
            RobustObjective::WorstCorner if self.states.len() > 1 => {
                if let Some(k) = self.focus.get() {
                    return k;
                }
                let mut worst = 0;
                let mut worst_skew = f64::NEG_INFINITY;
                for (k, s) in self.states.iter().enumerate() {
                    let (_, skew) = s.latency_skew_ps();
                    if skew > worst_skew {
                        worst_skew = skew;
                        worst = k;
                    }
                }
                self.focus.set(Some(worst));
                worst
            }
            _ => self.corners.nominal_index(),
        }
    }

    /// Full metrics of every corner, in corner order.
    fn per_corner_metrics(&self) -> Vec<TreeMetrics> {
        (0..self.states.len())
            .map(|k| self.corner_metrics(k))
            .collect()
    }

    /// The cross-corner robust summary of the current state (full
    /// per-corner metrics are folded, so this is a reporting call, not an
    /// inner-loop one — inner loops use
    /// [`MultiCornerEval::worst_latency_skew_ps`]).
    pub fn robust_metrics(&self) -> RobustMetrics {
        RobustMetrics::from_corner_metrics(&self.per_corner_metrics())
    }

    /// The full corner report of the current state.
    pub fn corner_report(&self) -> CornerReport {
        CornerReport::from_per_corner(self.corners, self.per_corner_metrics())
    }

    // --- Objective view ---------------------------------------------------
    //
    // What a pass scores and ranks with. Scalar objectives follow the
    // configured [`RobustObjective`]; star-level queries read the
    // `focus_corner`. At K = 1 every method is the one corner's view.

    /// The technology of the objective view's focus corner.
    pub fn tech(&self) -> &Technology {
        self.corners.tech(self.focus_corner())
    }

    /// Full metrics of the nominal corner — what schedule reports record,
    /// so nominal and robust runs compare like for like.
    pub fn metrics(&self) -> TreeMetrics {
        self.corner_metrics(self.corners.nominal_index())
    }

    /// `(latency_ps, skew_ps)` of the objective view, in one fold per
    /// corner: the nominal corner's, or the component-wise worst.
    pub fn latency_skew_ps(&self) -> (f64, f64) {
        match self.objective {
            RobustObjective::Nominal => self.corner_latency_skew_ps(self.corners.nominal_index()),
            RobustObjective::WorstCorner => self.worst_latency_skew_ps(),
        }
    }

    /// Downstream capacitance at trunk node `v` (what the sink end of its
    /// incoming edge drives) in the focus corner.
    pub fn load_at(&self, v: usize) -> f64 {
        self.states[self.focus_corner()].load_at(v)
    }

    /// Unshielded load of star `si` (wire + sink pins) in the focus
    /// corner.
    pub fn star_load(&self, si: usize) -> f64 {
        self.states[self.focus_corner()].star_load(si)
    }

    /// Earliest sink arrival within star `si` in the focus corner.
    pub fn star_earliest(&self, si: usize) -> f64 {
        self.states[self.focus_corner()].star_earliest(si)
    }

    /// Current drive scale of the buffer embedded in edge `edge`.
    pub fn buffer_scale(&self, edge: usize) -> f64 {
        self.tree.buffer_scales[edge]
    }

    // --- Mutations -------------------------------------------------------

    /// Fans a knob mutation out to every corner: `apply(state, tree, tech,
    /// model, csr, journal)` per corner, rolling the knob and every
    /// touched corner back atomically when any corner reports
    /// infeasibility.
    ///
    /// Serially, corners repair one after another into the shared tagged
    /// journal (with an early break on the first infeasible corner). In
    /// parallel ([`MultiCornerEval::with_parallel`]), every corner repairs
    /// concurrently into its own scratch journal and the scratches are
    /// appended to the shared journal in corner order afterwards — on
    /// success the shared journal is bit-identical to the serial one, and
    /// on failure `undo_to(mark)` restores the identical pre-mutation
    /// state either way. The injected trial-move fault fires only after
    /// a successful fan-out, so its rollback reverts fully repropagated
    /// dirty paths, not just the knob.
    fn fan_out(
        &mut self,
        mark: usize,
        apply: impl Fn(
                &mut CornerState,
                &SynthesizedTree,
                &Technology,
                EvalModel,
                &TreeCsr,
                &mut TaggedJournal<'_>,
            ) -> bool
            + Sync,
    ) -> bool {
        self.focus.set(None);
        // An expired budget rejects the move through the same path as an
        // infeasible corner: the already journaled knob rolls back and
        // the caller sees `false`.
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.undo_to(mark);
            return false;
        }
        if let Some(counter) = &self.corner_evals {
            counter.add(self.states.len() as u64);
        }
        let mut ok = true;
        if self.use_parallel() {
            if self.scratch.len() < self.states.len() {
                self.scratch.resize_with(self.states.len(), Vec::new);
            }
            let tree = &*self.tree;
            let corners = self.corners;
            let model = self.model;
            let csr = &self.csr;
            let apply = &apply;
            let mut work: Vec<(usize, &mut CornerState, &mut Journal, bool)> = self
                .states
                .iter_mut()
                .zip(self.scratch.iter_mut())
                .enumerate()
                .map(|(k, (state, buf))| {
                    buf.clear();
                    (k, state, buf, true)
                })
                .collect();
            work.par_iter_mut().for_each(|(k, state, buf, corner_ok)| {
                let mut journal = TaggedJournal {
                    corner: *k as u32,
                    entries: buf,
                };
                *corner_ok = apply(state, tree, corners.tech(*k), model, csr, &mut journal);
            });
            ok = work.iter().all(|(.., corner_ok)| *corner_ok);
            drop(work);
            for buf in &mut self.scratch {
                self.journal.append(buf);
            }
        } else {
            for (k, state) in self.states.iter_mut().enumerate() {
                let mut journal = TaggedJournal {
                    corner: k as u32,
                    entries: &mut self.journal,
                };
                if !apply(
                    state,
                    self.tree,
                    self.corners.tech(k),
                    self.model,
                    &self.csr,
                    &mut journal,
                ) {
                    ok = false;
                    break;
                }
            }
        }
        let ok = ok && !fault::fault_infeasible(fault::SITE_TRIAL);
        if !ok {
            self.undo_to(mark);
        }
        ok
    }

    /// Re-sizes the buffer embedded in `edge` (a non-root trunk node) in
    /// every corner. Returns `false` — with knob and all corners rolled
    /// back — when the new scale is infeasible in *any* corner.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is 0 or `scale` is not positive.
    pub fn set_buffer_scale(&mut self, edge: usize, scale: f64) -> bool {
        assert!(edge != 0, "node 0 has no incoming edge");
        assert!(scale > 0.0, "buffer scale must be positive");
        let mark = self.journal.len();
        self.last_mark = mark;
        if self.tree.buffer_scales[edge] == scale {
            return true;
        }
        self.journal.push((
            KNOB,
            Entry::Scale(edge as u32, self.tree.buffer_scales[edge]),
        ));
        self.tree.buffer_scales[edge] = scale;
        self.fan_out(mark, |state, tree, tech, model, csr, journal| {
            state.repropagate_edge(tree, tech, model, csr, edge, journal)
        })
    }

    /// Re-assigns the pattern of `edge` (a non-root trunk node) in every
    /// corner. Side legality is *not* checked here; run
    /// [`SynthesizedTree::validate_sides`] before accepting a final tree.
    /// Returns `false` — fully rolled back — when the pattern is
    /// infeasible in *any* corner.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is 0.
    pub fn set_pattern(&mut self, edge: usize, pattern: Pattern) -> bool {
        assert!(edge != 0, "node 0 has no incoming edge");
        let mark = self.journal.len();
        self.last_mark = mark;
        if self.tree.patterns[edge] == Some(pattern) {
            return true;
        }
        self.journal
            .push((KNOB, Entry::Pattern(edge as u32, self.tree.patterns[edge])));
        self.tree.patterns[edge] = Some(pattern);
        self.fan_out(mark, |state, tree, tech, model, csr, journal| {
            state.repropagate_edge(tree, tech, model, csr, edge, journal)
        })
    }

    /// Adds or removes the skew-refinement buffer driving star `si`, in
    /// every corner. Returns `false` — fully rolled back — when the
    /// change overloads a buffer in *any* corner.
    pub fn set_star_buffer(&mut self, si: usize, on: bool) -> bool {
        let mark = self.journal.len();
        self.last_mark = mark;
        if self.tree.star_buffers[si] == on {
            return true;
        }
        self.journal.push((
            KNOB,
            Entry::StarBuffer(si as u32, self.tree.star_buffers[si]),
        ));
        self.tree.star_buffers[si] = on;
        self.fan_out(mark, |state, tree, tech, model, csr, journal| {
            state.apply_star_toggle(tree, tech, model, csr, si, journal)
        })
    }

    // --- Undo machinery --------------------------------------------------

    /// Current journal position; pass to [`MultiCornerEval::undo_to`] to
    /// revert every mutation — knob and all corners — made after this
    /// call.
    pub fn mark(&self) -> usize {
        self.journal.len()
    }

    /// Reverts all state back to `mark`: knob entries restore the tree,
    /// corner-tagged entries restore their corner's state, in reverse
    /// order — so the tree and every corner land exactly where they were.
    pub fn undo_to(&mut self, mark: usize) {
        self.focus.set(None);
        while self.journal.len() > mark {
            let (tag, e) = self.journal.pop().expect("journal non-empty");
            if tag == KNOB {
                match e {
                    Entry::Scale(edge, old) => self.tree.buffer_scales[edge as usize] = old,
                    Entry::Pattern(edge, old) => self.tree.patterns[edge as usize] = old,
                    Entry::StarBuffer(si, old) => self.tree.star_buffers[si as usize] = old,
                    _ => unreachable!("knob tag carries only knob entries"),
                }
            } else {
                self.states[tag as usize].undo_entry(e);
            }
        }
        self.last_mark = self.last_mark.min(mark);
    }

    /// Reverts the most recent mutation (no-op if it was already undone
    /// or committed).
    pub fn undo(&mut self) {
        self.undo_to(self.last_mark);
    }

    /// Accepts all mutations so far: clears the shared journal, making
    /// them permanent (undo can no longer cross this point).
    pub fn commit(&mut self) {
        self.journal.clear();
        self.last_mark = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{run_dp, DpConfig, MoesWeights};
    use crate::route::HierarchicalRouter;
    use dscts_netlist::BenchmarkSpec;
    use dscts_tech::Technology;

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

    #[test]
    fn per_corner_states_match_batch_per_corner() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        for model in [EvalModel::Elmore, EvalModel::Nldm] {
            let batch: Vec<TreeMetrics> = corners
                .techs()
                .iter()
                .map(|ct| t.evaluate(ct, model))
                .collect();
            let mc = MultiCornerEval::new(&mut t, &corners, model).expect("feasible");
            for (k, b) in batch.iter().enumerate() {
                assert_eq!(&mc.corner_metrics(k), b, "corner {k}");
            }
        }
    }

    #[test]
    fn fanned_mutation_matches_batch_in_every_corner() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let mut mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore).expect("feasible");
        assert!(mc.set_buffer_scale(edge, 2.0));
        assert!(mc.set_star_buffer(0, true));
        let per_corner: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        drop(mc);
        for (k, m) in per_corner.iter().enumerate() {
            assert_eq!(
                &t.evaluate(corners.tech(k), EvalModel::Elmore),
                m,
                "corner {k} diverged from batch"
            );
        }
    }

    #[test]
    fn shared_journal_reverts_all_corners_atomically() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mut mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Nldm).expect("feasible");
        let before: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        let mark = mc.mark();
        assert!(mc.set_star_buffer(0, true));
        assert!(mc.set_star_buffer(1, true));
        assert_ne!(mc.corner_metrics(0), before[0]);
        mc.undo_to(mark);
        for (k, b) in before.iter().enumerate() {
            assert_eq!(&mc.corner_metrics(k), b, "corner {k} not restored");
        }
        assert_eq!(mc.mark(), mark);
    }

    #[test]
    fn infeasible_anywhere_rolls_back_everywhere() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let edge = (1..t.topo.nodes.len())
            .find(|&i| t.patterns[i].is_some_and(|p| p.buffers() > 0))
            .expect("some buffered edge");
        let mut mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore).expect("feasible");
        let before: Vec<TreeMetrics> = (0..mc.corner_count())
            .map(|k| mc.corner_metrics(k))
            .collect();
        // A vanishing buffer cannot drive its load in any corner.
        assert!(!mc.set_buffer_scale(edge, 1e-6));
        for (k, b) in before.iter().enumerate() {
            assert_eq!(&mc.corner_metrics(k), b, "corner {k} not rolled back");
        }
        assert_eq!(mc.mark(), 0, "failed mutation leaves an empty journal");
    }

    #[test]
    fn worst_view_bounds_every_corner() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore).expect("feasible");
        let (wl, ws) = mc.worst_latency_skew_ps();
        for k in 0..mc.corner_count() {
            let (l, s) = mc.corner_latency_skew_ps(k);
            assert!(l <= wl && s <= ws);
        }
        // SS (corner 0) is slower than FF (corner 2) everywhere.
        assert!(mc.corner_latency_skew_ps(0).0 > mc.corner_latency_skew_ps(2).0);
        let r = mc.robust_metrics();
        assert_eq!(r.worst_latency_ps, wl);
        assert_eq!(r.worst_skew_ps, ws);
        assert!(r.arrival_spread_ps > 0.0);
    }

    #[test]
    fn objective_views_differ_as_configured() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore).expect("feasible");
        let worst = mc.latency_skew_ps();
        assert_eq!(worst, mc.worst_latency_skew_ps());
        let nominal_view = {
            let mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore)
                .expect("feasible")
                .with_objective(RobustObjective::Nominal);
            mc.latency_skew_ps()
        };
        assert!(nominal_view.0 < worst.0, "SS latency dominates TT");
    }

    #[test]
    fn focus_corner_cache_tracks_mutations() {
        let (mut t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let mut mc = MultiCornerEval::new(&mut t, &corners, EvalModel::Elmore).expect("feasible");
        let fresh_focus = |mc: &MultiCornerEval<'_>| {
            // The uncached answer: argmax of per-corner skew.
            (0..mc.corner_count())
                .max_by(|&a, &b| {
                    mc.corner_latency_skew_ps(a)
                        .1
                        .total_cmp(&mc.corner_latency_skew_ps(b).1)
                })
                .unwrap()
        };
        assert_eq!(mc.focus_corner(), fresh_focus(&mc));
        assert_eq!(mc.focus_corner(), mc.focus_corner(), "memoized");
        assert!(mc.set_star_buffer(0, true));
        assert_eq!(
            mc.focus_corner(),
            fresh_focus(&mc),
            "invalidated by mutation"
        );
        mc.undo();
        assert_eq!(mc.focus_corner(), fresh_focus(&mc), "invalidated by undo");
    }

    #[test]
    fn corner_report_matches_batch() {
        let (t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let report = CornerReport::evaluate(&t, &corners, EvalModel::Nldm);
        assert_eq!(report.corner_names, ["SS", "TT", "FF"]);
        assert_eq!(report.nominal, 1);
        assert_eq!(
            report.per_corner[1],
            t.evaluate(corners.nominal_tech(), EvalModel::Nldm)
        );
        assert_eq!(
            report.robust.worst_latency_corner, 0,
            "SS is the slow corner"
        );
    }

    /// `try_evaluate` is bit-identical to `evaluate` on feasible corner
    /// sets, and reports the typed `NoFeasiblePattern` (instead of
    /// panicking) when a corner derates capacitances past a pattern
    /// buffer's max load — the corner sign-off failure mode a service
    /// retry ladder recovers from.
    #[test]
    fn corner_report_try_evaluate_types_corner_infeasibility() {
        use dscts_tech::{Corner, DerateFactors, WireDerate};
        let (t, tech) = tree();
        let corners = CornerSet::asap7_pvt(&tech);
        let report = CornerReport::try_evaluate(&t, &corners, EvalModel::Nldm)
            .expect("tree feasible at the PVT preset");
        assert_eq!(
            report,
            CornerReport::evaluate(&t, &corners, EvalModel::Nldm)
        );

        // A hostile corner: wire capacitance ×50 overloads any embedded
        // buffer the DP placed against its nominal max-load budget.
        let overload = WireDerate {
            res: 1.0,
            cap: 50.0,
        };
        let hot = Corner::new(
            "HOT",
            DerateFactors {
                front_wire: overload,
                back_wire: overload,
                buffer_delay: 1.0,
                ntsv: overload,
            },
        )
        .expect("valid derates");
        let hostile =
            CornerSet::expand(&tech, vec![hot, Corner::nominal("TT")], 1).expect("valid set");
        let err = CornerReport::try_evaluate(&t, &hostile, EvalModel::Nldm)
            .expect_err("overloaded corner must fail typed");
        assert!(
            matches!(err, crate::CtsError::NoFeasiblePattern { .. }),
            "expected the typed data-dependent infeasibility, got {err:?}"
        );
    }

    /// The evaluator's constructor reports a corner that overloads an
    /// embedded buffer as the same typed infeasibility
    /// `CornerReport::try_evaluate` reports, instead of panicking.
    #[test]
    fn construction_types_corner_infeasibility() {
        use dscts_tech::{Corner, DerateFactors, WireDerate};
        let (mut t, tech) = tree();
        let overload = WireDerate {
            res: 1.0,
            cap: 50.0,
        };
        let hot = Corner::new(
            "HOT",
            DerateFactors {
                front_wire: overload,
                back_wire: overload,
                buffer_delay: 1.0,
                ntsv: overload,
            },
        )
        .expect("valid derates");
        let hostile =
            CornerSet::expand(&tech, vec![hot, Corner::nominal("TT")], 1).expect("valid set");
        let want = CornerReport::try_evaluate(&t, &hostile, EvalModel::Elmore)
            .expect_err("overloaded corner");
        let got = MultiCornerEval::new(&mut t, &hostile, EvalModel::Elmore)
            .expect_err("overloaded corner must fail typed");
        assert!(matches!(got, CtsError::NoFeasiblePattern { .. }), "{got:?}");
        assert_eq!(got, want, "same first offending edge as the batch report");
    }
}
