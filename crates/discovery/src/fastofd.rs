//! The FastOFD discovery algorithm (§4, Algorithms 2–4).
//!
//! Level-wise traversal of the set-containment lattice: level `l` holds
//! attribute sets `X` with `|X| = l`, and at each node the candidates
//! `X\A → A` for `A ∈ X ∩ C⁺(X)` are verified. The candidate sets
//! `C⁺(X) = ⋂_{A∈X} C⁺(X\A)` (Definition 5.2) realize the Augmentation
//! pruning (Opt-2); note they deliberately *omit* TANE's extra RHS⁺ rule,
//! which is unsound for OFDs (§4.1).
//!
//! Stripped partitions flow down the lattice by linear-time products, so the
//! whole run is polynomial in the number of tuples and exponential (in the
//! worst case) only in the number of attributes — matching the paper's
//! complexity analysis.

use ofd_core::FxHashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use ofd_core::{
    check_ofd_exact, check_ofd_with_index, prefix_block_pairs, support_threshold, AttrId,
    AttrSet, EvidenceSet, Ofd, OfdKind, ProductScratch, Relation, Schema, SenseIndex,
    StrippedPartition,
};
use ofd_logic::{implies, Dependency};
use ofd_ontology::Ontology;

use crate::cache::PartitionCache;
use crate::checkpoint;
use crate::options::DiscoveryOptions;
use crate::pool;
use crate::sample;
use crate::shard::{self, ShardCovers};
use crate::stats::{DiscoveryStats, LevelStats};

/// One minimal OFD emitted by discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredOfd {
    /// The dependency.
    pub ofd: Ofd,
    /// Its support over the instance (1.0 for exact OFDs).
    pub support: f64,
    /// Lattice level at which it was found (`|X| + 1` for `X → A`).
    pub level: usize,
}

/// Output of a [`FastOfd`] run.
///
/// When the run's [`ExecGuard`](ofd_core::ExecGuard) interrupts it,
/// `complete` is false and `interrupt` records why. The partial Σ is
/// *sound*: every emitted OFD was verified against the instance and is
/// minimal w.r.t. the fully-explored lower levels — only dependencies at
/// unexplored positions may be missing.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The minimal set Σ found so far, ordered by (level, antecedent,
    /// consequent); complete iff `complete`.
    pub ofds: Vec<DiscoveredOfd>,
    /// Instrumentation counters.
    pub stats: DiscoveryStats,
    /// Whether the lattice traversal ran to the end.
    pub complete: bool,
    /// Why the traversal stopped early, when `complete` is false.
    pub interrupt: Option<ofd_core::Interrupt>,
    /// The completed level a resumed run restarted after (`None` for a
    /// fresh run, including a requested resume with no usable snapshot).
    pub resumed_from_level: Option<usize>,
    /// Level-boundary snapshots written by this run.
    pub snapshots_written: usize,
    /// Snapshot writes that failed (I/O or injected faults); the run
    /// continues — a missed checkpoint only costs recompute on resume.
    pub snapshot_errors: usize,
}

impl Discovery {
    /// The discovered dependencies as bare [`Ofd`]s.
    pub fn ofds(&self) -> impl Iterator<Item = &Ofd> {
        self.ofds.iter().map(|d| &d.ofd)
    }

    /// The discovered dependencies as logic-level [`Dependency`] shapes.
    pub fn dependencies(&self) -> Vec<Dependency> {
        self.ofds.iter().map(|d| d.ofd.into()).collect()
    }

    /// Number of discovered OFDs.
    pub fn len(&self) -> usize {
        self.ofds.len()
    }

    /// Whether nothing was discovered.
    pub fn is_empty(&self) -> bool {
        self.ofds.is_empty()
    }

    /// Pretty-prints the result with attribute names; an interrupted run
    /// is explicitly marked incomplete with its reason.
    pub fn display(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for d in &self.ofds {
            out.push_str(&format!(
                "L{} s={:.3} {}\n",
                d.level,
                d.support,
                d.ofd.display(schema)
            ));
        }
        if let Some(i) = self.interrupt {
            out.push_str(&format!("INCOMPLETE: interrupted ({i}); Σ above is a sound subset\n"));
        }
        out
    }
}

/// A node of the discovery lattice.
struct Node {
    attrs: AttrSet,
    /// Candidate consequents `C⁺(X)`; `schema.all()` when Opt-2 is off.
    c_plus: AttrSet,
    /// The node-owned partition Π*_X — `Some` only when the partition
    /// cache is disabled. With the cache on, nodes are unresolved: their
    /// partitions are produced through the [`PartitionCache`] only when a
    /// candidate that survives the precheck needs them.
    partition: Option<Arc<StrippedPartition>>,
    /// Whether Π*_X is known to be empty (X is a superkey), so Opt-3 never
    /// needs the partition to be resident. `false` on an unresolved node
    /// means "unknown": the data path re-checks on the produced partition.
    superkey: bool,
}

/// The FastOFD discovery driver.
pub struct FastOfd<'a> {
    rel: &'a Relation,
    onto: &'a Ontology,
    opts: DiscoveryOptions,
    /// The tuples discovered over: the whole relation, or one shard's row
    /// range (see [`FastOfd::shard`]).
    rows: Range<usize>,
    /// A sense index built by the caller, reused instead of building one.
    index: Option<&'a SenseIndex>,
}

impl<'a> FastOfd<'a> {
    /// Creates a driver with default options.
    pub fn new(rel: &'a Relation, onto: &'a Ontology) -> FastOfd<'a> {
        FastOfd {
            rel,
            onto,
            opts: DiscoveryOptions::default(),
            rows: 0..rel.n_rows(),
            index: None,
        }
    }

    /// Restricts the run to the tuples `rows`, reusing the parent run's
    /// sense index: the shard engine. Tuple ids stay global, so the
    /// run's Σ is the complete minimal cover of the sub-relation. The
    /// caller keeps sampling, sharding and checkpoints off, since they
    /// read the whole relation.
    pub(crate) fn shard(mut self, index: &'a SenseIndex, rows: Range<usize>) -> FastOfd<'a> {
        self.index = Some(index);
        self.rows = rows;
        self
    }

    /// Replaces the options.
    pub fn options(mut self, opts: DiscoveryOptions) -> FastOfd<'a> {
        self.opts = opts;
        self
    }

    /// Runs Algorithm 2: discovers the complete, minimal set of OFDs.
    pub fn run(&self) -> Discovery {
        let started = Instant::now();
        let obs = &self.opts.obs;
        let _run_span = obs.span("fastofd.run");
        let schema = self.rel.schema();
        let n = schema.len();
        let all = schema.all();
        // One shared sense index in the semantics of the requested kind;
        // `check_ofd_with_index` is thread-safe over it.
        let built;
        let index = match self.index {
            Some(index) => index,
            None => {
                let _span = obs.span("fastofd.index");
                built = match self.opts.kind {
                    OfdKind::Synonym => SenseIndex::synonym(self.rel, self.onto),
                    OfdKind::Inheritance { theta } => {
                        SenseIndex::inheritance(self.rel, self.onto, theta)
                    }
                };
                &built
            }
        };
        let known: Vec<Dependency> = self
            .opts
            .known_fds
            .iter()
            .map(|fd| Dependency::from(*fd))
            .collect();
        // Exact integer support: a candidate meets κ iff it covers at least
        // `ceil(κ · n_rows)` tuples. When that threshold is the full
        // relation (κ = 1, or κ close enough that any violation fails it),
        // the early-exit exact checker applies.
        let n_rows = self.rows.len();
        let exact = support_threshold(n_rows, self.opts.min_support) == n_rows;
        // Worker-utilization bookkeeping (gauge — not thread-invariant by
        // design, unlike every counter below).
        let mut busy_us: u64 = 0;
        let mut capacity_us: u64 = 0;

        let mut sigma: Vec<DiscoveredOfd> = Vec::new();
        let mut stats = DiscoveryStats::default();
        let mut scratch = ProductScratch::default();

        // Byte-budgeted partition cache (result-neutral: partitions are
        // canonical however produced, so Σ is identical at any budget).
        // Level-0/1 partitions are pinned — they are the universal operand
        // fallbacks for every later product.
        let mut cache: Option<PartitionCache> = (self.opts.partition_cache_mib > 0)
            .then(|| PartitionCache::new(self.opts.partition_cache_mib, self.rows.clone()));
        if let Some(c) = cache.as_mut() {
            let _span = obs.span("fastofd.cache.seed");
            for a in schema.attrs() {
                let sp = Arc::new(self.partition_of(AttrSet::single(a)));
                c.insert(AttrSet::single(a).bits(), sp, true);
            }
        }

        // Level 0: the empty antecedent.
        let level0 = Arc::new(self.partition_of(AttrSet::empty()));
        let mut prev: Vec<Node> = vec![Node {
            attrs: AttrSet::empty(),
            c_plus: all,
            superkey: level0.is_superkey(),
            partition: match cache.as_mut() {
                Some(c) => {
                    c.insert(AttrSet::empty().bits(), level0, true);
                    None
                }
                None => Some(level0),
            },
        }];
        let mut prev_index: FxHashMap<u64, usize> =
            std::iter::once((AttrSet::empty().bits(), 0)).collect();

        let guard = &self.opts.guard;
        let max_level = self.opts.max_level.unwrap_or(n).min(n);

        // Checkpoint/resume: the fingerprint binds snapshots to exactly
        // these inputs and result-affecting options.
        let fp = self
            .opts
            .checkpoint
            .as_ref()
            .map(|_| checkpoint::fingerprint(self.rel, self.onto, &self.opts));
        let mut start_level = 1;
        let mut resumed_from_level = None;
        let mut snapshots_written = 0;
        let mut snapshot_errors = 0;
        if let Some(ck) = self.opts.checkpoint.as_ref().filter(|ck| ck.resume) {
            if let Ok(Some(loaded)) = ck.store.load_latest(checkpoint::STREAM) {
                match checkpoint::restore(&loaded.body, fp.expect("fp set"), self.opts.kind) {
                    Some(rs) => {
                        sigma = rs.sigma;
                        stats.levels = rs.levels;
                        // The frontier is rebuilt the way `next_level`
                        // builds nodes: unresolved with the cache on,
                        // node-owned scans without it. Partitions are
                        // canonical however produced, so every later
                        // decision is unchanged.
                        prev = rs
                            .frontier
                            .iter()
                            .map(|&(attrs, c_plus)| match cache {
                                Some(_) => Node {
                                    attrs,
                                    c_plus,
                                    partition: None,
                                    superkey: false,
                                },
                                None => {
                                    let sp = Arc::new(self.partition_of(attrs));
                                    Node {
                                        attrs,
                                        c_plus,
                                        superkey: sp.is_superkey(),
                                        partition: Some(sp),
                                    }
                                }
                            })
                            .collect();
                        prev_index = prev
                            .iter()
                            .enumerate()
                            .map(|(i, node)| (node.attrs.bits(), i))
                            .collect();
                        start_level = rs.completed_level + 1;
                        resumed_from_level = Some(rs.completed_level);
                        // Re-seed obs accumulators so final totals cover
                        // the whole logical run, not just the tail.
                        for (name, v) in &rs.counters {
                            obs.add(name, *v);
                        }
                        if obs.is_enabled() {
                            obs.inc("discovery.resume");
                            obs.set_gauge(
                                "discovery.resumed_from_level",
                                rs.completed_level as f64,
                            );
                        }
                        // An empty restored frontier means the traversal
                        // had already converged: nothing left to run.
                        if prev.is_empty() {
                            start_level = max_level + 1;
                        }
                    }
                    None => {
                        if obs.is_enabled() {
                            obs.inc("discovery.resume.rejected");
                        }
                    }
                }
            }
        }

        // Fault injection (worker panics, delays) probed at every
        // candidate decision; panics are caught, never propagated.
        let faults = &self.opts.faults;

        // Hybrid pre-filter phases (sampling + shards). Both stages are
        // pure *refutation oracles* for the exact path: a positive answer
        // is a sound "fails on the full relation" verdict, the absence of
        // one proves nothing, and surviving candidates still pay for the
        // exact check — which is why Σ, supports and per-level stats are
        // byte-identical with the phases on or off (the result-neutrality
        // contract enforced by the differential tests). Neither phase runs
        // for κ < 1: a sub-relation violation does not refute an
        // approximate candidate.
        if obs.is_enabled() {
            for name in [
                "discovery.sample.rounds",
                "discovery.sample.evidence_pairs",
                "discovery.sample.candidates_pruned",
                "discovery.shard.shards",
                "discovery.shard.merged_candidates",
                "discovery.shard.candidates_pruned",
                "discovery.shard.union_validated",
            ] {
                obs.touch_counter(name);
            }
        }
        let run_phases = exact && start_level <= max_level;
        let evidence: Option<EvidenceSet> = (run_phases && self.opts.sample_rounds > 0)
            .then(|| {
                let _span = obs.span("fastofd.sample");
                let out =
                    sample::gather_evidence(self.rel, index, self.opts.sample_rounds, guard);
                if obs.is_enabled() {
                    obs.add("discovery.sample.rounds", out.rounds_run);
                    obs.add(
                        "discovery.sample.evidence_pairs",
                        out.evidence.pair_count(),
                    );
                }
                out.evidence
            })
            .filter(|e| !e.is_empty());
        let n_shards = if run_phases {
            self.opts.effective_shards(self.rel.n_rows())
        } else {
            0
        };
        let shard_covers: Option<ShardCovers> = (n_shards > 1)
            .then(|| {
                let _span = obs.span("fastofd.shards");
                let covers =
                    shard::discover_shards(self.rel, self.onto, index, &self.opts, n_shards);
                if obs.is_enabled() {
                    obs.add("discovery.shard.shards", covers.completed as u64);
                    obs.add(
                        "discovery.shard.merged_candidates",
                        covers.merged_candidates(),
                    );
                }
                covers
            })
            .filter(|c| c.completed > 0);
        for level in start_level..=max_level {
            // Per-level checkpoint: never start building a level once a
            // limit has expired.
            if guard.check().is_err() {
                break;
            }
            let level_started = Instant::now();
            let _level_span = obs.span(&format!("fastofd.level.{level}"));
            let mut ls = LevelStats {
                level,
                ..LevelStats::default()
            };

            // calculateNextLevel (Algorithm 3).
            let mut current: Vec<Node> = if level == 1 {
                schema
                    .attrs()
                    .map(|a| {
                        let attrs = AttrSet::single(a);
                        match cache.as_mut() {
                            Some(c) => {
                                // Seeded pinned at startup: always a hit.
                                let sp = c.produce(self.rel, attrs, &mut scratch);
                                Node {
                                    attrs,
                                    c_plus: all,
                                    superkey: sp.is_superkey(),
                                    partition: None,
                                }
                            }
                            None => {
                                let sp = Arc::new(self.partition_of(attrs));
                                Node {
                                    attrs,
                                    c_plus: all,
                                    superkey: sp.is_superkey(),
                                    partition: Some(sp),
                                }
                            }
                        }
                    })
                    .collect()
            } else {
                self.next_level(&prev, &prev_index, &mut scratch, cache.is_none())
            };
            ls.nodes = current.len();

            // computeOFDs (Algorithm 4), line 2: C⁺(X) = ⋂ C⁺(X\A).
            if self.opts.use_opt2 && level >= 1 {
                for node in &mut current {
                    let mut cp = all;
                    for (_, parent) in node.attrs.parents() {
                        match prev_index.get(&parent.bits()) {
                            Some(&pi) => cp = cp.intersect(prev[pi].c_plus),
                            None => cp = AttrSet::empty(),
                        }
                    }
                    node.c_plus = cp;
                }
            }

            // Candidate verification: collect the level's jobs, decide
            // them (in parallel when configured — order within a level is
            // immaterial), then apply emissions sequentially.
            //
            // Prune attribution (counters, thread-invariant): Opt-1 is
            // structural — the trivial candidates `X → A, A ∈ X` at each
            // node are never generated; Opt-2 removes consequents outside
            // `C⁺(X)` and candidates whose parent node was deleted.
            let mut opt1_trivial_skipped: u64 = 0;
            let mut opt2_candidates_pruned: u64 = 0;
            let mut jobs: Vec<(usize, AttrId, AttrSet, usize)> = Vec::new();
            for (ni, node) in current.iter().enumerate() {
                let mut base = node.attrs;
                if let Some(target) = self.opts.target_rhs {
                    base = base.intersect(target);
                }
                let cands = if self.opts.use_opt2 {
                    base.intersect(node.c_plus)
                } else {
                    base
                };
                opt1_trivial_skipped += node.attrs.len() as u64;
                opt2_candidates_pruned += (base.len() - cands.len()) as u64;
                for a in cands.iter() {
                    let lhs = node.attrs.without(a);
                    if let Some(&pi) = prev_index.get(&lhs.bits()) {
                        jobs.push((ni, a, lhs, pi));
                    } else {
                        // Only Opt-2's node deletion removes parents.
                        opt2_candidates_pruned += 1;
                    }
                }
            }
            ls.candidates = jobs.len();

            // Partition-free pre-decisions: Opt-4 logic subsumption, then
            // the hybrid refutation oracles. Deciding these before
            // partition resolution means refuted candidates never force a
            // materialization. Soundness keeps attribution honest: a
            // superkey antecedent implies a valid candidate, which no sound
            // oracle can refute, so every KeyShortcut candidate still
            // reaches the data path below.
            let precheck_span = obs.span("fastofd.precheck");
            let prechecked: Vec<Option<(bool, f64, Decision)>> = jobs
                .iter()
                .map(|&(_, a, lhs, _)| {
                    let ofd = Ofd {
                        lhs,
                        rhs: a,
                        kind: self.opts.kind,
                    };
                    self.precheck(&ofd, &known, exact, evidence.as_ref(), shard_covers.as_ref())
                })
                .collect();
            drop(precheck_span);

            // Resolve each antecedent partition a data decision still
            // needs, before any workers spawn: cache lookups stay on this
            // thread (counters remain thread-invariant) and workers only
            // read `Arc`s.
            let resolved: Vec<Option<Arc<StrippedPartition>>> = {
                let _span = obs.span("fastofd.resolve");
                let mut resolved: Vec<Option<Arc<StrippedPartition>>> = Vec::new();
                resolved.resize_with(prev.len(), || None);
                for (&(_, _, _, pi), pre) in jobs.iter().zip(prechecked.iter()) {
                    if pre.is_some() || resolved[pi].is_some() {
                        continue;
                    }
                    let node = &prev[pi];
                    resolved[pi] = Some(if let Some(p) = &node.partition {
                        Arc::clone(p)
                    } else if node.superkey {
                        // Canonical empty partition; no cache traffic.
                        Arc::new(StrippedPartition::empty(self.rel.n_rows()))
                    } else {
                        cache
                            .as_mut()
                            .expect("nodes are unresolved only with the cache on")
                            .produce(self.rel, node.attrs, &mut scratch)
                    });
                }
                resolved
            };

            let decide = |i: usize| {
                faults.delay();
                faults.worker_panic();
                if let Some(pre) = prechecked[i] {
                    return pre;
                }
                let (_, a, lhs, pi) = jobs[i];
                let ofd = Ofd {
                    lhs,
                    rhs: a,
                    kind: self.opts.kind,
                };
                let lhs_partition = resolved[pi].as_ref().expect("resolved before decisions");
                self.decide_data(index, &ofd, lhs_partition, exact)
            };
            // Panic isolation: a worker panic (a bug in verification, or
            // an injected fault) is caught, recorded as the sticky
            // `WorkerPanic` interrupt, and degrades the run to the same
            // sound partial result every other interrupt produces — the
            // process never aborts. A `None` decision means the guard
            // tripped before that candidate was examined (or the worker
            // deciding it panicked) — it is simply not part of the
            // (sound) partial output.
            let decide_caught = |i: usize| {
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decide(i))) {
                    Ok(out) => Some(out),
                    Err(_) => {
                        guard.trip_external(ofd_core::Interrupt::WorkerPanic);
                        None
                    }
                }
            };
            let verify_started = Instant::now();
            let verify_span = obs.span("fastofd.verify");
            let workers = if jobs.len() < 2 * self.opts.threads {
                1
            } else {
                self.opts.threads
            };
            let (decisions, worker_busy_us) =
                pool::run_indexed(jobs.len(), workers, guard, decide_caught);
            busy_us += worker_busy_us;
            capacity_us += verify_started.elapsed().as_micros() as u64 * workers as u64;
            drop(verify_span);
            if obs.is_enabled() {
                obs.set_gauge(
                    &format!("discovery.level.{level}.verify_ms"),
                    verify_started.elapsed().as_secs_f64() * 1e3,
                );
            }

            let mut sample_pruned: u64 = 0;
            let mut shard_pruned: u64 = 0;
            let mut union_validated: u64 = 0;
            for (&(ni, a, lhs, _), decision) in jobs.iter().zip(decisions.iter()) {
                let &Some((valid, support, how)) = decision else {
                    continue;
                };
                match how {
                    Decision::KeyShortcut => ls.key_shortcuts += 1,
                    Decision::FdShortcut => ls.fd_shortcuts += 1,
                    Decision::Verified => {
                        ls.verified += 1;
                        if shard_covers.is_some() {
                            // Survived the merged shard covers and was
                            // validated against the full union of rows.
                            union_validated += 1;
                        }
                    }
                    Decision::SampleRefuted => {
                        ls.verified += 1;
                        sample_pruned += 1;
                    }
                    Decision::ShardRefuted => {
                        ls.verified += 1;
                        shard_pruned += 1;
                    }
                }
                if valid {
                    let minimal = if self.opts.use_opt2 {
                        // Lemma 5.3: A ∈ C⁺(X) already certifies minimality.
                        true
                    } else {
                        !sigma
                            .iter()
                            .any(|d| d.ofd.rhs == a && d.ofd.lhs.is_proper_subset(lhs))
                    };
                    if minimal {
                        sigma.push(DiscoveredOfd {
                            ofd: Ofd {
                                lhs,
                                rhs: a,
                                kind: self.opts.kind,
                            },
                            support,
                            level,
                        });
                        ls.found += 1;
                    }
                    if self.opts.use_opt2 {
                        current[ni].c_plus.remove(a);
                    }
                }
            }

            // Opt-2 node pruning: a node with an empty candidate set cannot
            // contribute candidates at any descendant.
            let before = current.len();
            if self.opts.use_opt2 {
                current.retain(|n| !n.c_plus.is_empty());
            }
            ls.pruned_nodes = before - current.len();

            prev_index = current
                .iter()
                .enumerate()
                .map(|(i, n)| (n.attrs.bits(), i))
                .collect();
            prev = current;
            ls.elapsed = level_started.elapsed();
            // Per-level counters are emitted here, after the sequential
            // emission pass, so their totals are identical for any worker
            // thread count (the metrics-invariance contract).
            if obs.is_enabled() {
                obs.inc("discovery.levels");
                obs.add(&format!("discovery.level.{level}.nodes"), ls.nodes as u64);
                obs.add(
                    &format!("discovery.level.{level}.candidates"),
                    ls.candidates as u64,
                );
                obs.add(
                    &format!("discovery.level.{level}.verified"),
                    ls.verified as u64,
                );
                obs.add(&format!("discovery.level.{level}.found"), ls.found as u64);
                obs.add("discovery.nodes", ls.nodes as u64);
                obs.add("discovery.candidates", ls.candidates as u64);
                obs.add("discovery.verified", ls.verified as u64);
                obs.add("discovery.found", ls.found as u64);
                obs.add("discovery.prune.opt1.trivial_skipped", opt1_trivial_skipped);
                obs.add(
                    "discovery.prune.opt2.candidates_pruned",
                    opt2_candidates_pruned,
                );
                obs.add("discovery.prune.opt2.nodes_deleted", ls.pruned_nodes as u64);
                obs.add("discovery.prune.opt3.key_shortcuts", ls.key_shortcuts as u64);
                obs.add("discovery.prune.opt4.fd_shortcuts", ls.fd_shortcuts as u64);
                obs.add("discovery.sample.candidates_pruned", sample_pruned);
                obs.add("discovery.shard.candidates_pruned", shard_pruned);
                obs.add("discovery.shard.union_validated", union_validated);
            }
            stats.levels.push(ls);
            // Level-boundary checkpoint. Written only when no interrupt
            // is pending: a tripped run processed this level partially,
            // and recording it as completed would make resume unsound.
            // This also models a hard kill — on-disk state only ever
            // describes fully completed levels.
            if let Some(ck) = &self.opts.checkpoint {
                if guard.interrupt().is_none() {
                    let frontier: Vec<(u64, u64)> = prev
                        .iter()
                        .map(|node| (node.attrs.bits(), node.c_plus.bits()))
                        .collect();
                    let body = checkpoint::snapshot_body(
                        fp.expect("fp set"),
                        level,
                        &sigma,
                        &frontier,
                        &stats.levels,
                        guard.work_done(),
                        obs,
                    );
                    match ck.store.save(checkpoint::STREAM, level as u64, &body) {
                        Ok(_) => {
                            snapshots_written += 1;
                            obs.inc("discovery.checkpoint.written");
                        }
                        Err(_) => {
                            snapshot_errors += 1;
                            obs.inc("discovery.checkpoint.error");
                        }
                    }
                }
            }
            if prev.is_empty() {
                break;
            }
        }

        sigma.sort_by_key(|d| (d.level, d.ofd.lhs.bits(), d.ofd.rhs));
        stats.elapsed = started.elapsed();
        if let Some(c) = &cache {
            c.flush_obs(obs);
            stats.cache = Some(c.stats());
        }
        let interrupt = guard.interrupt();
        if obs.is_enabled() {
            if capacity_us > 0 {
                obs.set_gauge(
                    "discovery.verify.utilization",
                    busy_us as f64 / capacity_us as f64,
                );
            }
            obs.set_gauge("discovery.elapsed_ms", stats.elapsed.as_secs_f64() * 1e3);
            if let Some(i) = interrupt {
                obs.inc(&format!("guard.interrupt.{}", i.label()));
            }
        }
        Discovery {
            ofds: sigma,
            stats,
            complete: interrupt.is_none(),
            interrupt,
            resumed_from_level,
            snapshots_written,
            snapshot_errors,
        }
    }

    /// Π*_X over this run's rows, straight from the relation.
    fn partition_of(&self, attrs: AttrSet) -> StrippedPartition {
        StrippedPartition::of_range(self.rel, attrs, self.rows.clone())
    }

    /// Joins prefix blocks of the previous level into the next one. With
    /// `node_owned` (cache off) each child owns the product of its two
    /// joined parents; with the cache on, children are unresolved and only
    /// the candidates that survive the precheck have their antecedent
    /// partitions produced, through the cache.
    fn next_level(
        &self,
        prev: &[Node],
        prev_index: &FxHashMap<u64, usize>,
        scratch: &mut ProductScratch,
        node_owned: bool,
    ) -> Vec<Node> {
        let obs = &self.opts.obs;
        let _span = obs.span("fastofd.next_level");
        let mut products: u64 = 0;
        let mut products_skipped: u64 = 0;
        let mut out = Vec::new();
        let all = self.rel.schema().all();
        let sets: Vec<AttrSet> = prev.iter().map(|n| n.attrs).collect();
        for (i, j) in prefix_block_pairs(&sets) {
            let (a, b) = (&prev[i], &prev[j]);
            let attrs = a.attrs.union(b.attrs);
            // All parents must exist for the C⁺ intersection (and, with
            // Opt-2, a missing parent means the child is dead).
            let parents_ok = attrs
                .parents()
                .all(|(_, p)| prev_index.contains_key(&p.bits()));
            if !parents_ok {
                continue;
            }
            if self.opts.use_opt3 && (a.superkey || b.superkey) {
                // Opt-3: supersets of superkeys are superkeys; skip the
                // product entirely.
                products_skipped += 1;
                out.push(Node {
                    attrs,
                    c_plus: all,
                    superkey: true,
                    partition: node_owned
                        .then(|| Arc::new(StrippedPartition::empty(self.rel.n_rows()))),
                });
                continue;
            }
            let partition = node_owned.then(|| {
                products += 1;
                let left = a.partition.as_ref().expect("node-owned partition");
                let right = b.partition.as_ref().expect("node-owned partition");
                let p = left.product_with_scratch(right, scratch);
                obs.observe(
                    "discovery.partition.class_count",
                    CLASS_COUNT_BOUNDS,
                    p.class_count() as f64,
                );
                Arc::new(p)
            });
            out.push(Node {
                attrs,
                c_plus: all,
                superkey: partition.as_ref().is_some_and(|p| p.is_superkey()),
                partition,
            });
        }
        obs.add("discovery.partition.products", products);
        obs.add("discovery.prune.opt3.products_skipped", products_skipped);
        out
    }

    /// Decides a candidate without touching any partition, when possible:
    /// Opt-4 logic subsumption first, then the hybrid refutation oracles.
    ///
    /// Runs before partition resolution so that, with the cache on, a
    /// pre-decided candidate never forces a materialization. Ordering
    /// Opt-4 ahead of the oracles keeps Σ byte-identical with the phases
    /// off even when `known_fds` do not actually hold on the instance (an
    /// FD-implied candidate is emitted either way, as Opt-4's contract
    /// dictates, instead of being data-refuted by an oracle first).
    fn precheck(
        &self,
        ofd: &Ofd,
        known: &[Dependency],
        exact: bool,
        evidence: Option<&EvidenceSet>,
        shards: Option<&ShardCovers>,
    ) -> Option<(bool, f64, Decision)> {
        // Opt-4: FD subsumption — an OFD implied by FDs that hold exactly
        // needs no data verification.
        if self.opts.use_opt4 && !known.is_empty() {
            let dep = Dependency::from(*ofd);
            if implies(known, &dep) {
                return Some((true, 1.0, Decision::FdShortcut));
            }
        }
        if exact {
            // Hybrid pre-filter oracles, consulted strictly before the
            // full-relation scan they exist to avoid. Either refutation is
            // sound on the full relation, and the `(false, 1.0, _)` shape
            // matches what the exact check would have returned for the
            // same candidate.
            if let Some(ev) = evidence {
                if ev.refutes(ofd.lhs, ofd.rhs) {
                    return Some((false, 1.0, Decision::SampleRefuted));
                }
            }
            if let Some(sc) = shards {
                if sc.refutes(ofd.lhs, ofd.rhs) {
                    return Some((false, 1.0, Decision::ShardRefuted));
                }
            }
        }
        None
    }

    /// Decides one candidate against the data: (valid?, support, how).
    fn decide_data(
        &self,
        index: &SenseIndex,
        ofd: &Ofd,
        lhs_partition: &StrippedPartition,
        exact: bool,
    ) -> (bool, f64, Decision) {
        // Opt-3: a superkey antecedent has no non-singleton classes.
        if self.opts.use_opt3 && lhs_partition.is_superkey() {
            return (true, 1.0, Decision::KeyShortcut);
        }
        if exact {
            // Early-exit on the first violating class — the hot path, since
            // most lattice candidates fail.
            let ok = check_ofd_exact(self.rel, index, ofd, lhs_partition);
            (ok, 1.0, Decision::Verified)
        } else {
            // The κ comparison is exact integer arithmetic shared with the
            // brute-force oracle ([`ofd_core::meets_support`]); the f64
            // support is carried for display only.
            let validation = check_ofd_with_index(self.rel, index, ofd, lhs_partition);
            (
                validation.meets_support(self.opts.min_support),
                validation.support(),
                Decision::Verified,
            )
        }
    }
}

/// How one candidate was decided (stats bookkeeping).
///
/// The two refutation variants are data-decided negatives, so they count
/// into [`LevelStats::verified`] exactly like [`Decision::Verified`] — the
/// per-level stats are part of the result-neutrality contract. They exist
/// as distinct variants only for the prune-attribution counters.
#[derive(Debug, Clone, Copy)]
enum Decision {
    KeyShortcut,
    FdShortcut,
    Verified,
    /// Refuted by a sampled evidence pair (no full scan).
    SampleRefuted,
    /// Refuted by a completed shard's minimal cover (no full scan).
    ShardRefuted,
}

/// Bucket boundaries for the partition class-count histogram
/// (`discovery.partition.class_count`).
const CLASS_COUNT_BOUNDS: &[f64] = &[
    0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0, 16384.0,
];
