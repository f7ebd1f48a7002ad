//! Shard-and-merge pre-filtering: per-row-range discovery as a sound
//! refutation oracle for the global lattice.
//!
//! An exact OFD that holds on the full relation holds on every subset of
//! its rows (each subset class is contained in a full class, and a common
//! sense restricts). The contrapositive is the oracle: a candidate that
//! *fails on any row shard* is globally refuted without touching the full
//! relation. The phase splits the rows into contiguous chunks, runs the
//! FastOFD engine itself over each chunk ([`FastOfd::shard`]) on the
//! crate's worker pool, and keeps each completed shard's **complete
//! minimal cover** Σ_s over its range. `X → A` then holds on shard `s` iff
//! some `X' ⊆ X` with `X' → A` is in Σ_s — completeness of Σ_s is what
//! makes a negative answer a sound refutation.
//!
//! Merging is deliberately *not* "union the covers and emit": a shard-
//! minimal antecedent can fail globally while a superset holds, so the
//! union is neither sound nor complete as an answer. Instead the global
//! traversal keeps its exact structure and consults the covers per
//! candidate; survivors are validated against the full relation with the
//! normal CSR/partition-cache machinery (`validate the union globally`).
//! A shard run interrupted by the guard is discarded whole — a *partial*
//! cover would refute candidates it merely failed to reach.

use std::ops::Range;

use ofd_core::{AttrId, AttrSet, FxHashSet, Relation, SenseIndex};
use ofd_ontology::Ontology;

use crate::pool;
use crate::{DiscoveryOptions, FastOfd};

/// The complete minimal cover of one completed shard, indexed for subset
/// queries: `per_rhs[a]` holds the antecedent bit-sets of every minimal
/// shard-OFD with consequent `a`.
#[derive(Debug)]
pub(crate) struct ShardCover {
    per_rhs: Vec<Vec<u64>>,
}

impl ShardCover {
    /// Whether `lhs → rhs` holds on this shard: some minimal cover entry
    /// is contained in `lhs`.
    #[inline]
    fn holds(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        let bits = lhs.bits();
        // Subset test: entry ⊆ lhs ⟺ entry ∪ lhs = lhs.
        self.per_rhs[rhs.index()]
            .iter()
            .any(|&entry| entry | bits == bits)
    }
}

/// The per-shard covers of a completed pre-filter phase.
#[derive(Debug)]
pub(crate) struct ShardCovers {
    covers: Vec<ShardCover>,
    /// Shards whose run completed (only these may refute).
    pub completed: usize,
}

impl ShardCovers {
    /// Sound refutation: true iff some completed shard's cover proves the
    /// candidate fails on that shard.
    #[inline]
    pub fn refutes(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        self.covers.iter().any(|c| !c.holds(lhs, rhs))
    }

    /// Distinct `(lhs, rhs)` entries across all completed shard covers —
    /// the size of the merged candidate union.
    pub fn merged_candidates(&self) -> u64 {
        let mut distinct: FxHashSet<(u64, u32)> = FxHashSet::default();
        for c in &self.covers {
            for (rhs, entries) in c.per_rhs.iter().enumerate() {
                for &lhs in entries {
                    distinct.insert((lhs, rhs as u32));
                }
            }
        }
        distinct.len() as u64
    }
}

/// Splits `n_rows` into `n_shards` contiguous, near-even, non-empty ranges.
fn ranges(n_rows: usize, n_shards: usize) -> Vec<Range<usize>> {
    let base = n_rows / n_shards;
    let rem = n_rows % n_shards;
    let mut out = Vec::with_capacity(n_shards);
    let mut start = 0;
    for i in 0..n_shards {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The options of one shard run: exact, single-threaded and quiet (no
/// obs, checkpoints, faults, `known_fds`, sampling or nested shards), with
/// node-owned partitions, and with `kind`, `max_level` and `target_rhs`
/// copied from the parent, so each cover is complete for exactly the
/// candidate space the global traversal queries.
fn shard_options(parent: &DiscoveryOptions) -> DiscoveryOptions {
    DiscoveryOptions {
        kind: parent.kind,
        max_level: parent.max_level,
        target_rhs: parent.target_rhs,
        guard: parent.guard.clone(),
        sample_rounds: 0,
        partition_cache_mib: 0,
        ..DiscoveryOptions::default()
    }
}

/// Runs the shard phase: one FastOFD run per row range on up to
/// `parent.threads` pool workers, discarding any run the guard interrupted.
/// `n_shards` must be between 1 and the relation's row count.
pub(crate) fn discover_shards(
    rel: &Relation,
    onto: &Ontology,
    index: &SenseIndex,
    parent: &DiscoveryOptions,
    n_shards: usize,
) -> ShardCovers {
    let ranges = ranges(rel.n_rows(), n_shards);
    let opts = shard_options(parent);
    let n_attrs = rel.schema().len();
    let workers = parent.threads.clamp(1, n_shards);
    let (covers, _) = pool::run_indexed(n_shards, workers, &parent.guard, |i| {
        let run = FastOfd::new(rel, onto)
            .options(opts.clone())
            .shard(index, ranges[i].clone())
            .run();
        run.complete.then(|| {
            let mut per_rhs = vec![Vec::new(); n_attrs];
            for ofd in run.ofds() {
                per_rhs[ofd.rhs.index()].push(ofd.lhs.bits());
            }
            ShardCover { per_rhs }
        })
    });
    let covers: Vec<ShardCover> = covers.into_iter().flatten().collect();
    ShardCovers {
        completed: covers.len(),
        covers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1, ExecGuard};
    use ofd_ontology::samples;
    use proptest::prelude::*;

    #[test]
    fn ranges_are_contiguous_even_and_exhaustive() {
        for (n, k) in [(10usize, 3usize), (7, 7), (100, 4), (5, 1)] {
            let rs = ranges(n, k);
            assert_eq!(rs.len(), k);
            assert_eq!(rs[0].start, 0);
            assert_eq!(rs[k - 1].end, n);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let (min, max) = rs
                .iter()
                .map(|r| r.len())
                .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
            assert!(max - min <= 1, "near-even split for n={n} k={k}");
            assert!(min >= 1, "no empty shard for n={n} k={k}");
        }
    }

    #[test]
    fn shard_refutation_is_sound_for_global_ofds() {
        // Everything in the full-relation Σ holds on every shard, so the
        // oracle must never refute it — at any shard count.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let sigma = FastOfd::new(&rel, &onto).run();
        for n_shards in [1usize, 2, 3, 5, 11] {
            let covers =
                discover_shards(&rel, &onto, &index, &DiscoveryOptions::new(), n_shards);
            assert_eq!(covers.completed, n_shards);
            assert!(covers.merged_candidates() > 0);
            for d in sigma.ofds() {
                assert!(
                    !covers.refutes(d.lhs, d.rhs),
                    "n_shards={n_shards}: refuted the valid OFD {}",
                    d.display(rel.schema())
                );
            }
        }
    }

    #[test]
    fn tripped_guard_discards_shards_instead_of_refuting() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let guard = ExecGuard::unlimited();
        guard.cancel();
        let parent = DiscoveryOptions::new().max_level(4).guard(guard);
        let covers = discover_shards(&rel, &onto, &index, &parent, 3);
        assert_eq!(covers.completed, 0, "no partial cover survives a trip");
        // And an oracle with no completed shards refutes nothing.
        let schema = rel.schema();
        for a in schema.attrs() {
            assert!(!covers.refutes(AttrSet::empty(), a));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Each shard run's Σ is exactly what FastOFD discovers on that
        /// row range materialised as a relation of its own: the range
        /// engine reads no tuple outside its range.
        #[test]
        fn shard_run_equals_engine_on_materialised_range(
            ((rel, onto), n_shards) in (crate::tests::arb_instance(), 1usize..8)
        ) {
            let index = SenseIndex::synonym(&rel, &onto);
            let opts = shard_options(&DiscoveryOptions::new());
            let names: Vec<&str> = rel.schema().attrs().map(|a| rel.schema().name(a)).collect();
            for range in ranges(rel.n_rows(), n_shards.min(rel.n_rows())) {
                let shard = FastOfd::new(&rel, &onto)
                    .options(opts.clone())
                    .shard(&index, range.clone())
                    .run();
                let texts: Vec<Vec<&str>> = range.clone().map(|t| rel.row_texts(t)).collect();
                let sub = Relation::from_rows(
                    names.iter().copied(),
                    texts.iter().map(Vec::as_slice),
                )
                .expect("sub-relation");
                let alone = FastOfd::new(&sub, &onto).run();
                prop_assert!(shard.complete);
                prop_assert_eq!(&shard.ofds, &alone.ofds, "range {:?}", range);
            }
        }
    }
}
