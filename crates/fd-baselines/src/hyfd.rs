//! HyFD (Papenbrock & Naumann, 2016) — the modern *hybrid* FD-discovery
//! algorithm, included beyond the paper's seven comparators as the field's
//! current reference point.
//!
//! Three phases, iterated to a fixpoint:
//!
//! 1. **Sampling** — compare a cheap subset of tuple pairs (sorted-
//!    neighbourhood windows per attribute) and record their agree sets as
//!    known non-FDs;
//! 2. **Induction** — maintain, per consequent, the most-general antecedent
//!    hypotheses consistent with every known non-FD (FDep-style
//!    specialization);
//! 3. **Validation** — check the surviving hypotheses against the *full*
//!    data via partitions; each failure yields a concrete violating pair
//!    whose agree set feeds back into induction.
//!
//! On exit every hypothesis is validated, and the same most-general-cover
//! argument as FDep's shows the output is exactly the minimal FD set.

use ofd_core::{FxHashMap, FxHashSet};

use ofd_core::{
    sorted_neighbourhood, AttrId, AttrSet, ExecGuard, Fd, Obs, Partial, Relation, StrippedPartition,
    ValueId,
};

use crate::common::{record_interrupt, sort_fds};

/// Runs HyFD, returning the minimal non-trivial FDs of `rel`.
pub fn discover(rel: &Relation) -> Vec<Fd> {
    discover_guarded(rel, &ExecGuard::unlimited()).value
}

/// [`discover`] with an execution guard, probed per block of sampled
/// pairs (one distance in one attribute's order), per induced non-FD and
/// per validated hypothesis.
///
/// Only hypotheses that passed a full-data validation round are emitted on
/// interrupt. Such a hypothesis `X → A` is a true minimal FD: it holds over
/// the whole relation, and every proper subset of `X` is contained in some
/// recorded agree set missing `A` (otherwise the cover would have kept the
/// subset instead), i.e. is violated by a concrete tuple pair. Validated
/// hypotheses are also stable — a later violation's agree set can never
/// contain a valid antecedent — so the partial output is a subset of the
/// full output.
pub fn discover_guarded(rel: &Relation, guard: &ExecGuard) -> Partial<Vec<Fd>> {
    discover_with(rel, guard, &Obs::disabled())
}

/// [`discover_guarded`] with an observability handle: records
/// `baseline.hyfd.node_visits` (hypotheses validated against the full data)
/// and `baseline.hyfd.partition_products` (full stripped-partition builds
/// on validation-cache misses), plus labelled guard interrupts.
pub fn discover_with(rel: &Relation, guard: &ExecGuard, obs: &Obs) -> Partial<Vec<Fd>> {
    let schema = rel.schema();
    let n_attrs = schema.len();
    let all = schema.all();
    let mut node_visits: u64 = 0;
    let mut partition_builds: u64 = 0;

    let agree_set_of = |t1: usize, t2: usize| -> AttrSet {
        let mut s = AttrSet::empty();
        for a in schema.attrs() {
            if rel.value(t1, a) == rel.value(t2, a) {
                s.insert(a);
            }
        }
        s
    };

    // Phase 1: sampling via sorted-neighbourhood windows per attribute
    // (every pair up to WINDOW apart in each attribute's sort order).
    // A truncated sample only makes hypotheses too general; phase 3's
    // full-data validation gates everything that is emitted.
    let mut non_fds: FxHashSet<AttrSet> = FxHashSet::default();
    const WINDOW: usize = 3;
    sorted_neighbourhood(rel, WINDOW, guard, |t1, t2| {
        non_fds.insert(agree_set_of(t1, t2));
    });
    non_fds.remove(&all); // duplicate tuples violate nothing

    // Phase 2: induction — per consequent, most-general hypotheses.
    let mut covers: Vec<Vec<AttrSet>> = (0..n_attrs).map(|_| vec![AttrSet::empty()]).collect();
    let specialize = |cover: &mut Vec<AttrSet>, s: AttrSet, a: AttrId, universe: AttrSet| {
        let mut next: Vec<AttrSet> = Vec::new();
        let mut to_fix: Vec<AttrSet> = Vec::new();
        for &x in cover.iter() {
            if x.is_subset(s) {
                to_fix.push(x);
            } else {
                next.push(x);
            }
        }
        for x in to_fix {
            for b in universe.minus(s).iter() {
                if b == a {
                    continue;
                }
                let candidate = x.with(b);
                if !next.iter().any(|y| y.is_subset(candidate)) {
                    next.retain(|y| !candidate.is_subset(*y));
                    next.push(candidate);
                }
            }
        }
        *cover = next;
    };
    let apply_non_fd = |covers: &mut Vec<Vec<AttrSet>>, s: AttrSet| {
        for a in schema.attrs() {
            if !s.contains(a) {
                let universe = all.without(a);
                specialize(&mut covers[a.index()], s, a, universe);
            }
        }
    };
    for &s in &non_fds {
        if guard.check().is_err() {
            break;
        }
        apply_non_fd(&mut covers, s);
    }

    // Phase 3: validate hypotheses against the full data; feed violating
    // pairs back. Partition results are cached across rounds. `validated`
    // records hypotheses that survived a full-data check — the only ones
    // emitted on interrupt.
    let mut partitions: FxHashMap<u64, StrippedPartition> =
        FxHashMap::default();
    let mut validated: Vec<FxHashSet<u64>> = (0..n_attrs).map(|_| FxHashSet::default()).collect();
    loop {
        let mut new_non_fds: Vec<AttrSet> = Vec::new();
        'validation: for a in schema.attrs() {
            let col = rel.column(a);
            for &x in &covers[a.index()] {
                if guard.check().is_err() {
                    break 'validation;
                }
                node_visits += 1;
                let sp = partitions.entry(x.bits()).or_insert_with(|| {
                    partition_builds += 1;
                    StrippedPartition::of(rel, x)
                });
                if let Some((t1, t2)) = violating_pair(sp, col) {
                    new_non_fds.push(agree_set_of(t1 as usize, t2 as usize));
                } else {
                    validated[a.index()].insert(x.bits());
                }
            }
        }
        if guard.is_tripped() || new_non_fds.is_empty() {
            break;
        }
        for s in new_non_fds {
            if non_fds.insert(s) {
                apply_non_fd(&mut covers, s);
            }
        }
    }

    let mut fds: Vec<Fd> = Vec::new();
    for a in schema.attrs() {
        for &x in &covers[a.index()] {
            if validated[a.index()].contains(&x.bits()) {
                fds.push(Fd::new(x, a));
            }
        }
    }
    sort_fds(&mut fds);
    obs.add("baseline.hyfd.node_visits", node_visits);
    obs.add("baseline.hyfd.partition_products", partition_builds);
    record_interrupt(obs, guard);
    Partial::from_outcome(fds, guard.interrupt())
}

/// A pair of tuples inside one antecedent class with differing consequent
/// values, if any.
fn violating_pair(sp: &StrippedPartition, col: &[ValueId]) -> Option<(u32, u32)> {
    for class in sp.classes() {
        let first = class[0];
        let v0 = col[first as usize];
        for &t in &class[1..] {
            if col[t as usize] != v0 {
                return Some((first, t));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::brute_force_fds;
    use ofd_core::{table1, table1_updated};

    #[test]
    fn matches_brute_force_on_paper_tables() {
        for rel in [table1(), table1_updated()] {
            assert_eq!(discover(&rel), brute_force_fds(&rel));
        }
    }

    #[test]
    fn handles_keys_constants_and_duplicates() {
        let rel = Relation::from_rows(
            ["K", "C", "V"],
            [
                &["1", "c", "x"] as &[&str],
                &["2", "c", "y"],
                &["2", "c", "y"], // duplicate row
                &["3", "c", "x"],
            ],
        )
        .unwrap();
        assert_eq!(discover(&rel), brute_force_fds(&rel));
    }

    #[test]
    fn sampling_misses_are_caught_by_validation() {
        // A relation whose only violating pair is far apart in every
        // attribute ordering, so windowed sampling alone would miss it.
        let mut rows: Vec<[String; 3]> = Vec::new();
        for i in 0..30 {
            rows.push([format!("g{}", i / 3), format!("m{i:02}"), format!("v{}", i / 3)]);
        }
        // Rows 0 and 29 share g-group? No: inject an explicit violation in
        // group g0 via the last row.
        rows.push(["g0".to_owned(), "m99".to_owned(), "vX".to_owned()]);
        let mut b = Relation::builder(ofd_core::Schema::new(["A", "B", "C"]).unwrap());
        for r in &rows {
            b.push_row(r.iter().map(String::as_str)).unwrap();
        }
        let rel = b.finish();
        assert_eq!(discover(&rel), brute_force_fds(&rel));
    }
}
