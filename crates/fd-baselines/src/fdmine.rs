//! FDMine (Yao & Hamilton, 2008): level-wise FD discovery with closure
//! tracking and equivalence pruning.
//!
//! FDMine's raw output is famously **non-minimal** — the paper's Exp-1
//! observes ~24× more dependencies than the minimal set, blowing memory on
//! larger inputs. [`discover_raw`] reproduces that behaviour (its output is
//! a *cover*: logically equivalent to the true FD set, verified by property
//! tests); [`discover`] is the minimized view used for cross-algorithm
//! comparisons.

use ofd_core::FxHashMap;

use ofd_core::{
    prefix_block_pairs, AttrSet, ExecGuard, Fd, Obs, Partial, ProductScratch, Relation,
    StrippedPartition,
};

use crate::common::{minimize_fds, record_interrupt, sort_fds};

struct Node {
    attrs: AttrSet,
    partition: StrippedPartition,
    card: usize,
    /// Attributes known to be determined by `attrs` (inherited from the two
    /// join parents plus locally discovered — deliberately *not* from all
    /// subsets, which is the source of FDMine's non-minimal output).
    closure: AttrSet,
}

fn card_of(n_rows: usize, p: &StrippedPartition) -> usize {
    p.class_count() + (n_rows - p.tuple_count())
}

/// Runs FDMine and returns its raw (generally non-minimal) output — a cover
/// of the FD set of `rel`.
pub fn discover_raw(rel: &Relation) -> Vec<Fd> {
    discover_raw_guarded(rel, &ExecGuard::unlimited()).value
}

/// [`discover_raw`] with an execution guard, probed once per lattice node.
///
/// Every raw emission is either verified by cardinality equality or a sound
/// Armstrong inference from verified ones, so an interrupted prefix contains
/// only valid FDs. It stops being a *cover*, though — minimize the prefix
/// (as [`discover_guarded`] does) to compare against other baselines.
pub fn discover_raw_guarded(rel: &Relation, guard: &ExecGuard) -> Partial<Vec<Fd>> {
    discover_raw_with(rel, guard, &Obs::disabled())
}

/// [`discover_raw_guarded`] with an observability handle: records
/// `baseline.fdmine.node_visits` (lattice nodes whose candidates were
/// probed) and `baseline.fdmine.partition_products` (partition products for
/// probes and next-level generation), plus labelled guard interrupts.
pub fn discover_raw_with(rel: &Relation, guard: &ExecGuard, obs: &Obs) -> Partial<Vec<Fd>> {
    let schema = rel.schema();
    let n = schema.len();
    let n_rows = rel.n_rows();
    let all = schema.all();
    let mut scratch = ProductScratch::default();
    let mut fds: Vec<Fd> = Vec::new();
    let mut node_visits: u64 = 0;
    let mut products: u64 = 0;

    let single: Vec<StrippedPartition> = schema
        .attrs()
        .map(|a| StrippedPartition::of_attr(rel, a))
        .collect();

    // Constants: ∅ → A.
    let card0 = usize::from(n_rows > 0);
    for a in schema.attrs() {
        if card_of(n_rows, &single[a.index()]) == card0 {
            fds.push(Fd::new(AttrSet::empty(), a));
        }
    }

    let mut level: Vec<Node> = schema
        .attrs()
        .map(|a| Node {
            attrs: AttrSet::single(a),
            partition: single[a.index()].clone(),
            card: card_of(n_rows, &single[a.index()]),
            closure: AttrSet::empty(),
        })
        .collect();

    'levels: for _l in 1..=n {
        // Discover FDs at this level: X → A for A ∉ X ∪ closure(X).
        for node in &mut level {
            if guard.check().is_err() {
                break 'levels;
            }
            node_visits += 1;
            let probe = all.minus(node.attrs).minus(node.closure);
            for a in probe.iter() {
                products += 1;
                let joined = node
                    .partition
                    .product_with_scratch(&single[a.index()], &mut scratch);
                if card_of(n_rows, &joined) == node.card {
                    fds.push(Fd::new(node.attrs, a));
                    node.closure.insert(a);
                }
            }
        }

        // Equivalence pruning: Y is redundant when X ∪ closure(X) ⊇ Y and
        // Y ∪ closure(Y) ⊇ X (X ↔ Y); keep the earlier node.
        let mut kept: Vec<Node> = Vec::new();
        for node in level.drain(..) {
            let equivalent = kept.iter().any(|k| {
                node.attrs.is_subset(k.attrs.union(k.closure))
                    && k.attrs.is_subset(node.attrs.union(node.closure))
            });
            if !equivalent {
                kept.push(node);
            }
        }
        level = kept;

        // Key pruning: nodes determining every attribute stop expanding.
        level.retain(|node| node.attrs.union(node.closure) != all);

        // Generate the next level from prefix blocks.
        let sets: Vec<AttrSet> = level.iter().map(|n| n.attrs).collect();
        let mut seen: FxHashMap<u64, ()> = FxHashMap::default();
        let mut next: Vec<Node> = Vec::new();
        for (i, j) in prefix_block_pairs(&sets) {
            if guard.check().is_err() {
                break 'levels;
            }
            let x1 = &level[i];
            let x2 = &level[j];
            let attrs = x1.attrs.union(x2.attrs);
            if seen.insert(attrs.bits(), ()).is_some() {
                continue;
            }
            // Skip candidates already determined by a parent
            // (their FDs are derivable).
            if attrs.is_subset(x1.attrs.union(x1.closure))
                || attrs.is_subset(x2.attrs.union(x2.closure))
            {
                continue;
            }
            products += 1;
            let partition = x1.partition.product_with_scratch(&x2.partition, &mut scratch);
            let card = card_of(n_rows, &partition);
            next.push(Node {
                attrs,
                partition,
                card,
                closure: x1.closure.union(x2.closure).minus(attrs),
            });
        }
        if next.is_empty() {
            break;
        }
        level = next;
    }

    sort_fds(&mut fds);
    fds.dedup();
    obs.add("baseline.fdmine.node_visits", node_visits);
    obs.add("baseline.fdmine.partition_products", products);
    record_interrupt(obs, guard);
    Partial::from_outcome(fds, guard.interrupt())
}

/// FDMine's output minimized — the view comparable with the other
/// baselines.
pub fn discover(rel: &Relation) -> Vec<Fd> {
    minimize_fds(discover_raw(rel))
}

/// [`discover`] with an execution guard.
///
/// On interrupt the minimized prefix is a subset of the full minimized
/// output: any FD that would displace a prefix member has a strictly
/// smaller antecedent and therefore was emitted at an earlier — fully
/// completed — level, i.e. it is already in the prefix.
pub fn discover_guarded(rel: &Relation, guard: &ExecGuard) -> Partial<Vec<Fd>> {
    discover_raw_guarded(rel, guard).map(minimize_fds)
}

/// [`discover_guarded`] with an observability handle (see
/// [`discover_raw_with`] for the recorded counters).
pub fn discover_with(rel: &Relation, guard: &ExecGuard, obs: &Obs) -> Partial<Vec<Fd>> {
    discover_raw_with(rel, guard, obs).map(minimize_fds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{brute_force_fds, fd_holds};
    use ofd_core::table1;
    use ofd_logic::{equivalent, Dependency};

    fn as_deps(fds: &[Fd]) -> Vec<Dependency> {
        fds.iter().map(|&f| f.into()).collect()
    }

    #[test]
    fn raw_output_is_a_sound_cover_on_table1() {
        let rel = table1();
        let raw = discover_raw(&rel);
        for fd in &raw {
            assert!(fd_holds(&rel, fd), "{}", fd.display(rel.schema()));
        }
        let brute = brute_force_fds(&rel);
        assert!(
            equivalent(&as_deps(&raw), &as_deps(&brute)),
            "raw cover must be logically equivalent to the minimal set"
        );
    }

    #[test]
    fn raw_output_can_exceed_minimal_output() {
        let rel = table1();
        let raw = discover_raw(&rel);
        let min = discover(&rel);
        assert!(raw.len() >= min.len());
    }

    #[test]
    fn minimized_view_contains_only_minimal_fds() {
        let rel = table1();
        let min = discover(&rel);
        for a in &min {
            for b in &min {
                if a.rhs == b.rhs && a != b {
                    assert!(!a.lhs.is_proper_subset(b.lhs));
                }
            }
        }
    }

    #[test]
    fn equivalence_pruned_cover_still_equivalent() {
        // A and B are mutual renamings — the equivalence-pruning path.
        let rel = Relation::from_rows(
            ["A", "B", "C"],
            [
                &["1", "x", "p"] as &[&str],
                &["2", "y", "p"],
                &["1", "x", "q"],
            ],
        )
        .unwrap();
        let raw = discover_raw(&rel);
        let brute = brute_force_fds(&rel);
        assert!(equivalent(&as_deps(&raw), &as_deps(&brute)));
    }
}
