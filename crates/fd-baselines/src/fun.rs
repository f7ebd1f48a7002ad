//! FUN (Novelli & Cicchetti, 2001): FD discovery over *free sets* —
//! attribute sets none of whose proper subsets has the same cardinality
//! (number of distinct projections).
//!
//! Freeness is anti-monotone, so the free sets form a downward-closed
//! level-wise search space; `X → A` holds iff `|Π_X| = |Π_{X∪A}|`, and
//! minimal FD antecedents are always free sets.

use ofd_core::FxHashMap;

use ofd_core::{
    prefix_block_pairs, AttrSet, ExecGuard, Fd, Obs, Partial, ProductScratch, Relation,
    StrippedPartition,
};

use crate::common::{record_interrupt, sort_fds};

struct Node {
    attrs: AttrSet,
    partition: StrippedPartition,
    card: usize,
}

fn card_of(rel: &Relation, p: &StrippedPartition) -> usize {
    p.class_count() + (rel.n_rows() - p.tuple_count())
}

/// Runs FUN, returning the minimal non-trivial FDs of `rel`.
pub fn discover(rel: &Relation) -> Vec<Fd> {
    discover_guarded(rel, &ExecGuard::unlimited()).value
}

/// [`discover`] with an execution guard, probed once per free-set node
/// (emission and generation).
///
/// On interrupt the result is a *sound prefix*: each emission is verified by
/// cardinality equality against the data, and because free sets are visited
/// level-by-level (antecedent sizes never decrease), `push_if_minimal` can
/// never retro-actively drop an already-emitted FD — so the partial list is
/// a subset of the uninterrupted output.
pub fn discover_guarded(rel: &Relation, guard: &ExecGuard) -> Partial<Vec<Fd>> {
    discover_with(rel, guard, &Obs::disabled())
}

/// [`discover_guarded`] with an observability handle: records
/// `baseline.fun.node_visits` (free-set nodes whose candidates were probed)
/// and `baseline.fun.partition_products` (partition products for both
/// probes and next-level generation), plus labelled guard interrupts.
pub fn discover_with(rel: &Relation, guard: &ExecGuard, obs: &Obs) -> Partial<Vec<Fd>> {
    let schema = rel.schema();
    let n = schema.len();
    let n_rows = rel.n_rows();
    let mut scratch = ProductScratch::default();
    let mut fds: Vec<Fd> = Vec::new();
    let mut node_visits: u64 = 0;
    let mut products: u64 = 0;

    // Single-attribute partitions (reused to extend candidates by one
    // attribute when probing X → A).
    let single: Vec<StrippedPartition> = schema
        .attrs()
        .map(|a| StrippedPartition::of_attr(rel, a))
        .collect();
    let single_card: Vec<usize> = single.iter().map(|p| card_of(rel, p)).collect();

    // Level 0: the empty set. Its cardinality is 1 (0 for an empty
    // relation); columns matching it are constants, giving ∅ → A.
    let card0 = usize::from(n_rows > 0);
    for a in schema.attrs() {
        if single_card[a.index()] == card0 {
            fds.push(Fd::new(AttrSet::empty(), a));
        }
    }

    // Level 1: free singletons — {A} is free iff card({A}) > card(∅).
    let mut prev: Vec<Node> = schema
        .attrs()
        .filter(|a| single_card[a.index()] > card0)
        .map(|a| Node {
            attrs: AttrSet::single(a),
            partition: single[a.index()].clone(),
            card: single_card[a.index()],
        })
        .collect();
    // Cardinalities of all known free sets (for freeness tests).
    let mut card_by_set: FxHashMap<u64, usize> = std::iter::once((0u64, card0)).collect();
    for node in &prev {
        card_by_set.insert(node.attrs.bits(), node.card);
    }

    'levels: for _level in 1..=n {
        // Emit FDs from the current free sets: X → A iff card(X∪A)=card(X).
        for node in &prev {
            if guard.check().is_err() {
                break 'levels;
            }
            node_visits += 1;
            if node.card == n_rows {
                // X is a key: X → A for all A ∉ X; supersets are non-free.
                for a in schema.all().minus(node.attrs).iter() {
                    push_if_minimal(&mut fds, Fd::new(node.attrs, a));
                }
                continue;
            }
            for a in schema.all().minus(node.attrs).iter() {
                products += 1;
                let joined = node
                    .partition
                    .product_with_scratch(&single[a.index()], &mut scratch);
                if card_of(rel, &joined) == node.card {
                    push_if_minimal(&mut fds, Fd::new(node.attrs, a));
                }
            }
        }

        // Generate next level of free sets.
        let prev_index: FxHashMap<u64, usize> = prev
            .iter()
            .enumerate()
            .map(|(i, node)| (node.attrs.bits(), i))
            .collect();
        let mut next: Vec<Node> = Vec::new();
        let sets: Vec<AttrSet> = prev.iter().map(|n| n.attrs).collect();
        for (i, j) in prefix_block_pairs(&sets) {
            if guard.check().is_err() {
                break 'levels;
            }
            let a = &prev[i];
            let b = &prev[j];
            let attrs = a.attrs.union(b.attrs);
            if !attrs
                .parents()
                .all(|(_, p)| prev_index.contains_key(&p.bits()))
            {
                continue; // some subset is non-free ⇒ X is non-free
            }
            products += 1;
            let partition = a.partition.product_with_scratch(&b.partition, &mut scratch);
            let card = card_of(rel, &partition);
            // Free iff strictly finer than every parent.
            let free = attrs.parents().all(|(_, p)| {
                card_by_set
                    .get(&p.bits())
                    .is_some_and(|&pc| pc < card)
            });
            if free {
                card_by_set.insert(attrs.bits(), card);
                next.push(Node {
                    attrs,
                    partition,
                    card,
                });
            }
        }
        if next.is_empty() {
            break;
        }
        prev = next;
    }

    sort_fds(&mut fds);
    fds.dedup();
    obs.add("baseline.fun.node_visits", node_visits);
    obs.add("baseline.fun.partition_products", products);
    record_interrupt(obs, guard);
    Partial::from_outcome(fds, guard.interrupt())
}

fn push_if_minimal(fds: &mut Vec<Fd>, fd: Fd) {
    if fds
        .iter()
        .any(|g| g.rhs == fd.rhs && g.lhs.is_subset(fd.lhs))
    {
        return;
    }
    fds.retain(|g| !(g.rhs == fd.rhs && fd.lhs.is_proper_subset(g.lhs)));
    fds.push(fd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::brute_force_fds;
    use ofd_core::table1;

    #[test]
    fn matches_brute_force_on_table1() {
        let rel = table1();
        assert_eq!(discover(&rel), brute_force_fds(&rel));
    }

    #[test]
    fn constants_and_keys() {
        let rel = Relation::from_rows(
            ["K", "C", "V"],
            [
                &["1", "c", "x"] as &[&str],
                &["2", "c", "y"],
                &["3", "c", "x"],
            ],
        )
        .unwrap();
        assert_eq!(discover(&rel), brute_force_fds(&rel));
    }

    #[test]
    fn equal_cardinality_columns_are_bidirectional() {
        // A and B are renamings of each other: A -> B and B -> A.
        let rel = Relation::from_rows(
            ["A", "B"],
            [&["1", "x"] as &[&str], &["2", "y"], &["1", "x"]],
        )
        .unwrap();
        let fds = discover(&rel);
        assert_eq!(fds, brute_force_fds(&rel));
        assert_eq!(fds.len(), 2);
    }
}
