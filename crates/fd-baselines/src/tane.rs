//! TANE (Huhtala et al., 1999): level-wise lattice FD discovery with
//! partition refinement, RHS⁺ candidate pruning and key pruning.
//!
//! This is the strongest of the lattice baselines and the closest relative
//! of FastOFD — the paper reports FastOFD at ~1.8× TANE's runtime due to
//! ontology verification (Exp-1).

use ofd_core::FxHashMap;

use ofd_core::{
    meets_support, prefix_block_pairs, AttrSet, ExecGuard, Fd, Obs, Partial, ProductScratch,
    Relation, StrippedPartition, ValueId,
};

use crate::common::{record_interrupt, sort_fds};

struct Node {
    attrs: AttrSet,
    c_plus: AttrSet,
    partition: StrippedPartition,
}

/// Error measure `||Π*|| − |Π*|`; two partitions induce the same refinement
/// on the consequent iff the antecedent's and the joined error agree.
fn err(p: &StrippedPartition) -> usize {
    p.tuple_count() - p.class_count()
}

/// Runs TANE, returning the minimal non-trivial FDs of `rel`.
pub fn discover(rel: &Relation) -> Vec<Fd> {
    discover_guarded(rel, &ExecGuard::unlimited()).value
}

/// [`discover`] with an execution guard, probed once per lattice node.
///
/// On interrupt the result is a *sound prefix* of the full output: every
/// emitted FD was individually verified by partition-error equality (or, for
/// key emissions, certified by the virtual-C⁺ minimality test against fully
/// completed lower levels), and the emission sequence is deterministic, so
/// the partial set is always a subset of what the uninterrupted run returns.
pub fn discover_guarded(rel: &Relation, guard: &ExecGuard) -> Partial<Vec<Fd>> {
    discover_with(rel, guard, &Obs::disabled())
}

/// [`discover_guarded`] with an observability handle: records
/// `baseline.tane.node_visits` (lattice nodes whose dependencies were
/// computed) and `baseline.tane.partition_products` (stripped-partition
/// products during level generation), plus a labelled
/// `guard.interrupt.<reason>` counter on interrupt.
pub fn discover_with(rel: &Relation, guard: &ExecGuard, obs: &Obs) -> Partial<Vec<Fd>> {
    let schema = rel.schema();
    let n = schema.len();
    let all = schema.all();
    let mut fds: Vec<Fd> = Vec::new();
    let mut scratch = ProductScratch::default();
    let mut node_visits: u64 = 0;
    let mut products: u64 = 0;

    let mut prev: Vec<Node> = vec![Node {
        attrs: AttrSet::empty(),
        c_plus: all,
        partition: StrippedPartition::of(rel, AttrSet::empty()),
    }];
    let mut prev_index: FxHashMap<u64, usize> =
        std::iter::once((AttrSet::empty().bits(), 0)).collect();
    // Final C⁺ value of every node ever processed (including pruned ones),
    // so the key-pruning step can resolve C⁺ of nodes absent from the
    // current level by intersecting ancestors (TANE §4.4).
    let mut history: FxHashMap<u64, AttrSet> =
        std::iter::once((AttrSet::empty().bits(), all)).collect();

    'levels: for level in 1..=n {
        if guard.check().is_err() {
            break;
        }
        // Generate level nodes (all parents must exist — key/e  mpty pruning
        // may have removed them, in which case the child is dead too).
        let mut current: Vec<Node> = if level == 1 {
            schema
                .attrs()
                .map(|a| Node {
                    attrs: AttrSet::single(a),
                    c_plus: all,
                    partition: StrippedPartition::of_attr(rel, a),
                })
                .collect()
        } else {
            generate_next(&prev, &prev_index, &mut scratch, guard, &mut products)
        };
        if current.is_empty() {
            break;
        }

        // C⁺(X) = ⋂_{A ∈ X} C⁺(X \ A).
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

        // compute_dependencies.
        for node in &mut current {
            if guard.check().is_err() {
                break 'levels;
            }
            node_visits += 1;
            let cands = node.attrs.intersect(node.c_plus);
            for a in cands.iter() {
                let lhs = node.attrs.without(a);
                let Some(&pi) = prev_index.get(&lhs.bits()) else {
                    continue;
                };
                if err(&prev[pi].partition) == err(&node.partition) {
                    fds.push(Fd::new(lhs, a));
                    node.c_plus.remove(a);
                    // TANE's extra pruning rule (sound for FDs, not OFDs):
                    // remove every B ∈ R \ X from C⁺(X).
                    node.c_plus = node.c_plus.minus(all.minus(node.attrs));
                }
            }
        }

        // Record final C⁺ values before pruning.
        for node in &current {
            history.insert(node.attrs.bits(), node.c_plus);
        }

        // prune: drop empty-C⁺ nodes; key nodes emit their remaining
        // dependencies and are dropped.
        let mut virtual_cache: FxHashMap<u64, AttrSet> = FxHashMap::default();
        let key_emissions: Vec<Fd> = current
            .iter()
            .filter(|node| node.partition.is_superkey() && !node.c_plus.is_empty())
            .flat_map(|node| {
                let x = node.attrs;
                node.c_plus
                    .minus(x)
                    .iter()
                    .filter(|&a| {
                        // A ∈ ⋂_{B ∈ X} C⁺(X ∪ {A} \ {B}); siblings missing
                        // from the lattice get their C⁺ from ancestors.
                        x.iter().all(|b| {
                            let sibling = x.with(a).without(b);
                            virtual_cplus(sibling, all, &history, &mut virtual_cache)
                                .contains(a)
                        })
                    })
                    .map(move |a| Fd::new(x, a))
                    .collect::<Vec<_>>()
            })
            .collect();
        fds.extend(key_emissions);
        current.retain(|node| !node.c_plus.is_empty() && !node.partition.is_superkey());

        prev_index = current
            .iter()
            .enumerate()
            .map(|(i, node)| (node.attrs.bits(), i))
            .collect();
        prev = current;
        if prev.is_empty() {
            break;
        }
    }

    sort_fds(&mut fds);
    fds.dedup();
    obs.add("baseline.tane.node_visits", node_visits);
    obs.add("baseline.tane.partition_products", products);
    record_interrupt(obs, guard);
    Partial::from_outcome(fds, guard.interrupt())
}

/// Runs TANE's approximate extension (TANE §4.4): discovers the minimal FDs
/// whose g₃-style support meets `kappa`, using the same exact integer
/// threshold semantics as FastOFD ([`ofd_core::support_threshold`]).
///
/// `X → A` is κ-approximate when removing at most `n − ⌈κ·n⌉` tuples makes
/// it exact; the violation count of a candidate is the number of tuples
/// outside the majority consequent value within each antecedent class.
/// Validity is monotone under antecedent growth, so the basic C⁺ candidate
/// rule (remove `A` from `C⁺(X)` once `X \ A → A` is valid) yields exactly
/// the minimal κ-approximate FDs. TANE's *extra* RHS⁺ rule and key pruning
/// are sound only for exact FDs and are not applied here.
///
/// At `kappa = 1.0` the output equals [`discover`].
pub fn discover_approx(rel: &Relation, kappa: f64) -> Vec<Fd> {
    discover_approx_guarded(rel, kappa, &ExecGuard::unlimited()).value
}

/// [`discover_approx`] with an execution guard, probed once per lattice
/// node. The same sound-prefix argument as [`discover_guarded`] applies:
/// every emission is individually verified against the data.
pub fn discover_approx_guarded(
    rel: &Relation,
    kappa: f64,
    guard: &ExecGuard,
) -> Partial<Vec<Fd>> {
    let schema = rel.schema();
    let n = schema.len();
    let n_rows = rel.n_rows();
    let all = schema.all();
    let mut fds: Vec<Fd> = Vec::new();
    let mut scratch = ProductScratch::default();
    let mut products: u64 = 0;

    let mut prev: Vec<Node> = vec![Node {
        attrs: AttrSet::empty(),
        c_plus: all,
        partition: StrippedPartition::of(rel, AttrSet::empty()),
    }];
    let mut prev_index: FxHashMap<u64, usize> =
        std::iter::once((AttrSet::empty().bits(), 0)).collect();

    'levels: for level in 1..=n {
        if guard.check().is_err() {
            break;
        }
        let mut current: Vec<Node> = if level == 1 {
            schema
                .attrs()
                .map(|a| Node {
                    attrs: AttrSet::single(a),
                    c_plus: all,
                    partition: StrippedPartition::of_attr(rel, a),
                })
                .collect()
        } else {
            generate_next(&prev, &prev_index, &mut scratch, guard, &mut products)
        };
        if current.is_empty() {
            break;
        }

        // C⁺(X) = ⋂_{A ∈ X} C⁺(X \ A), exactly as in the exact variant.
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

        for node in &mut current {
            if guard.check().is_err() {
                break 'levels;
            }
            let cands = node.attrs.intersect(node.c_plus);
            for a in cands.iter() {
                let lhs = node.attrs.without(a);
                let Some(&pi) = prev_index.get(&lhs.bits()) else {
                    continue;
                };
                let violations = g3_violations(&prev[pi].partition, rel.column(a));
                if meets_support(violations, n_rows, kappa) {
                    fds.push(Fd::new(lhs, a));
                    node.c_plus.remove(a);
                }
            }
        }

        // Only empty-C⁺ pruning: superkey nodes must keep expanding because
        // their supersets can still carry new minimal approximate FDs'
        // parent partitions.
        current.retain(|node| !node.c_plus.is_empty());

        prev_index = current
            .iter()
            .enumerate()
            .map(|(i, node)| (node.attrs.bits(), i))
            .collect();
        prev = current;
        if prev.is_empty() {
            break;
        }
    }

    sort_fds(&mut fds);
    fds.dedup();
    Partial::from_outcome(fds, guard.interrupt())
}

/// g₃-style violation count of `X → A`: per class of the antecedent's
/// stripped partition, the tuples outside the majority consequent value.
/// Stripped-away singleton classes never violate.
fn g3_violations(sp: &StrippedPartition, col: &[ValueId]) -> usize {
    let mut freq: FxHashMap<ValueId, usize> = FxHashMap::default();
    let mut total = 0;
    for class in sp.classes() {
        freq.clear();
        let mut majority = 0;
        for &t in class.iter() {
            let c = freq.entry(col[t as usize]).or_insert(0usize);
            *c += 1;
            majority = majority.max(*c);
        }
        total += class.len() - majority;
    }
    total
}

/// Once the guard trips (it is sticky) the partially generated level is
/// returned; the caller's next probe fails before any of its nodes are used
/// for emission, so a truncated level never produces output.
fn generate_next(
    prev: &[Node],
    prev_index: &FxHashMap<u64, usize>,
    scratch: &mut ProductScratch,
    guard: &ExecGuard,
    products: &mut u64,
) -> Vec<Node> {
    let sets: Vec<AttrSet> = prev.iter().map(|n| n.attrs).collect();
    let mut out = Vec::new();
    for (i, j) in prefix_block_pairs(&sets) {
        if guard.check().is_err() {
            return out;
        }
        let a = &prev[i];
        let b = &prev[j];
        let attrs = a.attrs.union(b.attrs);
        if !attrs
            .parents()
            .all(|(_, p)| prev_index.contains_key(&p.bits()))
        {
            continue;
        }
        *products += 1;
        out.push(Node {
            attrs,
            c_plus: AttrSet::empty(),
            partition: a.partition.product_with_scratch(&b.partition, scratch),
        });
    }
    out
}

/// C⁺ of a (possibly never-materialized) node: its recorded value when
/// available, otherwise the intersection of its parents' virtual C⁺ values
/// (bottoming out at the level-0 node, which is always in `history`).
fn virtual_cplus(
    attrs: AttrSet,
    all: AttrSet,
    history: &FxHashMap<u64, AttrSet>,
    cache: &mut FxHashMap<u64, AttrSet>,
) -> AttrSet {
    if let Some(&v) = history.get(&attrs.bits()) {
        return v;
    }
    if let Some(&v) = cache.get(&attrs.bits()) {
        return v;
    }
    let mut cp = all;
    for (_, parent) in attrs.parents() {
        cp = cp.intersect(virtual_cplus(parent, all, history, cache));
        if cp.is_empty() {
            break;
        }
    }
    cache.insert(attrs.bits(), cp);
    cp
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
    fn finds_constants_at_level_one() {
        let rel = Relation::from_rows(
            ["A", "B"],
            [&["c", "1"] as &[&str], &["c", "2"]],
        )
        .unwrap();
        let fds = discover(&rel);
        assert!(fds.contains(&Fd::new(
            AttrSet::empty(),
            rel.schema().attr("A").unwrap()
        )));
    }

    #[test]
    fn key_pruning_emits_key_dependencies() {
        // A is a key; A -> B and A -> C must be emitted despite pruning.
        let rel = Relation::from_rows(
            ["A", "B", "C"],
            [
                &["1", "x", "p"] as &[&str],
                &["2", "x", "q"],
                &["3", "y", "p"],
            ],
        )
        .unwrap();
        let fds = discover(&rel);
        assert_eq!(fds, brute_force_fds(&rel));
        let schema = rel.schema();
        let a = schema.set(["A"]).unwrap();
        assert!(fds.contains(&Fd::new(a, schema.attr("B").unwrap())));
        assert!(fds.contains(&Fd::new(a, schema.attr("C").unwrap())));
    }

    #[test]
    fn single_row_relation_everything_holds() {
        let rel = Relation::from_rows(["A", "B"], [&["x", "y"] as &[&str]]).unwrap();
        let fds = discover(&rel);
        assert_eq!(fds, brute_force_fds(&rel));
        // ∅ -> A and ∅ -> B.
        assert_eq!(fds.len(), 2);
        assert!(fds.iter().all(|f| f.lhs.is_empty()));
    }

    #[test]
    fn approx_at_kappa_one_matches_exact_discovery() {
        for rel in [table1(), ofd_core::table1_updated()] {
            assert_eq!(discover_approx(&rel, 1.0), discover(&rel));
        }
    }

    #[test]
    fn approx_boundary_support_uses_integer_threshold() {
        // One antecedent class of 10 rows: 8 share the majority consequent
        // value, 2 deviate — support is exactly 8/10.
        let rows: Vec<[&str; 2]> = vec![
            ["k", "good"],
            ["k", "good"],
            ["k", "good"],
            ["k", "good"],
            ["k", "good"],
            ["k", "good"],
            ["k", "good"],
            ["k", "good"],
            ["k", "bad1"],
            ["k", "bad2"],
        ];
        let mut b = Relation::builder(ofd_core::Schema::new(["X", "A"]).unwrap());
        for r in &rows {
            b.push_row(r.iter().copied()).unwrap();
        }
        let rel = b.finish();
        let a = rel.schema().attr("A").unwrap();
        let has_a = |kappa: f64| discover_approx(&rel, kappa).iter().any(|f| f.rhs == a);
        assert!(has_a(0.8), "8/10 must satisfy κ = 0.8 exactly");
        assert!(
            !has_a(0.8 + 1e-13),
            "⌈(0.8 + ε)·10⌉ = 9 > 8: the old float-epsilon compare would wrongly accept"
        );
        assert!(!has_a(0.9));
    }

    #[test]
    fn approx_output_is_minimal_and_monotone_in_kappa() {
        let rel = table1();
        let loose = discover_approx(&rel, 0.8);
        let tight = discover_approx(&rel, 1.0);
        for f in &loose {
            for g in &loose {
                if f.rhs == g.rhs {
                    assert!(
                        !f.lhs.is_proper_subset(g.lhs),
                        "{} subsumes {}",
                        f.display(rel.schema()),
                        g.display(rel.schema())
                    );
                }
            }
        }
        // Every exact FD is covered by an approximate one with lhs ⊆ its own.
        for t in &tight {
            assert!(
                loose.iter().any(|l| l.rhs == t.rhs && l.lhs.is_subset(t.lhs)),
                "{} lost at κ = 0.8",
                t.display(rel.schema())
            );
        }
    }

    #[test]
    fn instrumented_run_counts_nodes_and_products() {
        let rel = table1();
        let obs = Obs::enabled();
        let p = discover_with(&rel, &ExecGuard::unlimited(), &obs);
        assert_eq!(p.value, discover(&rel));
        let snap = obs.snapshot();
        assert!(snap.counter("baseline.tane.node_visits").unwrap_or(0) > 0);
        assert!(snap.counter("baseline.tane.partition_products").unwrap_or(0) > 0);
        assert!(snap.counter_sum("guard.interrupt.").eq(&0));
    }
}
