//! Violation evidence from sampled tuple pairs (HyFD-style pre-filtering).
//!
//! A single tuple pair is a sound *refutation* witness for exact OFDs: if
//! `t1` and `t2` agree on every attribute of `X` and their values on `A`
//! are distinct with no common sense, then the class of `Π_X` containing
//! the pair has no covering interpretation — `X → A` fails on *any*
//! relation containing both tuples. The converse never holds (the Table 2
//! counterexample: pairwise compatibility does not imply a class-wide
//! witness), so evidence only ever answers "refuted", never "satisfied".
//!
//! Discovery gathers evidence from focused row samples and consults it
//! before paying for a full-relation scan; see
//! `ofd-discovery`'s sampling module for the gathering policy. The pair
//! schedule itself, [`sorted_neighbourhood`], is shared with the HyFD
//! baseline's sampling phase.

use crate::fxhash::FxHashSet;
use crate::guard::ExecGuard;
use crate::relation::Relation;
use crate::schema::{AttrId, AttrSet};
use crate::sense_index::SenseIndex;

/// HyFD's sorted-neighbourhood pair schedule. The rows are sorted once
/// per attribute by value id (ties by row id); then, for each distance
/// `d` in `1..=distances`, every pair of rows `d` apart in each
/// attribute's order is handed to `visit`. Rows violating `X → A` agree
/// on `X`, so they sit close together in the order of any attribute of
/// `X`.
///
/// Deterministic: the schedule depends only on the relation's contents,
/// never on threads or timing. The guard is probed once per (distance,
/// attribute) block; a trip stops the walk. Returns the number of
/// distances walked in full.
pub fn sorted_neighbourhood(
    rel: &Relation,
    distances: usize,
    guard: &ExecGuard,
    mut visit: impl FnMut(usize, usize),
) -> u64 {
    let n = rel.n_rows();
    if n < 2 || distances == 0 {
        return 0;
    }
    // One sort per attribute, reused across distances — the sorts
    // dominate the schedule's cost at scale.
    let orders: Vec<Vec<u32>> = rel
        .schema()
        .attrs()
        .map(|a| {
            let col = rel.column(a);
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.sort_unstable_by_key(|&t| (col[t as usize], t));
            order
        })
        .collect();
    let mut walked = 0u64;
    for dist in 1..=distances {
        if dist >= n {
            break;
        }
        for order in &orders {
            if guard.check().is_err() {
                return walked;
            }
            for i in 0..n - dist {
                visit(order[i] as usize, order[i + dist] as usize);
            }
        }
        walked += 1;
    }
    walked
}

/// Refutation evidence for exact OFD candidates, deduplicated.
///
/// Per consequent attribute `A`, stores the agree-sets (as [`AttrSet`]
/// bits) of observed pairs whose `A`-values are *incompatible* (distinct
/// and sharing no sense). A candidate `X → A` is refuted iff some stored
/// agree-set contains `X`.
#[derive(Debug, Default, Clone)]
pub struct EvidenceSet {
    per_rhs: Vec<Vec<u64>>,
    seen: FxHashSet<(u64, u32)>,
    pairs: u64,
}

impl EvidenceSet {
    /// An empty evidence set over a schema of `n_attrs` attributes.
    pub fn new(n_attrs: usize) -> EvidenceSet {
        EvidenceSet {
            per_rhs: vec![Vec::new(); n_attrs],
            seen: FxHashSet::default(),
            pairs: 0,
        }
    }

    /// Records the evidence of one tuple pair: computes the agree-set and,
    /// for every attribute where the pair is incompatible, stores a
    /// refutation witness. Returns how many *new* (agree-set, consequent)
    /// entries the pair contributed.
    pub fn observe_pair(
        &mut self,
        rel: &Relation,
        index: &SenseIndex,
        t1: usize,
        t2: usize,
    ) -> usize {
        let mut agree = AttrSet::empty();
        let mut incompat = AttrSet::empty();
        for a in rel.schema().attrs() {
            let (v1, v2) = (rel.value(t1, a), rel.value(t2, a));
            if v1 == v2 {
                agree.insert(a);
            } else if !shares_sense(index.senses(v1), index.senses(v2)) {
                incompat.insert(a);
            }
        }
        if incompat.is_empty() {
            return 0;
        }
        self.pairs += 1;
        let mut added = 0;
        for a in incompat.iter() {
            if self.seen.insert((agree.bits(), a.index() as u32)) {
                self.per_rhs[a.index()].push(agree.bits());
                added += 1;
            }
        }
        added
    }

    /// Records a raw witness: pairs agreeing exactly on `agree` refute any
    /// exact `X → rhs` with `X ⊆ agree`. (Test/tool entry point; discovery
    /// uses [`EvidenceSet::observe_pair`].)
    pub fn observe_agree(&mut self, agree: AttrSet, rhs: AttrId) {
        if self.seen.insert((agree.bits(), rhs.index() as u32)) {
            self.per_rhs[rhs.index()].push(agree.bits());
        }
    }

    /// Whether the recorded evidence refutes the exact OFD `lhs → rhs`.
    #[inline]
    pub fn refutes(&self, lhs: AttrSet, rhs: AttrId) -> bool {
        let need = lhs.bits();
        self.per_rhs
            .get(rhs.index())
            .is_some_and(|w| w.iter().any(|&agree| agree & need == need))
    }

    /// Number of distinct (agree-set, consequent) witnesses stored.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether no witness has been recorded.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Number of observed pairs that contributed at least one incompatible
    /// consequent (before witness deduplication).
    pub fn pair_count(&self) -> u64 {
        self.pairs
    }
}

/// Whether two sorted sense lists intersect (merge scan; sense lists are
/// short in practice).
fn shares_sense(a: &[ofd_ontology::SenseId], b: &[ofd_ontology::SenseId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::table1;
    use ofd_ontology::samples;

    #[test]
    fn pair_evidence_refutes_subset_antecedents_only() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let schema = rel.schema();
        let mut ev = EvidenceSet::new(schema.len());
        // Rows 3 and 4 of Table 1: same CC ("IN"), different CTRY texts
        // ("India" vs "Bharat") — but those are synonyms, so CTRY is NOT
        // incompatible; scan all pairs and check agreement semantics on
        // whatever evidence falls out.
        for t1 in 0..rel.n_rows() {
            for t2 in (t1 + 1)..rel.n_rows() {
                ev.observe_pair(&rel, &index, t1, t2);
            }
        }
        assert!(!ev.is_empty(), "Table 1 has incompatible pairs");
        // CC → CTRY is a valid synonym OFD on Table 1, so no evidence may
        // refute it (soundness).
        let cc = schema.set(["CC"]).unwrap();
        let ctry = schema.attr("CTRY").unwrap();
        assert!(!ev.refutes(cc, ctry));
        // SYMP,DIAG → MED fails as a synonym OFD (the nausea class), and
        // full pair enumeration must surface a witness for it.
        let sd = schema.set(["SYMP", "DIAG"]).unwrap();
        let med = schema.attr("MED").unwrap();
        assert!(ev.refutes(sd, med));
        // Soundness over every small antecedent: whenever the evidence
        // refutes X → A, the exact check over the full relation must fail
        // too (never the other way a refutation gets invented).
        let v = crate::validate::Validator::new(&rel, &onto);
        for a in schema.attrs() {
            for bits in 0..(1u64 << schema.len()) {
                let lhs = AttrSet::from_bits(bits);
                if lhs.len() > 2 || lhs.contains(a) {
                    continue;
                }
                if ev.refutes(lhs, a) {
                    let ofd = crate::ofd::Ofd::synonym(lhs, a);
                    assert!(
                        !v.check(&ofd).satisfied(),
                        "evidence refuted a valid OFD {}",
                        ofd.display(schema)
                    );
                }
            }
        }
    }

    #[test]
    fn observe_agree_dedups_and_matches_refutes() {
        let rel = table1();
        let schema = rel.schema();
        let mut ev = EvidenceSet::new(schema.len());
        let x = schema.set(["CC", "SYMP"]).unwrap();
        let rhs = schema.attr("MED").unwrap();
        ev.observe_agree(x, rhs);
        ev.observe_agree(x, rhs);
        assert_eq!(ev.len(), 1);
        assert!(ev.refutes(schema.set(["CC"]).unwrap(), rhs));
        assert!(ev.refutes(x, rhs));
        assert!(!ev.refutes(schema.set(["CC", "TEST"]).unwrap(), rhs));
        assert!(!ev.refutes(x, schema.attr("CTRY").unwrap()));
    }
}
