//! Evidence sampling: the HyFD-style pre-filter for exact discovery.
//!
//! Full-relation verification is the dominant cost of lattice traversal,
//! and the overwhelming majority of candidates *fail*. A failing candidate
//! needs only one witness pair to be refuted, and witness pairs cluster:
//! two rows violating `X → A` agree on `X`, so they sit close together
//! when the rows are sorted by any attribute of `X`. Following HyFD's
//! focused-sampling idea (see `ofd-fd-baselines::hyfd` for the plain-FD
//! reference implementation), round `r` compares every row with its
//! `r + 1`-distant neighbour in each attribute's sort order and records
//! the pair's agree-set together with its incompatible consequents in an
//! [`EvidenceSet`].
//!
//! Soundness is one-directional by construction: a sampled pair that
//! refutes `X → A` refutes it on the full relation (the pair is in the
//! full `Π_X` class too), while nothing is ever concluded from the
//! *absence* of evidence — surviving candidates still pay for the exact
//! check. That is what makes the whole phase result-neutral.

use ofd_core::{sorted_neighbourhood, EvidenceSet, ExecGuard, Relation, SenseIndex};

/// Outcome of the sampling phase.
pub(crate) struct SampleOutcome {
    /// The gathered (deduplicated) refutation witnesses.
    pub evidence: EvidenceSet,
    /// Rounds fully executed (may stop short under a tripped guard; the
    /// partial evidence is still sound).
    pub rounds_run: u64,
}

/// Runs `rounds` sorted-neighbourhood passes (round `r` compares rows
/// `r + 1` apart; see [`sorted_neighbourhood`]) and returns the evidence.
/// A tripped guard returns the evidence gathered so far.
pub(crate) fn gather_evidence(
    rel: &Relation,
    index: &SenseIndex,
    rounds: usize,
    guard: &ExecGuard,
) -> SampleOutcome {
    let mut evidence = EvidenceSet::new(rel.n_attrs());
    let rounds_run = sorted_neighbourhood(rel, rounds, guard, |t1, t2| {
        evidence.observe_pair(rel, index, t1, t2);
    });
    SampleOutcome {
        evidence,
        rounds_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{table1, AttrSet, Ofd, Validator};
    use ofd_ontology::samples;

    #[test]
    fn evidence_is_sound_wrt_full_relation() {
        // The satellite soundness contract: any candidate the sample
        // refutes is refuted by exact validation over the full relation.
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let guard = ExecGuard::unlimited();
        let out = gather_evidence(&rel, &index, 4, &guard);
        assert_eq!(out.rounds_run, 4);
        assert!(!out.evidence.is_empty(), "Table 1 yields witnesses");
        let v = Validator::new(&rel, &onto);
        let schema = rel.schema();
        for a in schema.attrs() {
            for bits in 0..(1u64 << schema.len()) {
                let lhs = AttrSet::from_bits(bits);
                if lhs.contains(a) || !out.evidence.refutes(lhs, a) {
                    continue;
                }
                let ofd = Ofd::synonym(lhs, a);
                assert!(
                    !v.check(&ofd).satisfied(),
                    "sample refuted the valid OFD {}",
                    ofd.display(schema)
                );
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_and_guard_aware() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let a = gather_evidence(&rel, &index, 3, &ExecGuard::unlimited());
        let b = gather_evidence(&rel, &index, 3, &ExecGuard::unlimited());
        assert_eq!(a.evidence.len(), b.evidence.len());
        assert_eq!(a.evidence.pair_count(), b.evidence.pair_count());
        // A pre-tripped guard stops before any pair is examined.
        let tripped = ExecGuard::unlimited();
        tripped.cancel();
        let c = gather_evidence(&rel, &index, 3, &tripped);
        assert_eq!(c.rounds_run, 0);
        assert!(c.evidence.is_empty());
    }

    #[test]
    fn degenerate_inputs_produce_no_evidence() {
        let rel = table1();
        let onto = samples::combined_paper_ontology();
        let index = SenseIndex::synonym(&rel, &onto);
        let out = gather_evidence(&rel, &index, 0, &ExecGuard::unlimited());
        assert_eq!(out.rounds_run, 0);
        assert!(out.evidence.is_empty());
        // Distances beyond the relation size terminate cleanly.
        let far = gather_evidence(&rel, &index, 10_000, &ExecGuard::unlimited());
        assert!(far.rounds_run <= rel.n_rows() as u64);
    }
}
