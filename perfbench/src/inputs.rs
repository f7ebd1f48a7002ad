//! The workloads' inputs: one fixed dataset per workload, its rows in an
//! order drawn from the run's `--seed`.
//!
//! Generating new content per seed would change what there is to find
//! (|Σ| moves from 1385 to 1408 between two seeds of `discover-deep`, and
//! its run time by a third), so run-to-run spread would measure the data,
//! not the program. A permutation changes the bytes the program reads and
//! the order it meets tuples in, but not the dependencies, so the pinned
//! Σ and the cleaning ground truth hold for every seed.

use ofd_core::{Ofd, Relation, Schema};

use crate::stats::Rng;

/// Generator seed of every workload's content.
pub const CONTENT_SEED: u64 = 42;

/// A seeded permutation of `0..n`: `perm[new_row] = old_row`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed ^ 0x0005_EED0_F0DE);
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    perm
}

/// `rel` with its rows reordered by `perm`.
pub fn permute(rel: &Relation, perm: &[usize]) -> Result<Relation, String> {
    let names: Vec<&str> = rel.schema().attrs().map(|a| rel.schema().name(a)).collect();
    let rows: Vec<Vec<&str>> = perm.iter().map(|&r| rel.row_texts(r)).collect();
    Relation::from_rows(names, rows.iter().map(Vec::as_slice)).map_err(|e| e.to_string())
}

/// An OFD in the `A,B->C` form the CLI's `--ofds-file` and the server's
/// `"ofds"` field take.
pub fn spec(ofd: &Ofd, schema: &Schema) -> String {
    let lhs: Vec<&str> = ofd.lhs.iter().map(|a| schema.name(a)).collect();
    format!("{}->{}", lhs.join(","), schema.name(ofd.rhs))
}

/// Parses `A,B->C` lines (blank lines and `#` comments skipped) against
/// `rel`'s schema.
pub fn parse_specs(text: &str, rel: &Relation) -> Result<Vec<Ofd>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let (lhs, rhs) = line
                .split_once("->")
                .ok_or_else(|| format!("bad OFD line {line:?}"))?;
            let names = lhs.split(',').map(str::trim).filter(|s| !s.is_empty());
            let lhs = rel.schema().set(names).map_err(|e| e.to_string())?;
            let rhs = rel.schema().attr(rhs.trim()).map_err(|e| e.to_string())?;
            Ok(Ofd::synonym(lhs, rhs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(100, 1);
        assert_eq!(a, permutation(100, 1));
        assert_ne!(a, permutation(100, 2));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
