//! The candidate-generation step shared by the level-wise lattice engines
//! (FastOFD, TANE, FUN, FDMine): the prefix-block join, TANE's variant of
//! apriori-gen.

use crate::schema::AttrSet;

/// Every pair `(i, j)` of indices into `level` whose attribute sets share
/// all but their last (largest) attribute — the pairs whose union forms a
/// node of the next level.
///
/// Sets are visited in lexicographic order of their ascending attribute
/// lists; a block is a maximal run with a common prefix, and each block
/// yields its pairs `i` before `j` in that order, so the next level's node
/// order is deterministic. Every set must be non-empty.
pub fn prefix_block_pairs(level: &[AttrSet]) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..level.len()).collect();
    order.sort_by(|&x, &y| level[x].iter().cmp(level[y].iter()));
    let prefix = |k: usize| {
        let set = level[order[k]];
        set.without(set.iter().last().expect("non-empty lattice node"))
    };
    let mut pairs = Vec::new();
    let mut start = 0;
    while start < order.len() {
        let head = prefix(start);
        let end = (start + 1..order.len())
            .find(|&k| prefix(k) != head)
            .unwrap_or(order.len());
        for i in start..end {
            for j in (i + 1)..end {
                pairs.push((order[i], order[j]));
            }
        }
        start = end;
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;

    fn set(attrs: &[usize]) -> AttrSet {
        AttrSet::from_attrs(attrs.iter().map(|&a| AttrId::from_index(a)))
    }

    #[test]
    fn joins_prefix_blocks_in_lexicographic_order() {
        // Level 2 over {0..3}, listed out of order.
        let level = [
            set(&[1, 3]),
            set(&[0, 2]),
            set(&[0, 1]),
            set(&[1, 2]),
            set(&[0, 3]),
        ];
        let pairs = prefix_block_pairs(&level);
        let unions: Vec<AttrSet> = pairs
            .iter()
            .map(|&(i, j)| level[i].union(level[j]))
            .collect();
        // Block {0}: [0,1] [0,2] [0,3]; block {1}: [1,2] [1,3].
        assert_eq!(pairs, vec![(2, 1), (2, 4), (1, 4), (3, 0)]);
        assert_eq!(
            unions,
            vec![
                set(&[0, 1, 2]),
                set(&[0, 1, 3]),
                set(&[0, 2, 3]),
                set(&[1, 2, 3])
            ]
        );
    }

    #[test]
    fn singletons_form_one_block() {
        let level: Vec<AttrSet> = (0..4).rev().map(|a| set(&[a])).collect();
        let pairs = prefix_block_pairs(&level);
        assert_eq!(pairs.len(), 6, "C(4, 2) pairs");
        assert_eq!(pairs[0], (3, 2), "[0] joins [1] first");
        assert!(prefix_block_pairs(&[]).is_empty());
        assert!(prefix_block_pairs(&[set(&[5])]).is_empty());
    }
}
