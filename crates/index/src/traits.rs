//! Unifying trait for block-location indexes.

/// Locates the data block of a sorted run that may contain a key.
///
/// Contract: if the run contains `key`, the returned block index MUST be
/// the block holding it. If the key is absent, the locator may return any
/// block (typically where the key *would* be) or `None` when it can prove
/// the key is out of the run's range.
pub trait BlockLocator: Send + Sync {
    /// Block that may contain `key`, or `None` if provably out of range.
    fn locate(&self, key: &[u8]) -> Option<usize>;

    /// First block whose key range may intersect `[key, ∞)`; used to seed
    /// range scans. `None` when every block ends before `key`.
    fn locate_lower_bound(&self, key: &[u8]) -> Option<usize>;

    /// Number of blocks indexed.
    fn num_blocks(&self) -> usize;

    /// Memory footprint in bits.
    fn size_bits(&self) -> usize;
}

/// Which block-index implementation the engine uses — one axis of the LSM
/// design space (tutorial Module II.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Full fence pointers: last key of every block.
    Fence,
    /// Sparse index sampling every `k`-th block boundary.
    Sparse {
        /// Sampling rate: one retained boundary per `rate` blocks.
        rate: usize,
    },
    /// Learned piecewise-linear index over u64-mapped keys with the given
    /// error bound.
    Pla {
        /// Maximum block-index error the model may make.
        epsilon: usize,
    },
}

impl IndexKind {
    /// Human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            IndexKind::Fence => "fence",
            IndexKind::Sparse { .. } => "sparse",
            IndexKind::Pla { .. } => "pla",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_distinct() {
        let kinds = [
            IndexKind::Fence,
            IndexKind::Sparse { rate: 4 },
            IndexKind::Pla { epsilon: 4 },
        ];
        let mut labels: Vec<_> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }
}
