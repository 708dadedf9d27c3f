//! The positional map's storage budget: installing a new chunk evicts
//! least-recently-used chunks until it fits (§3.1 "dropped by the LRU
//! policy"). When a new combination is indexed is not a policy but the
//! paper's one rule, in [`crate::PositionalMap::plan_access`].

/// Positional-map policy knobs (the demo's "specify the amount of storage
/// space which is devoted to internal indexes").
#[derive(Debug, Clone, Copy)]
pub struct MapPolicy {
    /// Byte budget for chunk storage. The shared row index (8 bytes/row) is
    /// reported but exempt: without it no jumping is possible at all.
    pub budget_bytes: usize,
}

impl Default for MapPolicy {
    fn default() -> Self {
        MapPolicy {
            budget_bytes: 256 << 20, // 256 MiB: effectively unbounded on demo data
        }
    }
}

impl MapPolicy {
    /// Policy with a specific budget.
    pub fn with_budget(budget_bytes: usize) -> Self {
        MapPolicy { budget_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_has_a_budget() {
        assert!(MapPolicy::default().budget_bytes > 0);
        assert_eq!(MapPolicy::with_budget(4096).budget_bytes, 4096);
    }
}
