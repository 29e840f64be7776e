//! The host execution strategy of the simulator.
//!
//! The SNE's slices run in parallel in silicon behind the crossbar; the
//! simulator walks them in slice order on the calling thread and merges
//! their records exactly as the collector arbitrates them. Host-level
//! parallelism lives one level up, in the scheduler's pool of identical
//! engines (`sne::batch`), where separate requests run on separate worker
//! threads.

/// How an engine executes on the host: always on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecStrategy {
    /// Run every slice on the calling thread, in slice order.
    #[default]
    Sequential,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_the_default_single_thread() {
        assert_eq!(ExecStrategy::default(), ExecStrategy::Sequential);
    }
}
