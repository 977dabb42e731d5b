//! # gcd2-par — the default worker count
//!
//! Compilation and one inference both run on the calling thread; the
//! serving gateway owns its own workers. What is left here is the
//! number of them it starts by default.

use std::sync::OnceLock;

/// The machine's available parallelism
/// ([`std::thread::available_parallelism`]), resolved once per
/// process: the default worker count of a serving gateway.
pub fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
