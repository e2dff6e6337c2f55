//! The correctness gate: every check a run makes, collected so the
//! command can print them all and exit non-zero if any failed.

use crate::workloads::Digest;

/// Outcome of the checks made so far.
#[derive(Debug, Default)]
pub struct Gate {
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    /// Records one check; `what` describes the property that must hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks that two runs that must agree produced the same digest.
    pub fn same_digest(&mut self, what: &str, expected: &Digest, got: &Digest) {
        let diff = expected.first_difference(got);
        self.check(diff.is_none(), || {
            format!("{what}: digests differ at {}", diff.unwrap_or_default())
        });
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of checks made.
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Descriptions of the failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(delivered: u64) -> Digest {
        Digest {
            fields: vec![("generated".into(), 10), ("delivered".into(), delivered)],
        }
    }

    #[test]
    fn equal_digests_pass() {
        let mut g = Gate::default();
        g.same_digest("repeat", &digest(10), &digest(10));
        assert!(g.passed());
        assert_eq!(g.checks(), 1);
    }

    #[test]
    fn differing_digests_fail_and_name_the_field() {
        let mut g = Gate::default();
        g.same_digest("1 vs 4 domains", &digest(10), &digest(9));
        assert!(!g.passed());
        assert_eq!(g.failures().len(), 1);
        let msg = &g.failures()[0];
        assert!(msg.contains("1 vs 4 domains"), "{msg}");
        assert!(msg.contains("delivered: 10 vs 9"), "{msg}");
    }

    #[test]
    fn digests_of_different_shape_fail() {
        let mut g = Gate::default();
        let short = Digest {
            fields: vec![("generated".into(), 10)],
        };
        g.same_digest("shape", &digest(10), &short);
        assert!(!g.passed());
    }
}
