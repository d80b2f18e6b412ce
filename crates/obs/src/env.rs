//! The `TASKBENCH_STRESS` knob.
//!
//! One of the three allowlisted `TASKBENCH_*` parse helpers (with
//! `bench::config` and `ws::parse_workers`) — the `env-discipline` lint
//! rule keeps every other file from reading the environment directly.
//!
//! Concurrency tests multiply their thread counts and iteration budgets
//! by [`stress_factor`], so the same test bodies serve both the quick
//! tier-1 run and the amplified sanitizer/nightly legs:
//!
//! * unset, empty, or `0` → factor 1 (normal run);
//! * `1` → factor 8 (the default amplification CI's stress legs use);
//! * any other positive integer → that factor directly.
//!
//! Anything unparseable panics: a stress run that silently fell back to
//! the quick sizes would pass without testing anything.

/// Multiplier for thread counts and iteration budgets in concurrency
/// tests, from `TASKBENCH_STRESS` (see the module docs for the mapping).
pub fn stress_factor() -> usize {
    match std::env::var("TASKBENCH_STRESS") {
        Err(_) => 1,
        Ok(v) if v.is_empty() || v == "0" => 1,
        Ok(v) if v == "1" => 8,
        Ok(v) => v.parse().unwrap_or_else(|_| {
            panic!("TASKBENCH_STRESS must be a non-negative integer, got {v:?}")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests mutate process state; keep them in one #[test] so
    // the harness can't interleave them.
    #[test]
    fn stress_factor_mapping() {
        // std::env::set_var is safe in Rust 2021 (this crate forbids
        // unsafe, which a 2024-edition set_var would require).
        std::env::remove_var("TASKBENCH_STRESS");
        assert_eq!(stress_factor(), 1);
        std::env::set_var("TASKBENCH_STRESS", "");
        assert_eq!(stress_factor(), 1);
        std::env::set_var("TASKBENCH_STRESS", "0");
        assert_eq!(stress_factor(), 1);
        std::env::set_var("TASKBENCH_STRESS", "1");
        assert_eq!(stress_factor(), 8);
        std::env::set_var("TASKBENCH_STRESS", "3");
        assert_eq!(stress_factor(), 3);
        std::env::remove_var("TASKBENCH_STRESS");
    }
}
