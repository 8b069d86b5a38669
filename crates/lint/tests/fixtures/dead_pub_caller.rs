//! Fixture: a second library file. It calls `Live::tick` and one free
//! function of `dead_pub.rs` from live code; its other mentions of that
//! file's names are a test call, a re-export, or prose, and none of those
//! count.

pub use crate::dead::reached_only_through_a_re_export;

/// Docs may mention `never_called()`; docs are not tokens.
fn live(clock: &crate::dead::Live) -> u32 {
    // So may comments: never_called().
    let _ = "and strings: never_called()";
    clock.tick() + crate::dead::called_from_a_library_file()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_from_tests_do_not_count() {
        assert_eq!(crate::dead::called_only_by_a_test_module(), 6);
    }
}
