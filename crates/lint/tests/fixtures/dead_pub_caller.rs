//! Fixture: a second library file. It calls one `dead_pub.rs` function
//! from live code; every other mention of that file's names is a test
//! call, a re-export, or prose, and none of those count.

pub use crate::dead::named_only_in_a_pub_use;

/// Docs may mention `named_only_in_prose()`; docs are not tokens.
fn live() -> u32 {
    // So may comments: named_only_in_prose().
    let _ = "and strings: named_only_in_prose()";
    crate::dead::called_from_a_library_file()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_from_tests_do_not_count() {
        assert_eq!(crate::dead::called_only_by_a_test_module(), 3);
    }
}
