//! Fixture: `dead-pub` over a small file set. Fed to `analyze_files` as a
//! library file beside `dead_pub_caller.rs` (another library file) and
//! `dead_pub_frozen.rs` (the caller-only `benchmark/`, or an `examples/`
//! file that calls nothing as far as the rule is concerned),
//! with the warnings the compiler prints for the marked copy of the three.

pub struct Live;
pub struct Dead;

impl Live {
    pub fn tick(&self) -> u32 {
        1
    }
}

impl Dead {
    pub fn tick(&self) -> u32 {
        2
    }
}

pub fn never_called() -> u32 {
    3
}

pub const fn const_and_never_called() -> u32 {
    4
}

pub fn called_from_a_library_file() -> u32 {
    5
}

pub fn called_only_by_a_test_module() -> u32 {
    6
}

pub fn reached_only_through_a_re_export() -> u32 {
    7
}

pub fn called_only_in_its_own_file() -> u32 {
    8
}

pub fn called_by_benchmark() -> u32 {
    9
}

pub fn called_by_an_example() -> u32 {
    10
}

pub(crate) fn crate_visible() -> u32 {
    11
}

#[cfg(test)]
pub fn gated_by_cfg_test() -> u32 {
    12
}

pub fn kept_under_a_marker() -> u32 { 13 } // lint: allow(dead-pub) — (b) fixture proves suppression
pub fn the_line_after_a_marker() -> u32 { 14 }

pub fn under_another_rules_marker() -> u32 { 15 } // lint: allow(panic-path) — the wrong rule

fn uncalled_helper() -> u32 {
    // A call from the defining file itself does not count.
    called_only_in_its_own_file() + crate_visible()
}

#[cfg(test)]
mod tests {
    pub fn inside_a_test_module() -> u32 {
        super::called_only_by_a_test_module()
    }
}
