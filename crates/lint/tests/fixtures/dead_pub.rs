//! Fixture: `dead-pub` over a small file set. Fed to `analyze_files` as a
//! library file beside `dead_pub_caller.rs` (another library file) and
//! `dead_pub_frozen.rs` (the caller-only `benchmark/` and `examples/`).

pub fn never_called() -> u32 {
    1
}

pub const fn const_and_never_called() -> u32 {
    2
}

pub fn called_from_a_library_file() -> u32 {
    never_called_here_either()
}

pub fn called_only_by_a_test_module() -> u32 {
    3
}

pub fn named_only_in_a_pub_use() -> u32 {
    4
}

pub fn named_only_in_prose() -> u32 {
    5
}

pub fn called_by_benchmark() -> u32 {
    6
}

pub fn called_by_an_example() -> u32 {
    7
}

pub(crate) fn crate_visible() -> u32 {
    8
}

#[cfg(test)]
pub fn gated_by_cfg_test() -> u32 {
    9
}

pub fn kept_under_a_marker() -> u32 { 10 } // lint: allow(dead-pub) — (b) fixture proves suppression
pub fn the_line_after_a_marker() -> u32 { 11 }

pub fn under_another_rules_marker() -> u32 { 12 } // lint: allow(panic-path) — the wrong rule

fn never_called_here_either() -> u32 {
    // A call from the defining file itself does not count.
    never_called() + crate_visible()
}

#[cfg(test)]
mod tests {
    pub fn inside_a_test_module() -> u32 {
        super::called_only_by_a_test_module()
    }
}
