//! Fixture: every panic-path form, each paired with a suppressed or
//! out-of-scope twin. Fed to `analyze_files` under a panic-scoped path.

pub fn unwrap_fires(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn unwrap_allowed(v: Option<u32>) -> u32 {
    v.unwrap() // lint: allow(panic-path) — fixture proves suppression
}

pub fn expect_fires(v: Option<u32>) -> u32 {
    v.expect("boom")
}

pub fn macro_fires(x: u32) -> u32 {
    if x > 3 {
        panic!("too big");
    }
    todo!()
}

pub fn unreachable_allowed(x: u32) -> u32 {
    match x {
        0 => 1,
        // lint: allow(panic-path) — marker on the comment line above the call
        _ => unreachable!(),
    }
}

pub fn computed_index_fires(xs: &[u32], i: usize) -> Result<u32, String> {
    Ok(xs[i + 1])
}

pub fn bare_index_ok(xs: &[u32], i: usize) -> Result<u32, String> {
    Ok(xs[i])
}

pub fn computed_index_outside_result(xs: &[u32], i: usize) -> u32 {
    xs[i + 1]
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let v: Option<u32> = Some(1);
        v.unwrap();
        panic!("fine in tests");
    }
}
