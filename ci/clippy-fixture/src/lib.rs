//! One seeded violation per rule; see `Cargo.toml`.

/// D01: a std hash map.
pub fn d01() -> usize {
    std::collections::HashMap::<u64, u64>::new().len()
}

/// D02: a wall-clock read.
pub fn d02() -> std::time::Instant {
    std::time::Instant::now()
}

/// P01: a lint allowance without a reason.
#[allow(dead_code)]
fn p01() {}
