//! Seeded R01 violation on the worker side of the pool. Scanned, never
//! compiled.

pub fn reply(frames: &mut Vec<String>) -> String {
    frames.pop().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        assert_eq!(vec![1u64].pop().unwrap(), 1);
    }
}
