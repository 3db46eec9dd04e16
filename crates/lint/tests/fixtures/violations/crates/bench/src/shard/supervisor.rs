//! Seeded R01 violations: the crash-recoverable supervisor must not
//! panic. Scanned, never compiled.

pub fn dispatch(queue: &mut Vec<u64>) -> u64 {
    let head = queue.pop().expect("non-empty queue");
    if head == 0 {
        panic!("zero job id");
    }
    head
}

pub fn next_slot(map: &std::collections::BTreeMap<u64, u64>) -> u64 {
    // unwrap_or_else is a degrade path, not an abort: must NOT trip R01.
    let soft = map.get(&1).copied().unwrap_or_else(|| 0);
    soft + map.get(&2).copied().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_panic() {
        let v: Vec<u64> = vec![1];
        assert_eq!(v.first().copied().unwrap(), 1);
    }
}
