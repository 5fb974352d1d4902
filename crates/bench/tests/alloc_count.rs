//! The counting allocator, in a test binary of its own. The counter is
//! process-wide, so a count is exact only while no other thread
//! allocates; next to the crate's unit tests, any of them could. One
//! test, not two: libtest runs a binary's tests on concurrent threads.

use duet_bench::count_allocs;

#[test]
fn counts_heap_allocations_and_nothing_for_pure_code() {
    let (n, sum) = count_allocs(|| (0u64..100).sum::<u64>());
    assert_eq!(sum, 4950);
    assert_eq!(n, 0, "pure code allocated");

    let (n, v) = count_allocs(|| Vec::<u64>::with_capacity(32));
    assert!(n >= 1, "Vec::with_capacity must hit the allocator");
    drop(v);
}
