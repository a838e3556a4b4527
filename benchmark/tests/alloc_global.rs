//! The counting allocator registered as the process allocator, as the bin
//! registers it. Other threads of the test process may allocate too, so
//! these are lower bounds; the exact arithmetic is unit-tested in
//! `src/alloc.rs` on a private instance.

use spider_benchmark::alloc::CountingAlloc;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

#[test]
fn registered_allocator_sees_this_thread_and_spawned_ones() {
    const MB: u64 = 1 << 20;
    ALLOC.reset_peak();
    let live0 = ALLOC.live_bytes();
    let before = ALLOC.snapshot();
    let block = black_box(vec![1u8; MB as usize]);
    std::thread::scope(|s| {
        s.spawn(|| drop(black_box(vec![2u8; 2 * MB as usize])))
            .join()
            .expect("allocating thread panicked");
    });
    let made = ALLOC.snapshot().since(before);
    assert!(made.count >= 2, "{made:?}");
    assert!(made.bytes >= 3 * MB, "{made:?}");
    assert!(ALLOC.peak_bytes() >= live0 + 3 * MB);
    assert!(ALLOC.live_bytes() >= live0 + MB);
    drop(block);
    assert!(ALLOC.live_bytes() < live0 + MB);
}
