//! The CFG traversals on node ids near `u32::MAX`, mixed with small ones.
//!
//! `rtl::preorder` and `rtl::reachable` take any successor closure, so
//! their node ids are whatever a graph uses, not the dense `0..n` that
//! Renumber hands out. On a seeded graph whose ids spread over the whole
//! `u32` range they must return exactly what a traversal over a
//! `BTreeSet` seen-set returns, and they must allocate memory in
//! proportion to the nodes they reach: a seen-set indexed by raw node id
//! would ask for about 512 MiB here, and this file's counting allocator
//! fails the test on anything past a few kilobytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

use compcerto_core::rng::SplitMix64;
use rtl::{preorder, reachable, Node};

/// The system allocator, counting the bytes asked of it on a thread that
/// has turned counting on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn charge(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.with(|b| b.set(b.get() + bytes));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only `const`-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's contract for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        // SAFETY: the caller's contract for `realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `run`'s result and the bytes it asked the allocator for on this thread.
fn counted<T>(run: impl FnOnce() -> T) -> (T, usize) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let out = run();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get))
}

/// The traversal as it was written over an ordered set: the reference.
fn btree_preorder(entry: Node, graph: &BTreeMap<Node, Vec<Node>>) -> Vec<Node> {
    let mut order = Vec::new();
    let mut seen = BTreeSet::new();
    let mut stack = vec![entry];
    while let Some(n) = stack.pop() {
        if seen.contains(&n) {
            continue;
        }
        let Some(ss) = graph.get(&n) else { continue };
        seen.insert(n);
        order.push(n);
        stack.extend(ss.iter().rev());
    }
    order
}

/// A seeded graph of `n` nodes, half with small ids and half within a few
/// thousand of `u32::MAX`; each node lists up to three successors, one in
/// eight of them an id with no node (a dangling edge).
fn sparse_graph(seed: u64, n: usize) -> BTreeMap<Node, Vec<Node>> {
    let mut rng = SplitMix64::new(seed);
    let ids: Vec<Node> = (0..n)
        .map(|k| {
            if k % 2 == 0 {
                rng.below(1_000) as Node
            } else {
                Node::MAX - rng.below(4_000) as Node
            }
        })
        .collect();
    let mut graph = BTreeMap::new();
    for &id in &ids {
        let succs = (0..rng.below(4))
            .map(|_| {
                if rng.below(8) == 0 {
                    Node::MAX / 2 + rng.below(1_000) as Node
                } else {
                    ids[rng.range_usize(0, ids.len())]
                }
            })
            .collect();
        graph.insert(id, succs);
    }
    graph
}

/// Bytes a traversal of a few hundred nodes may ask for: its order, its
/// stack and its seen-set, a few kilobytes each.
const BUDGET: usize = 16 * 1024;

#[test]
fn traversals_on_ids_near_u32_max_match_a_btreeset_and_stay_small() {
    let mut reached = 0;
    for seed in 0..64 {
        let graph = sparse_graph(seed, 300);
        let succs = |n: Node| graph.get(&n).map(|ss| ss.iter().copied());
        for &entry in graph.keys().step_by(37) {
            let want = btree_preorder(entry, &graph);
            let (got, bytes) = counted(|| preorder(entry, succs));
            assert_eq!(got, want, "seed {seed}, entry {entry}: preorder");
            assert!(
                bytes <= BUDGET,
                "seed {seed}, entry {entry}: preorder of {} nodes asked for {bytes} bytes",
                got.len()
            );
            let (set, bytes) = counted(|| reachable(entry, succs));
            let want: BTreeSet<Node> = want.into_iter().collect();
            assert_eq!(set, want, "seed {seed}, entry {entry}: reachable");
            assert!(
                bytes <= BUDGET,
                "seed {seed}, entry {entry}: reachable asked for {bytes} bytes"
            );
            reached += set.len();
        }
        // An entry with no node reaches nothing.
        assert!(preorder(Node::MAX / 2 + 1_000, succs).is_empty());
    }
    // The walks must go deep into both halves of the id range.
    assert!(reached >= 64 * 100, "only {reached} nodes reached");
}
