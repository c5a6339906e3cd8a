//! Building a heap must cost what is touched, not what is reserved: the
//! word array and the side tables are zeroed allocations the OS commits
//! page by page on first write.
//!
//! One test in a binary of its own, so no other test thread moves the
//! process's resident set while it is being read.

#![cfg(target_os = "linux")]

use tilgc_mem::{Addr, Memory, SiteId};

/// Resident set size of this process, in KiB.
fn rss_kb() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .expect("VmRSS line");
    let kb = line.trim().trim_end_matches("kB").trim();
    kb.parse().expect("VmRSS in kB")
}

#[test]
fn construction_and_first_writes_commit_pages_not_tables() {
    // 512 MB of heap words, 152 MB of side tables (2.375 B per word).
    let words = 1 << 26;
    let before = rss_kb();
    let mut mem = Memory::with_capacity_words(words);
    let built = rss_kb();
    assert!(
        built.saturating_sub(before) < 16 << 10,
        "construction committed {} KiB",
        built - before
    );

    // One site tag, one dirty bit and one mark bit in the middle of the
    // heap: a few pages, not a table.
    let addr = Addr::new(words as u32 / 2);
    mem.set_site(addr, SiteId::new(7));
    assert!(!mem.dirty_test_and_set(addr));
    assert!(mem.mark_test_and_set(addr));
    let touched = rss_kb();
    assert!(
        touched.saturating_sub(built) < 1 << 10,
        "three metadata writes committed {} KiB",
        touched - built
    );
    assert_eq!(mem.site_of(addr), SiteId::new(7));
    assert!(mem.is_dirty(addr) && mem.is_marked(addr));
}
