//! The in-memory device's footprint, counted by the allocator.
//!
//! A `MemDevice` file is a list of extents of whole blocks (about 64 KiB
//! each): the first starts at the first append's size and doubles up to
//! an extent, every later one is allocated whole, and a full extent is
//! never moved. These tests pin what that buys:
//!
//! - a file never holds more than its bytes plus one extent, counting the
//!   moment a growing extent is copied (old and new both live);
//! - no allocation an append makes is larger than one extent, so an
//!   append never re-copies the file;
//! - a one-block file costs one block, not one extent;
//! - sealing gives back the last extent's spare capacity.
//!
//! The counters are per thread, so the harness's parallel tests do not
//! see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use lsm_storage::{DeviceProfile, FileId, IoCategory, MemDevice, StorageDevice};

struct LiveAlloc;

thread_local! {
    /// Bytes this thread has allocated and not freed since its counters
    /// were reset (negative when it frees older memory).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` reached, a growing realloc counted with its old
    /// and its new block both live.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// The largest single allocation or realloc asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(bytes)));
}

fn note_free(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get() - bytes as isize));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are statistics
// that no allocation depends on.
unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_free(layout.size());
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LiveAlloc = LiveAlloc;

/// Zeroes this thread's counters.
fn reset() {
    LIVE.set(0);
    PEAK.set(0);
    LARGEST.set(0);
}

/// Appends of 1 block, then 1–40 blocks in a fixed cycle, to a file that
/// ends near eight extents.
fn append_sizes(dev: &MemDevice) -> impl Iterator<Item = usize> {
    let target = 8 * dev.extent_bytes() / dev.block_size();
    let sizes = std::iter::repeat_n(1, 40).chain((0..).map(|i| 1 + (i * 17) % 40));
    sizes.scan(0, move |total, n| {
        *total += n;
        (*total <= target).then_some(n)
    })
}

fn devices() -> [MemDevice; 2] {
    [512, 4096].map(|bs| MemDevice::new(bs, DeviceProfile::free()))
}

#[test]
fn a_file_holds_its_bytes_plus_at_most_one_extent() {
    for dev in devices() {
        let (bs, extent) = (dev.block_size(), dev.extent_bytes() as isize);
        let blocks: Vec<u8> = vec![0x5A; 40 * bs];
        let file = dev.create().unwrap();
        reset();
        let mut bytes = 0;
        for n in append_sizes(&dev) {
            dev.append(file, &blocks[..n * bs], IoCategory::Data).unwrap();
            bytes += (n * bs) as isize;
            let peak = PEAK.get();
            assert!(
                peak <= bytes + extent,
                "{bs}-byte blocks: a {bytes}-byte file peaked at {peak} bytes, over its bytes plus one {extent}-byte extent"
            );
        }
        assert!(bytes > 4 * extent, "the file spans several extents");
    }
}

#[test]
fn no_append_allocates_more_than_one_extent() {
    for dev in devices() {
        let (bs, extent) = (dev.block_size(), dev.extent_bytes());
        let blocks: Vec<u8> = vec![0xA5; 40 * bs];
        let file = dev.create().unwrap();
        let mut bytes = 0;
        for n in append_sizes(&dev) {
            reset();
            dev.append(file, &blocks[..n * bs], IoCategory::Data).unwrap();
            bytes += n * bs;
            let largest = LARGEST.get();
            assert!(
                largest <= extent,
                "{bs}-byte blocks: appending {n} blocks to a {bytes}-byte file allocated {largest} bytes at once, \
                 over one {extent}-byte extent"
            );
        }
    }
}

#[test]
fn a_one_block_file_costs_one_block() {
    for dev in devices() {
        let bs = dev.block_size();
        let block = vec![7u8; bs];
        reset();
        let files: Vec<FileId> = (0..1000)
            .map(|_| {
                let file = dev.create().unwrap();
                dev.append(file, &block, IoCategory::Data).unwrap();
                file
            })
            .collect();
        // past its block, each file's entry in the device's table, its
        // extent list and its id in `files` cost under 200 bytes; one
        // whole extent per file would be 1000 × 64 KiB
        let live = LIVE.get();
        let budget = (1000 * (bs + 200)) as isize;
        assert!(live <= budget, "{bs}-byte blocks: 1000 one-block files hold {live} bytes, over {budget}");
        for file in files {
            dev.delete(file).unwrap();
        }
        assert_eq!(dev.live_blocks(), 0);
    }
}

#[test]
fn seal_gives_back_the_last_extents_spare_capacity() {
    for dev in devices() {
        let (bs, extent) = (dev.block_size(), dev.extent_bytes());
        let block = vec![1u8; bs];
        // three one-block appends grow the first extent to four blocks;
        // one more block past a full extent starts a whole second one
        for blocks in [3, extent / bs + 1] {
            let file = dev.create().unwrap();
            reset();
            for _ in 0..blocks {
                dev.append(file, &block, IoCategory::Data).unwrap();
            }
            assert!(LIVE.get() > (blocks * bs) as isize, "{bs}-byte blocks: the open file has spare room");
            dev.seal(file).unwrap();
            // what is left past the bytes is the extent list itself
            let spare = LIVE.get() - (blocks * bs) as isize;
            assert!(
                (0..=64).contains(&spare),
                "{bs}-byte blocks: a sealed {blocks}-block file holds {spare} bytes past its blocks"
            );
            assert_eq!(dev.read(file, blocks as u64 - 1, 1, IoCategory::Data).unwrap(), block);
        }
    }
}
