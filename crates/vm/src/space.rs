//! Kernel virtual address space, vmblk carving, and the dope vector.

use core::ptr::NonNull;
use core::sync::atomic::{AtomicUsize, Ordering};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};

use kmem_smp::{faults, Faults, SpinLock};

use crate::error::VmError;
use crate::page::PAGE_SIZE;
use crate::phys::NodePhysPools;

/// Configuration for a [`KernelSpace`].
#[derive(Debug, Clone, Copy)]
pub struct SpaceConfig {
    /// Total bytes of virtual address space to reserve (lazily committed by
    /// the host). Must be a multiple of the vmblk size.
    pub space_bytes: usize,
    /// Log2 of the vmblk size. The paper uses 4 MB vmblks (`22`).
    pub vmblk_shift: u32,
    /// Capacity of the physical page pool in frames. Defaults to one frame
    /// per page of virtual space.
    pub phys_pages: usize,
    /// Number of NUMA nodes the physical pool is sharded over. Defaults to
    /// 1 (the paper's flat-bus machine).
    pub nodes: usize,
}

impl SpaceConfig {
    /// The paper's layout: 4 MB vmblks, with a modest 256 MB space suited
    /// to the benchmark workloads.
    pub fn new(space_bytes: usize) -> Self {
        SpaceConfig {
            space_bytes,
            vmblk_shift: 22,
            phys_pages: space_bytes / PAGE_SIZE,
            nodes: 1,
        }
    }

    /// Overrides the physical pool capacity.
    pub fn phys_pages(mut self, pages: usize) -> Self {
        self.phys_pages = pages;
        self
    }

    /// Overrides the NUMA node count the physical pool is sharded over.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Overrides the vmblk size (log2 bytes).
    ///
    /// Smaller vmblks make exhaustion tests cheap.
    pub fn vmblk_shift(mut self, shift: u32) -> Self {
        self.vmblk_shift = shift;
        self
    }
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig::new(256 << 20)
    }
}

/// A carved vmblk: `size` bytes of vmblk-aligned virtual memory.
#[derive(Debug, Clone, Copy)]
pub struct VmblkRegion {
    base: NonNull<u8>,
    index: usize,
    size: usize,
}

impl VmblkRegion {
    /// Base address of the region.
    #[inline]
    pub fn base(&self) -> NonNull<u8> {
        self.base
    }

    /// Index of this vmblk within the space (the dope-vector slot).
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Size of the region in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }
}

// SAFETY: a `VmblkRegion` is a description of an address range, not an
// access path with interior mutability; the owning allocator serializes all
// access to the memory it names.
unsafe impl Send for VmblkRegion {}
// SAFETY: as above — shared references expose only plain address values.
unsafe impl Sync for VmblkRegion {}

struct CarveState {
    /// Next never-carved vmblk index.
    next_unused: usize,
    /// Indices of vmblks that were carved and later returned.
    free: Vec<usize>,
}

/// Size of a host huge page: the reservation is aligned to at least this,
/// so the host can back it with huge pages from its first byte.
const HUGE_PAGE_SIZE: usize = 2 << 20;

/// Asks the host to back `len` bytes from `base` with huge pages.
///
/// A kernel maps its own memory with large pages, so carving a vmblk costs
/// it no page faults; a reservation of 4 KB host pages takes one fault per
/// page the first time each is touched. The advice is only advice: where
/// the host refuses or ignores it (transparent huge pages off, or another
/// OS), the reservation behaves exactly as before, only slower to fault in.
#[cfg(target_os = "linux")]
fn advise_huge_pages(base: NonNull<u8>, len: usize) {
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    // SAFETY: `base..base + len` is one live allocation of ours, and
    // `base` is huge-page (so host-page) aligned. The advice changes how
    // the host backs the range, never its contents or its permissions.
    unsafe { madvise(base.as_ptr().cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_base: NonNull<u8>, _len: usize) {}

/// The simulated kernel virtual address space.
///
/// One contiguous reservation, carved into vmblk-sized regions on demand.
/// The reservation is only *address space* as far as the allocator is
/// concerned: the physical frames behind it are claimed from the embedded
/// [`PhysPool`] page by page, exactly as the paper's coalesce layers claim
/// and return physical memory around retained virtual memory. It is
/// aligned to the larger of the vmblk size and 2 MB and advised onto host
/// huge pages, as a kernel maps its own memory.
pub struct KernelSpace {
    base: NonNull<u8>,
    layout: Layout,
    vmblk_shift: u32,
    nvmblks: usize,
    carve: SpinLock<CarveState>,
    /// Dope vector: one tag word per vmblk slot. Zero means "not managed";
    /// the allocator stores the address of its vmblk header here so any
    /// block address resolves to its page descriptor in two steps
    /// (paper Figure 6).
    dope: Box<[AtomicUsize]>,
    phys: NodePhysPools,
    /// Failpoint handle; `faults::VM_CARVE` can force carve failures.
    faults: Faults,
}

// SAFETY: all mutation of carve state goes through the spinlock; the dope
// vector is atomic; the raw base pointer itself is never mutated. Access to
// the *memory behind* the reservation is governed by the allocator layers
// built on top.
unsafe impl Send for KernelSpace {}
// SAFETY: as above.
unsafe impl Sync for KernelSpace {}

impl KernelSpace {
    /// Reserves the space described by `config`, on host huge pages where
    /// the host has them.
    ///
    /// # Panics
    ///
    /// Panics if `space_bytes` is zero or not a multiple of the vmblk size,
    /// or aborts if the host refuses the reservation.
    pub fn new(config: SpaceConfig) -> Self {
        KernelSpace::new_with_faults(config, Faults::none())
    }

    /// Reserves the space described by `config`, wiring the carve path and
    /// the embedded [`PhysPool`] to `faults`.
    ///
    /// # Panics
    ///
    /// As [`KernelSpace::new`].
    pub fn new_with_faults(config: SpaceConfig, faults: Faults) -> Self {
        let vmblk_size = 1usize << config.vmblk_shift;
        assert!(
            config.vmblk_shift >= 14,
            "vmblks must hold at least a few pages"
        );
        assert!(config.space_bytes > 0, "empty kernel space");
        assert!(
            config.space_bytes.is_multiple_of(vmblk_size),
            "space must be a whole number of vmblks"
        );
        let nvmblks = config.space_bytes / vmblk_size;
        let layout = Layout::from_size_align(config.space_bytes, vmblk_size.max(HUGE_PAGE_SIZE))
            .expect("space layout must be valid");
        // SAFETY: `layout` has non-zero size (asserted above).
        let raw = unsafe { alloc(layout) };
        let Some(base) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        advise_huge_pages(base, layout.size());
        let dope = (0..nvmblks).map(|_| AtomicUsize::new(0)).collect();
        KernelSpace {
            base,
            layout,
            vmblk_shift: config.vmblk_shift,
            nvmblks,
            carve: SpinLock::new(CarveState {
                next_unused: 0,
                free: Vec::new(),
            }),
            dope,
            phys: NodePhysPools::with_faults(config.phys_pages, config.nodes, faults.clone()),
            faults,
        }
    }

    /// The per-node physical page pools backing this space.
    #[inline]
    pub fn phys(&self) -> &NodePhysPools {
        &self.phys
    }

    /// Size of one vmblk in bytes.
    #[inline]
    pub fn vmblk_size(&self) -> usize {
        1 << self.vmblk_shift
    }

    /// Number of vmblk slots in the space.
    #[inline]
    pub fn nvmblks(&self) -> usize {
        self.nvmblks
    }

    /// Base address of the space.
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.base.as_ptr() as usize
    }

    /// Returns whether `addr` lies inside the reservation.
    #[inline]
    pub fn contains(&self, addr: usize) -> bool {
        let base = self.base_addr();
        addr >= base && addr < base + self.layout.size()
    }

    /// Carves a fresh vmblk out of the space.
    pub fn alloc_vmblk(&self) -> Result<VmblkRegion, VmError> {
        if self.faults.hit(faults::VM_CARVE) {
            return Err(VmError::OutOfVirtual);
        }
        let index = {
            let mut carve = self.carve.lock();
            if let Some(index) = carve.free.pop() {
                index
            } else if carve.next_unused < self.nvmblks {
                let index = carve.next_unused;
                carve.next_unused += 1;
                index
            } else {
                return Err(VmError::OutOfVirtual);
            }
        };
        Ok(self.region(index))
    }

    /// Returns a previously carved vmblk to the space.
    ///
    /// The caller must have released every physical frame it claimed for
    /// pages of this vmblk; the dope slot is cleared here.
    pub fn free_vmblk(&self, region: VmblkRegion) {
        self.dope[region.index].store(0, Ordering::Release);
        self.carve.lock().free.push(region.index);
    }

    fn region(&self, index: usize) -> VmblkRegion {
        let size = self.vmblk_size();
        // SAFETY: `index < nvmblks`, so the offset stays inside the single
        // reservation object.
        let base = unsafe { NonNull::new_unchecked(self.base.as_ptr().add(index * size)) };
        VmblkRegion { base, index, size }
    }

    /// Publishes `tag` (an allocator-defined non-zero word, typically a
    /// header address) in the dope slot for vmblk `index`.
    pub fn set_dope(&self, index: usize, tag: usize) {
        debug_assert!(tag != 0, "dope tags must be non-zero");
        self.dope[index].store(tag, Ordering::Release);
    }

    /// Looks up the dope tag covering `addr`.
    ///
    /// Returns `None` if `addr` is outside the space or its vmblk is not
    /// currently published.
    #[inline]
    pub fn dope_lookup(&self, addr: usize) -> Option<usize> {
        if !self.contains(addr) {
            return None;
        }
        let index = (addr - self.base_addr()) >> self.vmblk_shift;
        match self.dope[index].load(Ordering::Acquire) {
            0 => None,
            tag => Some(tag),
        }
    }

    /// Returns the vmblk index covering `addr`, if inside the space.
    #[inline]
    pub fn vmblk_index_of(&self, addr: usize) -> Option<usize> {
        if self.contains(addr) {
            Some((addr - self.base_addr()) >> self.vmblk_shift)
        } else {
            None
        }
    }
}

impl Drop for KernelSpace {
    fn drop(&mut self) {
        // SAFETY: `base` came from `alloc(self.layout)` and is released
        // exactly once here.
        unsafe { dealloc(self.base.as_ptr(), self.layout) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> KernelSpace {
        // 1 MB space of 16 KB vmblks: 64 slots.
        KernelSpace::new(SpaceConfig {
            space_bytes: 1 << 20,
            vmblk_shift: 14,
            phys_pages: 256,
            nodes: 1,
        })
    }

    #[test]
    fn carve_is_aligned_and_disjoint() {
        let s = small_space();
        let a = s.alloc_vmblk().unwrap();
        let b = s.alloc_vmblk().unwrap();
        assert_eq!(a.base().as_ptr() as usize % s.vmblk_size(), 0);
        assert_eq!(b.base().as_ptr() as usize % s.vmblk_size(), 0);
        let (lo, hi) = if a.base().as_ptr() < b.base().as_ptr() {
            (a, b)
        } else {
            (b, a)
        };
        assert!(lo.base().as_ptr() as usize + lo.size() <= hi.base().as_ptr() as usize);
    }

    #[test]
    fn base_is_huge_page_aligned_for_every_vmblk_size() {
        for shift in [14, 18, 22, 24] {
            let s = KernelSpace::new(SpaceConfig::new(16 << 20).vmblk_shift(shift));
            assert_eq!(
                s.base_addr() % HUGE_PAGE_SIZE,
                0,
                "{} KB vmblks",
                1 << (shift - 10)
            );
        }
    }

    /// Kilobytes of `AnonHugePages` that `/proc/self/smaps` reports for the
    /// mappings overlapping `lo..hi`.
    #[cfg(target_os = "linux")]
    fn anon_huge_kb(lo: usize, hi: usize) -> usize {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
        let mut overlaps = false;
        let mut kb = 0;
        for line in smaps.lines() {
            // Mapping headers open with `start-end`; field lines with `Name:`.
            let first = line.split_whitespace().next().unwrap_or("");
            if let Some((start, end)) = first.split_once('-') {
                if let (Ok(start), Ok(end)) = (
                    usize::from_str_radix(start, 16),
                    usize::from_str_radix(end, 16),
                ) {
                    overlaps = start < hi && lo < end;
                    continue;
                }
            }
            if let Some(value) = line.strip_prefix("AnonHugePages:") {
                if overlaps {
                    let value = value.trim().trim_end_matches("kB").trim();
                    kb += value.parse::<usize>().expect("a kB count");
                }
            }
        }
        kb
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn touched_space_is_backed_by_huge_pages() {
        let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .unwrap_or_default();
        if mode.is_empty() || mode.contains("[never]") {
            println!(
                "skipped: transparent huge pages are off on this host ({:?})",
                mode.trim()
            );
            return;
        }
        let len = 4 << 20;
        let s = KernelSpace::new(SpaceConfig::new(len));
        let base = s.base_addr() as *mut u8;
        for offset in (0..len).step_by(PAGE_SIZE) {
            // SAFETY: inside the reservation, which `s` keeps alive and
            // nothing else uses.
            unsafe { (base.add(offset) as *mut u64).write_volatile(1) };
        }
        let kb = anon_huge_kb(s.base_addr(), s.base_addr() + len);
        assert!(
            kb >= 2048,
            "{kb} kB of huge pages behind a touched {len}-byte space (THP mode {:?})",
            mode.trim()
        );
    }

    #[test]
    fn exhaustion_and_reuse() {
        let s = small_space();
        let mut regions = Vec::new();
        for _ in 0..s.nvmblks() {
            regions.push(s.alloc_vmblk().unwrap());
        }
        assert_eq!(s.alloc_vmblk().unwrap_err(), VmError::OutOfVirtual);
        let last = regions.pop().unwrap();
        let last_base = last.base();
        s.free_vmblk(last);
        let again = s.alloc_vmblk().unwrap();
        assert_eq!(again.base(), last_base);
    }

    #[test]
    fn dope_lookup_resolves_interior_addresses() {
        let s = small_space();
        let r = s.alloc_vmblk().unwrap();
        let tag = 0xdead_beefusize;
        s.set_dope(r.index(), tag);
        let mid = r.base().as_ptr() as usize + r.size() / 2;
        assert_eq!(s.dope_lookup(mid), Some(tag));
        assert_eq!(s.dope_lookup(r.base().as_ptr() as usize), Some(tag));
        // Last byte of the region still maps to it.
        assert_eq!(
            s.dope_lookup(r.base().as_ptr() as usize + r.size() - 1),
            Some(tag)
        );
    }

    #[test]
    fn dope_lookup_rejects_foreign_and_unpublished() {
        let s = small_space();
        let r = s.alloc_vmblk().unwrap();
        // Not yet published.
        assert_eq!(s.dope_lookup(r.base().as_ptr() as usize), None);
        // Outside the space entirely.
        let foreign = Box::new(0u8);
        assert_eq!(s.dope_lookup(&*foreign as *const u8 as usize), None);
        // Published, then freed: cleared again.
        s.set_dope(r.index(), 1);
        s.free_vmblk(r);
        assert_eq!(s.dope_lookup(r.base().as_ptr() as usize), None);
    }

    #[test]
    fn vmblk_index_matches_layout() {
        let s = small_space();
        let a = s.alloc_vmblk().unwrap();
        let addr = a.base().as_ptr() as usize + 5;
        assert_eq!(s.vmblk_index_of(addr), Some(a.index()));
        assert_eq!(s.vmblk_index_of(s.base_addr() - 1), None);
    }

    #[test]
    fn phys_pool_is_shared_through_space() {
        let s = small_space();
        s.phys().claim(10).unwrap();
        assert_eq!(s.phys().in_use(), 10);
        s.phys().release(10);
    }

    #[test]
    fn node_sharded_space_splits_the_phys_pool() {
        use kmem_smp::NodeId;

        let s = KernelSpace::new(
            SpaceConfig::new(1 << 20)
                .vmblk_shift(14)
                .phys_pages(256)
                .nodes(2),
        );
        assert_eq!(s.phys().nnodes(), 2);
        assert_eq!(s.phys().capacity(), 256);
        assert_eq!(s.phys().node(NodeId::new(0)).capacity(), 128);
        let home = s.phys().claim_on(NodeId::new(1), 5).unwrap();
        assert_eq!(home, NodeId::new(1));
        assert_eq!(s.phys().node(home).in_use(), 5);
        s.phys().release_on(home, 5);
        assert_eq!(s.phys().in_use(), 0);
    }

    #[test]
    fn injected_carve_failure_is_transient() {
        use kmem_smp::FailPolicy;

        let faults = Faults::with_plan();
        let s = KernelSpace::new_with_faults(
            SpaceConfig {
                space_bytes: 1 << 20,
                vmblk_shift: 14,
                phys_pages: 256,
                nodes: 1,
            },
            faults.clone(),
        );
        faults
            .plan()
            .unwrap()
            .set(faults::VM_CARVE, FailPolicy::Script(vec![true]));
        assert_eq!(s.alloc_vmblk().unwrap_err(), VmError::OutOfVirtual);
        // The failed carve consumed no slot; the retry gets vmblk 0.
        let r = s.alloc_vmblk().unwrap();
        assert_eq!(r.index(), 0);
    }

    #[test]
    fn concurrent_carving_yields_distinct_regions() {
        let s = small_space();
        let seen = SpinLock::new(std::collections::HashSet::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        if let Ok(r) = s.alloc_vmblk() {
                            assert!(seen.lock().insert(r.base().as_ptr() as usize));
                        }
                    }
                });
            }
        });
        // (Two `.lock()` calls in one statement would deadlock a
        // non-reentrant spinlock: take the guard once.)
        let seen = seen.lock();
        assert!(seen.len() <= s.nvmblks());
    }
}
