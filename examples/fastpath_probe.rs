//! Path-length probe for the cookie interface.
//!
//! The paper's headline is a 13 + 13-instruction `KMEM_ALLOC_COOKIE` /
//! `KMEM_FREE_COOKIE` macro pair. [`probe_alloc_cookie`] and
//! [`probe_free_cookie`] are the smallest possible callers of
//! `CpuHandle::alloc_cookie` / `free_cookie`: never inlined themselves and
//! exported under their own names, so `scripts/fastpath.sh` can
//! disassemble exactly what one expansion of each "macro" costs and hold
//! it to a budget.
//!
//! Run with `cargo run --release --example fastpath_probe`.

use std::ptr::NonNull;

use kmem::{AllocError, Cookie, CpuHandle, KmemArena, KmemConfig};

/// One expansion of the alloc half.
#[no_mangle]
#[inline(never)]
pub fn probe_alloc_cookie(cpu: &CpuHandle, cookie: Cookie) -> Result<NonNull<u8>, AllocError> {
    cpu.alloc_cookie(cookie)
}

/// One expansion of the free half.
///
/// # Safety
///
/// As for `CpuHandle::free_cookie`.
#[no_mangle]
#[inline(never)]
pub unsafe fn probe_free_cookie(cpu: &CpuHandle, ptr: NonNull<u8>, cookie: Cookie) {
    // SAFETY: forwarded caller contract.
    unsafe { cpu.free_cookie(ptr, cookie) }
}

fn main() {
    let arena = KmemArena::new(KmemConfig::small()).expect("arena");
    let cpu = arena.register_cpu().expect("cpu");
    let cookie = arena.cookie_for(256).expect("cookie");
    const PAIRS: u64 = 1_000_000;
    for _ in 0..PAIRS {
        let p = probe_alloc_cookie(&cpu, cookie).expect("alloc_cookie");
        // SAFETY: allocated just above with this cookie, freed once.
        unsafe { probe_free_cookie(&cpu, p, cookie) };
    }
    let snap = arena.snapshot();
    let counts = snap.cpu_class(cpu.cpu().index(), cookie.class_index());
    assert_eq!((counts.alloc, counts.free), (PAIRS, PAIRS));
    println!(
        "{PAIRS} cookie pairs on the 256-byte class: {} alloc misses, {} free misses",
        counts.alloc_miss, counts.free_miss
    );
}
