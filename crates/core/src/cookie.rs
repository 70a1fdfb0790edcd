//! The cookie interface (paper §"Cookies").
//!
//! "The caller invokes `kmem_alloc_get_cookie` to translate a request size
//! into an opaque cookie that is passed to subsequent expansions of the
//! macros named `KMEM_ALLOC_COOKIE` and `KMEM_FREE_COOKIE`. The cookie
//! contains pointers to the proper per-CPU pools, removing the need for the
//! free operation to determine the block size given only its address."
//!
//! In Rust the "macro" halves are [`crate::CpuHandle::alloc_cookie`] and
//! [`crate::CpuHandle::free_cookie`]. What is inline, as in the paper, is
//! the *hit* (`#[inline(always)]`): an arena-id compare — against an id
//! that only a handle of a plain-profile arena holds, resolved at
//! registration — the drain flag, the class bound, a pop from (or push
//! onto) the `main` list of the (CPU, class) record the handle points at,
//! and the counter. Everything
//! else is a call to one `#[cold]` continuation per half that holds the
//! whole path: an empty or full `main`, a drain request, a hardened or
//! single-list arena, a foreign cookie, and every 64th call, whose hit
//! also samples the cache's occupancy. `scripts/fastpath.sh` holds the two
//! expansions to an instruction budget beside the paper's 13 + 13.
//!
//! The cookie itself carries the resolved class index (the per-CPU pool
//! array is reached through the handle at the call site, since a cookie
//! may be shared between CPUs) plus the arena identity: a cookie presented
//! to another arena is an assertion in debug builds and a typed, counted
//! [`crate::CorruptionSite::CookieArena`] error in every release profile.

/// An opaque, copyable token encoding a resolved size class.
///
/// Obtain one from [`crate::KmemArena::cookie_for`]; it is valid for the
/// lifetime of that arena and may be shared freely between CPUs and
/// threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cookie {
    pub(crate) class: u32,
    pub(crate) size: u32,
    /// Identity of the issuing arena (checked on every call).
    pub(crate) arena_id: u64,
}

impl Cookie {
    /// The block size this cookie allocates.
    #[inline]
    pub fn block_size(self) -> usize {
        self.size as usize
    }

    /// The size-class index this cookie resolves to.
    #[inline]
    pub fn class_index(self) -> usize {
        self.class as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cookie_is_small_and_copy() {
        // A cookie must stay register-friendly: the whole point is to make
        // the fast path cheaper than a size lookup.
        assert!(core::mem::size_of::<Cookie>() <= 16);
        let c = Cookie {
            class: 3,
            size: 128,
            arena_id: 7,
        };
        let d = c;
        assert_eq!(c, d);
        assert_eq!(d.block_size(), 128);
        assert_eq!(d.class_index(), 3);
    }
}
