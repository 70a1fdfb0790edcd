//! Field tables: every counter the allocator publishes is declared once.
//!
//! [`counters!`] takes a struct whose fields are *rows* — each tagged
//! `counter` (monotone event count), `gauge` (current value or flag) or
//! `nested` (another table, or a vector of them) — and emits the plain
//! snapshot struct as a [`Field`]: something that can be rebuilt cell by
//! cell against a second copy of itself ([`Field::map2`]) and written as
//! JSON ([`Field::emit`]). Everything that used to be spelled out per
//! field is one walk: [`delta`] (counters subtract, gauges keep the later
//! value), [`merge`], [`check_monotone`], and the JSON rendering.
//!
//! A table of counters that mirrors a live struct one-to-one
//! (`live struct L<Cell>;`) also gets the live struct itself and its
//! `read` sweep. **Sweep order rule, stated once:** rows are declared in
//! the owner's *write* order — an access counter before the miss counter
//! it bounds, a miss counter before its refill/fail details — and `read`
//! loads them *backwards*, so with the counters' release stores and
//! acquire loads a live sample can never show a detail without the total
//! that bounds it. That is the whole argument `check_live` rests on; a
//! table whose totals are *derived* (`GlobalCounts`) keeps a hand-written
//! `read` instead.

use crate::json::JsonObj;

/// What a row is, which decides how a walk treats its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count: subtracts in a delta, sums in a merge, must
    /// never go backwards.
    Counter,
    /// Current value or flag: a delta keeps the later one.
    Gauge,
    /// Another table (or a vector of them), whose own rows say what their
    /// cells are.
    Nested,
}

/// Where a walk stands: the kind of the row being visited, and the steps
/// that lead to the cell.
pub struct Cx {
    pub kind: Kind,
    steps: Vec<Step>,
}

/// One step of a walk's path: into a row, or into an element.
pub enum Step {
    Field(&'static str),
    Index(usize),
}

impl Cx {
    /// Runs `visit` one step down the path.
    pub fn within<R>(&mut self, step: Step, visit: impl FnOnce(&mut Cx) -> R) -> R {
        self.steps.push(step);
        let r = visit(self);
        self.steps.pop();
        r
    }

    /// The path to the cell, as `classes[0].per_cpu[1].occupancy[3]`
    /// (rendered on demand: most walks never name a cell).
    pub fn path(&self) -> String {
        let mut path = String::new();
        for step in &self.steps {
            match step {
                Step::Field(name) if path.is_empty() => path.push_str(name),
                Step::Field(name) => path.extend([".", name]),
                Step::Index(i) => path.extend(["[", &i.to_string(), "]"]),
            }
        }
        path
    }
}

/// What a walk does at each cell: `(where, this value, other's value)`
/// to the value the rebuilt struct gets.
pub type Visit<'a> = &'a mut dyn FnMut(&Cx, u64, u64) -> u64;

/// A row's value: a scalar or array viewed as `u64` cells, a table, or a
/// vector of tables.
pub trait Field: Sized {
    /// Rebuilds `self` with every cell replaced by what `f` returns for
    /// it and the same cell of `other`.
    ///
    /// # Panics
    ///
    /// Panics if two vectors differ in length: the values describe arenas
    /// of different shape, and a zip would silently compare a prefix.
    fn map2(&self, other: &Self, cx: &mut Cx, f: Visit<'_>) -> Self;

    /// Writes the value under `key`.
    fn emit(&self, key: &str, o: &mut JsonObj);
}

/// A struct declared through [`counters!`].
pub trait Table: Field {
    /// Writes the rows into `o`, in declaration order.
    fn emit_rows(&self, o: &mut JsonObj);
}

macro_rules! scalar_field {
    ($($ty:ty: $to:expr, $from:expr, $emit:ident;)*) => {$(
        impl Field for $ty {
            fn map2(&self, other: &Self, cx: &mut Cx, f: Visit<'_>) -> Self {
                $from(f(cx, $to(*self), $to(*other)))
            }
            fn emit(&self, key: &str, o: &mut JsonObj) {
                o.$emit(key, (*self).into());
            }
        }
    )*};
}

scalar_field! {
    u64: |v| v, |v| v, u64;
    usize: |v| v as u64, |v| v as usize, usize;
    u8: u64::from, |v| v as u8, u64;
    bool: u64::from, |v| v != 0, bool;
}

impl<const N: usize> Field for [u64; N] {
    fn map2(&self, other: &Self, cx: &mut Cx, f: Visit<'_>) -> Self {
        core::array::from_fn(|i| cx.within(Step::Index(i), |cx| f(cx, self[i], other[i])))
    }
    fn emit(&self, key: &str, o: &mut JsonObj) {
        o.nums(key, *self);
    }
}

impl<T: Table> Field for Vec<T> {
    fn map2(&self, other: &Self, cx: &mut Cx, f: Visit<'_>) -> Self {
        assert_eq!(self.len(), other.len(), "snapshots of different arenas");
        let pairs = self.iter().zip(other).enumerate();
        pairs
            .map(|(i, (a, b))| cx.within(Step::Index(i), |cx| a.map2(b, cx, &mut *f)))
            .collect()
    }
    fn emit(&self, key: &str, o: &mut JsonObj) {
        o.arr(key, self, T::emit_rows);
    }
}

/// Rebuilds `this` cell by cell: each cell becomes what `f` returns for
/// it and the same cell of `other`.
pub fn walk<T: Field>(this: &T, other: &T, f: Visit<'_>) -> T {
    let mut cx = Cx {
        kind: Kind::Nested,
        steps: Vec::new(),
    };
    this.map2(other, &mut cx, f)
}

/// Events between `then` and `now`: counters subtract, gauges keep
/// `now`'s value. Counters are monotone, so the difference is exact;
/// `saturating_sub` only guards against a swapped pair.
pub fn delta<T: Field>(now: &T, then: &T) -> T {
    walk(now, then, &mut |cx, n, t| match cx.kind {
        Kind::Counter => n.saturating_sub(t),
        _ => n,
    })
}

/// Adds `other`'s counters into `acc` (summing CPUs, shards or classes).
pub fn merge<T: Field>(acc: &mut T, other: &T) {
    *acc = walk(acc, other, &mut |cx, a, b| match cx.kind {
        Kind::Counter => a + b,
        _ => a,
    });
}

/// Checks that no counter of `now` is below its value in `then`; the
/// error names the first offender by its path.
pub fn check_monotone<T: Field>(now: &T, then: &T) -> Result<(), String> {
    let mut first = Ok(());
    walk(now, then, &mut |cx, n, t| {
        if cx.kind == Kind::Counter && n < t && first.is_ok() {
            first = Err(format!("{} went backwards: {t} -> {n}", cx.path()));
        }
        n
    });
    first
}

/// Moves JSON emission from group `cur` to group `next`: consecutive rows
/// of one non-empty group nest in an object of that name.
pub fn regroup(o: &mut JsonObj, cur: &mut &'static str, next: &'static str) {
    if *cur != next {
        if !cur.is_empty() {
            o.close();
        }
        if !next.is_empty() {
            o.open(next);
        }
        *cur = next;
    }
}

/// Declares a counter struct as a [`Table`], with its `delta`; see the
/// module docs.
///
/// ```text
/// counters! {
///     /// Docs and derives as on any struct.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct PageCounts {
///         /// Chain requests from the global layer.
///         counter refills: u64,
///         gauge depth: usize => "queue"."depth",   // {"queue":{"depth":..}}
///     }
///     /// Optional, for all-`counter` tables: also declare the live
///     /// struct (same fields, of `EventCounter`) and `PageCounts::read`.
///     live struct PageLayerStats<EventCounter>;
/// }
/// ```
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $T:ident {
            $( $(#[$fmeta:meta])* $kind:ident $f:ident : $ty:ty
               $(=> $group:literal . $key:literal)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $T {
            $( $(#[$fmeta])* pub $f: $ty, )*
        }

        impl $crate::counters::Field for $T {
            fn map2(
                &self,
                other: &Self,
                cx: &mut $crate::counters::Cx,
                f: $crate::counters::Visit<'_>,
            ) -> Self {
                $T {
                    $( $f: {
                        cx.kind = counters!(@kind $kind);
                        cx.within($crate::counters::Step::Field(stringify!($f)), |cx| {
                            $crate::counters::Field::map2(&self.$f, &other.$f, cx, &mut *f)
                        })
                    }, )*
                }
            }

            fn emit(&self, key: &str, o: &mut $crate::json::JsonObj) {
                o.obj(key, |o| $crate::counters::Table::emit_rows(self, o));
            }
        }

        impl $crate::counters::Table for $T {
            fn emit_rows(&self, o: &mut $crate::json::JsonObj) {
                let mut group = "";
                $(
                    let (next, key) = counters!(@json $f $($group $key)?);
                    $crate::counters::regroup(o, &mut group, next);
                    $crate::counters::Field::emit(&self.$f, key, o);
                )*
                $crate::counters::regroup(o, &mut group, "");
            }
        }

        impl $T {
            /// Events between `earlier` and `self`: counters subtract,
            /// gauges and flags keep the later (`self`) value.
            ///
            /// # Panics
            ///
            /// Panics if the two come from arenas of different shape.
            pub fn delta(&self, earlier: &Self) -> Self {
                $crate::counters::delta(self, earlier)
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $T:ident {
            $( $(#[$fmeta:meta])* counter $f:ident : $ty:tt ),* $(,)?
        }
        $(#[$lmeta:meta])*
        live struct $L:ident<$C:ty>;
    ) => {
        counters! {
            $(#[$meta])*
            pub struct $T {
                $( $(#[$fmeta])* counter $f : $ty ),*
            }
        }

        $(#[$lmeta])*
        #[derive(Default)]
        pub struct $L {
            $( $(#[$fmeta])* pub $f: counters!(@live $C, $ty), )*
        }

        impl $T {
            /// Sweeps the live counters, last-declared row first (the
            /// sweep order rule of [`crate::counters`]).
            pub(crate) fn read(live: &$L) -> Self {
                let mut out = Self::default();
                counters!(@sweep live out $($f : $ty,)*);
                out
            }
        }
    };
    (@sweep $live:ident $out:ident) => {};
    (@sweep $live:ident $out:ident $f:ident : $ty:tt, $($rest:tt)*) => {
        counters!(@sweep $live $out $($rest)*);
        $out.$f = counters!(@load $live.$f, $ty);
    };
    (@live $C:ty, u64) => { $C };
    (@live $C:ty, [u64; $n:expr]) => { [$C; $n] };
    (@load $cell:expr, u64) => { $cell.get() };
    (@load $cell:expr, [u64; $n:expr]) => { core::array::from_fn(|i| $cell[i].get()) };
    (@json $f:ident) => { ("", stringify!($f)) };
    (@json $f:ident $group:literal $key:literal) => { ($group, $key) };
    (@kind counter) => { $crate::counters::Kind::Counter };
    (@kind gauge) => { $crate::counters::Kind::Gauge };
    (@kind nested) => { $crate::counters::Kind::Nested };
}
pub(crate) use counters;
