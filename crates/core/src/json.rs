//! The workspace's one JSON emitter.
//!
//! The workspace is hermetic (no serde), so JSON is written by hand —
//! here and nowhere else: [`crate::KmemSnapshot::to_json`] renders
//! through [`JsonObj`], and `kmem-bench` re-exports it for the
//! `BENCH_*.json` artifacts and the end-to-end benchmark.

use core::fmt::Write as _;

/// An in-progress JSON object. Keys are emitted in call order; values
/// are limited to what the callers need (numbers, short names, nested
/// objects, arrays of numbers and arrays of objects).
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObj {
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        debug_assert!(!k.contains(['"', '\\']), "keys are plain identifiers");
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        let _ = write!(self.buf, "\"{k}\":");
    }

    /// A string value. Values must not need escaping (bench and profile
    /// names are plain identifiers).
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        debug_assert!(
            !v.contains(['"', '\\']),
            "string values must not need escaping"
        );
        self.key(k);
        let _ = write!(self.buf, "\"{v}\"");
        self
    }

    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn usize(&mut self, k: &str, v: usize) -> &mut Self {
        self.u64(k, v as u64)
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// A float rendered with `prec` decimal places (JSON has no NaN or
    /// infinity; the benches only publish finite measurements).
    pub fn f64(&mut self, k: &str, v: f64, prec: usize) -> &mut Self {
        debug_assert!(v.is_finite(), "artifacts hold finite measurements only");
        self.key(k);
        let _ = write!(self.buf, "{v:.prec$}");
        self
    }

    /// An array of numbers.
    pub fn nums(&mut self, k: &str, vals: impl IntoIterator<Item = u64>) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, v) in vals.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{v}");
        }
        self.buf.push(']');
        self
    }

    /// Starts a nested object under `k`; values go into it until the
    /// matching [`close`](JsonObj::close).
    pub fn open(&mut self, k: &str) -> &mut Self {
        self.key(k);
        self.buf.push('{');
        self.first = true;
        self
    }

    /// Ends the object the last unmatched [`open`](JsonObj::open) began.
    pub fn close(&mut self) -> &mut Self {
        self.buf.push('}');
        self.first = false;
        self
    }

    /// A nested object built by `f`.
    pub fn obj(&mut self, k: &str, f: impl FnOnce(&mut JsonObj)) -> &mut Self {
        self.open(k);
        f(self);
        self.close()
    }

    /// An array of objects, one per item, each built by `f`.
    pub fn arr<T>(
        &mut self,
        k: &str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(T, &mut JsonObj),
    ) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push('{');
            self.first = true;
            f(item, self);
            self.close();
        }
        self.buf.push(']');
        self
    }

    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_iterators_render_empty_arrays() {
        let mut obj = JsonObj::new();
        obj.arr("rows", core::iter::empty::<usize>(), |_, _| {})
            .nums("vals", []);
        assert_eq!(obj.finish(), "{\"rows\":[],\"vals\":[]}");
    }

    #[test]
    fn values_render_in_call_order() {
        let mut obj = JsonObj::new();
        obj.u64("n", 7)
            .bool("on", true)
            .nums("hist", [3, 2, 1])
            .obj("sub", |s| {
                s.str("name", "x").f64("rate", 1.5, 1);
            });
        assert_eq!(
            obj.finish(),
            "{\"n\":7,\"on\":true,\"hist\":[3,2,1],\"sub\":{\"name\":\"x\",\"rate\":1.5}}"
        );
    }
}
