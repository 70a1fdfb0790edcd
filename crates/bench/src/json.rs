//! The envelope every `BENCH_*.json` artifact shares.
//!
//! The values are written through the workspace's one JSON emitter,
//! [`kmem::json::JsonObj`] (re-exported here). Every artifact gets the
//! same envelope — `schema` version, `bench` name, RNG `seed` (zero
//! for benches with no randomized workload), `host_cpus` (the CPUs the
//! recording host offered: with 1, no multi-thread wall-clock number in
//! the file is scaling evidence, and the envelope says so with
//! `"path_length_only": true`), and a `config` object holding the
//! knobs the numbers depend on — so a reader can tell at a glance which
//! code vintage, host and parameters produced a file.

pub use kmem::json::JsonObj;

/// Version stamped into every artifact as `"schema"`. Bump when the
/// envelope itself (not a bench's own fields) changes shape: 3 added
/// `host_cpus`.
pub const SCHEMA_VERSION: u32 = 3;

/// A `BENCH_*.json` artifact under construction, with the standard
/// envelope pre-filled.
pub struct BenchReport {
    obj: JsonObj,
}

impl BenchReport {
    /// Starts a report: `schema`, `bench`, `seed` and `host_cpus` land
    /// first, then `path_length_only` on a one-CPU host. Pass `seed = 0`
    /// for benches whose workload has no RNG.
    pub fn new(bench: &str, seed: u64) -> Self {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        BenchReport::on_host(bench, seed, host_cpus)
    }

    fn on_host(bench: &str, seed: u64, host_cpus: usize) -> Self {
        let mut obj = JsonObj::new();
        obj.u64("schema", SCHEMA_VERSION as u64)
            .str("bench", bench)
            .u64("seed", seed)
            .usize("host_cpus", host_cpus);
        if host_cpus == 1 {
            // One core: threads time-share it, so multi-thread numbers say
            // what a path costs, not how it scales.
            obj.bool("path_length_only", true);
        }
        BenchReport { obj }
    }

    /// The `config` block: every knob the numbers depend on.
    pub fn config(mut self, f: impl FnOnce(&mut JsonObj)) -> Self {
        self.obj.obj("config", f);
        self
    }

    /// Direct access for the bench's own result sections.
    pub fn body(&mut self) -> &mut JsonObj {
        &mut self.obj
    }

    /// Renders the artifact to a JSON string.
    pub fn render(self) -> String {
        self.obj.finish()
    }

    /// Writes the artifact to `file` at the workspace root and logs the
    /// path — the single exit every bench shares.
    pub fn write_artifact(self, file: &str) {
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, self.render()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_leads_every_report() {
        let report = BenchReport::on_host("demo", 42, 2).config(|c| {
            c.usize("threads", 8).f64("budget", 1.5, 1);
        });
        assert_eq!(
            report.render(),
            format!(
                "{{\"schema\":{SCHEMA_VERSION},\"bench\":\"demo\",\"seed\":42,\
                 \"host_cpus\":2,\"config\":{{\"threads\":8,\"budget\":1.5}}}}"
            )
        );
    }

    #[test]
    fn one_cpu_hosts_mark_the_report_path_length_only() {
        let one = BenchReport::on_host("demo", 0, 1).render();
        assert!(one.starts_with(&format!(
            "{{\"schema\":{SCHEMA_VERSION},\"bench\":\"demo\",\"seed\":0,\
             \"host_cpus\":1,\"path_length_only\":true"
        )));
        for cpus in [2, 8] {
            let many = BenchReport::on_host("demo", 0, cpus).render();
            assert!(!many.contains("path_length_only"), "{many}");
        }
        let here = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            BenchReport::new("demo", 0).render(),
            BenchReport::on_host("demo", 0, here).render()
        );
    }

    #[test]
    fn nested_arrays_and_objects_render_in_order() {
        let mut report = BenchReport::new("demo", 0);
        report.body().arr("results", [1usize, 2], |n, row| {
            row.usize("threads", n).bool("win", n > 1);
        });
        report.body().obj("sim", |s| {
            s.f64("rate", 1234.5678, 0);
        });
        let json = report.render();
        assert!(json.ends_with(
            "\"results\":[{\"threads\":1,\"win\":false},\
             {\"threads\":2,\"win\":true}],\"sim\":{\"rate\":1235}}"
        ));
    }
}
