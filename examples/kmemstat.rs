//! kmemstat — vmstat for the kmem arena.
//!
//! Polls [`KmemArena::snapshot`] on an interval and prints the *delta*
//! between consecutive sweeps, one line per tick: allocator events per
//! interval rather than cumulative totals, exactly how `vmstat 1` reports
//! the VM subsystem. A self-contained churn workload runs in the
//! background so the numbers move; in a real system the same loop would
//! watch an arena owned by the rest of the kernel.
//!
//! The snapshot API is lock-free and costs the workload CPUs nothing (the
//! counters are single-writer; the sampler only reads), so the tool can
//! poll as fast as it likes — try `--interval-ms 1`.
//!
//! Usage: kmemstat [--interval-ms N] [--count N] [--threads N] [--nodes N]
//!                 [--hardened] [--maint] [--json]
//!
//! `--hardened` runs the arena with every corruption defense armed
//! (encoded freelist links, poison-on-free, randomized carve,
//! double-free quarantine); the closing hardened table then shows live
//! quarantine occupancy alongside the detection counters.
//!
//! `--maint` arms the background maintenance core: slow-path trims,
//! regroups, spills, and pressure drain-requests route through the
//! lock-free mailbox to a maintenance thread that runs for the whole
//! sweep; the closing maintenance table shows posted / deduplicated /
//! drained work items and the residual backlog.
//!
//! `--nodes N` shards the arena over N NUMA nodes (block CPU mapping) and
//! the closing per-node table shows how the shards behaved: blocks parked
//! per node, refills served locally vs stolen from a remote shard, and
//! blocks spilled to the shared page layer.
//!
//! With `--json`, each tick emits the full cumulative snapshot as one JSON
//! object per line (newline-delimited JSON, via
//! [`KmemSnapshot::to_json`]) instead of the delta table — ready to
//! pipe into `jq` or a time-series collector.
//!
//! Columns (all per interval):
//!   allocs/frees  class-sized operations across all CPUs
//!   am%/fm%       per-CPU layer miss rates (bound: 1/target)
//!   refill        chains pulled from the global layer (short: < target)
//!   flush         cache flushes (any cause) and blocks they evicted
//!   spill         blocks the global layer pushed to the page layer
//!   pg+/pg-       pages acquired from / released to the vmblk layer
//!   phys          physical frames in use (gauge, not a delta)

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use kmem::{HardenedConfig, KmemArena, KmemConfig, KmemSnapshot, MaintConfig};
use kmem_vm::SpaceConfig;

struct Args {
    interval_ms: u64,
    count: usize,
    threads: usize,
    nodes: usize,
    hardened: bool,
    maint: bool,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        interval_ms: 200,
        count: 20,
        threads: 4,
        nodes: 1,
        hardened: false,
        maint: false,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--interval-ms" => {
                args.interval_ms = it.next().expect("--interval-ms N").parse().expect("number")
            }
            "--count" => args.count = it.next().expect("--count N").parse().expect("number"),
            "--threads" => args.threads = it.next().expect("--threads N").parse().expect("number"),
            "--nodes" => args.nodes = it.next().expect("--nodes N").parse().expect("number"),
            "--hardened" => args.hardened = true,
            "--maint" => args.maint = true,
            "--json" => args.json = true,
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

fn churn(arena: KmemArena, seed: u64, stop: &AtomicBool) {
    let cpu = arena.register_cpu().unwrap();
    let mut held: Vec<(NonNull<u8>, usize)> = Vec::new();
    let mut x = seed | 1;
    while !stop.load(Ordering::Relaxed) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let size = 16usize << (x % 9);
        // Drift the working-set bound so occupancy and refill/flush
        // traffic actually vary from tick to tick.
        let bound = 64 + ((x >> 9) % 512) as usize;
        if held.len() >= bound {
            while held.len() > bound / 2 {
                let (p, sz) = held.swap_remove((x as usize) % held.len());
                // SAFETY: allocated below, freed exactly once.
                unsafe { cpu.free_sized(p, sz) };
            }
        }
        if let Ok(p) = cpu.alloc(size) {
            held.push((p, size));
        }
        if x % 200_000 < 2 {
            cpu.flush();
        }
    }
    for (p, sz) in held {
        // SAFETY: allocated above, freed exactly once.
        unsafe { cpu.free_sized(p, sz) };
    }
}

fn tick_line(d: &KmemSnapshot, now: &KmemSnapshot) -> String {
    let mut alloc = 0u64;
    let mut alloc_miss = 0u64;
    let mut free = 0u64;
    let mut free_miss = 0u64;
    let mut refill = 0u64;
    let mut short = 0u64;
    let mut flushes = 0u64;
    let mut flush_blocks = 0u64;
    let mut spill = 0u64;
    let mut pg_acq = 0u64;
    let mut pg_rel = 0u64;
    for cs in &d.classes {
        let t = cs.cache_total();
        alloc += t.alloc;
        alloc_miss += t.alloc_miss;
        free += t.free;
        free_miss += t.free_miss;
        refill += t.refill;
        short += t.refill_short;
        flushes += t.flushes();
        flush_blocks += t.flush_blocks;
        spill += cs.global.spill_blocks;
        pg_acq += cs.page.page_acquires;
        pg_rel += cs.page.page_releases;
    }
    let pct = |m: u64, a: u64| {
        if a == 0 {
            0.0
        } else {
            100.0 * m as f64 / a as f64
        }
    };
    format!(
        "{alloc:>9} {:>5.2} {free:>9} {:>5.2} {refill:>6} {short:>5} {flushes:>5} \
         {flush_blocks:>7} {spill:>6} {pg_acq:>5} {pg_rel:>5} {:>6}",
        pct(alloc_miss, alloc),
        pct(free_miss, free),
        now.phys_in_use,
    )
}

fn main() {
    let args = parse_args();
    let mut cfg = KmemConfig::new(args.threads, SpaceConfig::new(64 << 20)).nodes(args.nodes);
    if args.hardened {
        cfg = cfg.hardened(HardenedConfig::full(0x4b4d_5354_4154));
    }
    if args.maint {
        cfg = cfg.maint(MaintConfig::on());
    }
    let arena = KmemArena::new(cfg).unwrap();
    // No-op (None) unless --maint armed the core; joined on drop after
    // the churn threads stop, with one final settling drain.
    let pump = arena.start_maint_thread();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        for t in 0..args.threads {
            let arena = arena.clone();
            let stop = &stop;
            s.spawn(move || churn(arena, 0xBEEF_0000 + t as u64, stop));
        }

        if !args.json {
            println!(
                "kmemstat: {} churn threads, {} ticks every {} ms\n",
                args.threads, args.count, args.interval_ms
            );
        }
        let header = format!(
            "{:>9} {:>5} {:>9} {:>5} {:>6} {:>5} {:>5} {:>7} {:>6} {:>5} {:>5} {:>6}",
            "allocs",
            "am%",
            "frees",
            "fm%",
            "refill",
            "short",
            "flush",
            "fl-blks",
            "spill",
            "pg+",
            "pg-",
            "phys"
        );
        let mut prev = arena.snapshot();
        for tick in 0..args.count {
            if !args.json && tick % 10 == 0 {
                println!("{header}");
            }
            std::thread::sleep(Duration::from_millis(args.interval_ms));
            let snap = arena.snapshot();
            // Live-sample invariants hold on every tick even though the
            // workload never pauses — see kmem::snapshot.
            snap.check_live().expect("live snapshot invariant");
            if args.json {
                println!("{}", snap.to_json());
            } else {
                let delta = snap.delta(&prev);
                println!("{}", tick_line(&delta, &snap));
            }
            prev = snap;
        }
        stop.store(true, Ordering::Relaxed);
    });
    // Churn is quiescent: the pump's drop runs one final settling drain,
    // so the closing tables see the mailbox fully drained.
    drop(pump);

    if args.json {
        return;
    }
    // Parting shot: cumulative per-CPU totals, the skew view.
    let end = arena.snapshot();
    println!("\nper-CPU cumulative totals:");
    println!(
        "{:>4} {:>10} {:>6} {:>10} {:>6} {:>7} {:>7} {:>5}",
        "cpu", "allocs", "am%", "frees", "fm%", "refill", "flush", "occ%"
    );
    for (cpu, t) in end.per_cpu_totals().iter().enumerate() {
        println!(
            "{cpu:>4} {:>10} {:>6.2} {:>10} {:>6.2} {:>7} {:>7} {:>5}",
            t.alloc,
            100.0 * t.alloc_layer().miss_rate(),
            t.free,
            100.0 * t.free_layer().miss_rate(),
            t.refill,
            t.flushes(),
            t.mean_occupancy()
                .map(|o| format!("{:.0}", 100.0 * o))
                .unwrap_or_else(|| "-".into()),
        );
    }
    // Per-node shard behaviour: one row on the default flat topology.
    println!("\nper-node global shards:");
    println!(
        "{:>4} {:>6} {:>10} {:>10} {:>7} {:>10}",
        "node", "blocks", "refills", "stolen", "steal%", "spilled"
    );
    for (node, n) in end.nodes.iter().enumerate() {
        let refills = n.local_refills + n.stolen_refills;
        let steal_pct = if refills == 0 {
            0.0
        } else {
            100.0 * n.stolen_refills as f64 / refills as f64
        };
        println!(
            "{node:>4} {:>6} {:>10} {:>10} {steal_pct:>7.2} {:>10}",
            n.shard_blocks, n.local_refills, n.stolen_refills, n.remote_spills,
        );
    }
    // Per-class global bound: where each class's shards let it grow
    // (`2 * gbltarget` until a spill is followed by a miss).
    println!("\nper-class global bound:");
    println!(
        "{:>6} {:>10} {:>7} {:>7} {:>7}",
        "size", "2*gbltgt", "bound", "grows", "resets"
    );
    for cs in &end.classes {
        println!(
            "{:>6} {:>10} {:>7} {:>7} {:>7}",
            cs.size,
            2 * cs.gbltarget,
            cs.global_bound,
            cs.global.bound_grows,
            cs.global.bound_resets,
        );
    }
    // Corruption-defense counters: all zero for a healthy workload, in
    // the default profile *and* under --hardened (where the defenses are
    // armed and a nonzero count would be a real detection).
    println!(
        "\nhardened profile ({}):",
        if args.hardened { "armed" } else { "off" }
    );
    println!(
        "{:>12} {:>12} {:>13} {:>15}",
        "corruption", "poison-hits", "encode-faults", "quarantine-len"
    );
    println!(
        "{:>12} {:>12} {:>13} {:>15}",
        end.corruption_reports, end.poison_hits, end.encode_faults, end.quarantine_len
    );
    // Maintenance-core counters: what the hot CPUs handed off and what
    // the background thread settled. With the core off, all zeros.
    let m = end.maint;
    println!(
        "\nmaintenance core ({}):",
        if m.enabled { "on" } else { "off" }
    );
    println!(
        "{:>10} {:>10} {:>10} {:>9}",
        "posted", "deduped", "drained", "backlog"
    );
    println!(
        "{:>10} {:>10} {:>10} {:>9}",
        m.posted, m.deduped, m.drained, m.backlog
    );
}
