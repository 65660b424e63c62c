//! Every metric the benchmark reports, by name.
//!
//! The end-to-end metrics carry the issue's normative names and each has
//! its own bound.  The driver contract wants one uniform set of metrics,
//! reported on every workload and never zero, while `solve_s` exists on
//! the four solve workloads only and `miss_s` on `serve-mix` only.  So
//! the contract's result line has four *slots* ([`SLOTS`]), each carrying
//! one issue metric per kind of workload.  A slot's bound is the driver's:
//! what single runs on the 2-vCPU shared host can hold (see the README);
//! `--aa` and reviews hold each metric to its own, tighter bound.
//! `req_per_s` has no counterpart on the solve workloads and is reported
//! and checked by `--aa` only; `fail_share` is the contract's own
//! `failed` ÷ `attempted`.  Every timing is paced by the host-speed probe
//! (`probe.rs`).

use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The workloads a metric is defined on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// All five.
    All,
    /// The four solve workloads.
    Solve,
    /// `serve-mix`.
    Serve,
}

impl On {
    /// Whether `workload` is one of them.
    pub fn covers(self, workload: Workload) -> bool {
        match self {
            On::All => true,
            On::Solve => workload != Workload::ServeMix,
            On::Serve => workload == Workload::ServeMix,
        }
    }

    fn label(self) -> &'static str {
        match self {
            On::All => "all workloads",
            On::Solve => "the four solve workloads",
            On::Serve => "serve-mix",
        }
    }
}

/// One end-to-end metric; the gated value is the median of a run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// The issue's name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Where it is defined.
    pub on: On,
    /// The contract metric that carries it in the result line.
    pub slot: Option<&'static str>,
    /// What it measures.
    pub meaning: &'static str,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        on: On::All,
        slot: Some("setup_s"),
        meaning: "validated Problem -> ready solver at 1 thread; serve-mix: Server::start -> \
                  first cold request fully served",
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.08,
        on: On::Solve,
        slot: Some("op_s"),
        meaning: "one complete solve at 1 thread, the plain single-thread baseline",
    },
    EndToEnd {
        name: "solve_t2_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.15,
        on: On::Solve,
        slot: Some("op_fast_s"),
        meaning: "the same solve at 2 threads",
    },
    EndToEnd {
        name: "miss_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.08,
        on: On::Serve,
        slot: Some("op_s"),
        meaning:
            "a cache-miss request of the miss/hit phase, POST -> last event -> outcome fetched",
    },
    EndToEnd {
        name: "hit_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        on: On::Serve,
        slot: Some("op_fast_s"),
        meaning: "the same for a cache-hit request of the hit-only phase",
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.08,
        on: On::Serve,
        slot: None,
        meaning: "requests completed per second of the miss/hit phase: clients / mean paced \
                  latency, so no slot of its own",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        on: On::All,
        slot: Some("peak_rss_mb"),
        meaning: "VmHWM of the one process that ran the workload: on a solve workload when it \
                  has set up and solved once at 1 thread, on serve-mix at exit",
    },
];

/// The end-to-end metric named `name`.
///
/// # Panics
/// Panics on a name that is not in [`END_TO_END`]: names come from this
/// program's own reports.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"))
}

/// The end-to-end metrics defined on `workload`.
pub fn end_to_end_on(workload: Workload) -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(move |m| m.on.covers(workload))
}

/// One metric of the contract's result line (an `end_to_end` entry of
/// `BENCHMARK.json`).  Unit and direction are its members'.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// Contract name.
    pub name: &'static str,
    /// Share of the parent's median by which the driver lets it worsen.
    pub bound: f64,
}

/// The contract's metrics, in result-line order.  The contract wants a
/// bound of three times the run-to-run spread of a run's median; with
/// every timing paced by the host-speed probe that spread is 2-6 % for
/// `op_s`, 3-14 % for `op_fast_s` (two busy threads on a shared host),
/// 1-9 % for `setup_s` and 0.2-2 % for `peak_rss_mb` (README, "Bounds").
pub const SLOTS: [Slot; 4] = [
    Slot {
        name: "setup_s",
        bound: 0.25,
    },
    Slot {
        name: "op_s",
        bound: 0.20,
    },
    Slot {
        name: "op_fast_s",
        bound: 0.25,
    },
    Slot {
        name: "peak_rss_mb",
        bound: 0.10,
    },
];

impl Slot {
    /// The metrics this slot carries.
    pub fn members(&self) -> impl Iterator<Item = &'static EndToEnd> + '_ {
        END_TO_END.iter().filter(|m| m.slot == Some(self.name))
    }
}

/// One per-layer metric of the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Name: `<crate>.<part>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `None`: measured on every workload and part of the contract's
    /// result line.  `Some(w)`: only `w` exercises the layer, so it is
    /// printed and written to the layers file on `w` alone.
    pub only_on: Option<Workload>,
}

const fn all(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        only_on: None,
    }
}

const fn only(workload: Workload, name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        only_on: Some(workload),
    }
}

use Better::{Higher, Lower};
use Workload::{ConvergeDsa, Jacobi2x2, ServeMix};

/// Every per-layer metric, in report order.
pub const LAYERS: &[Layer] = &[
    // Set-up, one span per public constructor.
    all("mesh.build_s", "s", Lower),
    all("fem.integrals_s", "s", Lower),
    all("sweep.schedule_build_s", "s", Lower),
    all("core.solver.new_s", "s", Lower),
    all("core.preassembly_s", "s", Lower),
    all("accel.build_s", "s", Lower),
    all("comm.jacobi.new_s", "s", Lower),
    // Schedule structure (exact).
    all("sweep.buckets", "count", Lower),
    all("sweep.bucket_tasks_mean", "count", Higher),
    // One local task, tight loops on one element.
    all("core.kernel.assemble_ns", "ns", Lower),
    all("core.kernel.assemble_blocked_ns", "ns", Lower),
    all("core.kernel.task_ns", "ns", Lower),
    all("core.kernel.flops_per_task", "count", Lower),
    all("core.kernel.bytes_per_task", "B", Lower),
    all("linalg.solve_ns.ge", "ns", Lower),
    all("linalg.solve_ns.lu", "ns", Lower),
    all("linalg.solve_ns.mkl", "ns", Lower),
    all("linalg.solve_gflops", "Gflop/s", Higher),
    all("core.kernel.solve_share", "ratio", Lower),
    // The hand-driven solve.
    all("core.sweep.count", "count", Lower),
    all("core.sweep.tasks", "count", Lower),
    all("core.sweep.busy_s", "s", Lower),
    all("core.sweep.p50_s", "s", Lower),
    all("core.sweep.task_ns", "ns", Lower),
    all("core.sweep.tasks_per_s", "1/s", Higher),
    all("core.sweep.tasks_per_s_t2", "1/s", Higher),
    all("core.sweep.overhead_share", "ratio", Lower),
    all("core.sweep.scaling_eff_t2", "ratio", Higher),
    all("core.source.busy_s", "s", Lower),
    all("core.converge.busy_s", "s", Lower),
    all("core.session.overhead_share", "ratio", Lower),
    // Iteration counts and the layers only converge-dsa exercises.
    only(ConvergeDsa, "core.strategy.si.sweeps", "count", Lower),
    only(ConvergeDsa, "core.strategy.dsa-si.sweeps", "count", Lower),
    only(ConvergeDsa, "core.strategy.gmres.sweeps", "count", Lower),
    only(ConvergeDsa, "accel.cg.iters", "count", Lower),
    only(ConvergeDsa, "accel.cg.busy_s", "s", Lower),
    only(ConvergeDsa, "krylov.gmres.iters", "count", Lower),
    only(ConvergeDsa, "krylov.gmres.self_s", "s", Lower),
    only(ConvergeDsa, "krylov.gmres.solve_s", "s", Lower),
    // Block Jacobi.
    only(Jacobi2x2, "comm.halo.exchanges", "count", Lower),
    only(Jacobi2x2, "comm.halo.faces", "count", Lower),
    only(Jacobi2x2, "comm.halo.bytes", "B", Lower),
    only(Jacobi2x2, "comm.halo.busy_s", "s", Lower),
    all("comm.halo.pack_ns", "ns", Lower),
    only(Jacobi2x2, "comm.jacobi.vs_single", "ratio", Lower),
    only(Jacobi2x2, "comm.jacobi.vs_single_t2", "ratio", Lower),
    only(Jacobi2x2, "comm.jacobi.scaling_eff_t2", "ratio", Higher),
    // The request path: pure functions on every workload's own problem
    // and outcome, the server's own numbers on serve-mix.
    all("core.outcome.render_s", "s", Lower),
    all("core.outcome.bytes", "B", Lower),
    all("obs.json.parse_mb_per_s", "MB/s", Higher),
    all("serve.wire.parse_ns", "ns", Lower),
    all("serve.hash_ns", "ns", Lower),
    only(ServeMix, "serve.http.post_p50_s", "s", Lower),
    only(ServeMix, "serve.outcome.fetch_p50_s", "s", Lower),
    only(ServeMix, "serve.outcome.bytes", "B", Lower),
    only(ServeMix, "serve.queue.wait_p50_s", "s", Lower),
    only(ServeMix, "serve.ttfe_p50_s", "s", Lower),
    only(ServeMix, "serve.job.run_p50_s", "s", Lower),
    only(ServeMix, "serve.workers.busy_share", "ratio", Lower),
    only(ServeMix, "serve.store.hits", "count", Higher),
    only(ServeMix, "serve.store.misses", "count", Lower),
    only(ServeMix, "serve.store.hit_ratio", "ratio", Higher),
    only(ServeMix, "serve.rejected", "count", Lower),
    // Durability is off in all five workloads: sizing only.
    only(ConvergeDsa, "runlog.checkpoint.count", "count", Lower),
    only(ConvergeDsa, "runlog.checkpoint.bytes", "B", Lower),
    only(ConvergeDsa, "runlog.checkpoint.overhead_s", "s", Lower),
    only(ConvergeDsa, "runlog.recover_s", "s", Lower),
    // The harness's own cost.
    all("obs.trace.spans", "count", Lower),
    all("obs.trace.dropped", "count", Lower),
    all("obs.trace.overhead_share", "ratio", Lower),
];

/// The per-layer metrics of the contract's result line.
pub fn contract_layers() -> impl Iterator<Item = &'static Layer> {
    LAYERS.iter().filter(|l| l.only_on.is_none())
}

/// The per-layer metrics the traced pass of `workload` must produce.
pub fn layers_for(workload: Workload) -> impl Iterator<Item = &'static Layer> {
    LAYERS
        .iter()
        .filter(move |l| l.only_on.is_none() || l.only_on == Some(workload))
}

/// `--list`: every workload, every end-to-end metric with unit,
/// direction and bound, every per-layer metric name.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in Workload::ALL {
        out.push_str(&format!("  {:<13} {}\n", w.name(), w.why()));
    }
    out.push_str(
        "end-to-end metrics (gated on the median of a run; every timing at the host-speed \
         probe's reference speed, see the README):\n",
    );
    for m in &END_TO_END {
        let sign = if m.better == Better::Lower { '+' } else { '-' };
        let slot = match m.slot {
            Some(slot) => format!("result-line slot {slot}"),
            None => "report and --aa only".to_string(),
        };
        out.push_str(&format!(
            "  {:<12} {:<4} better={:<6} bound={sign}{:.0}%  on {}; {slot}: {}\n",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.on.label(),
            m.meaning
        ));
    }
    out.push_str(
        "  fail_share        operations failed / attempted: the result line's `failed` and \
         `attempted`; any failure exits non-zero\n",
    );
    out.push_str("result-line slots (the end_to_end list of BENCHMARK.json):\n");
    for slot in &SLOTS {
        let members: Vec<&str> = slot.members().map(|m| m.name).collect();
        out.push_str(&format!(
            "  {:<12} bound={:.0}%  carries {}\n",
            slot.name,
            slot.bound * 100.0,
            members.join(" | ")
        ));
    }
    out.push_str("per-layer metrics (traced pass, --trace 1):\n");
    for l in LAYERS {
        let scope = match l.only_on {
            None => "all workloads, in the result line".to_string(),
            Some(w) => format!("{} only, in the table and the layers file", w.name()),
        };
        out.push_str(&format!(
            "  {:<32} {:<8} better={:<6} {scope}\n",
            l.name,
            l.unit,
            l.better.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unsnap_obs::reader::{self, JsonValue};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_alphabet_and_are_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(LAYERS.iter().map(|l| l.name));
        for name in names.iter().copied().chain(SLOTS.iter().map(|s| s.name)) {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(LAYERS.iter().map(|l| l.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        assert!(contract_layers().count() <= 128);
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        assert_eq!(SLOTS[0].name, "setup_s");
        for slot in &SLOTS {
            assert!(slot.bound > 0.0 && slot.bound <= 0.25);
            assert!(slot.bound <= SLOTS[0].bound);
        }
        let setup = end_to_end("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= setup.bound);
        }
    }

    /// The result line must carry every slot on every workload, so each
    /// slot has exactly one member per workload, of one unit and direction
    /// and of a bound no wider than the slot's.
    #[test]
    fn every_slot_has_one_member_on_every_workload() {
        for slot in &SLOTS {
            let first = slot.members().next().unwrap();
            for w in Workload::ALL {
                let members: Vec<&EndToEnd> = slot.members().filter(|m| m.on.covers(w)).collect();
                assert_eq!(members.len(), 1, "{} on {}", slot.name, w.name());
                let m = members[0];
                assert_eq!((m.unit, m.better), (first.unit, first.better));
                assert!(m.bound <= slot.bound);
            }
        }
        for m in &END_TO_END {
            assert!(m
                .slot
                .is_none_or(|slot| SLOTS.iter().any(|s| s.name == slot)));
        }
        assert_eq!(
            end_to_end_on(Workload::ServeMix).count(),
            5,
            "setup_s, miss_s, hit_s, req_per_s, peak_rss_mb"
        );
        assert_eq!(end_to_end_on(Workload::SweepCubic).count(), 4);
    }

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        doc.get(key).and_then(JsonValue::as_array).unwrap()
    }

    fn text<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
        entry.get(key).and_then(JsonValue::as_str).unwrap()
    }

    /// `BENCHMARK.json` must say what the binary prints: same names, same
    /// units, directions, bounds and reasons, in the same order.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = reader::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(text(entry, "name"), w.name());
            assert_eq!(text(entry, "why"), w.why());
        }

        let end_to_end = entries(&doc, "end_to_end");
        assert_eq!(end_to_end.len(), SLOTS.len());
        for (entry, slot) in end_to_end.iter().zip(&SLOTS) {
            let member = slot.members().next().unwrap();
            assert_eq!(text(entry, "name"), slot.name);
            assert_eq!(text(entry, "unit"), member.unit);
            assert_eq!(text(entry, "better"), member.better.label());
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(slot.bound)
            );
        }

        let per_layer = entries(&doc, "per_layer");
        let ours: Vec<&Layer> = contract_layers().collect();
        assert_eq!(per_layer.len(), ours.len());
        for (entry, l) in per_layer.iter().zip(ours) {
            assert_eq!(text(entry, "name"), l.name);
            assert_eq!(text(entry, "unit"), l.unit);
            assert_eq!(text(entry, "better"), l.better.label());
        }

        let paths = entries(&doc, "paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let listing = list();
        for name in Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(SLOTS.iter().map(|s| s.name))
            .chain(LAYERS.iter().map(|l| l.name))
        {
            assert!(listing.contains(name), "--list omits {name}");
        }
    }
}
