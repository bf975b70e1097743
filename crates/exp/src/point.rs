//! One grid point: its identity (content hash) and its execution.

use diq_core::SchedulerConfig;
use diq_isa::ProcessorConfig;
use diq_pipeline::{SimStats, Simulator, StageProfile, TraceSource};
use diq_workload::{trace, TraceReader, WorkloadSource, WorkloadSpec};
use serde::json::Writer;
use serde::{Deserialize, Serialize};

/// 64-bit FNV-1a over `bytes` — the store's content hash, the same
/// function the trace format chains its checksums with. Small, stable,
/// dependency-free; collisions across a few thousand grid points are not a
/// realistic concern, and a collision would only ever skip a recompute.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    trace::fnv1a64(trace::FNV_OFFSET, bytes)
}

/// One fully-resolved simulation point of an experiment grid.
///
/// The workload source carried here is self-contained: a generated source
/// already has its *effective* seed (base workload seed shifted by the
/// spec's seed), and a trace source carries the trace's content hash — so
/// two points with equal [`key`](Point::key)s produce byte-identical
/// results. Points serialize in full — the `diq serve` wire protocol ships
/// them to workers, which recompute the same [`key`](Point::key) on their
/// side.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// The issue scheme under test.
    pub scheme: SchedulerConfig,
    /// The workload source, with the effective per-point seed applied.
    pub source: WorkloadSource,
    /// Instructions to simulate.
    pub instructions: u64,
    /// The (possibly knob-overridden) machine.
    pub machine: ProcessorConfig,
    /// Display label of the machine override set (`"table1"` when stock).
    pub machine_label: String,
}

impl Point {
    /// A generated-workload point on the stock Table 1 machine.
    #[must_use]
    pub fn new(
        machine: ProcessorConfig,
        scheme: SchedulerConfig,
        workload: WorkloadSpec,
        instructions: u64,
    ) -> Self {
        Point::from_source(
            machine,
            scheme,
            WorkloadSource::Spec(workload),
            instructions,
        )
    }

    /// A point over any resolved workload source on the stock machine.
    #[must_use]
    pub fn from_source(
        machine: ProcessorConfig,
        scheme: SchedulerConfig,
        source: WorkloadSource,
        instructions: u64,
    ) -> Self {
        Point {
            scheme,
            source,
            instructions,
            machine,
            machine_label: "table1".to_string(),
        }
    }

    /// The workload name runs report (the benchmark column).
    #[must_use]
    pub fn benchmark(&self) -> &str {
        self.source.name()
    }

    /// The effective seed of this point's instruction stream.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.source.seed()
    }

    /// The canonical identity of this point: a JSON rendering of everything
    /// that affects its result. Hashed for the store key; field order is
    /// fixed, so the text (and hence the key) is stable.
    ///
    /// The text is a fixed frame around three component renders:
    /// `{"scheme":S,"workload":W,"instructions":N,"machine":M}`, each of
    /// `S`, `W` and `M` the compact JSON of that component alone.
    ///
    /// Generated sources render exactly as the spec itself (byte-identical
    /// to the pre-`WorkloadSource` format, so existing stores stay warm).
    /// Trace sources render as `{"trace": {...}}` over the fields that
    /// determine the replayed stream — including the trace's *content
    /// hash*, never its file path: renaming a trace cannot miss the cache,
    /// and two different traces under one name cannot collide.
    #[must_use]
    pub fn identity_json(&self) -> String {
        let parts = self.identity_parts();
        let mut text = String::new();
        parts.pieces(self.instructions, |piece| text.push_str(piece));
        text
    }

    /// The content-addressed store key: 16 hex digits of FNV-1a over
    /// [`identity_json`](Point::identity_json).
    #[must_use]
    pub fn key(&self) -> String {
        self.identity_parts().key(self.instructions)
    }

    /// The store keys of a batch of points, in order: `keys(points)[i] ==
    /// points[i].key()`. Each distinct scheme, workload and machine of the
    /// batch is rendered once (a grid has few of each). The identity texts
    /// are laid out four at a time in reused buffers and hashed in lockstep
    /// ([`trace::fnv1a64_x4`]).
    #[must_use]
    pub fn keys(points: &[Point]) -> Vec<String> {
        let mut schemes = Renders { seen: Vec::new() };
        let mut workloads = Renders { seen: Vec::new() };
        let mut machines = Renders { seen: Vec::new() };
        let mut texts: [Vec<u8>; 4] = Default::default();
        let mut keys = Vec::with_capacity(points.len());
        for group in points.chunks(4) {
            for (text, p) in texts.iter_mut().zip(group) {
                text.clear();
                IdentityParts {
                    scheme: schemes.get(&p.scheme, render_scheme),
                    workload: workloads.get(&p.source, render_workload),
                    machine: machines.get(&p.machine, render_machine),
                }
                .pieces(p.instructions, |piece| {
                    text.extend_from_slice(piece.as_bytes());
                });
            }
            // In a short last group the spare lanes still hold earlier
            // texts; their hashes are dropped.
            let hashes = trace::fnv1a64_x4(texts.each_ref().map(Vec::as_slice));
            keys.extend(hashes[..group.len()].iter().map(|h| format!("{h:016x}")));
        }
        keys
    }

    fn identity_parts(&self) -> IdentityParts<String> {
        IdentityParts {
            scheme: render_scheme(&self.scheme),
            workload: render_workload(&self.source),
            machine: render_machine(&self.machine),
        }
    }

    /// Runs the simulation for this point. Streaming: generated sources
    /// produce instructions on the fly and trace sources decode one block
    /// at a time, so memory use is independent of `instructions`.
    ///
    /// With the machine's `wrong_path` knob on, the source runs in
    /// speculative mode so fetch can follow mispredicted paths; otherwise
    /// the legacy stall model consumes a plain stream.
    ///
    /// # Panics
    ///
    /// For trace sources: when the file cannot be opened, its content hash
    /// no longer matches the hash captured at resolution time, or an I/O or
    /// corruption error interrupts the replay. A point's result must be a
    /// faithful run of its identity; a damaged trace cannot be.
    #[must_use]
    pub fn execute(&self) -> SimStats {
        self.execute_profiled().0
    }

    /// [`execute`](Point::execute), also returning the run's per-stage
    /// wall-clock profile (all zeros unless [`StageProfile::ENABLED`]).
    /// Panics as `execute` does.
    #[must_use]
    pub fn execute_profiled(&self) -> (SimStats, StageProfile) {
        let mut sim = Simulator::new(&self.machine, &self.scheme);
        sim.set_benchmark(self.benchmark());
        let stats = match &self.source {
            WorkloadSource::Spec(spec) => {
                if self.machine.wrong_path {
                    let mut program = diq_workload::TraceGenerator::new(spec);
                    sim.run_workload(&mut program, self.instructions)
                } else {
                    let trace =
                        diq_workload::TraceGenerator::new(spec).take(self.instructions as usize);
                    sim.run_workload(&mut TraceSource::new(trace), self.instructions)
                }
            }
            WorkloadSource::Trace(t) => {
                let mut reader =
                    TraceReader::open(&t.path).unwrap_or_else(|e| panic!("trace {}: {e}", t.path));
                assert_eq!(
                    reader.meta().content,
                    t.content,
                    "trace {} changed since resolution (content hash mismatch)",
                    t.path
                );
                reader.set_speculative(self.machine.wrong_path);
                reader.set_limit(self.instructions);
                let stats = sim.run_workload(&mut reader, self.instructions);
                if let Some(e) = reader.error() {
                    panic!("trace {} failed mid-replay: {e}", t.path);
                }
                stats
            }
        };
        (stats, sim.take_stage_profile())
    }
}

/// The three component renders of a point identity.
struct IdentityParts<S> {
    scheme: S,
    workload: S,
    machine: S,
}

impl<S: AsRef<str>> IdentityParts<S> {
    /// Feeds the identity text to `sink` piece by piece, in text order:
    /// the fixed frame with the component renders and the instruction
    /// count in their slots.
    fn pieces(&self, instructions: u64, mut sink: impl FnMut(&str)) {
        sink("{\"scheme\":");
        sink(self.scheme.as_ref());
        sink(",\"workload\":");
        sink(self.workload.as_ref());
        sink(",\"instructions\":");
        sink(&instructions.to_string());
        sink(",\"machine\":");
        sink(self.machine.as_ref());
        sink("}");
    }

    /// FNV-1a over the identity text, chained through its pieces.
    fn key(&self, instructions: u64) -> String {
        let mut h = trace::FNV_OFFSET;
        self.pieces(instructions, |piece| {
            h = trace::fnv1a64(h, piece.as_bytes())
        });
        format!("{h:016x}")
    }
}

fn render_scheme(scheme: &SchedulerConfig) -> String {
    serde_json::to_string(scheme).expect("identity serializes")
}

fn render_workload(source: &WorkloadSource) -> String {
    match source {
        WorkloadSource::Spec(spec) => serde_json::to_string(spec).expect("identity serializes"),
        WorkloadSource::Trace(t) => {
            let mut w = Writer::compact();
            w.begin_map();
            w.map_key("trace");
            w.begin_map();
            w.map_key("name");
            w.str(&t.name);
            w.map_key("content");
            w.u64(t.content);
            w.map_key("instructions");
            w.u64(t.instructions);
            w.map_key("seed");
            w.u64(t.seed);
            w.end_map();
            w.end_map();
            w.into_string()
        }
    }
}

fn render_machine(machine: &ProcessorConfig) -> String {
    serde_json::to_string(machine).expect("identity serializes")
}

/// One component's renders over a batch, each distinct value (by
/// `PartialEq`) rendered once.
struct Renders<'a, T> {
    seen: Vec<(&'a T, String)>,
}

impl<'a, T: PartialEq> Renders<'a, T> {
    fn get(&mut self, value: &'a T, render: fn(&T) -> String) -> &str {
        let i = match self.seen.iter().position(|(v, _)| *v == value) {
            Some(i) => i,
            None => {
                self.seen.push((value, render(value)));
                self.seen.len() - 1
            }
        };
        &self.seen[i].1
    }
}

/// The stored, machine-readable result of one point — the flattened subset
/// of [`SimStats`] the aggregation and comparison layers consume.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PointResult {
    /// Scheme label (e.g. `MB_distr`).
    pub scheme: String,
    /// Workload name.
    pub benchmark: String,
    /// Instructions simulated.
    pub instructions: u64,
    /// Machine override label (`"table1"` when stock).
    pub machine: String,
    /// Effective workload seed.
    pub seed: u64,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Issued instructions.
    pub issued: u64,
    /// Cycles dispatch presented an instruction the scheduler refused.
    pub dispatch_stall_cycles: u64,
    /// Mispredictions that redirected fetch.
    pub mispredict_redirects: u64,
    /// Branch-predictor accuracy in [0, 1].
    pub branch_accuracy: f64,
    /// L1 data-cache miss rate in [0, 1].
    pub dl1_miss_rate: f64,
    /// L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
    /// Total issue-queue energy (pJ).
    pub energy_pj: f64,
    /// Per-component energy `(paper label, pJ)`, in the paper's stacking
    /// order.
    pub energy_breakdown: Vec<(String, f64)>,
    /// Store-to-load forwards.
    pub lsq_forwards: u64,
    /// Dataflow-checker violations (must be 0).
    pub checker_violations: u64,
    /// Wrong-path instructions issued (zero under the stall model).
    #[serde(default)]
    pub wrong_path_issued: u64,
    /// Wrong-path instructions squashed at recoveries (zero under the stall
    /// model).
    #[serde(default)]
    pub wrong_path_squashed: u64,
    /// Instructions replayed by load-hit speculation (zero under the
    /// oracle-latency model).
    #[serde(default)]
    pub replayed: u64,
    /// Cycles lost between cancelled speculative issues and their confirmed
    /// re-issues (zero under the oracle-latency model).
    #[serde(default)]
    pub replay_cycles_lost: u64,
    /// Powered-bank resizes by an adaptive-geometry controller (zero for
    /// static schemes or a disabled controller).
    #[serde(default)]
    pub resize_events: u64,
    /// Bank-cycles spent power-gated by an adaptive-geometry controller.
    #[serde(default)]
    pub gated_bank_cycles: u64,
}

impl PointResult {
    /// Flattens a finished simulation into its stored form.
    #[must_use]
    pub fn from_stats(point: &Point, stats: &SimStats) -> Self {
        PointResult {
            scheme: point.scheme.label(),
            benchmark: point.benchmark().to_string(),
            instructions: point.instructions,
            machine: point.machine_label.clone(),
            seed: point.seed(),
            ipc: stats.ipc(),
            cycles: stats.cycles,
            committed: stats.committed,
            issued: stats.issued,
            dispatch_stall_cycles: stats.dispatch_stall_cycles,
            mispredict_redirects: stats.mispredict_redirects,
            branch_accuracy: stats.branch.accuracy(),
            dl1_miss_rate: stats.dl1.miss_rate(),
            l2_miss_rate: stats.l2.miss_rate(),
            energy_pj: stats.energy_pj(),
            energy_breakdown: stats
                .energy
                .breakdown()
                .map(|(c, pj)| (c.paper_label().to_string(), pj))
                .collect(),
            lsq_forwards: stats.lsq_forwards,
            checker_violations: stats.checker_violations,
            wrong_path_issued: stats.wrong_path_issued,
            wrong_path_squashed: stats.wrong_path_squashed,
            replayed: stats.replayed,
            replay_cycles_lost: stats.replay_cycles_lost,
            resize_events: stats.resize_events,
            gated_bank_cycles: stats.gated_bank_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diq_workload::suite;

    fn point() -> Point {
        Point::new(
            ProcessorConfig::hpca2004(),
            SchedulerConfig::mb_distr(),
            suite::by_name("gzip").unwrap(),
            500,
        )
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        let p = point();
        assert_eq!(p.key(), point().key());
        assert_eq!(p.key().len(), 16);

        let mut other = point();
        other.instructions = 501;
        assert_ne!(p.key(), other.key(), "instruction count is identity");

        let mut other = point();
        other.machine.rob_entries = 128;
        assert_ne!(p.key(), other.key(), "machine knobs are identity");

        let mut other = point();
        match &mut other.source {
            WorkloadSource::Spec(s) => s.seed ^= 1,
            WorkloadSource::Trace(_) => unreachable!(),
        }
        assert_ne!(p.key(), other.key(), "seed is identity");

        let mut other = point();
        other.scheme = SchedulerConfig::iq_64_64();
        assert_ne!(p.key(), other.key(), "scheme is identity");
    }

    #[test]
    fn point_round_trips_over_the_wire_with_its_key() {
        // The serve protocol ships whole points to workers; the worker-side
        // deserialization must reproduce the point (and hence its store key)
        // exactly.
        let p = point();
        let json = serde_json::to_string(&p).unwrap();
        let back: Point = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.key(), p.key());
        assert_eq!(back.machine_label, p.machine_label);
    }

    #[test]
    fn execute_produces_committed_run() {
        let p = point();
        let stats = p.execute();
        assert_eq!(stats.committed, 500);
        assert_eq!(stats.checker_violations, 0);
        let r = PointResult::from_stats(&p, &stats);
        assert_eq!(r.scheme, "MB_distr");
        assert_eq!(r.benchmark, "gzip");
        assert!(r.ipc > 0.0);
        // breakdown() yields only the components this scheme exercises.
        assert!(!r.energy_breakdown.is_empty());
        assert!(r.energy_breakdown.iter().all(|(_, pj)| *pj > 0.0));
        let sum: f64 = r.energy_breakdown.iter().map(|(_, pj)| pj).sum();
        assert!((sum - r.energy_pj).abs() < 1e-6 * r.energy_pj);
    }
}
