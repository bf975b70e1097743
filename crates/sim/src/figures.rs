//! One constructor per paper artifact.
//!
//! Each function runs whatever simulations it needs through the shared
//! [`Harness`] (cached, parallel) and returns a [`Figure`] whose rows are
//! shaped like the paper's plot: per-benchmark series plus the aggregate the
//! paper reports (harmonic-mean IPC, suite-mean normalized metrics, …).
//! Paper-reported reference values are attached as notes so text output is
//! self-checking.

use crate::{ChipEnergy, Figure, Harness};
use diq_core::SchedulerConfig;
use diq_pipeline::SimStats;
use diq_power::{EnergyMeter, ALL_COMPONENTS};
use diq_stats::{arithmetic_mean, harmonic_mean, pct_loss};
use diq_workload::{suite, WorkloadSpec};
use std::sync::Arc;

/// The queue-count × queue-size sweep of Figures 2–4 and 6:
/// {8, 10, 12} queues × {8, 16} entries.
fn sweep() -> Vec<(usize, usize)> {
    vec![(8, 8), (8, 16), (10, 8), (10, 16), (12, 8), (12, 16)]
}

/// Builds an "% IPC loss w.r.t. the unbounded baseline" figure.
fn ipc_loss_figure(
    id: &str,
    title: &str,
    harness: &Harness,
    bench_suite: &[WorkloadSpec],
    configs: &[SchedulerConfig],
) -> Figure {
    let baseline = SchedulerConfig::unbounded_baseline();
    let mut all: Vec<SchedulerConfig> = vec![baseline.clone()];
    all.extend_from_slice(configs);
    let matrix = harness.run_matrix(&all, bench_suite);

    let mut headers = vec!["benchmark".to_string()];
    headers.extend(configs.iter().map(SchedulerConfig::label));
    let mut fig = Figure::new(id, title, headers);
    for (b, bench) in bench_suite.iter().enumerate() {
        let base_ipc = matrix[0][b].ipc();
        let mut cells = vec![bench.name.clone()];
        for row in matrix.iter().skip(1) {
            cells.push(format!("{:.1}%", pct_loss(base_ipc, row[b].ipc())));
        }
        fig.row(cells);
    }
    // Aggregate row: loss of harmonic-mean IPC, as the paper's bars imply.
    let base_hm = harmonic_mean(matrix[0].iter().map(|r| r.ipc())).expect("ipcs");
    let mut cells = vec!["HARMEAN".to_string()];
    for row in matrix.iter().skip(1) {
        let hm = harmonic_mean(row.iter().map(|r| r.ipc())).expect("ipcs");
        cells.push(format!("{:.1}%", pct_loss(base_hm, hm)));
    }
    fig.row(cells);
    fig
}

/// Table 1 — the processor configuration.
#[must_use]
pub fn table1(harness: &Harness) -> Figure {
    let c = harness.config();
    let mut fig = Figure::new(
        "tab1",
        "Processor configuration",
        vec!["parameter".into(), "configuration".into()],
    );
    let rows: Vec<(String, String)> = vec![
        (
            "fetch/decode/commit width".into(),
            format!("{} instructions", c.fetch_width),
        ),
        (
            "issue width".into(),
            format!("{} integer + {} FP", c.issue_width_int, c.issue_width_fp),
        ),
        (
            "branch predictor".into(),
            format!(
                "hybrid: {}-entry gshare, {}-entry bimodal, {}-entry selector",
                c.branch.gshare_entries, c.branch.bimodal_entries, c.branch.selector_entries
            ),
        ),
        (
            "BTB".into(),
            format!(
                "{} entries, {}-way",
                c.branch.btb_entries, c.branch.btb_assoc
            ),
        ),
        (
            "L1 I-cache".into(),
            format!(
                "{}K, {}-way, {} B/line, {} cycle",
                c.mem.il1.size_bytes / 1024,
                c.mem.il1.assoc,
                c.mem.il1.line_bytes,
                c.mem.il1.latency
            ),
        ),
        (
            "L1 D-cache".into(),
            format!(
                "{}K, {}-way, {} B/line, {} cycles, {} R/W ports",
                c.mem.dl1.size_bytes / 1024,
                c.mem.dl1.assoc,
                c.mem.dl1.line_bytes,
                c.mem.dl1.latency,
                c.mem.dl1.ports
            ),
        ),
        (
            "L2 unified".into(),
            format!(
                "{}K, {}-way, {} B/line, {} cycles",
                c.mem.l2.size_bytes / 1024,
                c.mem.l2.assoc,
                c.mem.l2.line_bytes,
                c.mem.l2.latency
            ),
        ),
        (
            "main memory".into(),
            format!(
                "{} B bandwidth, {} cycles first chunk, {} inter-chunk",
                c.mem.main.chunk_bytes, c.mem.main.first_chunk, c.mem.main.inter_chunk
            ),
        ),
        ("fetch queue".into(), format!("{} entries", c.fetch_queue)),
        (
            "reorder buffer".into(),
            format!("{} entries", c.rob_entries),
        ),
        (
            "registers".into(),
            format!(
                "{} INT + {} FP (energy model; window is RUU-style)",
                diq_isa::TABLE1_REGISTERS,
                diq_isa::TABLE1_REGISTERS
            ),
        ),
        (
            "INT functional units".into(),
            format!(
                "{} ALU ({} cycle), {} mult/div ({}-cycle mult, {}-cycle div)",
                c.fus.int_alu, c.lat.int_alu, c.fus.int_mul_div, c.lat.int_mul, c.lat.int_div
            ),
        ),
        (
            "FP functional units".into(),
            format!(
                "{} ALU ({} cycles), {} mult/div ({}-cycle mult, {}-cycle div)",
                c.fus.fp_add, c.lat.fp_add, c.fus.fp_mul_div, c.lat.fp_mul, c.lat.fp_div
            ),
        ),
        ("technology".into(), "0.10 um".into()),
    ];
    for (k, v) in rows {
        fig.row(vec![k, v]);
    }
    fig
}

/// Figure 2 — IPC loss of IssueFIFO w.r.t. the unbounded conventional queue
/// (SPECint), sweeping the *integer* queues (FP fixed at 16×16).
#[must_use]
pub fn fig2(harness: &Harness) -> Figure {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::issue_fifo(q, e, 16, 16))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig2",
        "IPC loss of IssueFIFO w.r.t. unbounded conventional issue queue (SPECint)",
        harness,
        &suite::spec_int(),
        &configs,
    );
    fig.note("paper: losses are small (0–8%); more queues help, larger queues barely do");
    fig
}

/// Figure 3 — IPC loss of IssueFIFO (SPECfp), sweeping the *FP* queues
/// (integer fixed at 16×16).
#[must_use]
pub fn fig3(harness: &Harness) -> Figure {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::issue_fifo(16, 16, q, e))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig3",
        "IPC loss of IssueFIFO w.r.t. unbounded conventional issue queue (SPECfp)",
        harness,
        &suite::spec_fp(),
        &configs,
    );
    fig.note("paper: FP losses are much larger than integer ones (up to ~25%)");
    fig
}

/// Figure 4 — IPC loss of LatFIFO (SPECfp).
#[must_use]
pub fn fig4(harness: &Harness) -> Figure {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::lat_fifo(16, 16, q, e))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig4",
        "IPC loss of LatFIFO w.r.t. unbounded conventional issue queue (SPECfp)",
        harness,
        &suite::spec_fp(),
        &configs,
    );
    fig.note("paper: ~10% better than IssueFIFO on average; queue size hardly matters");
    fig
}

/// Figure 6 — IPC loss of MixBUFF (SPECfp), unbounded chains per queue.
#[must_use]
pub fn fig6(harness: &Harness) -> Figure {
    let configs: Vec<SchedulerConfig> = sweep()
        .into_iter()
        .map(|(q, e)| SchedulerConfig::mix_buff(16, 16, q, e, None))
        .collect();
    let mut fig = ipc_loss_figure(
        "fig6",
        "IPC loss of MixBUFF w.r.t. unbounded conventional issue queue (SPECfp)",
        harness,
        &suite::spec_fp(),
        &configs,
    );
    fig.note("paper: 8 queues x 16 entries loses only ~5%; buffer size matters more than count");
    fig
}

/// The numeric claims sprinkled through Section 3's prose.
#[must_use]
pub fn section3_claims(harness: &Harness) -> Figure {
    let int_suite = suite::spec_int();
    let fp_suite = suite::spec_fp();
    let base = SchedulerConfig::unbounded_baseline();

    let hm = |sc: &SchedulerConfig, suite: &[WorkloadSpec]| -> f64 {
        harmonic_mean(harness.run_suite(sc, suite).iter().map(|r| r.ipc())).expect("ipcs")
    };
    let base_int = hm(&base, &int_suite);
    let base_fp = hm(&base, &fp_suite);

    let mut fig = Figure::new(
        "sec3",
        "Section 3 prose claims",
        vec!["claim".into(), "paper".into(), "measured".into()],
    );

    // (a) Integer FIFOs: 8→16 entries improves ~0.1% for 8/10/12 queues.
    for q in [8usize, 10, 12] {
        let small = hm(&SchedulerConfig::issue_fifo(q, 8, 16, 16), &int_suite);
        let large = hm(&SchedulerConfig::issue_fifo(q, 16, 16, 16), &int_suite);
        fig.row(vec![
            format!("IssueFIFO int {q} queues, 8->16 entries IPC gain"),
            "+0.1%".into(),
            format!("{:+.2}%", 100.0 * (large - small) / small),
        ]);
    }

    // (b) LatFIFO ≈ 10% better than IssueFIFO on FP (average over sweep).
    let mut gains = Vec::new();
    for (q, e) in sweep() {
        let iff = hm(&SchedulerConfig::issue_fifo(16, 16, q, e), &fp_suite);
        let lat = hm(&SchedulerConfig::lat_fifo(16, 16, q, e), &fp_suite);
        gains.push(100.0 * (lat - iff) / iff);
    }
    fig.row(vec![
        "LatFIFO IPC vs IssueFIFO (SPECfp, sweep average)".into(),
        "~ +10%".into(),
        format!(
            "{:+.1}%",
            arithmetic_mean(gains.iter().copied()).expect("gains")
        ),
    ]);

    // (c) With 8 FP queues of 16 entries: MixBUFF 5.2%, IssueFIFO 24.8%,
    //     LatFIFO 15.2% loss.
    for (label, sc, paper) in [
        (
            "MixBUFF_16x16_8x16 FP loss",
            SchedulerConfig::mix_buff(16, 16, 8, 16, None),
            "5.2%",
        ),
        (
            "IssueFIFO_16x16_8x16 FP loss",
            SchedulerConfig::issue_fifo(16, 16, 8, 16),
            "24.8%",
        ),
        (
            "LatFIFO_16x16_8x16 FP loss",
            SchedulerConfig::lat_fifo(16, 16, 8, 16),
            "15.2%",
        ),
    ] {
        let v = hm(&sc, &fp_suite);
        fig.row(vec![
            label.into(),
            paper.into(),
            format!("{:.1}%", pct_loss(base_fp, v)),
        ]);
    }
    let _ = base_int;
    fig
}

/// An IPC-per-benchmark figure (Figures 7 and 8).
fn ipc_figure(id: &str, title: &str, harness: &Harness, bench_suite: &[WorkloadSpec]) -> Figure {
    let schemes = [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
    ];
    let matrix = harness.run_matrix(&schemes, bench_suite);
    let mut headers = vec!["benchmark".to_string()];
    headers.extend(schemes.iter().map(SchedulerConfig::label));
    let mut fig = Figure::new(id, title, headers);
    for (b, bench) in bench_suite.iter().enumerate() {
        let mut cells = vec![bench.name.clone()];
        for row in &matrix {
            cells.push(format!("{:.2}", row[b].ipc()));
        }
        fig.row(cells);
    }
    let mut cells = vec!["HARMEAN".to_string()];
    for row in &matrix {
        cells.push(format!(
            "{:.2}",
            harmonic_mean(row.iter().map(|r| r.ipc())).expect("ipcs")
        ));
    }
    fig.row(cells);
    fig
}

/// Figure 7 — IPC for the integer benchmarks.
#[must_use]
pub fn fig7(harness: &Harness) -> Figure {
    let mut fig = ipc_figure(
        "fig7",
        "Performance for the integer benchmarks (IPC)",
        harness,
        &suite::spec_int(),
    );
    fig.note("paper: IF_distr and MB_distr behave identically on SPECint (except eon) and lose ~7.7% vs IQ_64_64");
    fig
}

/// Figure 8 — IPC for the FP benchmarks.
#[must_use]
pub fn fig8(harness: &Harness) -> Figure {
    let mut fig = ipc_figure(
        "fig8",
        "Performance for the FP benchmarks (IPC)",
        harness,
        &suite::spec_fp(),
    );
    fig.note("paper: IF_distr loses 26.0%, MB_distr only 7.6% vs IQ_64_64; MB_distr wins on every FP benchmark");
    fig
}

/// Sums the issue-queue energy meters of a suite run.
fn suite_energy(runs: &[Arc<SimStats>]) -> EnergyMeter {
    let mut total = EnergyMeter::new();
    for r in runs {
        total += &r.energy;
    }
    total
}

/// An energy-breakdown figure (Figures 9–11).
fn breakdown_figure(id: &str, title: &str, harness: &Harness, scheme: &SchedulerConfig) -> Figure {
    let int_runs = harness.run_suite(scheme, &suite::spec_int());
    let fp_runs = harness.run_suite(scheme, &suite::spec_fp());
    let int_e = suite_energy(&int_runs);
    let fp_e = suite_energy(&fp_runs);
    let mut fig = Figure::new(
        id,
        title,
        vec!["component".into(), "SPECINT".into(), "SPECFP".into()],
    );
    for c in ALL_COMPONENTS {
        let i = int_e.fraction(c);
        let f = fp_e.fraction(c);
        if i > 0.0005 || f > 0.0005 {
            fig.row(vec![
                c.paper_label().to_string(),
                format!("{:.1}%", 100.0 * i),
                format!("{:.1}%", 100.0 * f),
            ]);
        }
    }
    fig
}

/// Figure 9 — energy breakdown of the `IQ_64_64` baseline.
#[must_use]
pub fn fig9(harness: &Harness) -> Figure {
    let mut fig = breakdown_figure(
        "fig9",
        "Energy breakdown for IQ_64_64",
        harness,
        &SchedulerConfig::iq_64_64(),
    );
    fig.note("paper: wakeup dominates even with unready-only comparators; buff and select follow; MuxIntALU is the visible mux");
    fig
}

/// Figure 10 — energy breakdown of `IF_distr`.
#[must_use]
pub fn fig10(harness: &Harness) -> Figure {
    let mut fig = breakdown_figure(
        "fig10",
        "Energy breakdown for IF_distr",
        harness,
        &SchedulerConfig::if_distr(),
    );
    fig.note("paper: Qrename 25-30%, fifo ~35%, regs_ready ~35%, mux negligible");
    fig
}

/// Figure 11 — energy breakdown of `MB_distr`.
#[must_use]
pub fn fig11(harness: &Harness) -> Figure {
    let mut fig = breakdown_figure(
        "fig11",
        "Energy breakdown for MB_distr",
        harness,
        &SchedulerConfig::mb_distr(),
    );
    fig.note(
        "paper: like IF_distr on SPECint; on SPECfp adds buff/select/chains terms, reg negligible",
    );
    fig
}

/// Shared builder for the normalized comparisons of Figures 12–15.
fn normalized_figure<F>(id: &str, title: &str, harness: &Harness, metric: F) -> Figure
where
    F: Fn(&SimStats, &SimStats) -> f64,
{
    let schemes = [
        SchedulerConfig::iq_64_64(),
        SchedulerConfig::if_distr(),
        SchedulerConfig::mb_distr(),
    ];
    let mut fig = Figure::new(
        id,
        title,
        vec!["scheme".into(), "SPECINT".into(), "SPECFP".into()],
    );
    let int_suite = suite::spec_int();
    let fp_suite = suite::spec_fp();
    let base_int = harness.run_suite(&schemes[0], &int_suite);
    let base_fp = harness.run_suite(&schemes[0], &fp_suite);
    for sc in &schemes {
        let mut cells = vec![sc.label()];
        for (bench_suite, base_runs) in [(&int_suite, &base_int), (&fp_suite, &base_fp)] {
            let runs = harness.run_suite(sc, bench_suite);
            let vals: Vec<f64> = runs
                .iter()
                .zip(base_runs.iter())
                .map(|(r, b)| metric(r, b))
                .collect();
            cells.push(format!(
                "{:.3}",
                arithmetic_mean(vals.iter().copied()).expect("values")
            ));
        }
        fig.row(cells);
    }
    fig
}

/// Figure 12 — normalized issue-queue power dissipation.
#[must_use]
pub fn fig12(harness: &Harness) -> Figure {
    let mut fig = normalized_figure(
        "fig12",
        "Normalized issue-queue power dissipation",
        harness,
        |r, b| r.power_pj_per_cycle() / b.power_pj_per_cycle(),
    );
    fig.note("paper: both distributed schemes dissipate a small fraction of the baseline's power");
    fig
}

/// Figure 13 — normalized issue-queue energy consumption.
#[must_use]
pub fn fig13(harness: &Harness) -> Figure {
    let mut fig = normalized_figure(
        "fig13",
        "Normalized issue-queue energy consumption",
        harness,
        |r, b| r.energy_pj() / b.energy_pj(),
    );
    fig.note(
        "paper: MB_distr spends slightly more than IF_distr on SPECfp, both far below IQ_64_64",
    );
    fig
}

/// Figure 14 — normalized whole-chip energy × delay (issue queue = 23% of
/// chip power in the baseline).
#[must_use]
pub fn fig14(harness: &Harness) -> Figure {
    let mut fig = normalized_figure("fig14", "Normalized energy x delay", harness, |r, b| {
        ChipEnergy::derive(r, b).ed() / ChipEnergy::derive(b, b).ed()
    });
    fig.note("paper: MB_distr beats the baseline by ~5% and IF_distr by ~18% on SPECfp");
    fig
}

/// Figure 15 — normalized whole-chip energy × delay².
#[must_use]
pub fn fig15(harness: &Harness) -> Figure {
    let mut fig = normalized_figure("fig15", "Normalized energy x delay^2", harness, |r, b| {
        ChipEnergy::derive(r, b).ed2() / ChipEnergy::derive(b, b).ed2()
    });
    fig.note("paper: MB_distr ~= baseline; 35% better than IF_distr on SPECfp");
    fig
}

/// The abstract/conclusion headline numbers.
#[must_use]
pub fn headline(harness: &Harness) -> Figure {
    let fig14 = fig14(harness);
    let fig15 = fig15(harness);
    let fig7 = fig7(harness);
    let fig8 = fig8(harness);

    let mut fig = Figure::new(
        "headline",
        "Abstract / Section 5 headline claims",
        vec!["claim".into(), "paper".into(), "measured".into()],
    );

    let v = |f: &Figure, row: &str, col: &str| f.value(row, col).expect("cell exists");

    let ed_mb = v(&fig14, "MB_distr", "SPECFP");
    let ed_if = v(&fig14, "IF_distr", "SPECFP");
    let ed2_mb = v(&fig15, "MB_distr", "SPECFP");
    let ed2_if = v(&fig15, "IF_distr", "SPECFP");
    fig.row(vec![
        "ED^2: MB_distr vs IF_distr (SPECfp)".into(),
        "-35%".into(),
        format!("{:+.1}%", 100.0 * (ed2_mb - ed2_if) / ed2_if),
    ]);
    fig.row(vec![
        "ED: MB_distr vs IF_distr (SPECfp)".into(),
        "-18%".into(),
        format!("{:+.1}%", 100.0 * (ed_mb - ed_if) / ed_if),
    ]);
    fig.row(vec![
        "ED: MB_distr vs baseline (SPECfp)".into(),
        "-5%".into(),
        format!("{:+.1}%", 100.0 * (ed_mb - 1.0)),
    ]);
    fig.row(vec![
        "ED^2: MB_distr vs baseline (SPECfp)".into(),
        "~0%".into(),
        format!("{:+.1}%", 100.0 * (ed2_mb - 1.0)),
    ]);

    let hm_base_fp = v(&fig8, "HARMEAN", "IQ_64_64");
    let hm_mb_fp = v(&fig8, "HARMEAN", "MB_distr");
    let hm_if_fp = v(&fig8, "HARMEAN", "IF_distr");
    fig.row(vec![
        "FP IPC loss: MB_distr vs IQ_64_64".into(),
        "7.6%".into(),
        format!("{:.1}%", pct_loss(hm_base_fp, hm_mb_fp)),
    ]);
    fig.row(vec![
        "FP IPC loss: IF_distr vs IQ_64_64".into(),
        "26.0%".into(),
        format!("{:.1}%", pct_loss(hm_base_fp, hm_if_fp)),
    ]);
    let hm_base_int = v(&fig7, "HARMEAN", "IQ_64_64");
    let hm_mb_int = v(&fig7, "HARMEAN", "MB_distr");
    fig.row(vec![
        "INT IPC loss: MB_distr/IF_distr vs IQ_64_64".into(),
        "7.7%".into(),
        format!("{:.1}%", pct_loss(hm_base_int, hm_mb_int)),
    ]);
    fig
}

/// Ablation — how many chains per queue does MixBUFF need? SPECfp
/// harmonic-mean IPC of MixBUFF 8×16 as the per-queue chain budget shrinks
/// from 16 to 1. The paper fixes `MB_distr` at 8; at 1 chain per queue,
/// MixBUFF degenerates into a throughput-limited IssueFIFO-like structure.
#[must_use]
pub fn ablation_chains(harness: &Harness) -> Figure {
    // 16 chains on 16-entry queues is Figure 6's unbounded MixBUFF: same
    // label, so `diq figures` reuses that run.
    const CHAINS: [usize; 5] = [1, 2, 4, 8, 16];
    let mut schemes = vec![SchedulerConfig::unbounded_baseline()];
    schemes.extend(
        CHAINS
            .iter()
            .map(|&c| SchedulerConfig::mix_buff(16, 16, 8, 16, Some(c))),
    );
    let matrix = harness.run_matrix(&schemes, &suite::spec_fp());
    let hms: Vec<f64> = matrix
        .iter()
        .map(|row| harmonic_mean(row.iter().map(|r| r.ipc())).expect("ipcs"))
        .collect();

    let mut fig = Figure::new(
        "ablation_chains",
        "MixBUFF 8x16: SPECfp IPC loss vs chains per queue",
        vec![
            "chains/queue".into(),
            "HARMEAN IPC".into(),
            "loss vs unbounded IQ".into(),
        ],
    );
    for (chains, hm) in CHAINS.iter().zip(&hms[1..]) {
        fig.row(vec![
            format!("{chains}"),
            format!("{hm:.2}"),
            format!("{:.1}%", pct_loss(hms[0], *hm)),
        ]);
    }
    fig.note("paper: MB_distr uses 8 chains/queue; Figure 6 assumed unbounded chains");
    fig
}

/// Ablation — what is the paper's selection-priority heuristic worth?
/// `MB_distr` prefers instructions whose chain finishes this cycle over
/// ones that became ready earlier but were delayed; this compares it with
/// the same machine selecting purely oldest-first, per SPECfp benchmark.
#[must_use]
pub fn ablation_priority(harness: &Harness) -> Figure {
    let fp = suite::spec_fp();
    let matrix = harness.run_matrix(
        &[
            SchedulerConfig::mb_distr(),
            SchedulerConfig::mb_distr_age_only(),
        ],
        &fp,
    );
    let mut fig = Figure::new(
        "ablation_priority",
        "MB_distr selection: paper heuristic vs oldest-first (SPECfp IPC)",
        vec![
            "benchmark".into(),
            "fresh-first (paper)".into(),
            "oldest-first".into(),
            "heuristic gain".into(),
        ],
    );
    for ((bench, with), without) in fp.iter().zip(&matrix[0]).zip(&matrix[1]) {
        let (with, without) = (with.ipc(), without.ipc());
        fig.row(vec![
            bench.name.clone(),
            format!("{with:.2}"),
            format!("{without:.2}"),
            format!("{:+.1}%", -pct_loss(without, with)),
        ]);
    }
    fig.note("paper argues the heuristic avoids wasting each queue's single selection slot on blocked instructions");
    fig
}

/// A figure constructor, as listed in [`ALL`].
pub type Constructor = fn(&Harness) -> Figure;

/// Every artifact: the paper's, in paper order, then the two ablations of
/// choices the paper fixes. The id `diq figure <id>` takes and its
/// constructor. The one list of figure ids.
pub const ALL: [(&str, Constructor); 18] = [
    ("tab1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("sec3", section3_claims),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("headline", headline),
    ("ablation_chains", ablation_chains),
    ("ablation_priority", ablation_priority),
];

/// Every artifact, in [`ALL`] order (convenient for a full reproduction run).
#[must_use]
pub fn all(harness: &Harness) -> Vec<Figure> {
    ALL.iter().map(|(_, build)| build(harness)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Harness {
        Harness::with_instructions(400)
    }

    #[test]
    fn table1_lists_every_parameter() {
        let t = table1(&tiny());
        assert!(t.rows.len() >= 13);
        assert!(t
            .cell("reorder buffer", "configuration")
            .unwrap()
            .contains("256"));
    }

    #[test]
    fn fig7_has_12_benchmarks_plus_harmean() {
        let f = fig7(&tiny());
        assert_eq!(f.rows.len(), 13);
        assert!(f.value("HARMEAN", "IQ_64_64").unwrap() > 0.0);
    }

    #[test]
    fn fig9_breakdown_sums_to_one() {
        let f = fig9(&tiny());
        for col in ["SPECINT", "SPECFP"] {
            let total: f64 = f.rows.iter().map(|r| f.value(&r[0], col).unwrap()).sum();
            assert!((total - 100.0).abs() < 1.0, "{col} sums to {total}");
        }
        // The baseline has wakeup energy but no steering tables.
        assert!(f.cell("wakeup", "SPECINT").is_some());
        assert!(f.cell("Qrename", "SPECINT").is_none());
    }

    #[test]
    fn fig10_has_fifo_components_not_wakeup() {
        let f = fig10(&tiny());
        assert!(f.cell("Qrename", "SPECINT").is_some());
        assert!(f.cell("wakeup", "SPECINT").is_none());
    }

    #[test]
    fn fig12_baseline_normalizes_to_unity() {
        // 400 instructions is too short for meaningful power ratios (the
        // integration suite checks MB_distr < baseline at realistic length);
        // here we only verify the normalization identity.
        let f = fig12(&tiny());
        assert!((f.value("IQ_64_64", "SPECINT").unwrap() - 1.0).abs() < 1e-9);
        assert!(f.value("MB_distr", "SPECFP").unwrap() > 0.0);
    }
}
