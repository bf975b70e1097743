//! Bench targets: `micro_schedulers` (Criterion timings of the scheduler
//! primitives and the simulator) and the `ablation_chains` /
//! `ablation_priority` sweeps of design choices the paper fixes. The
//! paper's figures come from `diq figure <id>`, simulator speed from
//! `python3 perfbench/run.py`. Set `DIQ_INSTRS` to trade time for fidelity.

#![deny(missing_docs)]
