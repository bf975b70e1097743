//! Scheme configuration and construction.

use crate::adaptive::AdaptiveConfig;
use crate::cam::CamIssueQueue;
use crate::fifo::IssueFifo;
use crate::fu::FuTopology;
use crate::latfifo::LatFifo;
use crate::mixbuff::MixBuff;
use crate::Scheduler;
use diq_isa::ProcessorConfig;
use serde::{Deserialize, Serialize};

fn default_true() -> bool {
    true
}

/// Geometry of one side's queue array: `queues` queues of `entries` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueArrayConfig {
    /// Number of queues.
    pub queues: usize,
    /// Entries per queue.
    pub entries: usize,
}

impl QueueArrayConfig {
    /// `queues` × `entries`.
    #[must_use]
    pub fn new(queues: usize, entries: usize) -> Self {
        QueueArrayConfig { queues, entries }
    }

    fn label(&self) -> String {
        format!("{}x{}", self.queues, self.entries)
    }
}

/// Which issue scheme to build, with its geometry.
///
/// Use the named constructors for the paper's configurations:
/// [`iq_64_64`](SchedulerConfig::iq_64_64),
/// [`unbounded_baseline`](SchedulerConfig::unbounded_baseline),
/// [`if_distr`](SchedulerConfig::if_distr),
/// [`mb_distr`](SchedulerConfig::mb_distr), or the parameterized
/// [`issue_fifo`](SchedulerConfig::issue_fifo) /
/// [`lat_fifo`](SchedulerConfig::lat_fifo) /
/// [`mix_buff`](SchedulerConfig::mix_buff) used in the Figures 2–6 sweeps.
///
/// # Example
///
/// ```
/// use diq_core::SchedulerConfig;
///
/// assert_eq!(SchedulerConfig::iq_64_64().label(), "IQ_64_64");
/// assert_eq!(
///     SchedulerConfig::issue_fifo(10, 8, 16, 16).label(),
///     "IssueFIFO_10x8_16x16",
/// );
/// assert_eq!(SchedulerConfig::mb_distr().label(), "MB_distr");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerConfig {
    /// Conventional CAM/RAM queue (per-side entry counts, banks per side).
    Cam {
        /// Integer-queue entries.
        int_entries: usize,
        /// FP-queue entries.
        fp_entries: usize,
        /// Banks per queue (wakeup is confined to occupied banks).
        banks: usize,
    },
    /// The CAM queue with a runtime bank power-gating controller
    /// (adaptive queue geometry). With `adaptive.enabled == false` it is
    /// the static [`Cam`](SchedulerConfig::Cam) byte for byte.
    AdaptiveCam {
        /// Integer-queue entries.
        int_entries: usize,
        /// FP-queue entries.
        fp_entries: usize,
        /// Banks per queue — also the autoscaling granularity.
        banks: usize,
        /// Controller knobs (epoch, thresholds, hysteresis, floor).
        #[serde(default)]
        adaptive: AdaptiveConfig,
    },
    /// Palacharla-style FIFO queues.
    IssueFifo {
        /// Integer queue array.
        int: QueueArrayConfig,
        /// FP queue array.
        fp: QueueArrayConfig,
        /// Attach functional units to queues (`IF_distr`).
        distributed_fus: bool,
    },
    /// FIFOs with latency-based FP placement.
    LatFifo {
        /// Integer queue array.
        int: QueueArrayConfig,
        /// FP queue array.
        fp: QueueArrayConfig,
        /// Attach functional units to queues.
        distributed_fus: bool,
    },
    /// The paper's MixBUFF.
    MixBuff {
        /// Integer queue array (FIFOs).
        int: QueueArrayConfig,
        /// FP buffer array.
        fp: QueueArrayConfig,
        /// Chains per FP queue (`None` = unbounded, as in the Figure 6
        /// study; `MB_distr` uses 8).
        chains_per_queue: Option<usize>,
        /// Attach functional units to queues (`MB_distr`).
        distributed_fus: bool,
        /// The paper's selection priority ("instructions considered for
        /// issue for the first time have priority over those that were not
        /// issued the first time"). `false` = pure oldest-first (ablation).
        #[serde(default = "default_true")]
        fresh_priority: bool,
    },
}

impl SchedulerConfig {
    /// The paper's evaluation baseline: 64 + 64 entries, 8 banks each.
    #[must_use]
    pub fn iq_64_64() -> Self {
        SchedulerConfig::Cam {
            int_entries: 64,
            fp_entries: 64,
            banks: 8,
        }
    }

    /// The Section 3 study baseline: an issue queue as large as the reorder
    /// buffer (256 entries per side), so dispatch never stalls on queue
    /// space.
    #[must_use]
    pub fn unbounded_baseline() -> Self {
        SchedulerConfig::Cam {
            int_entries: 256,
            fp_entries: 256,
            banks: 32,
        }
    }

    /// A CAM queue with explicit geometry.
    #[must_use]
    pub fn cam(int_entries: usize, fp_entries: usize, banks: usize) -> Self {
        SchedulerConfig::Cam {
            int_entries,
            fp_entries,
            banks,
        }
    }

    /// The evaluation baseline geometry with the default bank-autoscaling
    /// controller enabled (`IQ_64_64_adapt`).
    #[must_use]
    pub fn adaptive_iq_64_64() -> Self {
        SchedulerConfig::AdaptiveCam {
            int_entries: 64,
            fp_entries: 64,
            banks: 8,
            adaptive: AdaptiveConfig::default(),
        }
    }

    /// An adaptive CAM queue with explicit geometry and controller knobs.
    #[must_use]
    pub fn adaptive_cam(
        int_entries: usize,
        fp_entries: usize,
        banks: usize,
        adaptive: AdaptiveConfig,
    ) -> Self {
        SchedulerConfig::AdaptiveCam {
            int_entries,
            fp_entries,
            banks,
            adaptive,
        }
    }

    /// `IssueFIFO_AxB_CxD` with shared functional units.
    #[must_use]
    pub fn issue_fifo(a: usize, b: usize, c: usize, d: usize) -> Self {
        SchedulerConfig::IssueFifo {
            int: QueueArrayConfig::new(a, b),
            fp: QueueArrayConfig::new(c, d),
            distributed_fus: false,
        }
    }

    /// `LatFIFO_AxB_CxD` with shared functional units.
    #[must_use]
    pub fn lat_fifo(a: usize, b: usize, c: usize, d: usize) -> Self {
        SchedulerConfig::LatFifo {
            int: QueueArrayConfig::new(a, b),
            fp: QueueArrayConfig::new(c, d),
            distributed_fus: false,
        }
    }

    /// `MixBUFF_AxB_CxD` with shared functional units.
    #[must_use]
    pub fn mix_buff(a: usize, b: usize, c: usize, d: usize, chains: Option<usize>) -> Self {
        SchedulerConfig::MixBuff {
            int: QueueArrayConfig::new(a, b),
            fp: QueueArrayConfig::new(c, d),
            chains_per_queue: chains,
            distributed_fus: false,
            fresh_priority: true,
        }
    }

    /// MixBUFF with the selection-priority heuristic disabled: each queue
    /// picks the *oldest* selectable instruction instead of preferring
    /// freshly-ready ones. `diq figure ablation_priority` uses it to
    /// measure what the paper's heuristic is worth.
    #[must_use]
    pub fn mb_distr_age_only() -> Self {
        SchedulerConfig::MixBuff {
            int: QueueArrayConfig::new(8, 8),
            fp: QueueArrayConfig::new(8, 16),
            chains_per_queue: Some(8),
            distributed_fus: true,
            fresh_priority: false,
        }
    }

    /// `IF_distr`: IssueFIFO 8×8 integer + 8×16 FP with distributed
    /// functional units (Section 3.3).
    #[must_use]
    pub fn if_distr() -> Self {
        SchedulerConfig::IssueFifo {
            int: QueueArrayConfig::new(8, 8),
            fp: QueueArrayConfig::new(8, 16),
            distributed_fus: true,
        }
    }

    /// `MB_distr`: MixBUFF 8×8 integer + 8×16 FP, at most 8 chains per FP
    /// queue, distributed functional units (Section 3.3).
    #[must_use]
    pub fn mb_distr() -> Self {
        SchedulerConfig::MixBuff {
            int: QueueArrayConfig::new(8, 8),
            fp: QueueArrayConfig::new(8, 16),
            chains_per_queue: Some(8),
            distributed_fus: true,
            fresh_priority: true,
        }
    }

    /// Every scheme label the CLI and experiment specs advertise, in display
    /// order. Each entry round-trips through [`by_label`](Self::by_label).
    pub const KNOWN_LABELS: [&'static str; 9] = [
        "IQ_unbounded",
        "IQ_64_64",
        "IQ_64_64_adapt",
        "IssueFIFO_16x16_8x16",
        "LatFIFO_16x16_8x16",
        "MixBUFF_16x16_8x16",
        "IF_distr",
        "MB_distr",
        "MB_distr_agesel",
    ];

    /// The configurations behind [`KNOWN_LABELS`](Self::KNOWN_LABELS), in the
    /// same order.
    #[must_use]
    pub fn known() -> Vec<SchedulerConfig> {
        vec![
            SchedulerConfig::unbounded_baseline(),
            SchedulerConfig::iq_64_64(),
            SchedulerConfig::adaptive_iq_64_64(),
            SchedulerConfig::issue_fifo(16, 16, 8, 16),
            SchedulerConfig::lat_fifo(16, 16, 8, 16),
            SchedulerConfig::mix_buff(16, 16, 8, 16, None),
            SchedulerConfig::if_distr(),
            SchedulerConfig::mb_distr(),
            SchedulerConfig::mb_distr_age_only(),
        ]
    }

    /// Resolves a registered scheme label to its configuration.
    #[must_use]
    pub fn by_label(label: &str) -> Option<SchedulerConfig> {
        Self::known().into_iter().find(|s| s.label() == label)
    }

    /// The display label, following the paper's naming.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            SchedulerConfig::Cam {
                int_entries,
                fp_entries,
                ..
            } => {
                if *int_entries >= 256 {
                    "IQ_unbounded".to_string()
                } else {
                    format!("IQ_{int_entries}_{fp_entries}")
                }
            }
            SchedulerConfig::AdaptiveCam {
                int_entries,
                fp_entries,
                adaptive,
                ..
            } => {
                // Controller knobs join the label only when they differ
                // from the canonical registered configuration, so a sweep
                // over aggressiveness keeps its points distinguishable.
                let base = format!("IQ_{int_entries}_{fp_entries}_adapt");
                if !adaptive.enabled {
                    format!("{base}_off")
                } else if *adaptive == AdaptiveConfig::default() {
                    base
                } else {
                    format!(
                        "{base}_e{}g{}s{}h{}",
                        adaptive.epoch_cycles,
                        adaptive.grow_occupancy_pct,
                        adaptive.shrink_occupancy_pct,
                        adaptive.hysteresis_epochs
                    )
                }
            }
            SchedulerConfig::IssueFifo {
                int,
                fp,
                distributed_fus,
            } => {
                if *distributed_fus {
                    "IF_distr".to_string()
                } else {
                    format!("IssueFIFO_{}_{}", int.label(), fp.label())
                }
            }
            SchedulerConfig::LatFifo { int, fp, .. } => {
                format!("LatFIFO_{}_{}", int.label(), fp.label())
            }
            SchedulerConfig::MixBuff {
                int,
                fp,
                chains_per_queue,
                distributed_fus,
                fresh_priority,
            } => {
                // The chain budget is part of the identity only when it
                // differs from the canonical configurations (the paper's
                // MB_distr fixes 8; Figure 6 assumes unbounded).
                let chains = match chains_per_queue {
                    Some(c)
                        if (*distributed_fus && *c != 8)
                            || (!*distributed_fus && *c != fp.entries) =>
                    {
                        format!("_c{c}")
                    }
                    _ => String::new(),
                };
                let suffix = if *fresh_priority { "" } else { "_agesel" };
                if *distributed_fus {
                    format!("MB_distr{chains}{suffix}")
                } else {
                    format!("MixBUFF_{}_{}{chains}{suffix}", int.label(), fp.label())
                }
            }
        }
    }

    /// The functional-unit topology implied by the configuration.
    #[must_use]
    pub fn fu_topology(&self, cfg: &ProcessorConfig) -> FuTopology {
        match self {
            SchedulerConfig::Cam { .. } | SchedulerConfig::AdaptiveCam { .. } => {
                FuTopology::Shared { pool: cfg.fus }
            }
            SchedulerConfig::IssueFifo {
                int,
                fp,
                distributed_fus,
            }
            | SchedulerConfig::LatFifo {
                int,
                fp,
                distributed_fus,
            } => {
                if *distributed_fus {
                    FuTopology::Distributed {
                        int_queues: int.queues,
                        fp_queues: fp.queues,
                    }
                } else {
                    FuTopology::Shared { pool: cfg.fus }
                }
            }
            SchedulerConfig::MixBuff {
                int,
                fp,
                distributed_fus,
                ..
            } => {
                if *distributed_fus {
                    FuTopology::Distributed {
                        int_queues: int.queues,
                        fp_queues: fp.queues,
                    }
                } else {
                    FuTopology::Shared { pool: cfg.fus }
                }
            }
        }
    }

    /// Builds the scheduler.
    #[must_use]
    pub fn build(&self, cfg: &ProcessorConfig) -> Box<dyn Scheduler> {
        match self.build_concrete(cfg) {
            Built::Cam(s) => Box::new(s),
            Built::Fifo(s) => Box::new(s),
            Built::Lat(s) => Box::new(s),
            Built::Mix(s) => Box::new(s),
        }
    }

    /// [`build`](Self::build), wrapped so that the scheme's internal
    /// bookkeeping is checked after every call and the first inconsistency
    /// panics with a description. For tests: the checks walk the whole
    /// scheduler state on every call.
    #[cfg(any(test, feature = "check"))]
    #[must_use]
    pub fn build_checked(&self, cfg: &ProcessorConfig) -> Box<dyn Scheduler> {
        use crate::check::Checked;
        match self.build_concrete(cfg) {
            Built::Cam(s) => Box::new(Checked::new(s)),
            Built::Fifo(s) => Box::new(Checked::new(s)),
            Built::Lat(s) => Box::new(Checked::new(s)),
            Built::Mix(s) => Box::new(Checked::new(s)),
        }
    }

    /// The scheme as its concrete type.
    pub(crate) fn build_concrete(&self, cfg: &ProcessorConfig) -> Built {
        let name = self.label();
        let topology = self.fu_topology(cfg);
        match self {
            SchedulerConfig::Cam {
                int_entries,
                fp_entries,
                banks,
            } => Built::Cam(CamIssueQueue::new(
                name,
                *int_entries,
                *fp_entries,
                *banks,
                None,
                topology,
                cfg,
            )),
            // A disabled controller is no controller: the static CAM.
            SchedulerConfig::AdaptiveCam {
                int_entries,
                fp_entries,
                banks,
                adaptive,
            } => Built::Cam(CamIssueQueue::new(
                name,
                *int_entries,
                *fp_entries,
                *banks,
                adaptive.enabled.then_some(*adaptive),
                topology,
                cfg,
            )),
            SchedulerConfig::IssueFifo { int, fp, .. } => Built::Fifo(IssueFifo::new(
                name,
                (int.queues, int.entries),
                (fp.queues, fp.entries),
                topology,
                cfg,
            )),
            SchedulerConfig::LatFifo { int, fp, .. } => Built::Lat(LatFifo::new(
                name,
                (int.queues, int.entries),
                (fp.queues, fp.entries),
                topology,
                cfg,
            )),
            SchedulerConfig::MixBuff {
                int,
                fp,
                chains_per_queue,
                fresh_priority,
                ..
            } => Built::Mix(MixBuff::new(
                name,
                (int.queues, int.entries),
                (fp.queues, fp.entries),
                chains_per_queue.unwrap_or(fp.entries),
                *fresh_priority,
                topology,
                cfg,
            )),
        }
    }

    /// Builds the frozen scan-based reference implementation of this scheme
    /// (see [`reference`](crate::reference)): same observable behaviour and
    /// bit-identical statistics as [`build`](Self::build), without the
    /// event-driven wakeup fast path. Golden and property tests diff the
    /// two; everything else should use `build`.
    #[must_use]
    pub fn build_scan(&self, cfg: &ProcessorConfig) -> Box<dyn Scheduler> {
        crate::reference::build_scan(self, cfg)
    }
}

/// A built scheme as its concrete type (see
/// [`SchedulerConfig::build_concrete`]).
pub(crate) enum Built {
    Cam(CamIssueQueue),
    Fifo(IssueFifo),
    Lat(LatFifo),
    Mix(MixBuff),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_follow_paper_naming() {
        assert_eq!(SchedulerConfig::iq_64_64().label(), "IQ_64_64");
        assert_eq!(
            SchedulerConfig::unbounded_baseline().label(),
            "IQ_unbounded"
        );
        assert_eq!(
            SchedulerConfig::issue_fifo(8, 16, 16, 16).label(),
            "IssueFIFO_8x16_16x16"
        );
        assert_eq!(
            SchedulerConfig::lat_fifo(16, 16, 12, 8).label(),
            "LatFIFO_16x16_12x8"
        );
        assert_eq!(
            SchedulerConfig::mix_buff(16, 16, 10, 16, None).label(),
            "MixBUFF_16x16_10x16"
        );
        assert_eq!(SchedulerConfig::if_distr().label(), "IF_distr");
        assert_eq!(SchedulerConfig::mb_distr().label(), "MB_distr");
        assert_eq!(
            SchedulerConfig::adaptive_iq_64_64().label(),
            "IQ_64_64_adapt"
        );
        assert_eq!(
            SchedulerConfig::adaptive_cam(64, 64, 8, AdaptiveConfig::disabled()).label(),
            "IQ_64_64_adapt_off"
        );
        let aggressive = AdaptiveConfig {
            epoch_cycles: 64,
            hysteresis_epochs: 1,
            ..AdaptiveConfig::default()
        };
        assert_eq!(
            SchedulerConfig::adaptive_cam(64, 64, 8, aggressive).label(),
            "IQ_64_64_adapt_e64g70s35h1"
        );
    }

    #[test]
    fn every_known_label_round_trips_through_by_label() {
        for (label, cfg) in SchedulerConfig::KNOWN_LABELS
            .iter()
            .zip(SchedulerConfig::known())
        {
            assert_eq!(cfg.label(), *label);
            assert_eq!(SchedulerConfig::by_label(label), Some(cfg));
        }
    }

    #[test]
    fn distr_configs_use_distributed_topology() {
        let cfg = ProcessorConfig::hpca2004();
        assert!(SchedulerConfig::mb_distr()
            .fu_topology(&cfg)
            .is_distributed());
        assert!(SchedulerConfig::if_distr()
            .fu_topology(&cfg)
            .is_distributed());
        assert!(!SchedulerConfig::iq_64_64()
            .fu_topology(&cfg)
            .is_distributed());
    }

    #[test]
    fn all_configs_build() {
        let cfg = ProcessorConfig::hpca2004();
        for sc in [
            SchedulerConfig::iq_64_64(),
            SchedulerConfig::unbounded_baseline(),
            SchedulerConfig::issue_fifo(8, 8, 16, 16),
            SchedulerConfig::lat_fifo(16, 16, 8, 8),
            SchedulerConfig::mix_buff(16, 16, 8, 16, Some(8)),
            SchedulerConfig::if_distr(),
            SchedulerConfig::mb_distr(),
        ] {
            let s = sc.build(&cfg);
            assert_eq!(s.name(), sc.label());
            assert!(s.is_empty());
        }
    }

    #[test]
    fn serde_round_trip() {
        for sc in [
            SchedulerConfig::mb_distr(),
            SchedulerConfig::adaptive_iq_64_64(),
        ] {
            let json = serde_json::to_string(&sc).unwrap();
            let back: SchedulerConfig = serde_json::from_str(&json).unwrap();
            assert_eq!(sc, back);
        }
        // A terse spec-file form: controller knobs default field by field.
        let terse: SchedulerConfig =
            serde_json::from_str(r#"{"AdaptiveCam":{"int_entries":64,"fp_entries":64,"banks":8}}"#)
                .unwrap();
        assert_eq!(terse, SchedulerConfig::adaptive_iq_64_64());
        let partial: SchedulerConfig = serde_json::from_str(
            r#"{"AdaptiveCam":{"int_entries":64,"fp_entries":64,"banks":8,"adaptive":{"epoch_cycles":64}}}"#,
        )
        .unwrap();
        match partial {
            SchedulerConfig::AdaptiveCam { adaptive, .. } => {
                assert_eq!(adaptive.epoch_cycles, 64);
                assert!(adaptive.enabled);
                assert_eq!(
                    adaptive.hysteresis_epochs,
                    AdaptiveConfig::default().hysteresis_epochs
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn select_tables_are_bit_equal_to_the_formula_at_every_occupancy() {
        let cfg = ProcessorConfig::hpca2004();
        let tech = diq_power::TechParams::um100();
        let mut tables = 0;
        for sc in SchedulerConfig::known() {
            // The most candidates a selection tree of the scheme can see:
            // a whole CAM side, or a whole MixBUFF FP queue.
            let (max_active, built) = match &sc {
                SchedulerConfig::Cam {
                    int_entries,
                    fp_entries,
                    ..
                }
                | SchedulerConfig::AdaptiveCam {
                    int_entries,
                    fp_entries,
                    ..
                } => (*int_entries.max(fp_entries), sc.build_concrete(&cfg)),
                SchedulerConfig::MixBuff { fp, .. } => (fp.entries, sc.build_concrete(&cfg)),
                // No selection tree: FIFO heads are taken oldest first.
                SchedulerConfig::IssueFifo { .. } | SchedulerConfig::LatFifo { .. } => continue,
            };
            let (spec, table) = match &built {
                Built::Cam(s) => s.select_table(),
                Built::Mix(s) => s.select_table(),
                Built::Fifo(_) | Built::Lat(_) => unreachable!("FIFO schemes skipped above"),
            };
            assert_eq!(table.charges().len(), max_active + 1, "{}", sc.label());
            for (active, &pj) in table.charges().iter().enumerate() {
                assert_eq!(
                    pj.to_bits(),
                    spec.select_energy_pj(&tech, active).to_bits(),
                    "{} at {active} active",
                    sc.label()
                );
            }
            tables += 1;
        }
        assert_eq!(
            tables, 6,
            "three CAM and three MixBUFF schemes are registered"
        );
    }
}
