//! The declarative experiment description and its grid expansion.

use crate::{parse_count, Point};
use diq_core::SchedulerConfig;
use diq_isa::ProcessorConfig;
use diq_workload::{WorkloadSource, WorkloadSpec};
use serde::{Deserialize, Error, Serialize, Value};

/// An instruction count that deserializes from either a JSON number or a
/// suffixed string (`"100k"`, `"5M"`, `"1_000_000"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InstrCount(pub u64);

impl Serialize for InstrCount {
    fn to_value(&self) -> Value {
        Value::UInt(self.0)
    }
}

impl Deserialize for InstrCount {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::UInt(n) => Ok(InstrCount(*n)),
            Value::Str(s) => parse_count(s)
                .map(InstrCount)
                .ok_or_else(|| Error::msg(format!("bad instruction count `{s}`"))),
            other => Err(Error::msg(format!(
                "instruction count must be a number or a \"100k\"-style string, got {other:?}"
            ))),
        }
    }
}

/// A scheme axis entry: a registered label (`"MB_distr"`) or an inline
/// [`SchedulerConfig`] object for ad-hoc geometries.
#[derive(Clone, Debug, PartialEq)]
pub enum SchemeSel {
    /// A label from [`SchedulerConfig::KNOWN_LABELS`].
    Label(String),
    /// A full inline configuration.
    Config(SchedulerConfig),
}

impl SchemeSel {
    /// Resolves to a concrete configuration.
    ///
    /// # Errors
    ///
    /// Unknown labels name the registry in the message.
    pub fn resolve(&self) -> Result<SchedulerConfig, String> {
        match self {
            SchemeSel::Label(l) => SchedulerConfig::by_label(l).ok_or_else(|| {
                format!(
                    "unknown scheme `{l}` (known: {})",
                    SchedulerConfig::KNOWN_LABELS.join(", ")
                )
            }),
            SchemeSel::Config(c) => Ok(c.clone()),
        }
    }
}

impl Serialize for SchemeSel {
    fn to_value(&self) -> Value {
        match self {
            SchemeSel::Label(l) => Value::Str(l.clone()),
            SchemeSel::Config(c) => c.to_value(),
        }
    }
}

impl Deserialize for SchemeSel {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(SchemeSel::Label(s.clone())),
            Value::Map(_) => SchedulerConfig::from_value(v).map(SchemeSel::Config),
            other => Err(Error::msg(format!(
                "scheme must be a label string or a SchedulerConfig object, got {other:?}"
            ))),
        }
    }
}

/// A workload axis entry, in one of three JSON forms:
///
/// * **v1 name** — `"gzip"`, a suite benchmark, group (`"all"`, `"int"`,
///   `"fp"`), or profiled name (`"gzip/adversarial@7"`);
/// * **v1 inline** — a full [`WorkloadSpec`] object;
/// * **v2 source** — `{"source": "<uri>", "params": {...}}`, where the URI
///   takes any [`WorkloadSource::resolve`] scheme (`kernel:`, `profile:`,
///   `trace:`, `group:`, or bare) and the optional `params` map overrides
///   spec fields of a generated source.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSel {
    /// A suite benchmark, group, or profiled name (v1 compat; also accepts
    /// any v2 URI scheme).
    Named(String),
    /// A full inline workload description (v1 compat).
    Inline(Box<WorkloadSpec>),
    /// A v2 `{"source", "params"}` entry.
    Source {
        /// The workload URI.
        source: String,
        /// Spec-field overrides applied to every generated workload the URI
        /// resolves to (empty map or absent: none).
        params: Vec<(String, Value)>,
    },
}

/// Applies `params` overrides to a generated workload spec, field by field.
fn apply_params(spec: &WorkloadSpec, params: &[(String, Value)]) -> Result<WorkloadSpec, String> {
    let Value::Map(mut m) = spec.to_value() else {
        unreachable!("WorkloadSpec serializes as a map");
    };
    for (k, v) in params {
        let slot = m
            .iter_mut()
            .find(|(name, _)| name == k)
            .ok_or_else(|| format!("workload `{}`: unknown param `{k}`", spec.name))?;
        slot.1 = v.clone();
    }
    let patched = WorkloadSpec::from_value(&Value::Map(m))
        .map_err(|e| format!("workload `{}` params: {e}", spec.name))?;
    patched
        .validate()
        .map_err(|e| format!("workload `{}` params: {e}", patched.name))?;
    Ok(patched)
}

impl WorkloadSel {
    /// Resolves to the concrete workload sources this entry contributes,
    /// validated.
    ///
    /// # Errors
    ///
    /// Unknown names/URIs, invalid inline specs, bad `params` keys or
    /// values, and `params` on a trace source are described in the message.
    pub fn resolve(&self) -> Result<Vec<WorkloadSource>, String> {
        match self {
            WorkloadSel::Named(n) => WorkloadSource::resolve(n),
            WorkloadSel::Inline(spec) => {
                spec.validate()
                    .map_err(|e| format!("workload `{}`: {e}", spec.name))?;
                Ok(vec![WorkloadSource::Spec((**spec).clone())])
            }
            WorkloadSel::Source { source, params } => {
                let sources = WorkloadSource::resolve(source)?;
                if params.is_empty() {
                    return Ok(sources);
                }
                sources
                    .into_iter()
                    .map(|src| match src {
                        WorkloadSource::Spec(spec) => {
                            apply_params(&spec, params).map(WorkloadSource::Spec)
                        }
                        WorkloadSource::Trace(t) => Err(format!(
                            "trace:{}: params cannot rewrite a recorded trace",
                            t.path
                        )),
                    })
                    .collect()
            }
        }
    }
}

impl Serialize for WorkloadSel {
    fn to_value(&self) -> Value {
        match self {
            WorkloadSel::Named(n) => Value::Str(n.clone()),
            WorkloadSel::Inline(spec) => spec.to_value(),
            WorkloadSel::Source { source, params } => {
                let mut m = vec![("source".to_string(), Value::Str(source.clone()))];
                if !params.is_empty() {
                    m.push(("params".to_string(), Value::Map(params.clone())));
                }
                Value::Map(m)
            }
        }
    }
}

impl Deserialize for WorkloadSel {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(WorkloadSel::Named(s.clone())),
            Value::Map(m) if m.iter().any(|(k, _)| k == "source") => {
                let mut source = None;
                let mut params = Vec::new();
                for (k, val) in m {
                    match k.as_str() {
                        "source" => match val {
                            Value::Str(s) => source = Some(s.clone()),
                            other => {
                                return Err(Error::msg(format!(
                                    "workload `source` must be a URI string, got {other:?}"
                                )))
                            }
                        },
                        "params" => match val {
                            Value::Map(p) => params = p.clone(),
                            other => {
                                return Err(Error::msg(format!(
                                    "workload `params` must be an object, got {other:?}"
                                )))
                            }
                        },
                        other => {
                            return Err(Error::msg(format!(
                                "workload entry: unknown field `{other}` \
                                 (expected source, params)"
                            )))
                        }
                    }
                }
                Ok(WorkloadSel::Source {
                    source: source.expect("matched on source key"),
                    params,
                })
            }
            Value::Map(_) => WorkloadSpec::from_value(v).map(|s| WorkloadSel::Inline(Box::new(s))),
            other => Err(Error::msg(format!(
                "workload must be a name string, a WorkloadSpec object, or a \
                 {{\"source\": ...}} entry, got {other:?}"
            ))),
        }
    }
}

/// Overrides applied on top of the Table 1 machine — one entry of the
/// machine axis. Every field is optional; absent knobs keep their stock
/// value.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineKnobs {
    /// Display label; derived from the set knobs when absent.
    #[serde(default)]
    pub label: Option<String>,
    /// Fetch width (instructions/cycle).
    #[serde(default)]
    pub fetch_width: Option<usize>,
    /// Decode/rename width.
    #[serde(default)]
    pub decode_width: Option<usize>,
    /// Commit width.
    #[serde(default)]
    pub commit_width: Option<usize>,
    /// Integer issue width.
    #[serde(default)]
    pub issue_width_int: Option<usize>,
    /// FP issue width.
    #[serde(default)]
    pub issue_width_fp: Option<usize>,
    /// Reorder-buffer entries.
    #[serde(default)]
    pub rob_entries: Option<usize>,
    /// Fetch-queue entries.
    #[serde(default)]
    pub fetch_queue: Option<usize>,
    /// Integer divide latency (cycles).
    #[serde(default)]
    pub int_div_latency: Option<u64>,
    /// FP add latency (cycles).
    #[serde(default)]
    pub fp_add_latency: Option<u64>,
    /// FP multiply latency (cycles).
    #[serde(default)]
    pub fp_mul_latency: Option<u64>,
    /// FP divide latency (cycles).
    #[serde(default)]
    pub fp_div_latency: Option<u64>,
    /// L1 data-cache hit latency (cycles).
    #[serde(default)]
    pub dl1_latency: Option<u64>,
    /// L2 hit latency (cycles).
    #[serde(default)]
    pub l2_latency: Option<u64>,
    /// Main-memory first-chunk latency (cycles).
    #[serde(default)]
    pub mem_first_chunk: Option<u64>,
    /// Execute down the wrong path after mispredictions (checkpoint/squash
    /// recovery) instead of stalling fetch. See DESIGN.md "Wrong-path
    /// speculation".
    #[serde(default)]
    pub wrong_path: Option<bool>,
    /// Wake load dependents at the predicted L1-hit latency and selectively
    /// replay them on a miss, instead of the oracle-latency model. See
    /// DESIGN.md "Load-hit speculation and selective replay".
    #[serde(default)]
    pub load_hit_speculation: Option<bool>,
}

impl MachineKnobs {
    /// Rejects a zero width or capacity, naming the first such knob: that
    /// machine never commits, and would only fail as a deadlock deep into
    /// the run.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let knobs = [
            ("fetch_width", self.fetch_width),
            ("decode_width", self.decode_width),
            ("commit_width", self.commit_width),
            ("issue_width_int", self.issue_width_int),
            ("issue_width_fp", self.issue_width_fp),
            ("rob_entries", self.rob_entries),
            ("fetch_queue", self.fetch_queue),
        ];
        match knobs.iter().find(|(_, v)| *v == Some(0)) {
            Some((knob, _)) => Err(format!("`{knob}` must be at least 1")),
            None => Ok(()),
        }
    }

    /// The base machine with these overrides applied.
    #[must_use]
    pub fn apply(&self, base: &ProcessorConfig) -> ProcessorConfig {
        let mut cfg = *base;
        if let Some(v) = self.fetch_width {
            cfg.fetch_width = v;
        }
        if let Some(v) = self.decode_width {
            cfg.decode_width = v;
        }
        if let Some(v) = self.commit_width {
            cfg.commit_width = v;
        }
        if let Some(v) = self.issue_width_int {
            cfg.issue_width_int = v;
        }
        if let Some(v) = self.issue_width_fp {
            cfg.issue_width_fp = v;
        }
        if let Some(v) = self.rob_entries {
            cfg.rob_entries = v;
        }
        if let Some(v) = self.fetch_queue {
            cfg.fetch_queue = v;
        }
        if let Some(v) = self.int_div_latency {
            cfg.lat.int_div = v;
        }
        if let Some(v) = self.fp_add_latency {
            cfg.lat.fp_add = v;
        }
        if let Some(v) = self.fp_mul_latency {
            cfg.lat.fp_mul = v;
        }
        if let Some(v) = self.fp_div_latency {
            cfg.lat.fp_div = v;
        }
        if let Some(v) = self.dl1_latency {
            cfg.mem.dl1.latency = v;
        }
        if let Some(v) = self.l2_latency {
            cfg.mem.l2.latency = v;
        }
        if let Some(v) = self.mem_first_chunk {
            cfg.mem.main.first_chunk = v;
        }
        if let Some(v) = self.wrong_path {
            cfg.wrong_path = v;
        }
        if let Some(v) = self.load_hit_speculation {
            cfg.load_hit_speculation = v;
        }
        cfg
    }

    /// The display label: the explicit `label`, or one derived from the set
    /// knobs (`"rob=128,fw=4"`), or `"table1"` when nothing is overridden.
    #[must_use]
    pub fn display_label(&self) -> String {
        if let Some(l) = &self.label {
            return l.clone();
        }
        let mut parts: Vec<String> = Vec::new();
        let mut us = |tag: &str, v: Option<usize>| {
            if let Some(v) = v {
                parts.push(format!("{tag}={v}"));
            }
        };
        us("fw", self.fetch_width);
        us("dw", self.decode_width);
        us("cw", self.commit_width);
        us("iwi", self.issue_width_int);
        us("iwf", self.issue_width_fp);
        us("rob", self.rob_entries);
        us("fq", self.fetch_queue);
        let parts2: Vec<(&str, Option<u64>)> = vec![
            ("idiv", self.int_div_latency),
            ("fpadd", self.fp_add_latency),
            ("fpmul", self.fp_mul_latency),
            ("fpdiv", self.fp_div_latency),
            ("dl1", self.dl1_latency),
            ("l2", self.l2_latency),
            ("mem", self.mem_first_chunk),
        ];
        for (tag, v) in parts2 {
            if let Some(v) = v {
                parts.push(format!("{tag}={v}"));
            }
        }
        if let Some(v) = self.wrong_path {
            parts.push(format!("wp={}", if v { "on" } else { "off" }));
        }
        if let Some(v) = self.load_hit_speculation {
            parts.push(format!("lhs={}", if v { "on" } else { "off" }));
        }
        if parts.is_empty() {
            "table1".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// Checks a run name (a spec's `name`, or a `--name` override) against the
/// alphabet that is safe as a manifest file name: non-empty `[A-Za-z0-9._-]`.
///
/// # Errors
///
/// Names the offending value.
pub fn validate_run_name(name: &str) -> Result<(), String> {
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
    {
        return Err(format!(
            "run name `{name}` must be non-empty [A-Za-z0-9._-]"
        ));
    }
    Ok(())
}

fn default_machines() -> Vec<MachineKnobs> {
    vec![MachineKnobs::default()]
}

fn default_instructions() -> Vec<InstrCount> {
    vec![InstrCount(crate::DEFAULT_INSTRUCTIONS)]
}

/// A declarative experiment: the cartesian grid
/// machines × schemes × workloads × instruction counts.
///
/// Loaded from JSON (see `experiments/` for examples); only `name`,
/// `schemes` and `workloads` are required.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Run name: the store's manifest key and default `diq export` subject.
    pub name: String,
    /// Free-form description, echoed in exports.
    #[serde(default)]
    pub description: Option<String>,
    /// Experiment-level seed shift. Every workload's seed is offset by this
    /// value, so `seed: 0` (the default) reproduces the paper-harness runs
    /// exactly and any other value re-randomizes the whole grid
    /// deterministically.
    #[serde(default)]
    pub seed: u64,
    /// Instruction-count axis. Default: one point at 100k.
    #[serde(default = "default_instructions")]
    pub instructions: Vec<InstrCount>,
    /// Scheme axis.
    pub schemes: Vec<SchemeSel>,
    /// Workload axis (entries expand; groups contribute all their members).
    pub workloads: Vec<WorkloadSel>,
    /// Machine-knob axis. Default: the stock Table 1 machine.
    #[serde(default = "default_machines")]
    pub machines: Vec<MachineKnobs>,
}

impl ExperimentSpec {
    /// Parses and validates a spec from JSON. Unknown fields are rejected —
    /// with every axis optional except `schemes`/`workloads`, a typo'd key
    /// would otherwise silently sweep the wrong grid.
    ///
    /// # Errors
    ///
    /// Parse errors, unknown fields, and empty/invalid axes are described in
    /// the message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let tree: Value = serde_json::from_str(json).map_err(|e| format!("spec parse: {e}"))?;
        const SPEC_FIELDS: [&str; 7] = [
            "name",
            "description",
            "seed",
            "instructions",
            "schemes",
            "workloads",
            "machines",
        ];
        const MACHINE_FIELDS: [&str; 17] = [
            "label",
            "fetch_width",
            "decode_width",
            "commit_width",
            "issue_width_int",
            "issue_width_fp",
            "rob_entries",
            "fetch_queue",
            "int_div_latency",
            "fp_add_latency",
            "fp_mul_latency",
            "fp_div_latency",
            "dl1_latency",
            "l2_latency",
            "mem_first_chunk",
            "wrong_path",
            "load_hit_speculation",
        ];
        fn check_keys(v: &Value, allowed: &[&str], what: &str) -> Result<(), String> {
            let Value::Map(m) = v else {
                return Ok(()); // shape errors surface from Deserialize
            };
            for (k, _) in m {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!(
                        "{what}: unknown field `{k}` (expected one of: {})",
                        allowed.join(", ")
                    ));
                }
            }
            Ok(())
        }
        check_keys(&tree, &SPEC_FIELDS, "spec")?;
        if let Some(Value::Seq(machines)) = tree.get("machines") {
            for (i, m) in machines.iter().enumerate() {
                check_keys(m, &MACHINE_FIELDS, &format!("machines[{i}]"))?;
            }
        }
        let spec = ExperimentSpec::from_value(&tree).map_err(|e| format!("spec parse: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Serializes the spec as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs serialize")
    }

    /// Checks the spec is well-formed without expanding the grid.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        validate_run_name(&self.name)?;
        if self.instructions.is_empty() {
            return Err("empty instruction-count axis".into());
        }
        if self.instructions.iter().any(|n| n.0 == 0) {
            return Err("instruction counts must be positive".into());
        }
        if self.schemes.is_empty() {
            return Err("empty scheme axis".into());
        }
        if self.workloads.is_empty() {
            return Err("empty workload axis".into());
        }
        if self.machines.is_empty() {
            return Err("empty machine axis".into());
        }
        for (i, m) in self.machines.iter().enumerate() {
            m.validate().map_err(|e| format!("machines[{i}]: {e}"))?;
        }
        Ok(())
    }

    /// Expands the grid into concrete points, in deterministic grid order
    /// (machines, then schemes, then workloads, then instruction counts).
    ///
    /// # Errors
    ///
    /// Unresolvable axis entries are described in the message.
    pub fn expand(&self) -> Result<Vec<Point>, String> {
        self.validate()?;
        let schemes: Vec<SchedulerConfig> = self
            .schemes
            .iter()
            .map(SchemeSel::resolve)
            .collect::<Result<_, _>>()?;
        let mut workloads: Vec<WorkloadSource> = Vec::new();
        for sel in &self.workloads {
            workloads.extend(sel.resolve()?);
        }
        let base = ProcessorConfig::hpca2004();
        let mut points = Vec::new();
        for knobs in &self.machines {
            let machine = knobs.apply(&base);
            let machine_label = knobs.display_label();
            for scheme in &schemes {
                for workload in &workloads {
                    let mut w = workload.clone();
                    w.shift_seed(self.seed);
                    for n in &self.instructions {
                        points.push(Point {
                            scheme: scheme.clone(),
                            source: w.clone(),
                            instructions: n.0,
                            machine,
                            machine_label: machine_label.clone(),
                        });
                    }
                }
            }
        }
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "name": "mini",
        "instructions": ["2k", 3000],
        "schemes": ["MB_distr", {"Cam": {"int_entries": 32, "fp_entries": 32, "banks": 4}}],
        "workloads": ["gzip", "swim"]
    }"#;

    #[test]
    fn minimal_spec_parses_and_expands() {
        let spec = ExperimentSpec::from_json(MINIMAL).unwrap();
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.machines.len(), 1);
        let points = spec.expand().unwrap();
        // 1 machine x 2 schemes x 2 workloads x 2 counts.
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].scheme.label(), "MB_distr");
        assert_eq!(points[0].benchmark(), "gzip");
        assert_eq!(points[0].instructions, 2000);
        assert_eq!(points[1].instructions, 3000);
        assert_eq!(points[4].scheme.label(), "IQ_32_32");
        assert_eq!(points[0].machine_label, "table1");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ExperimentSpec::from_json(MINIMAL).unwrap();
        let back = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn groups_and_seed_shift() {
        let spec = ExperimentSpec::from_json(
            r#"{"name":"g","seed":7,"instructions":[1000],
                "schemes":["IQ_64_64"],"workloads":["int"]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 12);
        let stock = diq_workload::suite::by_name(points[0].benchmark()).unwrap();
        assert_eq!(points[0].seed(), stock.seed.wrapping_add(7));
    }

    #[test]
    fn machine_knobs_apply_and_label() {
        let knobs = MachineKnobs {
            rob_entries: Some(128),
            fetch_width: Some(4),
            l2_latency: Some(20),
            ..MachineKnobs::default()
        };
        let cfg = knobs.apply(&ProcessorConfig::hpca2004());
        assert_eq!(cfg.rob_entries, 128);
        assert_eq!(cfg.fetch_width, 4);
        assert_eq!(cfg.mem.l2.latency, 20);
        assert_eq!(cfg.commit_width, 8, "unset knobs keep stock values");
        assert_eq!(knobs.display_label(), "fw=4,rob=128,l2=20");
        assert_eq!(MachineKnobs::default().display_label(), "table1");
        let named = MachineKnobs {
            label: Some("narrow".into()),
            ..knobs
        };
        assert_eq!(named.display_label(), "narrow");
    }

    #[test]
    fn wrong_path_knob_applies_and_labels() {
        let knobs = MachineKnobs {
            wrong_path: Some(true),
            ..MachineKnobs::default()
        };
        let cfg = knobs.apply(&ProcessorConfig::hpca2004());
        assert!(cfg.wrong_path);
        assert_eq!(knobs.display_label(), "wp=on");
        // The off position is explicit, not merely absent.
        let off = MachineKnobs {
            wrong_path: Some(false),
            ..MachineKnobs::default()
        };
        assert!(!off.apply(&ProcessorConfig::hpca2004()).wrong_path);
        assert_eq!(off.display_label(), "wp=off");
        // Speculation-mode machines expand in experiment grids.
        let spec = ExperimentSpec::from_json(
            r#"{"name":"wp","instructions":[100],"schemes":["MB_distr"],
                "workloads":["gzip"],
                "machines":[{}, {"label":"wrongpath","wrong_path":true}]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert!(!points[0].machine.wrong_path);
        assert!(points[1].machine.wrong_path);
        assert_eq!(points[1].machine_label, "wrongpath");
        assert_ne!(points[0].key(), points[1].key(), "the knob is identity");
    }

    #[test]
    fn load_hit_speculation_knob_applies_and_labels() {
        let knobs = MachineKnobs {
            load_hit_speculation: Some(true),
            ..MachineKnobs::default()
        };
        let cfg = knobs.apply(&ProcessorConfig::hpca2004());
        assert!(cfg.load_hit_speculation);
        assert_eq!(knobs.display_label(), "lhs=on");
        let both = MachineKnobs {
            wrong_path: Some(true),
            load_hit_speculation: Some(true),
            ..MachineKnobs::default()
        };
        assert_eq!(both.display_label(), "wp=on,lhs=on");
        // The knob is a sweep axis: grid points differ in identity.
        let spec = ExperimentSpec::from_json(
            r#"{"name":"lhs","instructions":[100],"schemes":["MB_distr"],
                "workloads":["gzip"],
                "machines":[{}, {"label":"replay","load_hit_speculation":true}]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert!(!points[0].machine.load_hit_speculation);
        assert!(points[1].machine.load_hit_speculation);
        assert_eq!(points[1].machine_label, "replay");
        assert_ne!(points[0].key(), points[1].key(), "the knob is identity");
    }

    #[test]
    fn inline_workloads_are_validated() {
        let mut bad = diq_workload::suite::by_name("gzip").unwrap();
        bad.live_chains = 99;
        let json = format!(
            r#"{{"name":"x","instructions":[100],"schemes":["MB_distr"],
                "workloads":[{}]}}"#,
            bad.to_json()
        );
        let err = ExperimentSpec::from_json(&json)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(err.contains("live_chains"), "{err}");
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err = ExperimentSpec::from_json(
            r#"{"name":"x","instuctions":["1M"],"schemes":["MB_distr"],"workloads":["gzip"]}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown field `instuctions`"), "{err}");
        let err = ExperimentSpec::from_json(
            r#"{"name":"x","schemes":["MB_distr"],"workloads":["gzip"],
                "machines":[{"rob_size":128}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("machines[0]"), "{err}");
        assert!(err.contains("rob_size"), "{err}");
    }

    /// A zero width or capacity would deadlock the point deep into the
    /// run; validation rejects it up front and names the knob.
    #[test]
    fn zero_width_and_capacity_knobs_are_rejected() {
        for knob in [
            "fetch_width",
            "decode_width",
            "commit_width",
            "issue_width_int",
            "issue_width_fp",
            "rob_entries",
            "fetch_queue",
        ] {
            let json = format!(
                r#"{{"name":"x","schemes":["MB_distr"],"workloads":["gzip"],
                    "machines":[{{}}, {{"{knob}":0}}]}}"#
            );
            let err = ExperimentSpec::from_json(&json).unwrap_err();
            assert!(err.contains("machines[1]"), "{err}");
            assert!(err.contains(&format!("`{knob}`")), "{err}");
            let one = json.replace(":0}", ":1}");
            assert!(
                ExperimentSpec::from_json(&one).is_ok(),
                "{knob}: 1 is valid"
            );
        }
    }

    #[test]
    fn bad_axes_are_rejected() {
        for (json, needle) in [
            (
                r#"{"name":"","schemes":["MB_distr"],"workloads":["gzip"]}"#,
                "run name",
            ),
            (
                r#"{"name":"x","schemes":[],"workloads":["gzip"]}"#,
                "scheme axis",
            ),
            (
                r#"{"name":"x","schemes":["MB_distr"],"workloads":[]}"#,
                "workload axis",
            ),
            (
                r#"{"name":"x","instructions":[0],"schemes":["MB_distr"],"workloads":["gzip"]}"#,
                "positive",
            ),
            (
                r#"{"name":"a/b","schemes":["MB_distr"],"workloads":["gzip"]}"#,
                "run name",
            ),
        ] {
            let err = ExperimentSpec::from_json(json).unwrap_err();
            assert!(err.contains(needle), "{json} -> {err}");
        }
        let spec =
            ExperimentSpec::from_json(r#"{"name":"x","schemes":["NoSuch"],"workloads":["gzip"]}"#)
                .unwrap();
        assert!(spec.expand().unwrap_err().contains("unknown scheme"));
        let spec = ExperimentSpec::from_json(
            r#"{"name":"x","schemes":["MB_distr"],"workloads":["nope"]}"#,
        )
        .unwrap();
        assert!(spec.expand().unwrap_err().contains("unknown workload"));
    }
}
