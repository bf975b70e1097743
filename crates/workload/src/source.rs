//! One way to name a workload: the [`WorkloadSource`] registry API.
//!
//! Historically there were three ad-hoc resolution paths — suite name
//! lookup, inline `WorkloadSpec` JSON, and kernel-by-name fallback. This
//! module collapses them (plus recorded traces and profiled variants)
//! into a single URI-ish scheme:
//!
//! | URI | Meaning |
//! |-----|---------|
//! | `kernel:gzip` | a suite model or named kernel, by name |
//! | `profile:gzip/adversarial@7` | a profiled variant with user seed 7 |
//! | `trace:path/to/f.diqt` | a recorded trace file, replayed |
//! | `group:fp` | a suite group (expands to its members) |
//! | `gzip`, `fp`, `gzip/stress` | bare compat form: name, then group |
//!
//! Resolution happens once, up front (at CLI parse or grid expansion);
//! the result is a self-contained [`WorkloadSource`] value that executes
//! without further lookups — a [`TraceRef`] carries the trace's content
//! hash so point identities depend on trace *content*, never on file
//! names.

use crate::trace;
use crate::{suite, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// A recorded trace as a workload: the path plus the identity fields
/// captured from its footer at resolution time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRef {
    /// File path the trace resolves to (not part of the identity).
    pub path: String,
    /// Workload name recorded in the trace metadata.
    pub name: String,
    /// Recording generator seed (0 for ingested traces).
    pub seed: u64,
    /// Total instructions in the trace.
    pub instructions: u64,
    /// Content hash from the footer — the identity of the trace.
    pub content: u64,
}

impl TraceRef {
    /// Resolves a trace file into a reference, reading its footer (O(1)).
    ///
    /// # Errors
    ///
    /// A human-readable message when the file is missing, not a `.diqt`
    /// trace, structurally inconsistent, or holds no instructions (a run
    /// over it would simulate nothing and report an IPC of 0).
    pub fn open(path: &str) -> Result<TraceRef, String> {
        let meta = trace::read_meta(path).map_err(|e| e.to_string())?;
        if meta.instructions == 0 {
            return Err(format!("trace `{path}` holds no instructions"));
        }
        Ok(TraceRef {
            path: path.to_string(),
            name: meta.name,
            seed: meta.seed,
            instructions: meta.instructions,
            content: meta.content,
        })
    }
}

/// A fully resolved workload source: everything a run needs to construct
/// its instruction stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// A generated workload (suite model, kernel, profiled variant, or
    /// inline custom spec).
    Spec(WorkloadSpec),
    /// A recorded `.diqt` trace, replayed from disk.
    Trace(TraceRef),
}

impl WorkloadSource {
    /// Resolves a workload URI to sources. Group URIs (and bare group
    /// names) expand to several; everything else resolves to exactly one.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unresolvable part and the
    /// accepted schemes.
    pub fn resolve(uri: &str) -> Result<Vec<WorkloadSource>, String> {
        if let Some(name) = uri.strip_prefix("kernel:") {
            let spec = suite::by_name(name)
                .ok_or_else(|| format!("unknown workload `{name}` (try `diq list`)"))?;
            return Ok(vec![WorkloadSource::Spec(spec)]);
        }
        if let Some(name) = uri.strip_prefix("profile:") {
            let spec = crate::profiles::resolve_profiled(name).ok_or_else(|| {
                format!(
                    "bad profile `{name}`: expected base/profile[@seed] with profile one of \
                     expected|stress|adversarial"
                )
            })?;
            return Ok(vec![WorkloadSource::Spec(spec)]);
        }
        if let Some(path) = uri.strip_prefix("trace:") {
            return Ok(vec![WorkloadSource::Trace(TraceRef::open(path)?)]);
        }
        if let Some(name) = uri.strip_prefix("group:") {
            let members = suite::group(name)
                .ok_or_else(|| format!("unknown suite group `{name}` (all, int, fp)"))?;
            return Ok(members.into_iter().map(WorkloadSource::Spec).collect());
        }
        // Bare compat form: a workload name (including profiled `a/b`
        // forms), then a group name.
        if let Some(spec) = suite::by_name(uri) {
            return Ok(vec![WorkloadSource::Spec(spec)]);
        }
        if let Some(members) = suite::group(uri) {
            return Ok(members.into_iter().map(WorkloadSource::Spec).collect());
        }
        Err(format!(
            "unknown workload `{uri}`: expected kernel:<name>, profile:<base/profile[@seed]>, \
             trace:<file.diqt>, group:<all|int|fp>, or a bare workload/group name (try `diq list`)"
        ))
    }

    /// Resolves a URI that must name exactly one workload (groups are an
    /// error here — used by `diq run` and `diq trace record`).
    ///
    /// # Errors
    ///
    /// Resolution failures, or a URI that expands to several workloads.
    pub fn resolve_one(uri: &str) -> Result<WorkloadSource, String> {
        let mut v = Self::resolve(uri)?;
        if v.len() != 1 {
            return Err(format!(
                "`{uri}` names {} workloads; expected exactly one",
                v.len()
            ));
        }
        Ok(v.remove(0))
    }

    /// The workload name runs report (benchmark column, store records).
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            WorkloadSource::Spec(s) => &s.name,
            WorkloadSource::Trace(t) => &t.name,
        }
    }

    /// The seed that determined this workload's instruction stream.
    #[must_use]
    pub fn seed(&self) -> u64 {
        match self {
            WorkloadSource::Spec(s) => s.seed,
            WorkloadSource::Trace(t) => t.seed,
        }
    }

    /// The generator spec, for sources that have one.
    #[must_use]
    pub fn spec(&self) -> Option<&WorkloadSpec> {
        match self {
            WorkloadSource::Spec(s) => Some(s),
            WorkloadSource::Trace(_) => None,
        }
    }

    /// Applies an experiment-level seed shift. Recorded traces are fixed
    /// streams — the shift only applies to generated sources.
    pub fn shift_seed(&mut self, shift: u64) {
        if let WorkloadSource::Spec(s) = self {
            s.seed = s.seed.wrapping_add(shift);
        }
    }
}

impl std::fmt::Display for WorkloadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadSource::Spec(s) => write!(f, "kernel:{}", s.name),
            WorkloadSource::Trace(t) => write!(f, "trace:{}", t.path),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_and_bare_forms_agree() {
        let a = WorkloadSource::resolve_one("kernel:gzip").unwrap();
        let b = WorkloadSource::resolve_one("gzip").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.name(), "gzip");
        assert!(WorkloadSource::resolve_one("kernel:doom").is_err());
    }

    #[test]
    fn profile_forms_resolve() {
        let p = WorkloadSource::resolve_one("profile:gzip/adversarial@7").unwrap();
        assert_eq!(p.name(), "gzip/adversarial@7");
        // Bare slash form goes through the same registry.
        let bare = WorkloadSource::resolve_one("gzip/adversarial@7").unwrap();
        assert_eq!(p, bare);
        assert!(WorkloadSource::resolve_one("profile:gzip").is_err());
        assert!(WorkloadSource::resolve_one("profile:gzip/mean").is_err());
    }

    #[test]
    fn groups_expand() {
        assert_eq!(WorkloadSource::resolve("group:fp").unwrap().len(), 14);
        assert_eq!(WorkloadSource::resolve("all").unwrap().len(), 26);
        assert!(WorkloadSource::resolve_one("group:fp").is_err());
        assert!(WorkloadSource::resolve("group:spec2017").is_err());
    }

    #[test]
    fn missing_trace_is_a_clean_error() {
        let err = WorkloadSource::resolve("trace:/nonexistent/x.diqt").unwrap_err();
        assert!(err.contains("x.diqt") || err.contains("trace"), "{err}");
    }

    #[test]
    fn seed_shift_skips_traces() {
        let mut spec = WorkloadSource::resolve_one("gzip").unwrap();
        let before = spec.seed();
        spec.shift_seed(3);
        assert_eq!(spec.seed(), before.wrapping_add(3));

        let mut tr = WorkloadSource::Trace(TraceRef {
            path: "x.diqt".into(),
            name: "x".into(),
            seed: 9,
            instructions: 10,
            content: 1,
        });
        tr.shift_seed(3);
        assert_eq!(tr.seed(), 9);
    }
}
