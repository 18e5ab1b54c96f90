//! Every `UCP_*` environment knob, parsed once.
//!
//! [`Knobs::from_env`] is the only code that reads the environment. Each
//! binary calls it once in `main`, reports a malformed value as a
//! configuration error (exit status 2) before simulating anything, and
//! hands the typed value down to the harness, the suite runner and the
//! simulator. Library constructors take what they need from a `Knobs`, or
//! use [`Knobs::default`], the behaviour with the environment unset, so no
//! library result depends on the caller's shell.
//!
//! The same value is the run manifest: a [`crate::RunResult`] records the
//! [`Knobs::to_env`] map of the knobs its run used (one `UCP_*` → value
//! entry per knob that is set, the fault plan as its spec string), so
//! exporting those variables re-creates the run's settings.
//! README "Knobs" is the table of names, syntax and defaults.

use crate::error::DEFAULT_WATCHDOG_CYCLES;
use crate::snapshot::{CheckpointPolicy, DEFAULT_CKPT_KEEP};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use ucp_telemetry::interval::{DEFAULT_INTERVAL_CAPACITY, DEFAULT_INTERVAL_CYCLES};
use ucp_telemetry::tracer::DEFAULT_TRACE_CAPACITY;
use ucp_telemetry::{CategorySet, FaultPlan, IntervalSampler, Telemetry};
use ucp_workloads::suite::{quick_suite, workload_suite};
use ucp_workloads::WorkloadSpec;

/// Simulation volume profile of the figure harnesses and `trace_dump`
/// (`UCP_FIG_PROFILE`): the one source of run lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// 8 workloads × (0.2 M + 0.8 M) instructions.
    Quick,
    /// 30 workloads × (0.5 M + 2 M) instructions.
    Std,
    /// 30 workloads × (1 M + 4 M) instructions.
    Full,
}

impl Profile {
    /// Parses a profile tag.
    ///
    /// # Errors
    ///
    /// An unknown tag is a hard error listing the valid tags — a typo'd
    /// `UCP_FIG_PROFILE` must not silently simulate the (much slower)
    /// default profile.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Profile::Quick),
            "std" => Ok(Profile::Std),
            "full" => Ok(Profile::Full),
            other => Err(format!(
                "UCP_FIG_PROFILE=`{other}` is not a profile; valid tags: quick, std, full"
            )),
        }
    }

    /// The workload suite for this profile.
    pub fn suite(self) -> Vec<WorkloadSpec> {
        match self {
            Profile::Quick => quick_suite(),
            _ => workload_suite(),
        }
    }

    /// (warmup, measure) instruction counts per run.
    pub fn lengths(self) -> (u64, u64) {
        match self {
            Profile::Quick => (200_000, 800_000),
            Profile::Std => (500_000, 2_000_000),
            Profile::Full => (1_000_000, 4_000_000),
        }
    }

    /// Short tag for cache keys and report headers (the parse syntax).
    pub fn tag(self) -> &'static str {
        match self {
            Profile::Quick => "quick",
            Profile::Std => "std",
            Profile::Full => "full",
        }
    }
}

/// One typed field per `UCP_*` knob. Unset and blank values mean the
/// default, except where a field says otherwise.
#[derive(Clone, Debug)]
pub struct Knobs {
    /// `UCP_FIG_PROFILE`: suite and run-length profile (`None`: unset,
    /// which [`Knobs::profile`] reads as `std`).
    pub fig_profile: Option<Profile>,
    /// `UCP_RESULT_DIR`: result-cache directory, taken verbatim.
    pub result_dir: PathBuf,
    /// `UCP_NO_CACHE`: set to any value, even empty, to bypass the cache.
    pub no_cache: bool,
    /// `UCP_INTERVAL`: cycles per interval sample (`None`: sampling off).
    pub interval: Option<u64>,
    /// `UCP_TRACE`: traced event categories (`None`: tracing off).
    pub trace: Option<CategorySet>,
    /// `UCP_WATCHDOG`: hang window in cycles (`None`: watchdog off).
    pub watchdog: Option<u64>,
    /// `UCP_DIGEST`: determinism-auditor cadence in committed
    /// instructions (`None`: off).
    pub digest: Option<u64>,
    /// `UCP_CKPT`: checkpoint cadence and retention (`None`: off).
    pub ckpt: Option<CheckpointPolicy>,
    /// `UCP_CKPT_DIR`: checkpoint root, taken verbatim.
    pub ckpt_dir: PathBuf,
    /// `UCP_FAULT`: the process's one fault plan. Clones share it, so
    /// write counters span the whole process.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            fig_profile: None,
            result_dir: PathBuf::from("target/ucp-results"),
            no_cache: false,
            interval: Some(DEFAULT_INTERVAL_CYCLES),
            trace: None,
            watchdog: Some(DEFAULT_WATCHDOG_CYCLES),
            digest: None,
            ckpt: None,
            ckpt_dir: PathBuf::from("target").join("ucp-ckpt"),
            fault: None,
        }
    }
}

/// `<integer>`, `0` or `off`: `Ok(None)` for the off forms.
fn count_or_off(name: &str, s: &str, what: &str) -> Result<Option<u64>, String> {
    let s = s.to_ascii_lowercase();
    match s.parse::<u64>() {
        Ok(0) => Ok(None),
        Ok(n) => Ok(Some(n)),
        Err(_) if s == "off" => Ok(None),
        Err(_) => Err(format!(
            "{name}=`{s}` is not {what}; expected an integer, `0`, or `off`"
        )),
    }
}

fn ckpt_policy(s: &str) -> Result<Option<CheckpointPolicy>, String> {
    let s = s.to_ascii_lowercase();
    if s == "off" || s == "0" {
        return Ok(None);
    }
    let err = || {
        format!(
            "UCP_CKPT=`{s}` is not a checkpoint interval; \
             expected `<instructions>[:<keep>]`, `0`, or `off`"
        )
    };
    let (every, keep) = match s.split_once(':') {
        Some((e, k)) => (e, Some(k)),
        None => (s.as_str(), None),
    };
    let every = every.parse::<u64>().map_err(|_| err())?;
    if every == 0 {
        return Ok(None);
    }
    let keep = match keep {
        Some(k) => match k.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => return Err(err()),
        },
        None => DEFAULT_CKPT_KEEP,
    };
    Ok(Some(CheckpointPolicy { every, keep }))
}

impl Knobs {
    /// Reads every `UCP_*` knob from the process environment; the only
    /// environment read in the simulator. A variable that is not valid
    /// Unicode counts as unset.
    ///
    /// # Errors
    ///
    /// The first malformed value, naming the variable and the accepted
    /// values.
    pub fn from_env() -> Result<Knobs, String> {
        Knobs::parse(|name| std::env::var(name).ok())
    }

    /// Builds the knobs from `lookup`, which maps a variable name to its
    /// value (`None`: unset). Pure: tests pass their own lookups.
    ///
    /// # Errors
    ///
    /// As [`Knobs::from_env`].
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, String> {
        // Trimmed; blank counts as unset.
        let get = |name: &str| {
            lookup(name)
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
        };
        let mut k = Knobs::default();
        if let Some(s) = get("UCP_FIG_PROFILE") {
            k.fig_profile = Some(Profile::parse(&s)?);
        }
        if let Some(s) = lookup("UCP_RESULT_DIR") {
            k.result_dir = PathBuf::from(s);
        }
        k.no_cache = lookup("UCP_NO_CACHE").is_some();
        if let Some(s) = get("UCP_INTERVAL") {
            k.interval = count_or_off("UCP_INTERVAL", &s, "a cycle count")?;
        }
        if let Some(s) = get("UCP_TRACE") {
            let set = CategorySet::parse(&s).map_err(|e| format!("UCP_TRACE=`{s}`: {e}"))?;
            k.trace = Some(set);
        }
        if let Some(s) = get("UCP_WATCHDOG") {
            k.watchdog = count_or_off("UCP_WATCHDOG", &s, "a cycle count")?;
        }
        if let Some(s) = get("UCP_DIGEST") {
            k.digest = count_or_off("UCP_DIGEST", &s, "an instruction count")?;
        }
        if let Some(s) = get("UCP_CKPT") {
            k.ckpt = ckpt_policy(&s)?;
        }
        if let Some(s) = lookup("UCP_CKPT_DIR") {
            k.ckpt_dir = PathBuf::from(s);
        }
        if let Some(s) = get("UCP_FAULT") {
            let plan = FaultPlan::parse(&s)?;
            k.fault = (!plan.is_empty()).then(|| Arc::new(plan));
        }
        Ok(k)
    }

    /// The knobs in environment syntax: each knob's effective value,
    /// leaving out those unset with no default (profile, no-cache, trace,
    /// fault plan), so [`Knobs::parse`] of
    /// this map rebuilds an equivalent value (paths as UTF-8, lossily).
    pub fn to_env(&self) -> BTreeMap<String, String> {
        let mut env = BTreeMap::new();
        let mut set = |name: &str, value: String| env.insert(name.to_string(), value);
        let off = |v: Option<u64>| v.map_or("off".to_string(), |n| n.to_string());
        if let Some(p) = self.fig_profile {
            set("UCP_FIG_PROFILE", p.tag().to_string());
        }
        set("UCP_RESULT_DIR", self.result_dir.display().to_string());
        if self.no_cache {
            set("UCP_NO_CACHE", "1".to_string());
        }
        set("UCP_INTERVAL", off(self.interval));
        if let Some(categories) = self.trace {
            set("UCP_TRACE", categories.to_string());
        }
        set("UCP_WATCHDOG", off(self.watchdog));
        set("UCP_DIGEST", off(self.digest));
        let ckpt = self.ckpt.map(|p| format!("{}:{}", p.every, p.keep));
        set("UCP_CKPT", ckpt.unwrap_or_else(|| "off".to_string()));
        set("UCP_CKPT_DIR", self.ckpt_dir.display().to_string());
        if let Some(plan) = &self.fault {
            set("UCP_FAULT", plan.spec().to_string());
        }
        env
    }

    /// The figure-harness profile: `UCP_FIG_PROFILE`, else `std`.
    pub fn profile(&self) -> Profile {
        self.fig_profile.unwrap_or(Profile::Std)
    }

    /// A fresh registry and the tracer `UCP_TRACE` asks for, with a
    /// [`DEFAULT_TRACE_CAPACITY`]-event ring.
    pub fn telemetry(&self) -> Telemetry {
        match self.trace {
            Some(set) => Telemetry::with_trace(set, DEFAULT_TRACE_CAPACITY),
            None => Telemetry::disabled(),
        }
    }

    /// The interval sampler `UCP_INTERVAL` asks for, with a
    /// [`DEFAULT_INTERVAL_CAPACITY`]-record ring.
    pub fn sampler(&self) -> Option<IntervalSampler> {
        self.interval
            .map(|every| IntervalSampler::new(every, DEFAULT_INTERVAL_CAPACITY))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::path::Path;

    fn with(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_environment_is_the_default() {
        let k = with(&[]).unwrap();
        assert_eq!(k.to_env(), Knobs::default().to_env());
        assert_eq!(k.profile(), Profile::Std);
        assert_eq!(k.interval, Some(DEFAULT_INTERVAL_CYCLES));
        assert_eq!(k.watchdog, Some(DEFAULT_WATCHDOG_CYCLES));
        assert_eq!((k.digest, k.ckpt, k.trace), (None, None, None));
        assert!(k.fault.is_none() && !k.no_cache);
        // Blank values are unset too.
        let blank = with(&[("UCP_INTERVAL", " "), ("UCP_WATCHDOG", "")]).unwrap();
        assert_eq!(blank.to_env(), Knobs::default().to_env());
    }

    #[test]
    fn accepted_values_set_their_fields() {
        let policy = |every, keep| Some(CheckpointPolicy { every, keep });
        type Check = fn(&Knobs) -> bool;
        let cases: &[(&str, &str, Check)] = &[
            ("UCP_FIG_PROFILE", "quick", |k| {
                k.profile() == Profile::Quick
            }),
            ("UCP_FIG_PROFILE", "full", |k| k.profile() == Profile::Full),
            ("UCP_RESULT_DIR", "out/r", |k| {
                k.result_dir == Path::new("out/r")
            }),
            ("UCP_NO_CACHE", "", |k| k.no_cache),
            ("UCP_INTERVAL", "2500", |k| k.interval == Some(2500)),
            ("UCP_INTERVAL", "0", |k| k.interval.is_none()),
            ("UCP_INTERVAL", "OFF", |k| k.sampler().is_none()),
            ("UCP_TRACE", "ucp, mem", |k| {
                k.trace.unwrap().to_string() == "ucp,mem"
            }),
            ("UCP_TRACE", "all", |k| k.telemetry().tracer.is_active()),
            ("UCP_WATCHDOG", "25000", |k| k.watchdog == Some(25_000)),
            ("UCP_WATCHDOG", "off", |k| k.watchdog.is_none()),
            ("UCP_WATCHDOG", "0", |k| k.watchdog.is_none()),
            ("UCP_DIGEST", "10000", |k| k.digest == Some(10_000)),
            ("UCP_DIGEST", "off", |k| k.digest.is_none()),
            ("UCP_DIGEST", "0", |k| k.digest.is_none()),
            ("UCP_CKPT", "off", |k| k.ckpt.is_none()),
            ("UCP_CKPT", "0", |k| k.ckpt.is_none()),
            ("UCP_CKPT_DIR", "ck", |k| k.ckpt_dir == Path::new("ck")),
            ("UCP_FAULT", "panic:3", |k| {
                k.fault.as_ref().unwrap().spec() == "panic:3"
            }),
            ("UCP_FAULT", " , ", |k| k.fault.is_none()),
        ];
        for (name, value, check) in cases {
            let k = with(&[(name, value)]).unwrap_or_else(|e| panic!("{name}={value}: {e}"));
            assert!(check(&k), "{name}={value}");
        }
        for (value, want) in [
            ("50000", policy(50_000, DEFAULT_CKPT_KEEP)),
            ("50000:5", policy(50_000, 5)),
        ] {
            assert_eq!(with(&[("UCP_CKPT", value)]).unwrap().ckpt, want, "{value}");
        }
    }

    #[test]
    fn malformed_values_are_errors_naming_the_accepted_values() {
        // (knob, value, text the error must contain besides the knob).
        let count_or_off = "expected an integer, `0`, or `off`";
        let ckpt = "expected `<instructions>[:<keep>]`, `0`, or `off`";
        for (name, value, accepted) in [
            ("UCP_FIG_PROFILE", "fast", "valid tags: quick, std, full"),
            ("UCP_FIG_PROFILE", "Quick", "valid tags: quick, std, full"),
            ("UCP_INTERVAL", "garbage", count_or_off),
            (
                "UCP_TRACE",
                "memm",
                "pipeline, frontend, uopc, prefetch, ucp, mem, or `all`",
            ),
            ("UCP_WATCHDOG", "soon", count_or_off),
            ("UCP_DIGEST", "often", count_or_off),
            ("UCP_DIGEST", "-5", count_or_off),
            ("UCP_CKPT", "soon", ckpt),
            ("UCP_CKPT", "10:", ckpt),
            ("UCP_CKPT", "10:0", ckpt),
            ("UCP_CKPT", ":3", ckpt),
            ("UCP_CKPT", "1e4", ckpt),
            ("UCP_FAULT", "explode:1", "valid sites: panic, hang"),
            ("UCP_FAULT", "panic:1:1", "expected <site>:<nth>"),
        ] {
            let e = with(&[(name, value)]).unwrap_err();
            assert!(
                e.contains(name),
                "{name}={value}: error names the knob: {e}"
            );
            assert!(
                e.contains(accepted),
                "{name}={value}: error lists the accepted values `{accepted}`: {e}"
            );
        }
    }

    #[test]
    fn manifest_is_env_syntax_and_parses_back() {
        let k = with(&[
            ("UCP_FIG_PROFILE", "quick"),
            ("UCP_INTERVAL", "off"),
            ("UCP_TRACE", "uopc,ucp"),
            ("UCP_CKPT", "100000"),
            ("UCP_DIGEST", "200000"),
            ("UCP_FAULT", "kill:2,torn_write:9"),
            ("UCP_NO_CACHE", "1"),
        ])
        .unwrap();
        let env = k.to_env();
        assert_eq!(env["UCP_FAULT"], "kill:2,torn_write:9");
        assert_eq!(env["UCP_CKPT"], format!("100000:{DEFAULT_CKPT_KEEP}"));
        let back = Knobs::parse(|n| env.get(n).cloned()).unwrap();
        assert_eq!(back.to_env(), env);
    }

    /// Every variable [`Knobs::parse`] looks up.
    fn parsed_names() -> BTreeSet<String> {
        let asked = RefCell::new(BTreeSet::new());
        Knobs::parse(|name| {
            asked.borrow_mut().insert(name.to_string());
            None
        })
        .unwrap();
        asked.into_inner()
    }

    #[test]
    fn manifest_and_parser_cover_the_same_knobs() {
        let all_set = with(&[
            ("UCP_FIG_PROFILE", "std"),
            ("UCP_NO_CACHE", "1"),
            ("UCP_TRACE", "all"),
            ("UCP_FAULT", "panic:1"),
        ])
        .unwrap();
        let rendered: BTreeSet<String> = all_set.to_env().into_keys().collect();
        assert_eq!(rendered, parsed_names());
    }

    #[test]
    fn readme_knob_table_lists_exactly_the_parsed_knobs() {
        let readme = include_str!("../../../README.md");
        let table = readme
            .split("\n## Knobs\n")
            .nth(1)
            .expect("README has a `## Knobs` section");
        let table = table.split("\n## ").next().unwrap_or(table);
        let listed: BTreeSet<String> = table
            .lines()
            .filter_map(|l| l.strip_prefix("| `UCP_"))
            .map(|rest| format!("UCP_{}", rest.split('`').next().unwrap_or_default()))
            .collect();
        assert_eq!(listed, parsed_names());
    }
}
