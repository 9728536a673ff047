//! Metric names, the result line, the results file and the environment
//! stamp.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (tracing off), in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("time_to_target_s", "s"),
    ("per", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("channel.us_per_frame", "us"),
    ("codespec.expand_us_per_frame", "us"),
    ("decoder.us_per_frame", "us"),
    ("decoder.word_ms", "ms"),
    ("decoder.iterations_per_frame", "count"),
    ("decoder.converged_frac", "frac"),
    ("decoder.edge_updates_per_frame", "count"),
    ("decoder.bytes_moved_per_frame", "B"),
    ("engine.other_us_per_frame", "us"),
    ("orchestrator.frames_simulated", "count"),
    ("orchestrator.frames_from_cache", "count"),
    ("orchestrator.useful_frac", "frac"),
    ("orchestrator.parallel_efficiency", "frac"),
    ("orchestrator.warm_rerun_s", "s"),
    ("protocol.encode_us_per_frame", "us"),
    ("protocol.parse_us_per_frame", "us"),
    ("protocol.reply_us_per_frame", "us"),
    ("coalesce.lane_fill", "frac"),
    ("coalesce.server_p50_ms", "ms"),
    ("coalesce.server_p99_ms", "ms"),
    ("coalesce.socket_ms", "ms"),
    ("coalesce.wait_ms", "ms"),
    ("coalesce.client_overhead_ms", "ms"),
    ("coalesce.rejected", "count"),
    ("hwsim.table1_mbps", "Mbps"),
    ("trace.uncovered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// A metric or workload name: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON value: just enough of JSON for the result line and the results
/// file (object keys keep their insertion order). Arrays and the parser
/// serve the tests, which read results and `BENCHMARK.json` back.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    #[cfg(test)]
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Compact one-line rendering. Numbers print with every digit.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite number, which JSON cannot carry.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Num(x) => {
                assert!(x.is_finite(), "non-finite number in a result");
                let _ = write!(out, "{x}");
            }
            Self::Str(s) => render_str(s, out),
            #[cfg(test)]
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Self::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (no `null`, which nothing here writes).
    #[cfg(test)]
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// Field `key` of an object.
    #[cfg(test)]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

#[cfg(test)]
impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b'u') => {
                            let code = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err("bad escape".to_string()),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvStamp {
    pub nproc: usize,
    pub simd_built: bool,
    pub sse41_detected: bool,
    pub simd_active: bool,
    pub source_rev: String,
    pub profile: String,
    pub rustc: String,
    pub seed: u64,
}

impl EnvStamp {
    /// Stamp of this process, for a run seeded `seed`.
    pub fn collect(seed: u64) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            // Enabled on ldpc-core in this package's manifest.
            simd_built: true,
            sse41_detected: sse41_detected(),
            simd_active: ldpc_core::PackedFixedDecoder::simd_active(),
            source_rev: source_rev(Path::new(".")),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            seed,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("simd_built".into(), Json::Bool(self.simd_built)),
            ("sse41_detected".into(), Json::Bool(self.sse41_detected)),
            ("simd_active".into(), Json::Bool(self.simd_active)),
            ("source_rev".into(), Json::Str(self.source_rev.clone())),
            ("profile".into(), Json::Str(self.profile.clone())),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            // A string: u64 seeds do not all fit an f64.
            ("seed".into(), Json::Str(self.seed.to_string())),
        ])
    }

    #[cfg(test)]
    fn from_json(v: &Json) -> Option<Self> {
        let num = |k: &str| match v.get(k)? {
            Json::Num(x) => Some(*x),
            _ => None,
        };
        let flag = |k: &str| match v.get(k)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        };
        let text = |k: &str| match v.get(k)? {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        };
        Some(Self {
            nproc: num("nproc")? as usize,
            simd_built: flag("simd_built")?,
            sse41_detected: flag("sse41_detected")?,
            simd_active: flag("simd_active")?,
            source_rev: text("source_rev")?,
            profile: text("profile")?,
            rustc: text("rustc")?,
            seed: text("seed")?.parse().ok()?,
        })
    }
}

fn sse41_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The git commit of the tree at `root` when it is a git checkout (read
/// from `.git` without running git), else `tree-<sha256>` over the
/// sources the benchmark builds from, so runs of different trees differ.
fn source_rev(root: &Path) -> String {
    if let Some(rev) = git_head(&root.join(".git")) {
        return rev;
    }
    let mut files = Vec::new();
    for dir in ["crates", "perfbench"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut data = Vec::new();
    for f in &files {
        data.extend_from_slice(f.to_string_lossy().as_bytes());
        data.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("tree-{}", &ldpc_sim::sha256_hex(&data)[..16])
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub workload: String,
    pub trace: bool,
    pub env: EnvStamp,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value, units from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<String, f64>,
    /// Metric name → in-run spread (interquartile distance over median)
    /// of the repeated samples a median metric was taken from.
    pub spreads: BTreeMap<String, f64>,
}

impl Results {
    /// The metric table this run must fill.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.table()
                .iter()
                .map(|&(name, unit)| {
                    let value = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(value)),
                            ("unit".into(), Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json()),
        ])
        .render()
    }

    /// The results file: the result line's fields plus the workload and
    /// the environment stamp.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("trace".into(), Json::Bool(self.trace)),
            ("env".into(), self.env.to_json()),
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json()),
            (
                "spreads".into(),
                Json::Obj(
                    self.spreads
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads back what [`to_json`](Self::to_json) wrote.
    #[cfg(test)]
    pub fn from_json(v: &Json) -> Option<Self> {
        let Json::Obj(metrics) = v.get("metrics")? else {
            return None;
        };
        let metrics = metrics
            .iter()
            .map(|(k, m)| match m.get("value")? {
                Json::Num(x) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let Json::Obj(spreads) = v.get("spreads")? else {
            return None;
        };
        let spreads = spreads
            .iter()
            .map(|(k, s)| match s {
                Json::Num(x) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect::<Option<_>>()?;
        let count = |k: &str| match v.get(k)? {
            Json::Num(x) => Some(*x as u64),
            _ => None,
        };
        Some(Self {
            workload: match v.get("workload")? {
                Json::Str(s) => s.clone(),
                _ => return None,
            },
            trace: matches!(v.get("trace")?, Json::Bool(true)),
            env: EnvStamp::from_json(v.get("env")?)?,
            correct: matches!(v.get("correct")?, Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            spreads,
        })
    }

    /// Metric names this run filled that its table lacks, table entries
    /// it left empty or non-finite, and invalid names.
    pub fn missing_or_extra(&self) -> Vec<String> {
        let table = self.table();
        let mut bad: Vec<String> = table
            .iter()
            .filter(|(name, _)| !self.metrics.get(*name).is_some_and(|v| v.is_finite()))
            .map(|(name, _)| format!("missing {name}"))
            .collect();
        bad.extend(
            table
                .iter()
                .filter(|(name, _)| !valid_name(name))
                .map(|(name, _)| format!("invalid name {name}")),
        );
        bad.extend(
            self.metrics
                .keys()
                .filter(|k| !table.iter().any(|(name, _)| name == k))
                .map(|k| format!("unlisted {k}")),
        );
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        assert!(valid_name("decoder.us_per_frame"));
        assert!(valid_name("mc-c2-packed"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Json::Arr(entries)) = spec.get(key) else {
                panic!("{key} missing");
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (e.get("name"), e.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without name and unit"),
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
        let Some(Json::Arr(workloads)) = spec.get("workloads") else {
            panic!("workloads missing");
        };
        let names: Vec<&Json> = workloads.iter().filter_map(|w| w.get("name")).collect();
        let want: Vec<Json> = crate::WORKLOADS
            .iter()
            .map(|w| Json::Str(w.to_string()))
            .collect();
        assert_eq!(names, want.iter().collect::<Vec<_>>());
    }

    #[test]
    fn results_file_round_trips() {
        let mut metrics = BTreeMap::new();
        for (i, (name, _)) in PER_LAYER.iter().enumerate() {
            metrics.insert(name.to_string(), i as f64 * 1.234_567_891_234 + 1e-9);
        }
        let results = Results {
            workload: "served-c2-2conn".into(),
            trace: true,
            env: EnvStamp {
                nproc: 2,
                simd_built: true,
                sse41_detected: true,
                simd_active: true,
                source_rev: "tree-\"quoted\"\\".into(),
                profile: "release".into(),
                rustc: "rustc 1.0.0 (abc 2020-01-01)".into(),
                seed: u64::MAX,
            },
            correct: true,
            attempted: 2048,
            failed: 3,
            metrics,
            spreads: BTreeMap::from([("frames_per_s".to_string(), 0.0123)]),
        };
        assert!(results.missing_or_extra().is_empty());
        let text = results.to_json().render();
        let back = Results::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, results);
        // The result line is valid JSON with exactly the four keys.
        let line = Json::parse(&results.result_line()).unwrap();
        let Json::Obj(fields) = line else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn missing_metrics_are_reported() {
        let results = Results {
            workload: "mc-c2-packed".into(),
            trace: false,
            env: EnvStamp::collect(1),
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: BTreeMap::from([("bogus".to_string(), 1.0)]),
            spreads: BTreeMap::new(),
        };
        let bad = results.missing_or_extra();
        assert!(bad.contains(&"missing setup_s".to_string()));
        assert!(bad.contains(&"unlisted bogus".to_string()));
    }
}
