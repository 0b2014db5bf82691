//! Structured results export for the figure binaries.
//!
//! Every binary keeps its human-readable table/CSV output and
//! additionally accepts `--json <path>`: the sweep results are then also
//! written as one schema-versioned JSON document (the version is shared
//! with the runtime's [`rtle_obs`] snapshots), so runs can be collected,
//! diffed and plotted by external tooling. See EXPERIMENTS.md.

use std::io::Write;
use std::path::{Path, PathBuf};

use rtle_obs::{Json, SCHEMA_VERSION};

use crate::figures::{Scale, Series};

/// Parsed command-line arguments shared by every figure binary.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--quick` present: run the miniature sweep.
    pub quick: bool,
    /// `--json <path>`: where to write the structured report.
    pub json: Option<PathBuf>,
    /// Remaining positional arguments, in order.
    pub rest: Vec<String>,
}

/// The flag summary printed when a binary is invoked with a flag nobody
/// understands. Binaries with extra flags of their own parse those first
/// and only hand the remainder to [`BenchArgs`].
pub const USAGE: &str = "shared flags: [--quick] [--json PATH]";

impl BenchArgs {
    /// Parses `std::env::args()` (skipping the binary name). An
    /// unrecognized `-`-prefixed argument is a usage error (exit 1), not
    /// a positional: silently swallowing a misspelled flag means a run
    /// quietly measures something other than what was asked for.
    pub fn parse() -> Self {
        Self::parse_args(std::env::args().skip(1))
    }

    /// [`Self::try_parse_args`], exiting with usage on a bad flag.
    pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        Self::try_parse_args(args).unwrap_or_else(|bad| {
            eprintln!("unrecognized flag: {bad}");
            eprintln!("{USAGE}");
            std::process::exit(1);
        })
    }

    /// Parses an explicit argument list; `Err` carries the first
    /// unrecognized `-`-prefixed argument.
    pub fn try_parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--json" => {
                    let p = it.next().unwrap_or_else(|| {
                        eprintln!("--json requires a path argument");
                        std::process::exit(2);
                    });
                    out.json = Some(PathBuf::from(p));
                }
                flag if flag.starts_with('-') => return Err(a),
                _ => out.rest.push(a),
            }
        }
        Ok(out)
    }

    /// The sweep scale implied by the flags.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// JSON form of a list of figure series:
/// `[{label, value_name, points: [{threads, value}]}]`.
pub fn series_to_json(value_name: &str, series: &[Series]) -> Json {
    Json::Arr(
        series
            .iter()
            .map(|s| {
                Json::obj([
                    ("label", Json::Str(s.label.clone())),
                    ("value_name", Json::Str(value_name.into())),
                    (
                        "points",
                        Json::Arr(
                            s.points
                                .iter()
                                .map(|p| {
                                    Json::obj([
                                        ("threads", Json::UInt(p.threads as u64)),
                                        ("value", Json::Num(p.value)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// A structured report accumulated by one binary run: named sections in
/// insertion order, emitted as a single schema-versioned JSON object.
#[derive(Debug)]
pub struct Report {
    tool: String,
    scale: Scale,
    sections: Vec<(String, Json)>,
}

impl Report {
    /// Starts a report for `tool` (the binary name) at `scale`.
    pub fn new(tool: &str, scale: Scale) -> Self {
        Report {
            tool: tool.into(),
            scale,
            sections: Vec::new(),
        }
    }

    /// Appends an arbitrary JSON section.
    pub fn add(&mut self, name: &str, value: Json) {
        self.sections.push((name.into(), value));
    }

    /// Appends a figure-series section.
    pub fn add_series(&mut self, name: &str, value_name: &str, series: &[Series]) {
        self.add(name, series_to_json(value_name, series));
    }

    /// The complete report document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("tool", Json::Str(self.tool.clone())),
            (
                "scale",
                Json::Str(
                    match self.scale {
                        Scale::Quick => "quick",
                        Scale::Full => "full",
                    }
                    .into(),
                ),
            ),
            (
                "sections",
                Json::Obj(
                    self.sections
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Writes the report (pretty-printed) to `path` when given; a no-op
    /// otherwise. Exits with an error message on I/O failure so binaries
    /// can call it unconditionally as their last step.
    pub fn write_if_requested(&self, path: Option<&Path>) {
        let Some(path) = path else { return };
        let doc = self.to_json().to_string_pretty();
        let write = || -> std::io::Result<()> {
            let mut f = std::fs::File::create(path)?;
            f.write_all(doc.as_bytes())?;
            f.write_all(b"\n")?;
            Ok(())
        };
        match write() {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::SeriesPoint;
    use rtle_obs::parse_json;

    fn sample_series() -> Vec<Series> {
        vec![Series {
            label: "TLE".into(),
            points: vec![
                SeriesPoint {
                    threads: 1,
                    value: 1.0,
                },
                SeriesPoint {
                    threads: 8,
                    value: 5.5,
                },
            ],
        }]
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let a = BenchArgs::parse_args(["--quick", "--json", "/tmp/x.json", "12"].map(String::from));
        assert!(a.quick);
        assert_eq!(a.scale(), Scale::Quick);
        assert_eq!(a.json.as_deref(), Some(Path::new("/tmp/x.json")));
        assert_eq!(a.rest, vec!["12".to_string()]);
        assert_eq!(
            BenchArgs::parse_args(std::iter::empty()).scale(),
            Scale::Full
        );
    }

    #[test]
    fn unknown_flags_are_rejected_not_swallowed() {
        // The last two are `diag`'s own flags: a figure binary given one
        // must refuse it, not run and print no heatmap.
        for (args, bad) in [
            (&["--quick", "--heatmpa"][..], "--heatmpa"),
            (&["-q"], "-q"),
            (&["--heatmap"], "--heatmap"),
            (&["--slo", "x"], "--slo"),
        ] {
            let err = BenchArgs::try_parse_args(args.iter().map(|a| a.to_string())).unwrap_err();
            assert_eq!(err, bad);
        }
        // Positionals (no dash) still pass through untouched.
        let ok = BenchArgs::try_parse_args(["12", "top"].map(String::from)).unwrap();
        assert_eq!(ok.rest, vec!["12".to_string(), "top".to_string()]);
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut r = Report::new("fig05", Scale::Quick);
        r.add_series("panel", "speedup", &sample_series());
        let text = r.to_json().to_string_pretty();
        let j = parse_json(&text).expect("report must be valid JSON");
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(j.get("tool").and_then(Json::as_str), Some("fig05"));
        assert_eq!(j.get("scale").and_then(Json::as_str), Some("quick"));
        let panel = j
            .get("sections")
            .and_then(|s| s.get("panel"))
            .and_then(Json::as_arr)
            .expect("panel section");
        assert_eq!(panel.len(), 1);
        assert_eq!(panel[0].get("label").and_then(Json::as_str), Some("TLE"));
        let pts = panel[0].get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(pts[1].get("threads").and_then(Json::as_u64), Some(8));
    }
}
