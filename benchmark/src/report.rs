//! The metric catalogue (`BENCHMARK.json`, embedded at build time), the
//! result documents, and `compare`.

use std::collections::BTreeMap;

use rtle_obs::{parse_json, Json};

use crate::stats::{iqr_share, median};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the runner reads.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The catalogue this binary was built against.
    pub fn embedded() -> Spec {
        Spec::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = parse_json(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |j: &Json, key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// `{"value": v, "unit": u}` for every metric of `specs`, taking values
/// from `values`. The two name sets must be equal: a metric computed but
/// not declared, or declared but not computed, is a bug in the runner.
pub fn metrics_json(specs: &[MetricSpec], values: &[(&str, f64)]) -> Result<Json, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !specs.iter().any(|s| s.name == *n))
    {
        return Err(format!("metric `{name}` is not declared in BENCHMARK.json"));
    }
    let mut out = BTreeMap::new();
    for spec in specs {
        let (_, value) = values
            .iter()
            .find(|(n, _)| *n == spec.name)
            .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", spec.name));
        }
        out.insert(
            spec.name.clone(),
            Json::obj([
                ("value", Json::Num(*value)),
                ("unit", Json::Str(spec.unit.clone())),
            ]),
        );
    }
    Ok(Json::Obj(out))
}

/// A JSON array of numbers.
pub fn num_array(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// An object with owned keys.
pub fn object(pairs: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::Obj(pairs.into_iter().collect())
}

/// Verdict of `compare` on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one commit spread wider than the bound, so a difference
    /// of the bound's size cannot be told from run-to-run noise.
    Unresolved,
}

/// One line of the comparison.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    /// Median over each side's runs.
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    /// Quartile distance of a side's run values as a share of their median,
    /// the wider of the two; `None` with one run per side.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    if higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    }
}

/// Judges the run values `b` of a change against the run values `a` of its
/// parent. The run-to-run spread is measured, never estimated from inside a
/// run (intervals of one run share the host's drift, so they understate
/// it): with one run per side there is none, and the verdict is `Ok` or
/// `Worse` on the two values alone.
fn judge(a: &[f64], b: &[f64], spec: &MetricSpec) -> (Option<f64>, Verdict) {
    let bound = spec.bound.unwrap_or(0.0);
    let spread = [a, b]
        .iter()
        .filter(|runs| runs.len() >= 2)
        .map(|runs| iqr_share(runs))
        .reduce(f64::max);
    let every_run_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| worsening(x, y, spec.higher_is_better) < 0.0)
    });
    let verdict = if spread.is_some_and(|s| s > bound) && !every_run_better {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), spec.higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (spread, verdict)
}

/// Compares the result documents `run` wrote for two commits — one or more
/// runs of each — workload by workload and end-to-end metric by metric,
/// against the bounds of `spec`. Refuses documents measured with different
/// settings: their numbers are not comparable.
pub fn compare(spec: &Spec, a: &[Json], b: &[Json]) -> Result<Vec<Comparison>, String> {
    let first = a.first().ok_or("no result file for the first side")?;
    for key in ["run_seconds", "threads", "nproc"] {
        let setting = |doc: &Json| doc.get(key).and_then(Json::as_u64);
        let expected = setting(first).ok_or_else(|| format!("result file has no `{key}`"))?;
        if let Some(other) = a.iter().chain(b).find(|d| setting(d) != Some(expected)) {
            return Err(format!(
                "result files differ in `{key}` ({expected} against {}): not comparable",
                setting(other).map_or("none".to_string(), |v| v.to_string())
            ));
        }
    }
    let values = |docs: &[Json], workload: &str, metric: &str| -> Result<Vec<f64>, String> {
        docs.iter()
            .map(|doc| {
                doc.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("end_to_end"))
                    .and_then(|s| s.get("metrics"))
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("result file has no `{metric}` for `{workload}`"))
            })
            .collect()
    };
    let mut out = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (values(a, workload, &m.name)?, values(b, workload, &m.name)?);
            let (spread, verdict) = judge(&va, &vb, m);
            out.push(Comparison {
                workload: workload.clone(),
                metric: m.name.clone(),
                unit: m.unit.clone(),
                a: median(&va),
                b: median(&vb),
                bound: m.bound.unwrap_or(0.0),
                spread,
                verdict,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "1/s".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn judge_applies_bound_in_the_metric_direction() {
        let verdict = |a: f64, b: f64, higher: bool| judge(&[a], &[b], &spec(higher));
        // Throughput down 8 %: inside the bound. Down 12 %: worse.
        assert_eq!(verdict(100.0, 92.0, true), (None, Verdict::Ok));
        assert_eq!(verdict(100.0, 88.0, true), (None, Verdict::Worse));
        // Latency up 12 % is worse, down 12 % is fine.
        assert_eq!(verdict(100.0, 112.0, false).1, Verdict::Worse);
        assert_eq!(verdict(100.0, 88.0, false).1, Verdict::Ok);
    }

    #[test]
    fn runs_spread_wider_than_the_bound_are_unresolved_unless_every_run_is_better() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        let noisy = [100.0, 125.0, 80.0, 110.0];
        // Medians within the bound and steady runs: ok, with the spread.
        let (spread, verdict) = judge(&steady, &[98.0, 99.0, 97.0, 98.5], &spec(true));
        assert!(spread.is_some_and(|s| s < 0.05));
        assert_eq!(verdict, Verdict::Ok);
        // The same medians, but the parent's runs spread 35 %: unresolved,
        // and so is an apparent regression.
        assert_eq!(judge(&noisy, &steady, &spec(true)).1, Verdict::Unresolved);
        assert_eq!(
            judge(&noisy, &[70.0, 71.0], &spec(true)).1,
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent: resolved.
        assert_eq!(
            judge(&noisy, &[200.0, 210.0, 190.0], &spec(true)).1,
            Verdict::Ok
        );
    }

    fn result_doc(run_seconds: u64, value: f64) -> Json {
        let metric = Json::obj([("value", Json::Num(value))]);
        let section = Json::obj([("metrics", Json::obj([("m", metric)]))]);
        Json::obj([
            ("run_seconds", Json::UInt(run_seconds)),
            ("threads", Json::UInt(2)),
            ("nproc", Json::UInt(2)),
            (
                "workloads",
                Json::obj([("w", Json::obj([("end_to_end", section)]))]),
            ),
        ])
    }

    #[test]
    fn compare_takes_medians_per_side_and_refuses_other_settings() {
        let spec = Spec {
            run_seconds: 18,
            workloads: vec!["w".into()],
            end_to_end: vec![spec(true)],
            per_layer: vec![],
        };
        let a = [
            result_doc(18, 100.0),
            result_doc(18, 104.0),
            result_doc(18, 102.0),
        ];
        let rows = compare(&spec, &a, &[result_doc(18, 85.0)]).expect("comparable");
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].a, rows[0].b), (102.0, 85.0));
        assert_eq!(rows[0].verdict, Verdict::Worse);
        let message = compare(&spec, &a, &[result_doc(6, 100.0)]).expect_err("other run length");
        assert!(message.contains("run_seconds"), "{message}");
    }

    #[test]
    fn metrics_json_rejects_undeclared_and_missing_names() {
        let specs = [spec(true)];
        assert!(metrics_json(&specs, &[("m", 1.5)]).is_ok());
        assert!(metrics_json(&specs, &[("m", 1.5), ("extra", 2.0)]).is_err());
        assert!(metrics_json(&specs, &[]).is_err());
        assert!(metrics_json(&specs, &[("m", f64::NAN)]).is_err());
    }
}
