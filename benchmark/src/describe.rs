//! The benchmark's description of itself: `BENCHMARK.json` and the
//! `--describe` table, both generated from the tables in [`crate::spec`].

use crate::spec::{self, Metric, END_TO_END, PER_LAYER, WORKLOADS};

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, generated from the tables in `spec`.
pub fn benchmark_json() -> String {
    let metric = |m: &Metric| match m.bound {
        Some(bound) => format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ),
        None => format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ),
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let command: Vec<String> = spec::COMMAND.iter().map(|c| json_str(c)).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        spec::RUN_SECONDS,
        workloads.join(",\n"),
        END_TO_END.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        PER_LAYER.iter().map(metric).collect::<Vec<_>>().join(",\n"),
    )
}

/// The human-readable workload and metric dictionary (`--describe`).
pub fn describe() -> String {
    let mut s = String::from("Workloads\n");
    for w in &WORKLOADS {
        s += &format!(
            "  {:<12} RS({},{}) block {} B, corpus {} stripes, store {} stripes, window {}, tenants {}\n               {}\n",
            w.name, w.k, w.m, w.block, w.corpus_stripes, w.store_stripes, w.window, w.tenants, w.why
        );
    }
    for (title, table) in [
        ("End-to-end metrics (tracing off)", &END_TO_END[..]),
        ("Per-layer metrics (traced pass)", &PER_LAYER[..]),
    ] {
        s += &format!(
            "{title}\n  {:<34} {:<9} {:<7} {:<6} what\n",
            "name", "unit", "better", "bound"
        );
        for m in table {
            let bound = m.bound.map_or_else(|| "-".to_string(), |b| format!("{b}"));
            s += &format!(
                "  {:<34} {:<9} {:<7} {:<6} {}\n",
                m.name,
                m.unit,
                m.better.as_str(),
                bound,
                m.note
            );
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialga_workload::json::{parse, Json};
    use std::collections::BTreeSet;

    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("missing string {key}"))
    }

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        s.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The committed `BENCHMARK.json` equals what the binary describes,
    /// byte for byte, and stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with --describe --json > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);

        let v = parse(&committed).expect("valid JSON");
        let command: Vec<&str> = v
            .get("command")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(command, spec::COMMAND);
        assert!(
            command.len() <= 32
                && command
                    .iter()
                    .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains(".."))
        );
        let paths: Vec<&str> = v
            .get("paths")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let seconds = v.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert_eq!(seconds, f64::from(spec::RUN_SECONDS));
        assert!((1.0..=60.0).contains(&seconds));

        let mut names = BTreeSet::new();
        let workloads = v.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        assert!((2..=8).contains(&workloads.len()));
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(j, "name"), w.name);
            assert_eq!(str_of(j, "why"), w.why);
            assert!(
                name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = v.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), table.len());
            for (j, m) in listed.iter().zip(table) {
                assert_eq!(str_of(j, "name"), m.name);
                assert_eq!(str_of(j, "unit"), m.unit);
                assert_eq!(str_of(j, "better"), m.better.as_str());
                assert_eq!(j.get("bound").and_then(Json::as_f64), m.bound);
                assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
                assert!(names.insert(m.name), "duplicate name {}", m.name);
                if let Some(bound) = m.bound {
                    assert!((0.0..=0.25).contains(&bound));
                }
            }
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
        // setup_s carries the largest bound.
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn the_describe_table_lists_every_name() {
        let text = describe();
        for w in &WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(text.contains(m.name), "{}", m.name);
        }
    }
}
