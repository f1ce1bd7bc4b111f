//! The benchmark's metric names, units and directions — the single list
//! that `BENCHMARK.json` mirrors and every run's output is checked against.

use leap_obs::Json;
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported by every workload with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("throughput_ops_s", "ops/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("get_p50_us", "us", "lower"),
    m("txn_p50_us", "us", "lower"),
];

/// Reported by every workload with tracing on; a layer or op that a
/// workload does not run reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("get.p99_us", "us", "lower"),
    m("txn.p99_us", "us", "lower"),
    m("put.p50_us", "us", "lower"),
    m("put.p99_us", "us", "lower"),
    m("range.p50_us", "us", "lower"),
    m("range.p99_us", "us", "lower"),
    m("failed_op_ratio", "ratio", "lower"),
    m("store.get_self_ns", "ns", "lower"),
    m("router.shard_of_ns", "ns", "lower"),
    m("store.collision_batch_ratio", "ratio", "lower"),
    m("leaplist.lookup_ns", "ns", "lower"),
    m("leaplist.update_p50_us", "us", "lower"),
    m("leaplist.update_p99_us", "us", "lower"),
    m("leaplist.range_query_us", "us", "lower"),
    m("leaplist.node_fill", "ratio", "higher"),
    m("leaplist.bundle_depth_max", "count", "lower"),
    m("stm.commits_per_op", "count", "lower"),
    m("stm.ro_commits_per_op", "count", "lower"),
    m("stm.commit_ratio", "ratio", "higher"),
    m("stm.conflict_read_aborts_per_kop", "count", "lower"),
    m("stm.conflict_commit_aborts_per_kop", "count", "lower"),
    m("stm.explicit_aborts_per_kop", "count", "lower"),
    m("stm.attempts_p99", "count", "lower"),
    m("stm.timeouts", "count", "lower"),
    m("stm.prune_lag_p50", "commits", "lower"),
    m("stm.prune_lag_max", "commits", "lower"),
    m("ebr.epochs_per_s", "1/s", "higher"),
    m("trace.overhead_ratio", "ratio", "higher"),
    m("client.gen_ns", "ns", "lower"),
    m("variants.leap_lt_ops_s", "ops/s", "higher"),
    m("variants.leap_tm_ops_s", "ops/s", "higher"),
    m("variants.leap_cop_ops_s", "ops/s", "higher"),
    m("variants.leap_rwlock_ops_s", "ops/s", "higher"),
];

/// Reported on top of [`PER_LAYER`] by the `scan` workload only, the one
/// workload that runs paged snapshot scans. `scan` is not in
/// `BENCHMARK.json` while it can crash in a snapshot walk (see README.md),
/// so neither are these.
pub const SNAPSHOT_LAYER: &[Metric] = &[
    m("snapscan.p50_us", "us", "lower"),
    m("snapscan.p99_us", "us", "lower"),
    m("leaplist.snapshot_page_us", "us", "lower"),
    m("cursor.open_us", "us", "lower"),
    m("cursor.page_p50_us", "us", "lower"),
    m("cursor.page_p99_us", "us", "lower"),
];

/// Reported on top of [`PER_LAYER`] by the `reshard` workload only, the
/// one workload that runs the rebalance layer. `reshard` is not in
/// `BENCHMARK.json` while its group check fails (see README.md), so
/// neither are these.
pub const RESHARD_LAYER: &[Metric] = &[
    m("store.key_spread_ratio", "ratio", "lower"),
    m("rebalance.step_p50_us", "us", "lower"),
    m("rebalance.step_p99_us", "us", "lower"),
    m("rebalance.busy_share", "ratio", "lower"),
    m("rebalance.migrations", "count", "higher"),
    m("rebalance.aborted_migrations", "count", "lower"),
];

/// Values for one table, filled by name; rendering refuses a name the
/// table lacks and fills nothing in silently.
pub struct Values {
    table: Vec<&'static Metric>,
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// A table made of `tables`, in order.
    pub fn new(tables: &[&'static [Metric]]) -> Self {
        Values {
            table: tables.iter().flat_map(|t| t.iter()).collect(),
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.name == name),
            "metric {name} is not in the table"
        );
        self.values.insert(name, value);
    }

    /// The `metrics` object, or the names of the metrics never set.
    pub fn to_json(&self) -> Result<Json, Vec<&'static str>> {
        let missing: Vec<&'static str> = self
            .table
            .iter()
            .filter(|m| !self.values.contains_key(m.name))
            .map(|m| m.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(Json::Obj(
            self.table
                .iter()
                .map(|m| {
                    let value = Json::obj()
                        .field("value", Json::f64(self.values[m.name]))
                        .field("unit", Json::str(m.unit));
                    (m.name.to_string(), value)
                })
                .collect(),
        ))
    }

    /// One `name value unit` line per metric, for reading by eye.
    pub fn lines(&self) -> String {
        self.table
            .iter()
            .filter_map(|m| {
                let v = self.values.get(m.name)?;
                Some(format!(
                    "{:<36} {v:>16.4} {:<8} {} is better\n",
                    m.name, m.unit, m.better
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics `BENCHMARK.json` lists.
    fn listed() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    fn all() -> impl Iterator<Item = &'static Metric> {
        listed().chain(SNAPSHOT_LAYER).chain(RESHARD_LAYER)
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in all() {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {:?}",
                m.name
            );
            assert!(seen.insert(m.name), "metric {} listed twice", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in listed() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = text.matches("\"better\"").count();
        assert_eq!(
            count,
            listed().count(),
            "BENCHMARK.json lists other metrics"
        );
    }

    #[test]
    fn rendering_requires_every_metric() {
        let mut v = Values::new(&[END_TO_END]);
        v.set("setup_s", 1.5);
        assert!(v.to_json().unwrap_err().contains(&"throughput_ops_s"));
        for m in END_TO_END {
            v.set(m.name, 2.0);
        }
        let json = v.to_json().expect("complete").render();
        assert!(
            json.contains("\"setup_s\":{\"value\":2,\"unit\":\"s\"}"),
            "{json}"
        );
    }
}
