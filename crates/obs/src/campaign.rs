//! The campaign runner: one driver for every deterministic campaign
//! matrix (fault, chaos, partition, workload).
//!
//! A campaign is a set of kinds crossed with seeds and, optionally,
//! payload sizes and load multipliers. The campaign supplies the matrix
//! and a `run_cell` closure; the runner owns everything else:
//!
//! - **The filter.** `<PREFIX>_KIND`, `<PREFIX>_SEED`, `<PREFIX>_SIZE`
//!   and `<PREFIX>_LOAD` narrow the matrix. A kind must be one of the
//!   campaign's ids. A seed, size or load replaces its axis, so an
//!   off-matrix value runs that value. A filter on an axis the
//!   campaign does not have matches no cell, which panics.
//! - **The cell identity.** Each [`Cell`] carries its flight-dump label
//!   (`fault_drop_seed7_size64`) and its one-line repro command.
//! - **The budget.** Every cell is timed; [`Run::finish`] prints the
//!   five slowest and fails naming every cell over
//!   `CAMPAIGN_CELL_BUDGET_MS`, when that is set.
//! - **The report.** [`Run::write_report`] writes
//!   `{"cells":[…],…,"total":N,"violations":M}` to `$<NAME>_REPORT`,
//!   every string escaped through [`crate::json::write_string`].
//! - **The verdict.** [`Run::finish`] fails with a digest of every
//!   violation next to its cell's repro command.
//!
//! The environment is read through an injectable lookup
//! ([`Campaign::env`]), so tests of the filter never touch the process
//! environment.

use std::fmt::{Display, Write as _};
use std::str::FromStr;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::write_string;
use crate::Time;

/// The per-cell wall-clock ceiling, in milliseconds, when set.
const CELL_BUDGET_VAR: &str = "CAMPAIGN_CELL_BUDGET_MS";

/// An environment lookup: variable name to value.
type Env = Box<dyn Fn(&str) -> Option<String>>;

/// What the runner needs from one finished cell.
pub trait CellReport {
    /// The invariant violations the cell found; empty when healthy.
    fn violations(&self) -> &[String];

    /// Write the campaign's own report members. They follow the matrix
    /// coordinates and precede `violations` and `repro`.
    fn write_fields(&self, _fields: &mut Fields<'_>) {}
}

/// Members appended to one cell's JSON object.
pub struct Fields<'a>(&'a mut String);

impl Fields<'_> {
    /// A string member, escaped.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_string(self.0, value);
        self
    }

    /// A member whose value is already JSON (a number, `null`, an
    /// array or object the campaign rendered).
    pub fn raw(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.key(key);
        let _ = write!(self.0, "{value}");
        self
    }

    fn key(&mut self, key: &str) {
        self.0.push(',');
        write_string(self.0, key);
        self.0.push(':');
    }
}

/// A campaign matrix and the command that replays one of its cells.
pub struct Campaign<K> {
    prefix: &'static str,
    command: &'static str,
    kinds: Vec<K>,
    kind_id: fn(K) -> &'static str,
    seeds: Vec<u64>,
    sizes: Option<Vec<usize>>,
    loads: Option<Vec<f64>>,
    env: Env,
}

impl<K: Copy> Campaign<K> {
    /// A `kinds × seeds` matrix filtered by `<prefix>_*` variables.
    /// `kind_id` names a kind in filters, labels and reports; `command`
    /// is the repro command that follows the filter assignments.
    pub fn new(
        prefix: &'static str,
        command: &'static str,
        kinds: &[K],
        kind_id: fn(K) -> &'static str,
        seeds: &[u64],
    ) -> Self {
        Campaign {
            prefix,
            command,
            kinds: kinds.to_vec(),
            kind_id,
            seeds: seeds.to_vec(),
            sizes: None,
            loads: None,
            env: Box::new(|var| std::env::var(var).ok()),
        }
    }

    /// Add a payload-size axis.
    pub fn sizes(mut self, sizes: &[usize]) -> Self {
        self.sizes = Some(sizes.to_vec());
        self
    }

    /// Add a load-multiplier axis.
    pub fn loads(mut self, loads: &[f64]) -> Self {
        self.loads = Some(loads.to_vec());
        self
    }

    /// Read filters, the budget and the report path through `env`
    /// instead of the process environment.
    pub fn env(mut self, env: impl Fn(&str) -> Option<String> + 'static) -> Self {
        self.env = Box::new(env);
        self
    }

    fn name(&self) -> String {
        self.prefix.to_lowercase()
    }

    fn var(&self, axis: &str) -> Option<String> {
        (self.env)(&format!("{}_{axis}", self.prefix))
    }

    /// One axis after its filter: `[None]` when the campaign lacks the
    /// axis, the filter's value alone when set, else the matrix values.
    fn axis<T: Copy + FromStr>(&self, axis: &str, values: Option<&[T]>) -> Vec<Option<T>> {
        let prefix = self.prefix;
        match (values, self.var(axis)) {
            (None, None) => vec![None],
            (None, Some(raw)) => panic!(
                "{prefix}_{axis}={raw} matches no cell: the {} campaign has no {} axis",
                self.name(),
                axis.to_lowercase()
            ),
            (Some(values), None) => values.iter().copied().map(Some).collect(),
            (Some(_), Some(raw)) => match raw.parse() {
                Ok(value) => vec![Some(value)],
                Err(_) => panic!("{prefix}_{axis}={raw} is not a valid value"),
            },
        }
    }

    /// The filtered matrix, in kind → seed → size → load order.
    fn cells(&self) -> Vec<Cell<K>> {
        let mut kinds = self.kinds.clone();
        if let Some(id) = self.var("KIND") {
            kinds.retain(|&k| (self.kind_id)(k) == id);
            if kinds.is_empty() {
                let ids: Vec<&str> = self.kinds.iter().map(|&k| (self.kind_id)(k)).collect();
                panic!(
                    "{}_KIND={id} is not a kind of this campaign; valid ids: {}",
                    self.prefix,
                    ids.join(", ")
                );
            }
        }
        let seeds = self.axis("SEED", Some(&self.seeds));
        let sizes = self.axis("SIZE", self.sizes.as_deref());
        let loads = self.axis("LOAD", self.loads.as_deref());
        let mut cells = Vec::new();
        for &kind in &kinds {
            for &seed in seeds.iter().flatten() {
                for &size in &sizes {
                    for &load in &loads {
                        cells.push(self.cell(kind, seed, size, load));
                    }
                }
            }
        }
        cells
    }

    fn cell(&self, kind: K, seed: u64, size: Option<usize>, load: Option<f64>) -> Cell<K> {
        let id = (self.kind_id)(kind);
        let p = self.prefix;
        let mut label = format!("{}_{id}_seed{seed}", self.name());
        let mut tag = format!("{id} seed={seed}");
        let mut repro = format!("{p}_KIND={id} {p}_SEED={seed} ");
        if let Some(size) = size {
            let _ = write!(label, "_size{size}");
            let _ = write!(tag, " size={size}");
            let _ = write!(repro, "{p}_SIZE={size} ");
        }
        if let Some(load) = load {
            let _ = write!(label, "_x{load}");
            let _ = write!(tag, " x{load}");
            let _ = write!(repro, "{p}_LOAD={load} ");
        }
        repro.push_str(self.command);
        Cell {
            kind,
            id,
            seed,
            size,
            load,
            label,
            tag,
            repro,
        }
    }

    /// Run every cell of the filtered matrix through `run_cell`, timing
    /// each.
    pub fn run<R: CellReport>(self, mut run_cell: impl FnMut(&Cell<K>) -> R) -> Run<K, R> {
        let cells = self
            .cells()
            .into_iter()
            .map(|cell| {
                let start = Instant::now();
                let result = run_cell(&cell);
                Finished {
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                    cell,
                    result,
                }
            })
            .collect();
        Run {
            campaign: self,
            cells,
        }
    }
}

/// One cell of a campaign matrix.
#[derive(Debug)]
pub struct Cell<K> {
    /// The campaign's kind.
    pub kind: K,
    id: &'static str,
    /// The scenario seed.
    pub seed: u64,
    /// The payload size, when the campaign has that axis.
    pub size: Option<usize>,
    /// The load multiplier, when the campaign has that axis.
    pub load: Option<f64>,
    label: String,
    tag: String,
    repro: String,
}

impl<K> Cell<K> {
    /// The flight-dump label: `fault_drop_seed7_size64`.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The cell as log lines name it: `drop seed=7 size=64`.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// The command that replays this cell alone.
    pub fn repro(&self) -> &str {
        &self.repro
    }
}

/// A cell with its result and host wall-clock time.
pub struct Finished<K, R> {
    /// The cell that ran.
    pub cell: Cell<K>,
    /// What the campaign's `run_cell` returned.
    pub result: R,
    /// Host wall-clock time of the cell, milliseconds.
    pub wall_ms: f64,
}

/// An executed campaign.
pub struct Run<K, R> {
    campaign: Campaign<K>,
    /// Every cell, matrix order.
    pub cells: Vec<Finished<K, R>>,
}

impl<K: Copy, R: CellReport> Run<K, R> {
    /// Whether filter variables narrowed the matrix.
    pub fn is_filtered(&self) -> bool {
        ["KIND", "SEED", "SIZE", "LOAD"]
            .iter()
            .any(|axis| self.campaign.var(axis).is_some())
    }

    /// Every cell's result, matrix order.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.cells.iter().map(|f| &f.result)
    }

    /// How many cells found a violation.
    pub fn violating(&self) -> usize {
        self.results()
            .filter(|r| !r.violations().is_empty())
            .count()
    }

    /// `{"cells":[…],<extras>,"total":N,"violations":M}`.
    fn report_json(&self, extras: &[(&str, String)]) -> String {
        let mut out = String::from("{\"cells\":[\n");
        for (i, f) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"kind\":");
            write_string(&mut out, f.cell.id);
            let mut fields = Fields(&mut out);
            fields.raw("seed", f.cell.seed);
            if let Some(size) = f.cell.size {
                fields.raw("size", size);
            }
            if let Some(load) = f.cell.load {
                fields.raw("load", load);
            }
            f.result.write_fields(&mut fields);
            fields.key("violations");
            out.push('[');
            for (j, v) in f.result.violations().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                write_string(&mut out, v);
            }
            out.push(']');
            Fields(&mut out).str("repro", &f.cell.repro);
            out.push('}');
        }
        out.push_str("\n],");
        for (key, value) in extras {
            write_string(&mut out, key);
            let _ = write!(out, ":{value},");
        }
        let _ = writeln!(
            out,
            "\"total\":{},\"violations\":{}}}",
            self.cells.len(),
            self.violating()
        );
        out
    }

    /// Write the report document to `$<NAME>_REPORT` (`name`
    /// upper-cased), defaulting to `<default_dir>/<name>.json`, and
    /// print where it went. `extras` are campaign-wide members (already
    /// JSON), written between the cells and the totals.
    pub fn write_report(&self, name: &str, default_dir: &str, extras: &[(&str, String)]) {
        let path = (self.campaign.env)(&format!("{}_REPORT", name.to_uppercase()))
            .unwrap_or_else(|| format!("{default_dir}/{name}.json"));
        std::fs::write(&path, self.report_json(extras))
            .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
        println!(
            "{} campaign: {} cells, {} violating; report at {path}",
            self.campaign.name(),
            self.cells.len(),
            self.violating()
        );
    }

    /// The violation digest: every violation with its cell's repro
    /// command, or `None` when every cell held.
    fn digest(&self) -> Option<String> {
        if self.violating() == 0 {
            return None;
        }
        let mut msg = format!("{} campaign violations:\n", self.campaign.name());
        for f in &self.cells {
            for v in f.result.violations() {
                let _ = writeln!(msg, "  [{}] {v}\n    repro: {}", f.cell.tag, f.cell.repro);
            }
        }
        Some(msg)
    }

    /// Print the five slowest cells, then fail naming every cell over
    /// `CAMPAIGN_CELL_BUDGET_MS`, then fail with the violation digest.
    pub fn finish(&self) {
        let mut by_wall: Vec<&Finished<K, R>> = self.cells.iter().collect();
        by_wall.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        println!("slowest cells (wall clock):");
        for f in by_wall.iter().take(5) {
            println!("  {:>8.1} ms  [{}]", f.wall_ms, f.cell.tag);
        }
        if let Some(raw) = (self.campaign.env)(CELL_BUDGET_VAR) {
            let budget: f64 = raw
                .parse()
                .unwrap_or_else(|_| panic!("{CELL_BUDGET_VAR}={raw} is not a number of ms"));
            let over: Vec<_> = by_wall.iter().filter(|f| f.wall_ms > budget).collect();
            if !over.is_empty() {
                let mut msg = format!("cells over the {budget} ms wall-clock budget:\n");
                for f in over {
                    let _ = writeln!(msg, "  {:>8.1} ms  [{}]", f.wall_ms, f.cell.tag);
                }
                panic!("{msg}");
            }
        }
        if let Some(digest) = self.digest() {
            panic!("{digest}");
        }
    }
}

/// Per-node histories of a value's distinct transitions, shared by the
/// processes of one cell: [`Histories::record`] appends only when the
/// value differs from the node's last one.
pub struct Histories<T>(Mutex<Vec<Vec<(Time, T)>>>);

impl<T: Copy + PartialEq> Histories<T> {
    /// Empty histories for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Histories(Mutex::new(vec![Vec::new(); nodes]))
    }

    /// Record `value` as `node`'s state at `now`, if it changed.
    pub fn record(&self, node: usize, now: Time, value: T) {
        let mut h = self.0.lock().expect("a cell process panicked mid-record");
        if h[node].last().map(|&(_, last)| last) != Some(value) {
            h[node].push((now, value));
        }
    }

    /// Every node's transitions, in time order.
    pub fn snapshot(&self) -> Vec<Vec<(Time, T)>> {
        self.0
            .lock()
            .expect("a cell process panicked mid-record")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    struct Outcome {
        scenario: String,
        violations: Vec<String>,
    }

    impl CellReport for Outcome {
        fn violations(&self) -> &[String] {
            &self.violations
        }

        fn write_fields(&self, fields: &mut Fields<'_>) {
            fields.str("scenario", &self.scenario);
        }
    }

    fn outcome(violations: &[&str]) -> Outcome {
        Outcome {
            scenario: "synthetic".into(),
            violations: violations.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// A 2 kinds × 3 seeds × 2 sizes × 2 loads matrix reading `vars`.
    fn matrix(vars: &'static [(&str, &str)]) -> Campaign<&'static str> {
        Campaign::new("WL", "cargo run --bin wl", &["a", "b"], |k| k, &[1, 7, 42])
            .sizes(&[0, 64])
            .loads(&[1.0, 2.0])
            .env(|var| {
                vars.iter()
                    .find(|(k, _)| *k == var)
                    .map(|(_, v)| v.to_string())
            })
    }

    #[test]
    fn one_filter_per_axis_narrows_to_exactly_one_cell() {
        assert_eq!(matrix(&[]).cells().len(), 24);
        let cells = matrix(&[
            ("WL_KIND", "b"),
            ("WL_SEED", "7"),
            ("WL_SIZE", "64"),
            ("WL_LOAD", "2"),
        ])
        .cells();
        assert_eq!(cells.len(), 1);
        let c = &cells[0];
        assert_eq!(
            (c.kind, c.seed, c.size, c.load),
            ("b", 7, Some(64), Some(2.0))
        );
        assert_eq!(c.label(), "wl_b_seed7_size64_x2");
        assert_eq!(c.tag(), "b seed=7 size=64 x2");
        assert_eq!(
            c.repro(),
            "WL_KIND=b WL_SEED=7 WL_SIZE=64 WL_LOAD=2 cargo run --bin wl"
        );
    }

    #[test]
    fn off_matrix_seed_size_and_load_run_as_given() {
        let cells = matrix(&[("WL_SEED", "5"), ("WL_SIZE", "8"), ("WL_LOAD", "0.25")]).cells();
        let coords: Vec<_> = cells
            .iter()
            .map(|c| (c.kind, c.seed, c.size, c.load))
            .collect();
        assert_eq!(
            coords,
            vec![("a", 5, Some(8), Some(0.25)), ("b", 5, Some(8), Some(0.25))]
        );
    }

    #[test]
    #[should_panic(expected = "WL_KIND=c is not a kind of this campaign; valid ids: a, b")]
    fn an_unknown_kind_panics_naming_the_valid_ids() {
        matrix(&[("WL_KIND", "c")]).cells();
    }

    #[test]
    #[should_panic(expected = "CH_SIZE=64 matches no cell: the ch campaign has no size axis")]
    fn a_filter_matching_no_cell_panics() {
        Campaign::new("CH", "cargo test", &["kill"], |k| k, &[1])
            .env(|var| (var == "CH_SIZE").then(|| "64".to_string()))
            .cells();
    }

    #[test]
    #[should_panic(expected = "ms  [b seed=7 size=64 x2]")]
    fn a_budget_overrun_names_the_cell() {
        matrix(&[
            ("WL_KIND", "b"),
            ("WL_SEED", "7"),
            ("WL_SIZE", "64"),
            ("WL_LOAD", "2"),
            (CELL_BUDGET_VAR, "1"),
        ])
        .run(|_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            outcome(&[])
        })
        .finish();
    }

    #[test]
    fn the_digest_carries_each_violation_with_its_repro_line() {
        let starved: &[&str] = &["starved", "late"];
        let run = matrix(&[("WL_SIZE", "0"), ("WL_LOAD", "1")])
            .run(|c| outcome(if c.seed == 7 { starved } else { &[] }));
        assert!(run.is_filtered());
        assert_eq!(run.violating(), 2);
        let digest = run.digest().expect("violating cells produce a digest");
        for kind in ["a", "b"] {
            for v in ["starved", "late"] {
                let line = format!(
                    "  [{kind} seed=7 size=0 x1] {v}\n    repro: \
                     WL_KIND={kind} WL_SEED=7 WL_SIZE=0 WL_LOAD=1 cargo run --bin wl\n"
                );
                assert!(digest.contains(&line), "{line:?} missing from {digest}");
            }
        }
        let clean = matrix(&[]).run(|_| outcome(&[]));
        assert!(clean.digest().is_none() && !clean.is_filtered());
    }

    #[test]
    fn report_strings_are_escaped_and_round_trip() {
        let nasty = "saw \"quoted\" text, a \\ backslash\nand a newline";
        let run =
            matrix(&[("WL_KIND", "a"), ("WL_SEED", "1"), ("WL_LOAD", "1")]).run(|_| Outcome {
                scenario: nasty.to_string(),
                violations: vec![nasty.to_string()],
            });
        let doc = json::parse(&run.report_json(&[("extra", "{\"p50\":3}".into())]))
            .expect("the report is valid JSON");
        let cells = doc.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells.len(), 2);
        let cell = &cells[0];
        assert_eq!(cell.get("kind").and_then(Json::as_str), Some("a"));
        assert_eq!(cell.get("size").and_then(Json::as_f64), Some(0.0));
        assert_eq!(cell.get("scenario").and_then(Json::as_str), Some(nasty));
        let violations = cell.get("violations").and_then(Json::as_arr).expect("list");
        assert_eq!(violations, [Json::Str(nasty.to_string())]);
        assert_eq!(
            cell.get("repro").and_then(Json::as_str),
            Some("WL_KIND=a WL_SEED=1 WL_SIZE=0 WL_LOAD=1 cargo run --bin wl")
        );
        assert!(doc.get("extra").is_some_and(Json::is_obj));
        assert_eq!(doc.get("total").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("violations").and_then(Json::as_f64), Some(2.0));
    }
}
