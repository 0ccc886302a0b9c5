//! The campaign command line: one parser for every flag of the `fleet`
//! binary's three modes.
//!
//! A campaign is one grid swept through [`crate::store::drive`]: the
//! seed-replicated co-sim flood ([`crate::cosim`], the default),
//! `--dense` spatial tiles ([`crate::dense`]) or `--chaos`
//! fault-injection points ([`crate::chaos`]). [`CampaignArgs::parse`]
//! reads the grid axes and the shared execution flags, validates every
//! value before anything simulates, and builds the [`DriveConfig`];
//! [`CampaignArgs::create_outputs`] creates every file the campaign will
//! write before it runs, and [`CampaignArgs::finish`] writes the shared
//! `--csv`/`--json` exports.
//!
//! Every rejection is a usage error whose message names the flag: an
//! unknown flag, a list given to a scalar (`--seeds 2,9`), a zero count,
//! a grid value outside its axis's domain (`--loss 2`), and a flag the
//! chosen mode does not read (`--loss` with `--dense`).

use std::str::FromStr;

use crate::chaos::{ChaosApp, ChaosConfig};
use crate::cosim::{CosimConfig, MAX_NODES};
use crate::dense::DenseConfig;
use crate::fleet::{fleet_threads, SweepResults};
use crate::store::{DriveConfig, Shard};

/// Which grid a campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Node count × loss × seed co-sim floods (no mode flag).
    Cosim,
    /// `--dense`: node count × density × duty × seed spatial tiles.
    Dense,
    /// `--chaos`: app × fault rate × seed fault-injection points.
    Chaos,
}

impl Mode {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

const COSIM: u8 = 1 << Mode::Cosim as u8;
const DENSE: u8 = 1 << Mode::Dense as u8;
const CHAOS: u8 = 1 << Mode::Chaos as u8;
const ALL: u8 = COSIM | DENSE | CHAOS;

/// Every flag: its name, its value placeholder (`None` for a switch)
/// and the modes that read it.
const FLAGS: &[(&str, Option<&str>, u8)] = &[
    ("--dense", None, ALL),
    ("--chaos", None, ALL),
    ("--nodes", Some("A[,B,..]"), COSIM | DENSE),
    ("--loss", Some("A[,B,..]"), COSIM),
    ("--density", Some("A[,B,..]"), DENSE),
    ("--duty", Some("A[,B,..]"), DENSE),
    ("--apps", Some("A[,B,..]"), CHAOS),
    ("--rates", Some("A[,B,..]"), CHAOS),
    ("--seeds", Some("N"), ALL),
    ("--slots", Some("N"), COSIM | DENSE),
    ("--horizon", Some("N"), CHAOS),
    ("--threads", Some("N"), ALL),
    ("--csv", Some("FILE"), ALL),
    ("--json", Some("FILE"), ALL),
    ("--summary", Some("FILE"), CHAOS),
    ("--check", None, ALL),
    ("--progress", None, ALL),
    ("--store", Some("DIR"), ALL),
    ("--store-stats", None, ALL),
    ("--shard", Some("K/N"), ALL),
];

/// The usage line, listing every flag.
pub fn usage() -> String {
    let mut out = String::from("usage: fleet");
    for (name, value, _) in FLAGS {
        match value {
            Some(v) => out.push_str(&format!(" [{name} {v}]")),
            None => out.push_str(&format!(" [{name}]")),
        }
    }
    out
}

/// One parsed, validated campaign command line.
#[derive(Debug, Clone)]
pub struct CampaignArgs {
    /// The grid to sweep.
    pub mode: Mode,
    /// `--nodes`: node counts (co-sim and dense).
    pub nodes: Vec<usize>,
    /// `--loss`: frame-loss probabilities (co-sim).
    pub losses: Vec<f64>,
    /// `--density`: nodes per hectare (dense).
    pub densities: Vec<f64>,
    /// `--duty`: sample periods in cycles (dense).
    pub duties: Vec<u16>,
    /// `--apps`: applications (chaos).
    pub apps: Vec<ChaosApp>,
    /// `--rates`: fault rates, faults per cycle (chaos).
    pub rates: Vec<f64>,
    /// `--seeds N`: seeds `0..N` per cell.
    pub seeds: u64,
    /// Cycles per point: `--slots` (10 µs slots, one cycle each) in the
    /// co-sim and dense modes, `--horizon` in chaos mode.
    pub horizon: u64,
    /// `--csv`: where to write the per-point CSV.
    pub csv: Option<String>,
    /// `--json`: where to write the per-point JSON.
    pub json: Option<String>,
    /// `--summary`: where to write the chaos campaign summary.
    pub summary: Option<String>,
    /// Everything [`crate::store::drive`] reads.
    pub drive: DriveConfig,
}

impl CampaignArgs {
    /// Parse the arguments after the program name. `Err` carries the
    /// usage error to print above [`usage`] (empty for `--help`).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CampaignArgs, String> {
        let mut given = Given(Vec::new());
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(String::new());
            }
            let &(name, value, _) = FLAGS
                .iter()
                .find(|f| f.0 == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = match value {
                Some(_) => args.next().ok_or_else(|| format!("{name} needs a value"))?,
                None => String::new(),
            };
            given.0.push((name, value));
        }
        let mode = match (given.has("--dense"), given.has("--chaos")) {
            (false, false) => Mode::Cosim,
            (true, false) => Mode::Dense,
            (false, true) => Mode::Chaos,
            (true, true) => return Err("--dense and --chaos are separate modes".into()),
        };
        for (flag, _) in &given.0 {
            if FLAGS.iter().any(|f| f.0 == *flag && f.2 & mode.bit() == 0) {
                let mode = match mode {
                    Mode::Cosim => "the co-sim mode (no --dense or --chaos)",
                    Mode::Dense => "--dense mode",
                    Mode::Chaos => "--chaos mode",
                };
                return Err(format!("{flag} is not read in {mode}"));
            }
        }

        let (cosim, dense, chaos) = (
            CosimConfig::default(),
            DenseConfig::default(),
            ChaosConfig::default(),
        );
        let (nodes, seeds, horizon) = match mode {
            Mode::Cosim => (cosim.nodes, 8, cosim.horizon_slots),
            Mode::Dense => (dense.nodes, 1, dense.horizon_slots),
            Mode::Chaos => (cosim.nodes, 4, chaos.horizon),
        };
        let shard = match given.raw("--shard") {
            Some(s) => Some(
                Shard::parse(s).ok_or_else(|| format!("--shard: `{s}` is not K/N with K < N"))?,
            ),
            None => None,
        };
        let store_dir = given.raw("--store").map(Into::into);
        let check = given.has("--check");
        if shard.is_some() && store_dir.is_none() {
            return Err("--shard needs --store DIR (the shared campaign store)".into());
        }
        if shard.is_some() && check {
            return Err("--shard is a fill mode; run --check unsharded".into());
        }
        let probability = |p: &f64| (0.0..=1.0).contains(p);
        let path = |flag: &str| given.raw(flag).map(str::to_string);
        Ok(CampaignArgs {
            mode,
            nodes: given.list(
                "--nodes",
                vec![nodes],
                |&n| (1..=MAX_NODES).contains(&n),
                "1..=65533, as more nodes do not fit in addresses 2..=0xFFFE",
            )?,
            losses: given.list("--loss", vec![cosim.loss], probability, "[0, 1]")?,
            densities: given.list(
                "--density",
                vec![dense.density_per_ha],
                |d| d.is_finite() && *d > 0.0,
                "a positive, finite number of nodes per hectare",
            )?,
            duties: given.list("--duty", vec![dense.duty], |&d| d > 0, "1..=65535 cycles")?,
            apps: given.list(
                "--apps",
                vec![ChaosApp::Sample, ChaosApp::Filtered],
                |_| true,
                "",
            )?,
            rates: given.list("--rates", vec![0.0, 1e-3], probability, "[0, 1]")?,
            seeds: given.count("--seeds", seeds)?,
            horizon: match mode {
                Mode::Chaos => given.count("--horizon", horizon)?,
                _ => given.count("--slots", horizon)?,
            },
            csv: path("--csv"),
            json: path("--json"),
            summary: path("--summary"),
            drive: DriveConfig {
                threads: given.count("--threads", fleet_threads() as u64)? as usize,
                check,
                progress: given.has("--progress"),
                store_dir,
                store_stats: given.has("--store-stats"),
                shard,
            },
        })
    }

    /// Whether this is a `--shard` fill: it only fills the store, so its
    /// partial grid must not be mistaken for campaign output and no
    /// stdout artifact is written.
    pub fn fill_only(&self) -> bool {
        self.drive.shard.is_some()
    }

    /// Create every file the campaign will write (`--csv`, `--json`,
    /// `--summary`; none for a `--shard` fill), so a path that cannot be
    /// written fails before anything simulates.
    ///
    /// # Errors
    ///
    /// One line naming the first path that cannot be created (see
    /// [`crate::create_outputs`]).
    pub fn create_outputs(&self) -> Result<(), String> {
        if self.fill_only() {
            return Ok(());
        }
        crate::create_outputs([&self.csv, &self.json, &self.summary])
    }

    /// The wall-clock line on stderr, then the `--csv` and `--json`
    /// exports. Stdout stays byte-identical across runs.
    ///
    /// # Errors
    ///
    /// One line naming the path and the OS error if an export cannot be
    /// written (see [`crate::write_output`]).
    pub fn finish(&self, results: &SweepResults) -> Result<(), String> {
        eprintln!("\n{}", results.wall_clock());
        if let Some(path) = &self.csv {
            crate::write_output(path, &results.to_csv())?;
        }
        if let Some(path) = &self.json {
            crate::write_output(path, &results.to_json())?;
        }
        Ok(())
    }
}

/// The flags given, in order, each with its value (empty for a switch).
struct Given(Vec<(&'static str, String)>);

impl Given {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|g| g.0 == flag)
    }

    /// The flag's value; a repeated flag keeps its last one.
    fn raw(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|g| g.0 == flag)
            .map(|g| g.1.as_str())
    }

    /// A comma-separated grid axis: `default` when the flag is absent,
    /// else every value parsed and in its `domain` (checked by `ok`).
    fn list<T: FromStr>(
        &self,
        flag: &str,
        default: Vec<T>,
        ok: impl Fn(&T) -> bool,
        domain: &str,
    ) -> Result<Vec<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let Some(raw) = self.raw(flag) else {
            return Ok(default);
        };
        raw.split(',')
            .map(|s| {
                let s = s.trim();
                let v: T = s
                    .parse()
                    .map_err(|e| format!("{flag}: cannot parse `{s}`: {e}"))?;
                if ok(&v) {
                    Ok(v)
                } else {
                    Err(format!("{flag}: `{s}` is out of range: {domain}"))
                }
            })
            .collect()
    }

    /// A scalar count: exactly one value, at least 1.
    fn count(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.list(flag, vec![default], |&n| n > 0, "a count is at least 1")?[..] {
            [n] => Ok(n),
            _ => Err(format!(
                "{flag} takes one value, not the list `{}`",
                self.raw(flag).unwrap_or("")
            )),
        }
    }
}
