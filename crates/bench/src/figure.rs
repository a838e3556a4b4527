//! A figure as a value, and the one runner that turns it into data,
//! files and claim verdicts: [`run`] is the only place that resolves the
//! scale, fans a grid through [`run_sweep`], writes the files and
//! evaluates the claims.

use crate::table::Table;
use crate::{circulation_pct, Result, Scale};
use spider_core::output::{self, FigureRow};
use spider_core::{run_sweep, ExperimentConfig, SchemeConfig, SweepJob};
use std::path::{Path, PathBuf};

/// One paper figure (or proposition, ablation, sweep) as data.
pub struct Figure {
    /// Registry name = output file stem (`<name>.csv`, `<name>.jsonl`).
    pub name: &'static str,
    /// Where in the paper the artifact lives.
    pub paper_ref: &'static str,
    /// One line on what is run.
    pub about: &'static str,
    /// The scales this figure distinguishes, ascending; a request for any
    /// other runs the nearest of these.
    pub scales: &'static [Scale],
    /// How the data is produced, and the claims over it.
    pub body: Body,
}

/// The two shapes of figure data.
pub enum Body {
    /// A grid of simulator runs: one [`FigureRow`] per [`Point`].
    Sweep {
        /// Builds the whole grid for a resolved scale and seed.
        grid: fn(Scale, u64) -> Result<Grid>,
        /// The paper's statements about the rows.
        claims: &'static [Claim<Rows>],
    },
    /// A column table computed directly (the LP-level figures, fig10).
    Table {
        /// Builds the table for a resolved scale and seed.
        build: fn(Scale, u64) -> Result<Table>,
        /// The paper's statements about the table.
        claims: &'static [Claim<Table>],
    },
}

/// A statement the paper (or this reproduction) makes about a figure,
/// checked against the figure's own data.
pub struct Claim<D: 'static> {
    /// The statement, as it appears in `REPRODUCTION.json`.
    pub text: &'static str,
    /// `Ok(margin)` — how far inside the claim the data sits, in the
    /// claim's own unit — or `Err(why)`.
    pub check: fn(&D) -> Check,
}

impl<D> Claim<D> {
    /// A claim from its statement and its check.
    pub const fn new(text: &'static str, check: fn(&D) -> Check) -> Self {
        Claim { text, check }
    }
}

/// A claim's result: the margin it holds by, or why it does not.
pub type Check = Result<f64, String>;

/// A claim's statement and its result on one run's data.
pub type Verdict = (&'static str, Check);

/// `Ok(margin)` when `margin >= 0`, else `Err(why())`.
pub fn holds(margin: f64, why: impl FnOnce() -> String) -> Check {
    if margin >= 0.0 {
        Ok(margin)
    } else {
        Err(why())
    }
}

/// One grid point: a simulator job and the labels of the row it yields.
pub struct Point {
    /// `FigureRow::experiment`; also what `--only` filters on.
    pub experiment: String,
    /// `FigureRow::parameter`.
    pub parameter: &'static str,
    /// `FigureRow::value`.
    pub value: f64,
    /// Replaces the report's scheme name (variants of one scheme).
    pub scheme: Option<String>,
    /// The run.
    pub job: SweepJob,
}

impl Point {
    /// One run of `scheme` on `base`; `name` replaces the report's scheme
    /// name.
    pub fn of(
        experiment: &str,
        (parameter, value): (&'static str, f64),
        name: Option<String>,
        scheme: SchemeConfig,
        base: &ExperimentConfig,
    ) -> Point {
        let cfg = ExperimentConfig {
            scheme,
            ..base.clone()
        };
        Point {
            experiment: experiment.to_string(),
            parameter,
            value,
            scheme: name,
            job: SweepJob::Scheme(cfg),
        }
    }
}

/// What a sweep figure's grid function returns.
#[derive(Default)]
pub struct Grid {
    /// The runs, in row order.
    pub points: Vec<Point>,
    /// Experiments (label, config) whose demand circulation share is a
    /// reference line of the figure; the runner computes it.
    pub circulation_of: Vec<(String, ExperimentConfig)>,
}

impl From<Vec<Point>> for Grid {
    fn from(points: Vec<Point>) -> Grid {
        let circulation_of = Vec::new();
        Grid {
            points,
            circulation_of,
        }
    }
}

/// What a sweep figure's claims see.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    /// One row per grid point, in grid order.
    pub rows: Vec<FigureRow>,
    /// Per experiment label, the demand's circulation share in percent
    /// ([`circulation_pct`]), where the grid asked for it.
    pub circulation_pct: Vec<(String, f64)>,
}

impl Rows {
    /// The row of `scheme` under `experiment`.
    pub fn scheme(&self, experiment: &str, scheme: &str) -> Result<&FigureRow, String> {
        let mut rows = self.rows.iter();
        rows.find(|r| r.experiment == experiment && r.scheme == scheme)
            .ok_or_else(|| format!("no {scheme} row under {experiment}"))
    }

    /// The circulation share (percent of demand) of `experiment`.
    pub fn circulation_pct(&self, experiment: &str) -> Result<f64, String> {
        let found = self.circulation_pct.iter().find(|(l, _)| l == experiment);
        found
            .map(|&(_, pct)| pct)
            .ok_or_else(|| format!("no circulation reference for {experiment}"))
    }
}

/// What the command line chooses for a run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Requested scale (each figure resolves it to one it defines).
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Where `<name>.csv` / `<name>.jsonl` go; `None` = stdout only.
    pub out_dir: Option<PathBuf>,
    /// Keep only grid points whose experiment label is, or has as a
    /// dash-separated part, this string (`isp`, `ripple`, `protected`).
    pub only: Option<String>,
}

impl Figure {
    /// The claim statements, in order.
    pub fn claim_texts(&self) -> Vec<&'static str> {
        match &self.body {
            Body::Sweep { claims, .. } => claims.iter().map(|c| c.text).collect(),
            Body::Table { claims, .. } => claims.iter().map(|c| c.text).collect(),
        }
    }

    /// The scale a request resolves to: the nearest one this figure
    /// defines (the smaller on a tie).
    pub fn resolve(&self, requested: Scale) -> Scale {
        let distance = |s: &&Scale| (**s as i32 - requested as i32).abs();
        let nearest = self.scales.iter().min_by_key(distance);
        nearest.copied().unwrap_or(Scale::Default)
    }
}

fn evaluate<D>(claims: &[Claim<D>], data: &D) -> Vec<Verdict> {
    claims.iter().map(|c| (c.text, (c.check)(data))).collect()
}

/// Runs one figure: resolve the scale, build the data (the whole grid in
/// one [`run_sweep`]), print and write it, evaluate the claims. A failed
/// claim is a verdict, not an `Err`. `--only` runs a partial grid, so it
/// skips the claims (they are statements about the whole figure), and a
/// table has no labels for it to select.
pub fn run(fig: &Figure, opts: &Options) -> Result<Vec<Verdict>> {
    let scale = fig.resolve(opts.scale);
    let nearest = if scale == opts.scale {
        ""
    } else {
        " (the nearest it defines)"
    };
    eprintln!("{}: {scale} scale{nearest}, seed {}", fig.name, opts.seed);
    let out = opts.out_dir.as_deref();
    let verdicts = match &fig.body {
        Body::Sweep { grid, claims } => {
            let data = sweep(fig.name, grid(scale, opts.seed)?, opts.only.as_deref())?;
            let rows = &data.rows;
            let (text, csv) = (output::to_table(rows), output::to_csv(rows));
            emit(fig.name, &text, &csv, &output::to_json_lines(rows), out)?;
            if opts.only.is_some() {
                eprintln!("{}: claims skipped on a partial grid", fig.name);
                return Ok(Vec::new());
            }
            evaluate(claims, &data)
        }
        Body::Table { build, claims } => {
            if let Some(only) = &opts.only {
                let what = format!(
                    "--only {only}: {} is a table, not a labelled grid",
                    fig.name
                );
                return Err(what.into());
            }
            let table = build(scale, opts.seed)?;
            let (text, csv) = (table.to_text(), table.to_csv());
            emit(fig.name, &text, &csv, &table.to_json_lines(), out)?;
            evaluate(claims, &table)
        }
    };
    // Margins go to stdout, not into `REPRODUCTION.json`.
    for (claim, check) in &verdicts {
        match check {
            Ok(margin) => println!("  ✓ {claim} (margin {margin:.3})"),
            Err(why) => println!("  ✗ {claim}: {why}"),
        }
    }
    Ok(verdicts)
}

/// Filters the grid by `--only`, fans its jobs through one [`run_sweep`]
/// and labels the reports.
fn sweep(figure: &str, mut grid: Grid, only: Option<&str>) -> Result<Rows> {
    if let Some(only) = only {
        let keep = |label: &str| label == only || label.split('-').any(|part| part == only);
        let mut labels: Vec<String> = grid.points.iter().map(|p| p.experiment.clone()).collect();
        labels.dedup();
        grid.points.retain(|p| keep(&p.experiment));
        grid.circulation_of.retain(|(label, _)| keep(label));
        if grid.points.is_empty() {
            let labels = labels.join(", ");
            return Err(format!("--only {only} matches no label of {figure} ({labels})").into());
        }
    }
    let mut data = Rows::default();
    for (label, cfg) in grid.circulation_of {
        let pct = circulation_pct(&cfg)?;
        eprintln!("  {label}: demand circulation fraction = {pct:.1}%");
        data.circulation_pct.push((label, pct));
    }
    eprintln!("  running {} jobs…", grid.points.len());
    let (labels, jobs): (Vec<_>, Vec<SweepJob>) = grid
        .points
        .into_iter()
        .map(|p| ((p.experiment, p.parameter, p.value, p.scheme), p.job))
        .unzip();
    for ((experiment, parameter, value, scheme), mut report) in
        labels.into_iter().zip(run_sweep(&jobs)?)
    {
        if let Some(scheme) = scheme {
            report.scheme = scheme;
        }
        data.rows
            .push(FigureRow::new(&experiment, parameter, value, &report));
    }
    Ok(data)
}

/// Prints `text` and, under `--out DIR`, writes `DIR/<name>.csv` and
/// `DIR/<name>.jsonl`.
fn emit(name: &str, text: &str, csv: &str, jsonl: &str, out_dir: Option<&Path>) -> Result<()> {
    println!("{text}");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), csv)?;
        std::fs::write(dir.join(format!("{name}.jsonl")), jsonl)?;
        eprintln!("wrote {}/{{{name}.csv,{name}.jsonl}}", dir.display());
    }
    Ok(())
}
