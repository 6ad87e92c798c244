//! Machine-readable experiment results.
//!
//! Every figure harness prints a human-readable table; passing
//! `--csv <dir>` additionally writes the rows as CSV so plots can be
//! regenerated without scraping stdout (the paper artifact's
//! `organize_results.sh` / `plot_all_figs.py` pipeline equivalent).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One generic result row: an experiment id, a benchmark/config label,
/// a series name, and a value.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    /// Experiment id (e.g. "fig09").
    pub experiment: String,
    /// Benchmark or x-axis label (e.g. "roms").
    pub label: String,
    /// Series within the experiment (e.g. "m5-hpt").
    pub series: String,
    /// The measured value.
    pub value: f64,
}

impl ResultRow {
    /// Builds a row.
    pub fn new(
        experiment: impl Into<String>,
        label: impl Into<String>,
        series: impl Into<String>,
        value: f64,
    ) -> ResultRow {
        ResultRow {
            experiment: experiment.into(),
            label: label.into(),
            series: series.into(),
            value,
        }
    }
}

/// A CSV sink bound to an output directory; a no-op when disabled.
#[derive(Debug, Default)]
pub struct CsvSink {
    dir: Option<PathBuf>,
    rows: Vec<ResultRow>,
}

impl CsvSink {
    /// A sink writing under `dir`.
    pub fn new(dir: impl AsRef<Path>) -> CsvSink {
        CsvSink {
            dir: Some(dir.as_ref().to_path_buf()),
            rows: Vec::new(),
        }
    }

    /// A disabled sink: `record` buffers nothing, `flush` writes nothing.
    pub fn disabled() -> CsvSink {
        CsvSink::default()
    }

    /// Builds a sink from the process arguments (`--csv <dir>`).
    pub fn from_args() -> CsvSink {
        let args: Vec<String> = std::env::args().collect();
        match args.iter().position(|a| a == "--csv") {
            Some(i) => match args.get(i + 1) {
                Some(dir) => CsvSink::new(dir),
                None => CsvSink::disabled(),
            },
            None => CsvSink::disabled(),
        }
    }

    /// Whether rows will actually be written.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Buffers one row (no-op when disabled).
    pub fn record(&mut self, row: ResultRow) {
        if self.dir.is_some() {
            self.rows.push(row);
        }
    }

    /// Buffers one row from parts.
    pub fn push(&mut self, experiment: &str, label: &str, series: &str, value: f64) {
        self.record(ResultRow::new(experiment, label, series, value));
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Writes the buffered rows to `<dir>/<experiment>.csv` (one file per
    /// experiment id) and clears the buffer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or files.
    pub fn flush(&mut self) -> std::io::Result<Vec<PathBuf>> {
        let Some(dir) = &self.dir else {
            self.rows.clear();
            return Ok(Vec::new());
        };
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut by_exp: std::collections::BTreeMap<&str, Vec<&ResultRow>> = Default::default();
        for r in &self.rows {
            by_exp.entry(&r.experiment).or_default().push(r);
        }
        for (exp, rows) in by_exp {
            let path = dir.join(format!("{exp}.csv"));
            let mut f = fs::File::create(&path)?;
            writeln!(f, "experiment,label,series,value")?;
            for r in rows {
                writeln!(
                    f,
                    "{},{},{},{}",
                    csv_escape(&r.experiment),
                    csv_escape(&r.label),
                    csv_escape(&r.series),
                    r.value
                )?;
            }
            written.push(path);
        }
        self.rows.clear();
        Ok(written)
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_a_noop() {
        let mut sink = CsvSink::disabled();
        sink.push("fig09", "roms", "m5", 1.38);
        assert!(sink.is_empty());
        assert!(!sink.is_enabled());
        assert!(sink.flush().unwrap().is_empty());
    }

    #[test]
    fn writes_one_file_per_experiment() {
        let dir = std::env::temp_dir().join(format!("m5csv-{}", std::process::id()));
        let mut sink = CsvSink::new(&dir);
        sink.push("fig09", "roms", "m5-hpt", 1.375);
        sink.push("fig09", "redis", "anb", 0.964);
        sink.push("fig03", "mcf", "damon", 0.251);
        let files = sink.flush().unwrap();
        assert_eq!(files.len(), 2);
        let fig09 = fs::read_to_string(dir.join("fig09.csv")).unwrap();
        assert!(fig09.starts_with("experiment,label,series,value\n"));
        assert!(fig09.contains("fig09,roms,m5-hpt,1.375"));
        assert!(sink.is_empty(), "flush clears the buffer");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn escaping_handles_commas_and_quotes() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
