//! The observed-run harness shared by every sharded workload.
//!
//! A workload (the soak and controller campaigns, the chaos mesh
//! campaign, the mesh, DVS and reliability benches) is a static cell
//! list run on `socbus_exec::run_shards`. How it is *observed* is one
//! decision, made here once:
//!
//! * [`Observe::Off`] — telemetry disabled, nothing recorded;
//! * [`Observe::Trace`] — every named sub-run records into a private,
//!   sub-run-constructed [`Recorder`] (the `Rc`-based [`Telemetry`]
//!   handles never cross threads);
//! * [`Observe::Health`] — as `Trace`, and each sub-run's stream also
//!   folds through the health aggregator into one incident-report
//!   scope named after the sub-run.
//!
//! A shard body wraps its work in [`Observe::cell`] and runs one or more
//! named sub-runs through [`CellObserver::run`]; [`Observe::merge`]
//! absorbs the recorders and pushes the scopes in shard order, then
//! sub-run order. The merged recording and the `socbus-incident v1`
//! document are therefore byte-identical for every thread count.
//!
//! [`Observation::write_artefacts`] writes what a run leaves behind —
//! the result JSON, the JSONL event log plus Perfetto trace (with the
//! health counter tracks), and the incident report — and returns an
//! error instead of panicking when a path cannot be written.

use std::io::Write;
use std::path::Path;
use std::rc::Rc;

use crate::{HealthAggregator, HealthConfig, HealthReport, Recorder, ScopeReport, Telemetry};

/// How a sharded workload is observed.
#[derive(Debug)]
pub enum Observe {
    /// Telemetry disabled.
    Off,
    /// One private recorder per sub-run, merged in shard order.
    Trace,
    /// `Trace` plus one health scope per sub-run.
    Health(HealthConfig),
}

/// One shard's result plus what its sub-runs recorded; built by
/// [`Observe::cell`], consumed by [`Observe::merge`].
pub struct ObservedCell<R> {
    value: R,
    recorders: Vec<Recorder>,
    scopes: Vec<ScopeReport>,
}

/// The merged observation of a whole run.
#[derive(Default)]
pub struct Observation {
    /// The shard-order merge of every sub-run's recorder (`None` when
    /// the run was not traced).
    pub recorder: Option<Recorder>,
    /// One scope per sub-run, in shard order (`None` without health).
    pub health: Option<HealthReport>,
}

impl Observe {
    /// The mode a bin's output flags ask for: health when an incident
    /// report is wanted, a trace when only an event log is, else off.
    #[must_use]
    pub fn for_outputs(trace_out: bool, health_out: bool) -> Observe {
        if health_out {
            Observe::Health(HealthConfig::default())
        } else if trace_out {
            Observe::Trace
        } else {
            Observe::Off
        }
    }

    /// Runs one shard: `body` runs the cell's named sub-runs through the
    /// [`CellObserver`] it is given and returns the cell's result.
    pub fn cell<R>(&self, body: impl FnOnce(&mut CellObserver<'_>) -> R) -> ObservedCell<R> {
        let mut obs = CellObserver {
            observe: self,
            recorders: Vec::new(),
            scopes: Vec::new(),
        };
        let value = body(&mut obs);
        ObservedCell {
            value,
            recorders: obs.recorders,
            scopes: obs.scopes,
        }
    }

    /// Merges shard results in the order given (the shard order
    /// `run_shards` returns): recorders are absorbed into one and scopes
    /// pushed into one report, sub-run by sub-run.
    #[must_use]
    pub fn merge<R>(&self, cells: Vec<ObservedCell<R>>) -> (Vec<R>, Observation) {
        let combined = Recorder::new();
        let mut report = HealthReport::new();
        let mut values = Vec::with_capacity(cells.len());
        for cell in cells {
            for rec in &cell.recorders {
                combined.absorb(rec);
            }
            for scope in cell.scopes {
                report.push_scope(scope);
            }
            values.push(cell.value);
        }
        let seen = Observation {
            recorder: (!matches!(self, Observe::Off)).then_some(combined),
            health: matches!(self, Observe::Health(_)).then_some(report),
        };
        (values, seen)
    }
}

/// The per-shard side of the harness: runs named sub-runs.
pub struct CellObserver<'a> {
    observe: &'a Observe,
    recorders: Vec<Recorder>,
    scopes: Vec<ScopeReport>,
}

impl CellObserver<'_> {
    /// Runs one sub-run named `name` (its health scope's name). `body`
    /// must release every telemetry handle it took before returning.
    ///
    /// # Panics
    ///
    /// Panics if the value `body` returns still holds a handle to the
    /// sub-run's recorder.
    pub fn run<T>(&mut self, name: &str, body: impl FnOnce(&mut SubRun<'_>) -> T) -> T {
        let health = match self.observe {
            Observe::Health(cfg) => Some(cfg),
            Observe::Off | Observe::Trace => None,
        };
        let mut sub = SubRun {
            name,
            health,
            recorder: (!matches!(self.observe, Observe::Off)).then(|| Rc::new(Recorder::new())),
            scope: None,
        };
        let out = body(&mut sub);
        let _ = sub.health_scope();
        if let Some(rec) = sub.recorder {
            let rec = Rc::try_unwrap(rec)
                .ok()
                .expect("the sub-run released every telemetry handle");
            self.recorders.push(rec);
        }
        self.scopes.extend(sub.scope);
        out
    }
}

/// One named sub-run in progress.
pub struct SubRun<'a> {
    name: &'a str,
    health: Option<&'a HealthConfig>,
    recorder: Option<Rc<Recorder>>,
    scope: Option<ScopeReport>,
}

impl SubRun<'_> {
    /// The handle the sub-run records through (disabled under
    /// [`Observe::Off`]).
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.recorder
            .as_ref()
            .map_or_else(Telemetry::off, Telemetry::from_recorder)
    }

    /// Under [`Observe::Health`], folds what the sub-run has recorded so
    /// far into its health scope and returns it; later calls return the
    /// same scope. A sub-run that cross-checks its own verdicts against
    /// the scope calls this before its last records; otherwise the
    /// harness calls it when the sub-run returns.
    pub fn health_scope(&mut self) -> Option<&ScopeReport> {
        let (Some(cfg), Some(rec)) = (self.health, &self.recorder) else {
            return None;
        };
        let name = self.name;
        Some(
            self.scope
                .get_or_insert_with(|| HealthAggregator::scope_from_recorder(name, cfg, rec)),
        )
    }
}

/// Writes `contents` to `path`, creating its parent directory.
///
/// # Errors
///
/// Returns a message naming the path when the directory or the file
/// cannot be written.
pub fn write_output(path: &str, contents: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

impl Observation {
    /// Writes a run's artefacts, logging one `{bin}: ...` footer line
    /// per artefact to `log`:
    ///
    /// * `json` to `out`;
    /// * with a health report and `health_out`, the incident report;
    /// * with a recorder and `trace_out`, the JSONL event log plus a
    ///   Perfetto trace at `<trace_out>.trace.json`, the health scores
    ///   and budget burn riding along as counter tracks; a ring overflow
    ///   is always warned about.
    ///
    /// # Errors
    ///
    /// Returns the first path that could not be written.
    pub fn write_artefacts(
        &self,
        bin: &str,
        out: &str,
        json: &str,
        trace_out: Option<&str>,
        health_out: Option<&str>,
        log: &mut dyn Write,
    ) -> Result<(), String> {
        write_output(out, json)?;
        if let (Some(path), Some(health)) = (health_out, &self.health) {
            write_output(path, &health.serialize())?;
            let incidents: usize = health.scopes.iter().map(|s| s.incidents.len()).sum();
            let alerts: usize = health.scopes.iter().map(|s| s.alerts.len()).sum();
            let _ = writeln!(
                log,
                "{bin}: incidents -> {path} ({} scope(s), {incidents} incident(s), {alerts} alert(s))",
                health.scopes.len()
            );
        }
        if let (Some(path), Some(rec)) = (trace_out, &self.recorder) {
            write_output(path, &rec.export_jsonl())?;
            let perfetto = format!("{path}.trace.json");
            let counters = self
                .health
                .as_ref()
                .map(HealthReport::counter_samples)
                .unwrap_or_default();
            write_output(&perfetto, &rec.export_chrome_trace_with_counters(&counters))?;
            let stats = rec.ring_stats();
            let _ = writeln!(
                log,
                "{bin}: telemetry -> {path} + {perfetto} ({} recorded, {} dropped)",
                stats.recorded, stats.dropped
            );
            if let Some(warning) = stats.overflow_warning() {
                let _ = writeln!(log, "{bin}: {warning}");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetrySink;

    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("socbus-observe-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// Two sub-runs per cell: one scope each, named and ordered as run,
    /// and the merged recording holds both sub-runs' events.
    #[test]
    fn health_mode_keeps_one_scope_per_sub_run_in_order() {
        let observe = Observe::Health(HealthConfig::default());
        let cells: Vec<ObservedCell<u64>> = (0..2u64)
            .map(|c| {
                observe.cell(|obs| {
                    let a = obs.run(&format!("c{c}/a"), |sub| {
                        sub.telemetry().event("demo.tick", &[], c);
                        1
                    });
                    let b = obs.run(&format!("c{c}/b"), |sub| {
                        assert!(sub.health_scope().is_some());
                        sub.telemetry().event("demo.tick", &[], c + 10);
                        2
                    });
                    a + b
                })
            })
            .collect();
        let (values, seen) = observe.merge(cells);
        assert_eq!(values, [3, 3]);
        let names: Vec<String> = seen
            .health
            .expect("health mode")
            .scopes
            .into_iter()
            .map(|s| s.scope)
            .collect();
        assert_eq!(names, ["c0/a", "c0/b", "c1/a", "c1/b"]);
        assert_eq!(seen.recorder.expect("traced").ring_stats().recorded, 4);
    }

    #[test]
    fn off_and_trace_modes_record_only_what_they_promise() {
        let off = Observe::Off.cell(|obs| obs.run("x", |sub| sub.telemetry().is_enabled()));
        let (values, seen) = Observe::Off.merge(vec![off]);
        assert_eq!(values, [false]);
        assert!(seen.recorder.is_none() && seen.health.is_none());
        let traced = Observe::Trace.cell(|obs| obs.run("x", |sub| sub.health_scope().is_none()));
        let (values, seen) = Observe::Trace.merge(vec![traced]);
        assert_eq!(values, [true]);
        assert!(seen.recorder.is_some() && seen.health.is_none());
    }

    /// Every trace writer goes through here, so a dropped event must
    /// always surface as the operator warning.
    #[test]
    fn trace_writer_warns_about_ring_overflow() {
        let rec = Recorder::with_capacity(1);
        rec.event("demo.tick", &[], 1);
        rec.event("demo.tick", &[], 2);
        let seen = Observation {
            recorder: Some(rec),
            health: None,
        };
        let dir = scratch_dir("overflow");
        let trace = dir.join("t.jsonl");
        let mut log = Vec::new();
        seen.write_artefacts(
            "demo",
            dir.join("out.json").to_str().expect("utf-8"),
            "{}\n",
            trace.to_str(),
            None,
            &mut log,
        )
        .expect("writable");
        let log = String::from_utf8(log).expect("utf-8");
        assert!(
            log.contains("demo: WARNING: telemetry ring dropped 1 of 2 events"),
            "{log}"
        );
        assert!(dir.join("t.jsonl.trace.json").exists());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// An output path under a regular file is an error, not a panic.
    #[test]
    fn unwritable_output_path_is_an_error() {
        let dir = scratch_dir("unwritable");
        let file = dir.join("plain");
        std::fs::write(&file, "x").expect("write");
        let bad = file.join("out.json");
        let bad = bad.to_str().expect("utf-8");
        assert!(write_output(bad, "{}").is_err());
        let seen = Observation::default();
        let mut log = Vec::new();
        assert!(seen
            .write_artefacts("demo", bad, "{}", None, None, &mut log)
            .is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
