//! Chrome-trace (Perfetto) and CSV export of a collected
//! [`TelemetryReport`], plus the shape validator the CI smoke job runs.
//!
//! The JSON is hand-rolled (the offline serde shim has no serializer) in
//! the Chrome trace-event format: a single `{"traceEvents": [...]}` object
//! whose array carries one `"M"` thread-name metadata record per track,
//! `"X"` duration events for sleep spans, `"i"` instants for everything
//! else, and `"C"` counter events for the sampled timelines. Cycles map
//! 1:1 to microsecond timestamps (`ts`), so Perfetto's time axis reads as
//! simulated cycles. Records are written sorted by `(ts, tid)`, giving
//! every track a monotone timestamp sequence — the property
//! [`validate_chrome_trace`] pins.

use grs_sim::{StallReason, TelemetryEvent, TelemetryReport, Track};

/// Stable Chrome-trace thread id for a track: SMs by id, then the memory
/// system.
fn tid(track: Track) -> u64 {
    match track {
        Track::Sm(id) => id as u64,
        Track::Mem => 1_000_000,
    }
}

/// Escape a string for a JSON value (track labels and event names are
/// ASCII identifiers, but stay safe).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn reason_label(r: StallReason) -> &'static str {
    match r {
        StallReason::Scoreboard => "scoreboard",
        StallReason::Barrier => "barrier",
        StallReason::MemGate => "mem_gate",
    }
}

/// `(name, args)` rendering of one event payload.
fn event_parts(e: &TelemetryEvent) -> (&'static str, String) {
    match *e {
        TelemetryEvent::BlockLaunch { grid_id, slot } => (
            "block_launch",
            format!("{{\"grid_id\":{grid_id},\"slot\":{slot}}}"),
        ),
        TelemetryEvent::BlockRetire { grid_id, slot } => (
            "block_retire",
            format!("{{\"grid_id\":{grid_id},\"slot\":{slot}}}"),
        ),
        TelemetryEvent::WarpStall { slot, reason } => (
            "warp_stall",
            format!(
                "{{\"slot\":{slot},\"reason\":\"{}\"}}",
                reason_label(reason)
            ),
        ),
        TelemetryEvent::SleepSpan { until, gated } => (
            if gated { "gated_sleep" } else { "sleep" },
            format!("{{\"until\":{until},\"gated\":{gated}}}"),
        ),
        TelemetryEvent::MshrFill { part } => ("mshr_fill", format!("{{\"part\":{part}}}")),
        TelemetryEvent::MshrMerge { part } => ("mshr_merge", format!("{{\"part\":{part}}}")),
        TelemetryEvent::DramAdmit { part } => ("dram_admit", format!("{{\"part\":{part}}}")),
        TelemetryEvent::DramService { part } => ("dram_service", format!("{{\"part\":{part}}}")),
    }
}

/// Render a [`TelemetryReport`] as a Chrome trace-event JSON document,
/// loadable in Perfetto / `chrome://tracing`.
pub fn render_chrome_trace(report: &TelemetryReport) -> String {
    // (ts, tid, rendered record): sorted so every track's timestamps are
    // monotone in file order, which the CI shape check relies on. The sort
    // is stable, so within one (ts, tid) a track's events keep their
    // recorded order, ahead of that track's sample rows.
    let mut records: Vec<(u64, u64, String)> = Vec::new();
    for track in &report.tracks {
        let t = tid(track.track);
        for &(cycle, event) in &track.events {
            let (name, args) = event_parts(&event);
            let rec = match event {
                TelemetryEvent::SleepSpan { until, .. } => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{t},\"ts\":{cycle},\"dur\":{},\"args\":{args}}}",
                    until.saturating_sub(cycle)
                ),
                _ => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{t},\"ts\":{cycle},\"args\":{args}}}"
                ),
            };
            records.push((cycle, t, rec));
        }
    }
    for s in &report.sm_samples {
        let t = tid(Track::Sm(s.sm));
        records.push((
            s.cycle,
            t,
            format!(
                "{{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":1,\"tid\":{t},\"ts\":{},\"args\":{{\"live_blocks\":{},\"live_warps\":{}}}}}",
                s.cycle, s.live_blocks, s.live_warps
            ),
        ));
        records.push((
            s.cycle,
            t,
            format!(
                "{{\"name\":\"issue+stall\",\"ph\":\"C\",\"pid\":1,\"tid\":{t},\"ts\":{},\"args\":{{\"warp_instrs\":{},\"scoreboard\":{},\"barrier\":{},\"mem_gate\":{},\"no_ready\":{}}}}}",
                s.cycle, s.warp_instrs, s.scoreboard, s.barrier, s.mem_gate, s.no_ready
            ),
        ));
    }
    for s in &report.mem_samples {
        let t = tid(Track::Mem);
        records.push((
            s.cycle,
            t,
            format!(
                "{{\"name\":\"mem depth\",\"ph\":\"C\",\"pid\":1,\"tid\":{t},\"ts\":{},\"args\":{{\"mshr_in_flight\":{},\"dram_in_queue\":{}}}}}",
                s.cycle, s.mshr_in_flight, s.dram_in_queue
            ),
        ));
    }
    records.sort_by_key(|a| (a.0, a.1));

    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for ts in &report.tracks {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
            tid(ts.track),
            esc(&ts.track.label())
        ));
    }
    for (_, _, rec) in &records {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(rec);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Render the sampled timelines as one CSV document: per-SM rows
/// (`kind=sm`) and memory-depth rows (`kind=mem`), with non-applicable
/// cells left empty.
pub fn render_metrics_csv(report: &TelemetryReport) -> String {
    let mut out = String::from(
        "kind,cycle,sm,live_blocks,live_warps,warp_instrs,scoreboard,barrier,mem_gate,no_ready,mshr_in_flight,dram_in_queue\n",
    );
    for s in &report.sm_samples {
        out.push_str(&format!(
            "sm,{},{},{},{},{},{},{},{},{},,\n",
            s.cycle,
            s.sm,
            s.live_blocks,
            s.live_warps,
            s.warp_instrs,
            s.scoreboard,
            s.barrier,
            s.mem_gate,
            s.no_ready
        ));
    }
    for s in &report.mem_samples {
        out.push_str(&format!(
            "mem,{},,,,,,,,,{},{}\n",
            s.cycle, s.mshr_in_flight, s.dram_in_queue
        ));
    }
    out
}

/// Split the top-level `traceEvents` array of `doc` into its element
/// substrings by brace matching (string-aware).
fn trace_elements(doc: &str) -> Result<Vec<&str>, String> {
    let start = doc
        .find("\"traceEvents\"")
        .ok_or("missing \"traceEvents\" key")?;
    let open = doc[start..]
        .find('[')
        .map(|i| start + i)
        .ok_or("missing traceEvents array")?;
    let bytes = doc.as_bytes();
    let mut elems = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut elem_start = None;
    for (i, &b) in bytes.iter().enumerate().skip(open + 1) {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    elem_start = Some(i);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or("unbalanced braces in traceEvents")?;
                if depth == 0 {
                    let s = elem_start.take().ok_or("brace close without open")?;
                    elems.push(&doc[s..=i]);
                }
            }
            b']' if depth == 0 => return Ok(elems),
            _ => {}
        }
    }
    Err("traceEvents array never closes".to_string())
}

/// Extract `"key":<integer>` from a record substring.
fn int_field(rec: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = rec.find(&pat)? + pat.len();
    let digits: String = rec[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extract `"key":"<value>"` from a record substring.
fn str_field<'a>(rec: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = rec.find(&pat)? + pat.len();
    let end = rec[at..].find('"')?;
    Some(&rec[at..at + end])
}

/// Validate the shape of a Chrome trace-event document: the required keys
/// on every record (`name`, `ph`, `pid`, `tid`, and `ts` on non-metadata
/// records), and monotone (nondecreasing) timestamps per `(pid, tid)`
/// track in file order. This is the CI smoke check for `repro trace`.
pub fn validate_chrome_trace(doc: &str) -> Result<(), String> {
    let elems = trace_elements(doc)?;
    if elems.is_empty() {
        return Err("empty traceEvents array".to_string());
    }
    let mut last_ts: Vec<((u64, u64), u64)> = Vec::new();
    let mut counted = 0usize;
    for (i, rec) in elems.iter().enumerate() {
        let ph = str_field(rec, "ph").ok_or_else(|| format!("record {i}: missing \"ph\""))?;
        str_field(rec, "name").ok_or_else(|| format!("record {i}: missing \"name\""))?;
        let pid = int_field(rec, "pid").ok_or_else(|| format!("record {i}: missing \"pid\""))?;
        let tid = int_field(rec, "tid").ok_or_else(|| format!("record {i}: missing \"tid\""))?;
        if ph == "M" {
            continue;
        }
        let ts = int_field(rec, "ts").ok_or_else(|| format!("record {i}: missing \"ts\""))?;
        counted += 1;
        match last_ts.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, last)) => {
                if ts < *last {
                    return Err(format!(
                        "record {i}: ts {ts} goes backwards on track ({pid},{tid}) after {last}"
                    ));
                }
                *last = ts;
            }
            None => last_ts.push(((pid, tid), ts)),
        }
    }
    if counted == 0 {
        return Err("no timestamped records".to_string());
    }
    Ok(())
}

/// Run one `repro trace` scenario end to end: simulate with telemetry on,
/// export the Chrome trace (self-validated with [`validate_chrome_trace`])
/// and optionally the metrics CSV, and print where everything went.
///
/// Scenarios: `conv1-28` (the perf gate's memory-latency-bound CONV1
/// scenario under the event memory model) and `hotspot-28` (the Set-1
/// register-sharing showcase). `quick` divides the grid by 4.
pub fn run_trace(
    scenario: &str,
    out: &str,
    metrics: Option<&str>,
    quick: bool,
) -> Result<(), String> {
    use grs_sim::{MemoryModel, RunConfig, TelemetryConfig};
    let (mut kernel, cfg) = match scenario {
        "conv1-28" => (
            crate::perf::scenario_kernel(),
            crate::perf::scenario_config_event(),
        ),
        "hotspot-28" => {
            let mut k = grs_workloads::set1::hotspot();
            k.grid_blocks = 28;
            (
                k,
                RunConfig::paper_register_sharing().with_memory_model(MemoryModel::Event),
            )
        }
        other => {
            return Err(format!(
                "unknown trace scenario: {other} (try conv1-28 or hotspot-28)"
            ))
        }
    };
    if quick {
        kernel.grid_blocks = (kernel.grid_blocks / 4).max(1);
    }
    let cfg = cfg.with_telemetry(Some(TelemetryConfig::default().with_sample_every(500)));
    // Through the global sweep service: one job, run on this thread at the
    // wait. The printed summary carries the service's accounting.
    let outcome = crate::service::SweepService::global()
        .submit(cfg, kernel.clone())
        .wait();
    let report = outcome
        .report
        .as_ref()
        .map_err(|e| format!("simulation failed: {e}"))?;
    let telemetry = report.telemetry.as_ref().expect("telemetry was configured");
    let doc = render_chrome_trace(telemetry);
    validate_chrome_trace(&doc)?;
    std::fs::write(out, &doc).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out} ({} bytes, Perfetto-loadable)", doc.len());
    if let Some(path) = metrics {
        let csv = render_metrics_csv(telemetry);
        std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} ({} sample rows)",
            telemetry.sm_samples.len() + telemetry.mem_samples.len()
        );
    }
    print!("{}", report.summary());
    println!("{}", crate::service::SweepService::global().stats());
    println!("trace OK: {scenario}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_sim::{SampleRow, TrackTrace};

    fn tiny_report() -> TelemetryReport {
        TelemetryReport {
            tracks: vec![
                TrackTrace {
                    track: Track::Sm(0),
                    dropped: 0,
                    events: vec![
                        (
                            0,
                            TelemetryEvent::BlockLaunch {
                                grid_id: 0,
                                slot: 0,
                            },
                        ),
                        (
                            5,
                            TelemetryEvent::SleepSpan {
                                until: 9,
                                gated: false,
                            },
                        ),
                    ],
                },
                TrackTrace {
                    track: Track::Mem,
                    dropped: 0,
                    events: vec![(7, TelemetryEvent::MshrFill { part: 3 })],
                },
            ],
            sm_samples: vec![SampleRow {
                cycle: 8,
                sm: 0,
                live_blocks: 1,
                live_warps: 2,
                warp_instrs: 10,
                scoreboard: 1,
                barrier: 0,
                mem_gate: 2,
                no_ready: 3,
            }],
            mem_samples: Vec::new(),
        }
    }

    #[test]
    fn rendered_trace_validates_and_carries_the_tracks() {
        let doc = render_chrome_trace(&tiny_report());
        validate_chrome_trace(&doc).expect("shape check");
        assert!(doc.contains("\"name\":\"SM 0\""));
        assert!(doc.contains("\"name\":\"MEM\""));
        assert!(doc.contains("\"ph\":\"X\"") && doc.contains("\"dur\":4"));
        assert!(doc.contains("\"mshr_fill\""));
        assert!(doc.contains("\"ph\":\"C\""));
    }

    #[test]
    fn the_validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Missing ts on a non-metadata record.
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"pid\":1,\"tid\":0}]}"
        )
        .is_err());
        // Backwards ts on one track.
        let doc = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":5},\
            {\"name\":\"b\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":4}]}";
        let err = validate_chrome_trace(doc).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
        // The same ts sequence on *different* tracks is fine.
        let doc = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":5},\
            {\"name\":\"b\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":4}]}";
        validate_chrome_trace(doc).expect("independent tracks");
    }

    #[test]
    fn csv_has_one_row_per_sample() {
        let csv = render_metrics_csv(&tiny_report());
        assert_eq!(csv.lines().count(), 2, "header + one sm row");
        assert!(csv.lines().nth(1).unwrap().starts_with("sm,8,0,1,2,10,"));
    }
}
