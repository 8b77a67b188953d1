//! Output files in the spirit of the paper's master subroutine, which
//! writes each mode's 21-real header "to an ascii file" (unit 1) and the
//! moment payload "to a binary file" (unit 2).
//!
//! Beyond the two paper files, a run also produces observability
//! artifacts: [`write_run_report`] emits the machine-readable
//! `<prefix>.run_report.json` ledger (schema documented in
//! [`crate::report`]) and [`write_trace`] dumps the recorded spans as a
//! chrome-tracing JSON array loadable in Perfetto / `chrome://tracing`.

use crate::farm::FarmReport;
use crate::protocol::RunSpec;
use crate::report::build_run_report;
use boltzmann::ModeOutput;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Write the ASCII header file: one line of run metadata, then one line
/// of 21 reals per mode (the paper's `WRITE(unit_1,*) (y(i),i=1,20)`
/// plus `lmax`).
pub fn write_ascii<P: AsRef<Path>>(
    path: P,
    spec: &RunSpec,
    outputs: &[ModeOutput],
) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    writeln!(
        w,
        "# linger output: nk = {}, h = {}, omega_b = {}, omega_c = {:.6}, \
         omega_lambda = {}, t_cmb = {}, n_s = {}",
        outputs.len(),
        spec.cosmo.h,
        spec.cosmo.omega_b,
        spec.cosmo.omega_c,
        spec.cosmo.omega_lambda,
        spec.cosmo.t_cmb_k,
        spec.cosmo.n_s
    )?;
    writeln!(
        w,
        "# ik k tau_end a_end delta_c theta_c delta_b theta_b delta_g theta_g \
         delta_nu theta_nu delta_h sigma_g sigma_nu phi psi constraint cpu flops lmax"
    )?;
    for (ik, out) in outputs.iter().enumerate() {
        let (header, _) = out.to_wire(ik);
        let fields: Vec<String> = header.iter().map(|v| format!("{v:.10e}")).collect();
        writeln!(w, "{}", fields.join(" "))?;
    }
    w.flush()
}

/// Write the binary moment file: for each mode, `lmax` and the payload
/// length as u64s followed by the payload reals, little endian (the
/// paper's unit-2 file).  The explicit length lets a line-of-sight
/// record carry its trailing source extension past the `2·lmax+8`
/// hierarchy block.
pub fn write_binary<P: AsRef<Path>>(path: P, outputs: &[ModeOutput]) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    w.write_all(&(outputs.len() as u64).to_le_bytes())?;
    for (ik, out) in outputs.iter().enumerate() {
        let (_, payload) = out.to_wire(ik);
        w.write_all(&(ik as u64).to_le_bytes())?;
        w.write_all(&(out.lmax_g as u64).to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        for v in &payload {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Write the run-report ledger to `<prefix>.run_report.json` and return
/// the serialized JSON text (so callers can also print it).
///
/// `transport` names the substrate the farm ran over (`"channel"`,
/// `"tcp"`, or `"serial"`).
pub fn write_run_report(
    prefix: &str,
    report: &FarmReport,
    transport: &str,
) -> io::Result<(String, String)> {
    let path = format!("{prefix}.run_report.json");
    let text = build_run_report(report, transport).to_string();
    std::fs::write(&path, &text)?;
    Ok((path, text))
}

/// Write the recorded spans as a chrome-tracing JSON array to `path`.
pub fn write_trace<P: AsRef<Path>>(path: P, report: &FarmReport) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    telemetry::write_chrome_trace(&mut w, &report.telemetry.spans)?;
    w.flush()
}

/// Read back a binary moment file: `(ik, lmax, payload)` per record.
pub fn read_binary<P: AsRef<Path>>(path: P) -> io::Result<Vec<(usize, usize, Vec<f64>)>> {
    let bytes = std::fs::read(path)?;
    let mut pos = 0usize;
    let take_u64 = |pos: &mut usize| -> io::Result<u64> {
        if *pos + 8 > bytes.len() {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated"));
        }
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[*pos..*pos + 8]);
        *pos += 8;
        Ok(u64::from_le_bytes(word))
    };
    let n = take_u64(&mut pos)? as usize;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let ik = take_u64(&mut pos)? as usize;
        let lmax = take_u64(&mut pos)? as usize;
        let len = take_u64(&mut pos)? as usize;
        if len < 2 * lmax + 8 || len > bytes.len() / 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("implausible payload length {len} for lmax {lmax}"),
            ));
        }
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            if pos + 8 > bytes.len() {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated"));
            }
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[pos..pos + 8]);
            payload.push(f64::from_le_bytes(word));
            pos += 8;
        }
        records.push((ik, lmax, payload));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::run_serial;
    use boltzmann::Preset;

    #[test]
    fn files_roundtrip() {
        let mut spec = RunSpec::standard_cdm(vec![4.0e-4, 1.2e-3]);
        spec.preset = Preset::Draft;
        let (outputs, _) = run_serial(&spec).unwrap();
        let dir = std::env::temp_dir().join("plinger_files_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ascii = dir.join("run.linger");
        let binary = dir.join("run.lingerd");
        write_ascii(&ascii, &spec, &outputs).unwrap();
        write_binary(&binary, &outputs).unwrap();

        let text = std::fs::read_to_string(&ascii).unwrap();
        assert_eq!(text.lines().count(), 2 + outputs.len());
        assert!(text.contains("# linger output: nk = 2"));

        let records = read_binary(&binary).unwrap();
        assert_eq!(records.len(), 2);
        for ((ik, lmax, payload), out) in records.iter().zip(&outputs) {
            assert_eq!(*lmax, out.lmax_g);
            let (_, expect) = out.to_wire(*ik);
            assert_eq!(payload, &expect, "binary payload must be bit-exact");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_roundtrip_keeps_the_source_extension() {
        let mut spec = RunSpec::standard_cdm(vec![4.0e-4, 1.2e-3]);
        spec.preset = Preset::Draft;
        spec.method = boltzmann::SpectrumMethod::LineOfSight;
        let (outputs, _) = run_serial(&spec).unwrap();
        assert!(outputs.iter().all(|o| o.sources.is_some()));

        let dir = std::env::temp_dir().join("plinger_files_los_test");
        std::fs::create_dir_all(&dir).unwrap();
        let binary = dir.join("run.lingerd");
        write_binary(&binary, &outputs).unwrap();

        let records = read_binary(&binary).unwrap();
        for ((ik, lmax, payload), out) in records.iter().zip(&outputs) {
            assert_eq!(*lmax, out.lmax_g);
            assert!(payload.len() > 2 * lmax + 8, "extension must be carried");
            let (_, expect) = out.to_wire(*ik);
            assert_eq!(payload, &expect, "binary payload must be bit-exact");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_report_and_trace_files() {
        use crate::farm::Farm;
        use crate::schedule::SchedulePolicy;
        use msgpass::channel::ChannelWorld;

        let mut spec = RunSpec::standard_cdm(vec![4.0e-4, 1.2e-3, 2.0e-3]);
        spec.preset = Preset::Draft;
        let rep = Farm::<ChannelWorld>::new(2)
            .run(&spec, SchedulePolicy::LargestFirst)
            .unwrap();

        let dir = std::env::temp_dir().join("plinger_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("run").to_string_lossy().into_owned();

        let (path, text) = write_run_report(&prefix, &rep, "channel").unwrap();
        assert!(path.ends_with(".run_report.json"));
        let parsed = telemetry::Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("plinger.run_report/2")
        );
        let run = parsed.get("run").unwrap();
        let eff = run.get("efficiency").and_then(|v| v.as_f64()).unwrap();
        assert!(eff > 0.0 && eff <= 1.0, "efficiency {eff} out of range");
        let modes = parsed.get("modes").and_then(|v| v.as_array()).unwrap();
        assert_eq!(modes.len(), 3);

        let trace = dir.join("trace.json");
        write_trace(&trace, &rep).unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        let events = telemetry::Json::parse(&trace_text).unwrap();
        let events = events.as_array().unwrap();
        assert!(!events.is_empty());
        for ev in events {
            assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
            assert!(ev.get("ts").is_some() && ev.get("dur").is_some());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_binary_rejects_truncation() {
        let dir = std::env::temp_dir().join("plinger_files_trunc");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.lingerd");
        std::fs::write(&p, 5u64.to_le_bytes()).unwrap();
        assert!(read_binary(&p).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
