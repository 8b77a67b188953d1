//! End-to-end tests of the released command-line tools: `linger`
//! (serial) and `plinger` (parallel, threads and TCP subprocesses) must
//! produce byte-identical output files.

use std::process::Command;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("plinger_cli_{tag}"));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run_tool(exe: &str, args: &[&str]) {
    let status = Command::new(exe)
        .args(args)
        .status()
        .unwrap_or_else(|e| panic!("failed to run {exe}: {e}"));
    assert!(status.success(), "{exe} {args:?} failed: {status}");
}

const COMMON: &[&str] = &[
    "--preset", "draft", "--nk", "3", "--kmin", "4e-4", "--kmax", "2e-3",
];

#[test]
fn linger_writes_both_output_units() {
    let dir = tmpdir("serial");
    let prefix = dir.join("run").to_string_lossy().to_string();
    let mut args = COMMON.to_vec();
    args.extend_from_slice(&["--output", &prefix]);
    run_tool(env!("CARGO_BIN_EXE_linger"), &args);

    let ascii = std::fs::read_to_string(format!("{prefix}.linger")).unwrap();
    assert!(ascii.contains("# linger output: nk = 3"));
    assert_eq!(ascii.lines().count(), 5);
    let records = plinger::output_files::read_binary(format!("{prefix}.lingerd")).unwrap();
    assert_eq!(records.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plinger_threads_match_linger_bitwise() {
    let dir = tmpdir("threads");
    let serial = dir.join("serial").to_string_lossy().to_string();
    let parallel = dir.join("par").to_string_lossy().to_string();

    let mut args = COMMON.to_vec();
    args.extend_from_slice(&["--output", &serial]);
    run_tool(env!("CARGO_BIN_EXE_linger"), &args);

    let mut args = COMMON.to_vec();
    args.extend_from_slice(&["--output", &parallel, "--workers", "2"]);
    run_tool(env!("CARGO_BIN_EXE_plinger"), &args);

    let a = std::fs::read(format!("{serial}.lingerd")).unwrap();
    let b = std::fs::read(format!("{parallel}.lingerd")).unwrap();
    assert_eq!(a, b, "binary moment files must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plinger_tcp_processes_match_linger_bitwise() {
    let dir = tmpdir("tcp");
    let serial = dir.join("serial").to_string_lossy().to_string();
    let parallel = dir.join("tcp").to_string_lossy().to_string();

    let mut args = COMMON.to_vec();
    args.extend_from_slice(&["--output", &serial]);
    run_tool(env!("CARGO_BIN_EXE_linger"), &args);

    let mut args = COMMON.to_vec();
    args.extend_from_slice(&["--output", &parallel, "--workers", "2", "--tcp"]);
    run_tool(env!("CARGO_BIN_EXE_plinger"), &args);

    let a = std::fs::read(format!("{serial}.lingerd")).unwrap();
    let b = std::fs::read(format!("{parallel}.lingerd")).unwrap();
    assert_eq!(a, b, "TCP-farm moment file must equal the serial one");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_fail_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_linger"))
        .args(["--bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "stderr: {err}");
    assert!(err.contains("usage"), "usage text missing");
}

/// `exe args` is a usage error (exit 2) whose first line names `flag`
/// as unknown.
fn assert_unknown_flag(exe: &str, args: &[&str], flag: &str) {
    let out = Command::new(exe).args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {err}");
    let first = err.lines().next().unwrap_or_default();
    assert!(
        first.contains("unknown") && first.contains(flag),
        "{exe} {args:?}: {err}"
    );
    assert!(!err.contains("panicked"), "{exe} {args:?}: {err}");
}

#[test]
fn there_is_no_assignment_size_flag() {
    // a tag-3 carries one mode, so `--chunk` is as unknown as `--bogus`
    assert_unknown_flag(env!("CARGO_BIN_EXE_plinger"), &["--chunk", "2"], "--chunk");
    assert_unknown_flag(
        env!("CARGO_BIN_EXE_plinger-serve"),
        &["--listen", "127.0.0.1:0", "--chunk", "2"],
        "--chunk",
    );
}

#[test]
fn there_is_no_recovery_policy_to_pick() {
    // the master always requeues a lost mode, on fixed timings
    let plinger = env!("CARGO_BIN_EXE_plinger");
    assert_unknown_flag(plinger, &["--recovery", "failfast"], "--recovery");
    assert_unknown_flag(plinger, &["--max-attempts", "3"], "--max-attempts");
    assert_unknown_flag(plinger, &["--poll", "5"], "--poll");
    assert_unknown_flag(
        env!("CARGO_BIN_EXE_plinger-serve"),
        &["--listen", "127.0.0.1:0", "--max-attempts", "3"],
        "--max-attempts",
    );
}

#[test]
fn counts_must_be_whole_numbers() {
    // a count is refused, not truncated (`2.5` → 2) or overflowed
    // (`1e300` workers → a rank count past usize): usage error, exit 2
    for (flag, value) in [("--workers", "1e300"), ("--nk", "2.5"), ("--nk", "nan")] {
        let out = Command::new(env!("CARGO_BIN_EXE_plinger"))
            .args(["--preset", "draft", flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error:"), "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} {value}: {err}");
    }
}

#[test]
fn a_bad_cosmology_is_a_usage_error_not_a_worker_panic() {
    // an explicit --omega-c pins an open budget (Omega_k = 0.45): it used
    // to panic every worker on the evolver's flatness assert and end in
    // `farm failed: all workers lost`.  h = -0.5 and Omega_b = -0.1 keep
    // the budget flat (Omega_gamma goes as 1/h^2; Omega_c is re-closed)
    // but are out of range: they panicked every worker in the background
    // build and exited 1.  Now no worker ever starts
    let base = ["--nk", "3", "--preset", "draft", "--kmax", "0.01"];
    let plinger = env!("CARGO_BIN_EXE_plinger");
    for (cosmology, refusal) in [
        (&["--omega-c", "0.5"], "Omega_k"),
        (&["--h", "-0.5"], "h = -0.5"),
        (&["--omega-b", "-0.1"], "omega_b = -0.1"),
    ] {
        for (exe, extra) in [
            (plinger, &["--transport", "channel"][..]),
            (plinger, &["--transport", "tcp"][..]),
            (env!("CARGO_BIN_EXE_linger"), &[][..]),
        ] {
            let out = Command::new(exe)
                .args(base)
                .args(cosmology)
                .args(extra)
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            let run = format!("{exe} {cosmology:?} {extra:?}");
            assert_eq!(out.status.code(), Some(2), "{run}: {err}");
            assert!(err.starts_with("error:"), "{run}: {err}");
            assert!(err.contains(refusal), "{run}: {err}");
            assert!(!err.contains("panicked"), "{run}: {err}");
        }
    }
}

#[test]
fn an_infinite_kmax_is_a_usage_error() {
    // every mode of an infinite grid edge is quarantined; the run used
    // to exit 0 with a `.linger` reading `nk = 0`
    let out = Command::new(env!("CARGO_BIN_EXE_plinger"))
        .args([
            "--preset",
            "draft",
            "--workers",
            "2",
            "--nk",
            "3",
            "--kmax",
            "inf",
        ])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.starts_with("error: bad k range"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
