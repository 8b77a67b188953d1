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

#[test]
fn there_is_no_assignment_size_flag() {
    // a tag-3 carries one mode, so `--chunk` is as unknown as `--bogus`
    for (exe, args) in [
        (env!("CARGO_BIN_EXE_plinger"), &["--chunk", "2"][..]),
        (
            env!("CARGO_BIN_EXE_plinger-serve"),
            &["--listen", "127.0.0.1:0", "--chunk", "2"][..],
        ),
    ] {
        let out = Command::new(exe).args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {err}");
        let first = err.lines().next().unwrap_or_default();
        assert!(
            first.contains("unknown") && first.contains("--chunk"),
            "{exe}: {err}"
        );
    }
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
fn a_curved_cosmology_is_a_usage_error_not_a_worker_panic() {
    // an explicit --omega-c pins an open budget (Omega_k = 0.45): it used
    // to panic every worker on the evolver's flatness assert and end in
    // `farm failed: all workers lost`; now no worker ever starts
    let curved = [
        "--omega-c",
        "0.5",
        "--nk",
        "3",
        "--preset",
        "draft",
        "--kmax",
        "0.01",
    ];
    let plinger = env!("CARGO_BIN_EXE_plinger");
    for (exe, extra) in [
        (plinger, &["--transport", "channel"][..]),
        (plinger, &["--transport", "tcp"][..]),
        (env!("CARGO_BIN_EXE_linger"), &[][..]),
    ] {
        let out = Command::new(exe).args(curved).args(extra).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {extra:?}: {err}");
        assert!(err.starts_with("error:"), "{exe} {extra:?}: {err}");
        assert!(err.contains("Omega_k"), "{exe} {extra:?}: {err}");
        assert!(!err.contains("panicked"), "{exe} {extra:?}: {err}");
    }
}
