//! End-to-end smoke tests of the `racesim` binary.

use std::process::Command;

fn racesim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_racesim"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_is_printed() {
    let out = racesim(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("validate"));
    assert!(text.contains("simulate"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = racesim(&["frobnicate"]);
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown command"));
}

#[test]
fn simulate_reports_cpi() {
    let out = racesim(&["simulate", "--platform", "a53", "--workload", "ED1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CPI:"), "{text}");
    assert!(text.contains("instructions:"));
}

#[test]
fn measure_reports_counters() {
    let out = racesim(&["measure", "--board", "a72", "--workload", "EI"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles:"));
}

#[test]
fn config_dump_parses_back() {
    let out = racesim(&["config", "--platform", "a72"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let p = racesim_sim::config_text::from_text(&text).expect("dump parses");
    assert_eq!(p, racesim_sim::Platform::a72_like());
}

#[test]
fn missing_workload_is_a_clean_error() {
    let out = racesim(&["simulate", "--platform", "a53"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));
}

#[test]
fn tune_with_telemetry_then_report() {
    let journal = std::env::temp_dir().join(format!(
        "racesim_cli_telemetry_{}.jsonl",
        std::process::id()
    ));
    let journal_s = journal.display().to_string();
    let out = racesim(&[
        "tune",
        "--core",
        "a53",
        "--scale",
        "16384",
        "--budget",
        "80",
        "--max-iterations",
        "1",
        "--faults",
        "transient",
        "--telemetry",
        &journal_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(journal.exists(), "journal file must have been written");

    // Human-readable report renders the campaign shape.
    let out = racesim(&["report", &journal_s]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("campaign"), "{text}");
    assert!(text.contains("best cost"), "{text}");
    assert!(text.contains("iterations"), "{text}");
    assert!(text.contains("sim.run_us"), "{text}");
    assert!(text.contains("cache hit rate"), "{text}");
    assert!(text.contains("journal events"), "{text}");
    assert!(text.contains("campaign_start"), "{text}");

    // Machine-readable report carries the same totals.
    let out = racesim(&["report", &journal_s, "--json"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.starts_with('{') && json.trim_end().ends_with('}'),
        "{json}"
    );
    assert!(json.contains("\"segments\":1"), "{json}");
    assert!(json.contains("\"counters\":{"), "{json}");

    // A line of an event this build no longer knows (journals recorded
    // with the removed `--static-bounds` carry them) is a warning, not a
    // failure.
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    let old = r#"{"t":1,"ev":"static_eliminated","config":"C1","iteration":0,"lower_bound":4.5,"incumbent_cost":3.5}"#;
    std::fs::write(&journal, format!("{old}\n{text}")).expect("journal rewritten");
    let out = racesim(&["report", &journal_s]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown event type \"static_eliminated\""),
        "{err}"
    );

    // A journal recorded with static elimination on is rejected by name,
    // not reported as a divergence.
    let on = text.replace("\"static_bounds\":false", "\"static_bounds\":true");
    assert_ne!(on, text, "the journal records the key");
    std::fs::write(&journal, on).expect("journal rewritten");
    let out = racesim(&["replay", &journal_s]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("`--static-bounds`") && err.contains("removed"),
        "{err}"
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("diverged"));

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn tune_rejects_the_removed_static_bounds_flag_by_name() {
    let out = racesim(&[
        "tune",
        "--core",
        "a53",
        "--scale",
        "32768",
        "--static-bounds",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("`--static-bounds`") && err.contains("removed"),
        "{err}"
    );
}

#[test]
fn profile_renders_a_phase_tree_with_high_coverage() {
    let out = racesim(&["profile", "--workload", "ED1", "--scale", "8192"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== ED1"), "{text}");
    assert!(text.contains("coverage"), "{text}");
    assert!(text.contains("simulate"), "{text}");
    assert!(text.contains("fetch"), "{text}");
    assert!(text.contains("execute"), "{text}");
}

#[test]
fn profile_json_and_folded_outputs() {
    let folded = std::env::temp_dir().join(format!("racesim_folded_{}.txt", std::process::id()));
    let folded_s = folded.display().to_string();
    let out = racesim(&[
        "profile",
        "--workload",
        "ED1",
        "--scale",
        "8192",
        "--json",
        "--folded",
        &folded_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.starts_with("{\"schema_version\":1,"), "{json}");
    assert!(json.contains("\"kernels\":[{\"name\":\"ED1\""), "{json}");
    assert!(json.contains("\"profile\":{\"phases\":["), "{json}");
    assert!(json.contains("\"self_ns\":"), "{json}");

    let stacks = std::fs::read_to_string(&folded).expect("folded file written");
    assert!(stacks.contains("ED1;simulate"), "{stacks}");
    let _ = std::fs::remove_file(&folded);
}

#[test]
fn report_without_a_journal_is_a_clean_error() {
    let out = racesim(&["report"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("journal path"));

    let out = racesim(&["report", "/nonexistent/racesim.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
