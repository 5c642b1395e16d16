//! Helpers shared by the serve integration suites.

/// Runs the calling test's body in a process whose rayon shim sees
/// `SPATIAL_THREADS=threads` from its start. The shim memoizes the
/// thread count on first use, so the override cannot be flipped
/// in-process: unless this process already carries exactly that
/// value, the test binary re-executes `test` alone in a child with the
/// variable set and asserts the child passed.
///
/// Returns `true` when the caller should run its body here (this is
/// the process with the override), `false` once the child has run it.
pub fn under_spatial_threads(test: &str, threads: usize) -> bool {
    let want = threads.to_string();
    if std::env::var("SPATIAL_THREADS").ok().as_deref() == Some(want.as_str()) {
        return true;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let status = std::process::Command::new(exe)
        .args([test, "--exact", "--nocapture"])
        .env("SPATIAL_THREADS", &want)
        .status()
        .expect("spawn child test process");
    assert!(
        status.success(),
        "{test} under SPATIAL_THREADS={threads} failed: {status}"
    );
    false
}
