//! A reader that closes stdout early (`table1 --dump-specs | head -1`)
//! ends the writer cleanly: exit status 0 and no panic on stderr.

use std::io::{BufRead as _, BufReader, Read as _};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_is_a_clean_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .arg("--dump-specs")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader is dropped here. The dump (~500 KB) is far larger than a
    // pipe buffer, so table1 is still writing and meets EPIPE.
    assert!(first.starts_with('{'), "{first}");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut err)
        .expect("stderr");
    let status = child.wait().expect("wait");
    assert!(status.success(), "{status:?}\n{err}");
    assert!(!err.contains("panicked"), "{err}");
}
