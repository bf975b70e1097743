//! Runs one command for the diq benchmark and reports its wall time and
//! its own peak resident memory.
//!
//! ```text
//! perfbench-launch <stdout-file> <stderr-file> <program> [args...]
//! ```
//!
//! prints `<exit code> <wall ns> <peak RSS KiB>` on one line.
//!
//! Linux carries a process's peak RSS across `fork` and `exec`: a child's
//! `ru_maxrss` is at least the RSS its parent had when it forked. Started
//! from the benchmark's Python process, whose RSS is larger than `diq`'s,
//! every child would report Python's size. Started from this small
//! program, it reports its own.

use std::fs::File;
use std::process::{exit, Command};
use std::time::Instant;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s,
/// the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    _utime: [i64; 2],
    _stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-launch assumes the `struct rusage` of 64-bit Linux");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

fn fail(msg: String) -> ! {
    eprintln!("perfbench-launch: {msg}");
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out, err, program, rest @ ..] = args.as_slice() else {
        fail("usage: perfbench-launch <stdout-file> <stderr-file> <program> [args...]".into())
    };
    let create = |path: &str| File::create(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let (stdout, stderr) = (create(out), create(err));
    let t0 = Instant::now();
    // Reaped by `wait4` below, which `Child::wait` cannot replace: it
    // returns no resource usage.
    #[allow(clippy::zombie_processes)]
    let child = Command::new(program)
        .args(rest)
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .unwrap_or_else(|e| fail(format!("{program}: {e}")));
    let pid = i32::try_from(child.id()).unwrap_or_else(|_| fail("pid out of range".into()));
    let mut status = 0;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is our own unreaped child, and both pointers are to
    // live, correctly laid out values.
    if unsafe { wait4(pid, &mut status, 0, &mut usage) } != pid {
        fail(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    let wall = t0.elapsed();
    let signal = status & 0x7f;
    let code = if signal == 0 {
        (status >> 8) & 0xff
    } else {
        128 + signal
    };
    println!("{code} {} {}", wall.as_nanos(), usage.maxrss);
}
