//! Host facts: peak memory, core count, and an identity for the source
//! tree being measured.

use std::path::Path;

use dca_sim_core::digest64;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// Wait for the child process `pid` to end. Returns whether it exited
/// with status 0, and the peak resident set of the largest process in
/// its tree — itself or any descendant it waited for — in MB
/// (`wait4`'s `ru_maxrss`).
pub fn wait_child(pid: u32) -> std::io::Result<(bool, f64)> {
    let mut u = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        ru_rest: [0; 13],
    };
    let mut status = 0i32;
    loop {
        // SAFETY: `status` and `u` are live, writable buffers; `u` has
        // the layout of the 64-bit Linux `struct rusage` (two `timeval`s
        // then fourteen `long`s), and `wait4` writes nothing beyond them.
        let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut u) };
        if rc == pid as i32 {
            break;
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0.
    let exited_ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_ok, u.ru_maxrss as f64 / 1024.0))
}

/// Logical cores this process may run on (what `nproc` prints).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Digest of the simulator sources the benchmark builds against: every
/// file under `crates/` plus the root manifest, by path and content.
/// Identifies the code where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.push(root.join("Cargo.toml"));
    files.sort();
    let mut buf = Vec::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            buf.extend_from_slice(rel.to_string_lossy().as_bytes());
            buf.push(0);
            buf.extend_from_slice(&digest64(&bytes).to_le_bytes());
        }
    }
    format!("{:016x}", digest64(&buf))
}
