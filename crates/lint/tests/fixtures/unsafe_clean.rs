//! Clean under `unsafe-audit`: every unsafe carries a `// SAFETY:` comment
//! within the five preceding lines (or on the same line).

fn documented(ptr: *const u8) -> u8 {
    // SAFETY: caller guarantees `ptr` is valid for reads (fixture).
    unsafe { *ptr }
}

fn trailing(ptr: *const u8) -> u8 {
    unsafe { *ptr } // SAFETY: same-line comment also counts (fixture)
}

fn a_few_lines_up(mask: &[u64; 16]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: the mask is a valid, live buffer and pid 0 is the calling
    // thread; the call only reads the mask (fixture: an FFI call).
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    ok == 0
}
