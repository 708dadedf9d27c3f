//! lint:cancellable — seeded violations for the `cancellation` rule.
//!
//! The batch loops on lines 9 and 40 and the while-let scan on line 20
//! advance through rows without a poll: one finding each. The waived recv
//! loop must not fire.

fn drain_batches(src: &mut Source) -> u64 {
    let mut rows = 0;
    loop {
        match src.next_batch() {
            Some(b) => rows += b.len() as u64,
            None => break,
        }
    }
    rows
}

fn scan_lines(scanner: &mut Scanner) -> u64 {
    let mut n = 0;
    while let Some(_line) = scanner.next_line() {
        n += 1;
    }
    n
}

fn drain_queue(rx: &Receiver<u32>) -> u32 {
    let mut sum = 0;
    // lint: cancel-ok fixture: sender hang-up ends this loop
    loop {
        match rx.recv() {
            Ok(v) => sum += v,
            Err(_) => break,
        }
    }
    sum
}

fn scan_batches(scanner: &mut RangeScanner, batch: &mut RowBatch) -> usize {
    let mut rows = 0;
    loop {
        let n = scanner.fill_batch(&TOKENIZER, batch).unwrap_or(0);
        if n == 0 {
            break;
        }
        rows += n;
    }
    rows
}
