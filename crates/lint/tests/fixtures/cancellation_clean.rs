#![doc = " lint:cancellable — clean fixture: every scan loop polls."]

fn drain_batches(ctx: &QueryCtx, src: &mut Source) -> Result<u64, Error> {
    let mut rows = 0;
    loop {
        ctx.check()?;
        match src.next_batch() {
            Some(b) => rows += b.len() as u64,
            None => break,
        }
    }
    Ok(rows)
}

fn refill_driven(win: &mut Window, src: &mut dyn BlockSource) -> Result<(), Error> {
    // Advancing via `refill` is cancellable by construction: every source
    // polls its installed interrupt flag inside `refill`.
    while src.refill(win)? > 0 {
        consume(win);
    }
    Ok(())
}

fn row_arithmetic_is_not_a_scan(rows: &[u64]) -> u64 {
    let mut acc = 0;
    // No batch/block advance in this loop: the rule does not apply.
    for r in rows {
        acc += r;
    }
    acc
}

impl Iterator for Source {
    type Item = u64;
    // `for` in `impl … for …` is not a loop header.
    fn next(&mut self) -> Option<u64> {
        None
    }
}

fn scan_batches(ctx: &QueryCtx, scanner: &mut RangeScanner, batch: &mut RowBatch) -> Result<usize, Error> {
    let mut rows = 0;
    loop {
        ctx.check()?;
        let n = scanner.fill_batch(&TOKENIZER, batch)?;
        if n == 0 {
            break;
        }
        rows += n;
    }
    Ok(rows)
}
