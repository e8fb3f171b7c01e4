//! Gantt charts of simulated executions (Fig. 6's presentation), drawn
//! straight from a run's [`JobRecord`]s.

use std::fmt::Write as _;

use fppn_time::TimeQ;

use crate::overhead::OverheadModel;
use crate::policy::JobRecord;

/// Draws an ASCII Gantt chart of `records`: `width` character columns
/// spanning `[0, horizon]`.
///
/// Rows `M0..` are the `processors` application processors, with `#`
/// where a job executes (skipped server slots draw nothing). When
/// `overhead` charges anything, one last runtime row draws `%` over each
/// frame's management overhead, `overhead.frame_overhead(f)` from
/// `f·hyperperiod`, for every frame the records cover. Every segment marks
/// at least one cell; a zero `horizon` or `width` draws nothing.
pub fn gantt_ascii(
    records: &[JobRecord],
    processors: usize,
    overhead: OverheadModel,
    hyperperiod: TimeQ,
    horizon: TimeQ,
    width: usize,
) -> String {
    let mut out = String::new();
    if horizon.is_zero() || width == 0 {
        return out;
    }
    let col_of = |t: TimeQ| -> usize {
        let frac = t / horizon;
        let c = (frac * TimeQ::from_int(width as i64)).floor();
        (c.max(0) as usize).min(width)
    };
    // Each row has one glyph, so segments paint in any order.
    let paint = |line: &mut [u8], start: TimeQ, end: TimeQ, glyph: u8| {
        let (a, b) = (col_of(start), col_of(end));
        for cell in line.iter_mut().take(b.max(a + 1).min(width)).skip(a) {
            *cell = glyph;
        }
    };

    let runtime_row = !overhead.is_none() as usize;
    let mut rows = vec![vec![b'.'; width]; processors + runtime_row];
    let (app, runtime) = rows.split_at_mut(processors);
    let mut frames = 0;
    for rec in records {
        frames = frames.max(rec.frame + 1);
        if !rec.skipped {
            paint(&mut app[rec.processor], rec.start, rec.completion, b'#');
        }
    }
    if let Some(line) = runtime.first_mut() {
        for f in 0..frames {
            let base = TimeQ::from_int(f as i64) * hyperperiod;
            paint(line, base, base + overhead.frame_overhead(f), b'%');
        }
    }

    for (m, line) in rows.iter().enumerate() {
        let line = std::str::from_utf8(line).expect("ascii");
        writeln!(out, "M{m} |{line}|").expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::ProcessId;
    use fppn_taskgraph::JobId;

    #[test]
    fn zero_length_job_marks_one_cell_and_empty_extent_draws_nothing() {
        let (at, h) = (TimeQ::from_ms(50), TimeQ::from_ms(100));
        let rec = JobRecord {
            process: ProcessId::from_index(0),
            frame: 0,
            job: JobId::from_index(0),
            global_k: 1,
            processor: 0,
            invoked_at: at,
            start: at,
            completion: at,
            deadline: h,
            missed: false,
            skipped: false,
        };
        let draw = |horizon, width| gantt_ascii(&[rec], 1, OverheadModel::NONE, h, horizon, width);
        assert_eq!(draw(h, 10), "M0 |.....#....|\n");
        assert_eq!(draw(TimeQ::ZERO, 10), "");
        assert_eq!(draw(h, 0), "");
    }
}
