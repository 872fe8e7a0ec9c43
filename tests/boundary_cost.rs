//! The built-ins' cost contract for boundary arguments.
//!
//! Pattern 3.1 wraps a boundary literal in `REPEAT(x, 100000)`, so the
//! functions it reaches receive 100–500 KB arguments. Every built-in such a
//! statement reaches reads its argument in a fixed number of linear passes
//! and makes a number of heap allocations that does not grow with the
//! argument's length. This suite holds the allocation side of that
//! contract with a counting global allocator:
//!
//! * each witness statement (one per kind of work: JSON paths, character
//!   positions, the regex matcher, `DATE_FORMAT`, digit text, datetime text
//!   casts, JSON values) makes at most [`SLACK`] more allocations at
//!   `REPEAT` count 100,000 than at 1,000;
//! * the character-position kernels allocate at most three times their
//!   argument's bytes plus 64 KiB: the `REPEAT` result, the argument's text
//!   and the function's own result, and no `Vec<char>` of the argument;
//! * a constructor whose result would exceed the statement memory budget
//!   fails before it builds the result: the whole statement allocates at
//!   most twice the budget.
//!
//! Statements run on a fault-free template clone, prepared before the
//! allocator starts counting, so only execution is counted. The counters
//! are per thread, so tests running side by side do not disturb each other.

use soft_repro::dialects::{DialectId, DialectProfile};
use soft_repro::engine::{Engine, ExecOutcome, SqlError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) made by the current thread
/// and the bytes they request, then defers to the system allocator.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many more allocations a witness may make at 100,000 repeats than at
/// 1,000.
const SLACK: u64 = 16;

/// What executing one statement cost the current thread.
struct Cost {
    outcome: ExecOutcome,
    allocs: u64,
    bytes: u64,
}

fn template(id: DialectId) -> Engine {
    DialectProfile::build(id).engine_without_faults()
}

/// Executes `sql` on a clone of `template`, counting only the execution.
fn cost(template: &Engine, sql: &str) -> Cost {
    let prepared = template
        .prepare(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    let mut engine = template.clone();
    let (allocs, bytes) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let outcome = engine.execute_prepared(&prepared);
    let allocs = ALLOCS.with(Cell::get) - allocs;
    let bytes = BYTES.with(Cell::get) - bytes;
    Cost {
        outcome,
        allocs,
        bytes,
    }
}

/// The outcome class a witness must keep, so a typo that turns it into an
/// unknown-function error cannot pass vacuously.
fn class(outcome: &ExecOutcome) -> &'static str {
    match outcome {
        ExecOutcome::Rows(_) => "rows",
        ExecOutcome::Ok(_) => "ok",
        ExecOutcome::Error(SqlError::ResourceLimit(_)) => "resource-limit",
        ExecOutcome::Error(SqlError::TypeError(_)) => "type-error",
        ExecOutcome::Error(SqlError::Runtime(_)) => "runtime-error",
        ExecOutcome::Error(_) => "other-error",
        ExecOutcome::Crash(_) => "crash",
    }
}

/// One witness per kind of per-element work Pattern 3.1 reached, with the
/// outcome class it has at `REPEAT` counts 1,000 and 100,000. `{n}` is the
/// count.
const WITNESSES: &[(&str, [&str; 2])] = &[
    // JSON paths: 3 bytes per leg, none read past the first.
    (
        "SELECT JSON_SET('{\"a\":1}', REPEAT('$.a', {n}), 2)",
        ["rows"; 2],
    ),
    (
        "SELECT JSON_EXTRACT('{\"a\":[1]}', REPEAT('$.a', {n}))",
        ["rows"; 2],
    ),
    // Character positions.
    ("SELECT SUBSTR(REPEAT('abc', {n}), 2, 5)", ["rows"; 2]),
    ("SELECT INSTR(REPEAT('abc', {n}), 'ca')", ["rows"; 2]),
    ("SELECT REVERSE(REPEAT('abé', {n}))", ["rows"; 2]),
    // The regex matcher; at 100,000 the step budget runs out.
    (
        "SELECT REGEXP_LIKE(REPEAT('abc', {n}), 'b(c|d)x')",
        ["rows", "runtime-error"],
    ),
    // DATE_FORMAT with one specifier per 3 bytes.
    (
        "SELECT DATE_FORMAT('2024-01-15 10:20:30', REPEAT('%Y-', {n}))",
        ["rows"; 2],
    ),
    // Digit text, classified and checked against digit-count faults.
    ("SELECT LENGTH(REPEAT('202', {n}))", ["rows"; 2]),
    // A datetime text cast that fails with the text in its message.
    ("SELECT YEAR(REPEAT('202', {n}))", ["type-error"; 2]),
    // A JSON value charged against the budget by its serialised length.
    ("SELECT JSON_ARRAY(REPEAT('abc', {n}))", ["rows"; 2]),
];

#[test]
fn witnesses_allocate_independently_of_argument_length() {
    let template = template(DialectId::Mysql);
    for (sql, [at_small, at_large]) in WITNESSES {
        let small = cost(&template, &sql.replace("{n}", "1000"));
        let large = cost(&template, &sql.replace("{n}", "100000"));
        assert_eq!(
            class(&small.outcome),
            *at_small,
            "{sql} at 1,000: {:?}",
            small.outcome
        );
        assert_eq!(class(&large.outcome), *at_large, "{sql} at 100,000");
        assert!(
            large.allocs <= small.allocs + SLACK,
            "{sql}: {} allocations at 100,000 against {} at 1,000",
            large.allocs,
            small.allocs
        );
    }
}

#[test]
fn character_position_kernels_copy_their_argument_at_most_twice() {
    let (mysql, postgres) = (template(DialectId::Mysql), template(DialectId::Postgres));
    let repeats = 100_000u64;
    let arg_bytes = 3 * repeats;
    for (template, call) in [
        (&mysql, "SUBSTR(REPEAT('abc', {n}), 2)"),
        (&mysql, "SUBSTR(REPEAT('abc', {n}), -5, 2)"),
        (&mysql, "LEFT(REPEAT('abc', {n}), 200000)"),
        (&mysql, "RIGHT(REPEAT('abc', {n}), 200000)"),
        (&mysql, "LPAD(REPEAT('abc', {n}), 300010, 'xy')"),
        (&mysql, "RPAD(REPEAT('abc', {n}), 10)"),
        (&mysql, "REVERSE(REPEAT('abc', {n}))"),
        (&postgres, "TRANSLATE(REPEAT('abc', {n}), 'ab', 'x')"),
        (&postgres, "SPLIT_PART(REPEAT('abc', {n}), 'c', -2)"),
        (&mysql, "INSTR(REPEAT('abc', {n}), 'cx')"),
        (&mysql, "LOCATE('cab', REPEAT('abc', {n}), 7)"),
        (&mysql, "POSITION('x', REPEAT('abc', {n}))"),
        (&mysql, "INSERT(REPEAT('abc', {n}), 4, 3, 'xyz')"),
    ] {
        let sql = format!("SELECT {}", call.replace("{n}", &repeats.to_string()));
        let c = cost(template, &sql);
        assert_eq!(class(&c.outcome), "rows", "{sql}: {:?}", c.outcome);
        assert!(
            c.bytes <= 3 * arg_bytes + (64 << 10),
            "{sql}: allocated {} bytes for a {arg_bytes}-byte argument",
            c.bytes
        );
    }
}

#[test]
fn text_arguments_are_read_in_place() {
    let template = template(DialectId::Mysql);
    let repeats = 100_000u64;
    let repeat_bytes = 3 * repeats;
    for call in [
        "SUBSTR(REPEAT('abc', {n}), -5, 2)",
        "INSTR(REPEAT('abc', {n}), 'cx')",
        "LOCATE('cab', REPEAT('abc', {n}), 7)",
        "POSITION('x', REPEAT('abc', {n}))",
    ] {
        let sql = format!("SELECT {}", call.replace("{n}", &repeats.to_string()));
        let c = cost(&template, &sql);
        assert_eq!(class(&c.outcome), "rows", "{sql}: {:?}", c.outcome);
        assert!(
            c.bytes <= repeat_bytes + (64 << 10),
            "{sql}: allocated {} bytes for a {repeat_bytes}-byte argument",
            c.bytes
        );
    }
}

#[test]
fn over_budget_constructors_fail_before_building() {
    let template = template(DialectId::Mysql);
    let budget = template.config().limits.max_memory_bytes as u64;
    for sql in [
        "SELECT EXPORT_SET(-1, REPEAT(REPEAT('Y', 10), 1000000), 'N', REPEAT(',', 1000000))",
        "SELECT REPLACE(REPEAT('a', 1000000), 'a', REPEAT('b', 200))",
        "SELECT REGEXP_REPLACE(REPEAT('a', 2000), 'a', REPEAT('b', 100000))",
    ] {
        let c = cost(&template, sql);
        match &c.outcome {
            ExecOutcome::Error(SqlError::ResourceLimit(m)) => {
                assert_eq!(
                    m,
                    &format!("statement memory budget ({budget} bytes) exceeded")
                );
            }
            other => panic!("{sql}: {other:?}"),
        }
        assert!(c.bytes <= 2 * budget, "{sql}: allocated {} bytes", c.bytes);
    }
}
