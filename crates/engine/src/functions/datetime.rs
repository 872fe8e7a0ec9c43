//! Date and time built-ins.

use crate::error::EngineError;
use crate::eval::Evaluated;
use crate::functions::string::some_or_null;
use crate::registry::*;
use soft_types::category::FunctionCategory as C;
use soft_types::datetime::{Date, DateTime, Interval, Time};
use soft_types::value::Value;

fn def(name: &'static str, min: usize, max: Option<usize>, f: ScalarImpl) -> FunctionDef {
    FunctionDef {
        name,
        category: C::Date,
        min_args: min,
        max_args: max,
        implementation: FunctionImpl::Scalar(f),
    }
}

/// Registers the date/time functions.
pub fn install(r: &mut FunctionRegistry) {
    r.register(def("now", 0, Some(0), f_now));
    r.register(def("curdate", 0, Some(0), f_curdate));
    r.register(def("curtime", 0, Some(0), f_curtime));
    r.register(def("date", 1, Some(1), f_date));
    r.register(def("time", 1, Some(1), f_time));
    r.register(def("year", 1, Some(1), f_year));
    r.register(def("month", 1, Some(1), f_month));
    r.register(def("day", 1, Some(1), f_day));
    r.register(def("hour", 1, Some(1), f_hour));
    r.register(def("minute", 1, Some(1), f_minute));
    r.register(def("second", 1, Some(1), f_second));
    r.register(def("microsecond", 1, Some(1), f_microsecond));
    r.register(def("dayofweek", 1, Some(1), f_dayofweek));
    r.register(def("weekday", 1, Some(1), f_weekday));
    r.register(def("dayofyear", 1, Some(1), f_dayofyear));
    r.register(def("week", 1, Some(2), f_week));
    r.register(def("quarter", 1, Some(1), f_quarter));
    r.register(def("monthname", 1, Some(1), f_monthname));
    r.register(def("dayname", 1, Some(1), f_dayname));
    r.register(def("datediff", 2, Some(2), f_datediff));
    r.register(def("date_add", 2, Some(2), f_date_add));
    r.register(def("date_sub", 2, Some(2), f_date_sub));
    r.register(def("last_day", 1, Some(1), f_last_day));
    r.register(def("to_days", 1, Some(1), f_to_days));
    r.register(def("from_days", 1, Some(1), f_from_days));
    r.register(def("unix_timestamp", 0, Some(1), f_unix_timestamp));
    r.register(def("from_unixtime", 1, Some(1), f_from_unixtime));
    r.register(def("makedate", 2, Some(2), f_makedate));
    r.register(def("maketime", 3, Some(3), f_maketime));
    r.register(def("date_format", 2, Some(2), f_date_format));
    r.register(def("str_to_date", 2, Some(2), f_str_to_date));
    r.register(def("addtime", 2, Some(2), f_addtime));
    r.register(def("subtime", 2, Some(2), f_subtime));
    r.register(def("sec_to_time", 1, Some(1), f_sec_to_time));
    r.register(def("time_to_sec", 1, Some(1), f_time_to_sec));
    r.register(def("period_add", 2, Some(2), f_period_add));
    r.register(def("period_diff", 2, Some(2), f_period_diff));
    r.register(def("timestampdiff", 3, Some(3), f_timestampdiff));
}

/// Days between year 0001-01-01 (our epoch) and 1970-01-01.
const UNIX_EPOCH_DAYS: i64 = 719162;

fn f_now(ctx: &mut FnCtx<'_>, _args: &[Evaluated]) -> Result<Value, EngineError> {
    Ok(Value::DateTime(ctx.session.now))
}

fn f_curdate(ctx: &mut FnCtx<'_>, _args: &[Evaluated]) -> Result<Value, EngineError> {
    Ok(Value::Date(ctx.session.now.date))
}

fn f_curtime(ctx: &mut FnCtx<'_>, _args: &[Evaluated]) -> Result<Value, EngineError> {
    Ok(Value::Time(ctx.session.now.time))
}

fn f_date(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    Ok(Value::Date(dt.date))
}

fn f_time(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match &args[0].value {
        Value::Time(t) => Ok(Value::Time(*t)),
        _ => {
            let dt = some_or_null!(want_datetime(ctx, args, 0)?);
            Ok(Value::Time(dt.time))
        }
    }
}

macro_rules! date_part {
    ($name:ident, $get:expr) => {
        fn $name(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
            let dt = some_or_null!(want_datetime(ctx, args, 0)?);
            #[allow(clippy::redundant_closure_call)]
            let v: i64 = ($get)(&dt);
            Ok(Value::Integer(v))
        }
    };
}

date_part!(f_year, |dt: &DateTime| dt.date.year() as i64);
date_part!(f_month, |dt: &DateTime| dt.date.month() as i64);
date_part!(f_day, |dt: &DateTime| dt.date.day() as i64);
date_part!(f_hour, |dt: &DateTime| dt.time.hour() as i64);
date_part!(f_minute, |dt: &DateTime| dt.time.minute() as i64);
date_part!(f_second, |dt: &DateTime| dt.time.second() as i64);
date_part!(f_microsecond, |dt: &DateTime| dt.time.micros() as i64);
date_part!(f_dayofyear, |dt: &DateTime| dt.date.day_of_year() as i64);
date_part!(f_quarter, |dt: &DateTime| dt.date.quarter() as i64);
// MySQL DAYOFWEEK: 1 = Sunday ... 7 = Saturday.
date_part!(f_dayofweek, |dt: &DateTime| ((dt.date.weekday() + 1) % 7) as i64 + 1);
// MySQL WEEKDAY: 0 = Monday ... 6 = Sunday.
date_part!(f_weekday, |dt: &DateTime| dt.date.weekday() as i64);

fn f_week(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    if args.len() > 1 {
        let _mode = some_or_null!(want_int(ctx, args, 1)?);
    }
    Ok(Value::Integer(dt.date.iso_week() as i64))
}

const MONTHS: [&str; 12] = [
    "January", "February", "March", "April", "May", "June", "July", "August", "September",
    "October", "November", "December",
];
const DAYS: [&str; 7] =
    ["Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"];

fn f_monthname(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    Ok(Value::Text(MONTHS[dt.date.month() as usize - 1].to_string()))
}

fn f_dayname(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    Ok(Value::Text(DAYS[dt.date.weekday() as usize].to_string()))
}

fn f_datediff(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_datetime(ctx, args, 0)?);
    let b = some_or_null!(want_datetime(ctx, args, 1)?);
    Ok(Value::Integer(a.date.days_from_epoch() - b.date.days_from_epoch()))
}

fn add_interval(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    negate: bool,
) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    let iv = some_or_null!(want_interval(ctx, args, 1)?);
    let iv = if negate { iv.neg() } else { iv };
    match dt.add_interval(&iv) {
        Ok(out) => {
            // Collapse to a date when there is no time component involved.
            if out.time == Time::MIDNIGHT && iv.micros == 0 {
                ctx.branch("date-result");
                Ok(Value::Date(out.date))
            } else {
                Ok(Value::DateTime(out))
            }
        }
        Err(_) => {
            ctx.branch("out-of-range");
            Ok(Value::Null)
        }
    }
}

fn f_date_add(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    add_interval(ctx, args, false)
}

fn f_date_sub(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    add_interval(ctx, args, true)
}

fn f_last_day(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    Ok(Value::Date(dt.date.last_day()))
}

fn f_to_days(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    // MySQL TO_DAYS counts from year 0; our epoch is 0001-01-01 = day 366.
    Ok(Value::Integer(dt.date.days_from_epoch() + 366))
}

fn f_from_days(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let n = some_or_null!(want_int(ctx, args, 0)?);
    match Date::from_days_from_epoch(n - 366) {
        Ok(d) => Ok(Value::Date(d)),
        Err(_) => {
            ctx.branch("out-of-range");
            Ok(Value::Null)
        }
    }
}

fn f_unix_timestamp(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = if args.is_empty() {
        ctx.session.now
    } else {
        some_or_null!(want_datetime(ctx, args, 0)?)
    };
    let days = dt.date.days_from_epoch() - UNIX_EPOCH_DAYS;
    let secs = days * 86_400 + dt.time.micros_from_midnight() / 1_000_000;
    Ok(Value::Integer(secs))
}

fn f_from_unixtime(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let secs = some_or_null!(want_int(ctx, args, 0)?);
    let us = secs
        .checked_mul(1_000_000)
        .and_then(|v| v.checked_add(UNIX_EPOCH_DAYS * 86_400_000_000));
    match us.and_then(|v| DateTime::from_micros_from_epoch(v).ok()) {
        Some(dt) => Ok(Value::DateTime(dt)),
        None => {
            ctx.branch("out-of-range");
            Ok(Value::Null)
        }
    }
}

fn f_makedate(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let year = some_or_null!(want_int(ctx, args, 0)?);
    let doy = some_or_null!(want_int(ctx, args, 1)?);
    if doy < 1 {
        ctx.branch("non-positive-day");
        return Ok(Value::Null);
    }
    let year32 = match i32::try_from(year) {
        Ok(y) if (1..=9999).contains(&y) => y,
        _ => {
            ctx.branch("year-out-of-range");
            return Ok(Value::Null);
        }
    };
    let start = Date::new(year32, 1, 1).expect("jan 1 valid");
    match start.add_days(doy - 1) {
        Ok(d) => Ok(Value::Date(d)),
        Err(_) => {
            ctx.branch("overflow");
            Ok(Value::Null)
        }
    }
}

fn f_maketime(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let h = some_or_null!(want_int(ctx, args, 0)?);
    let m = some_or_null!(want_int(ctx, args, 1)?);
    let s = some_or_null!(want_int(ctx, args, 2)?);
    match (u8::try_from(h), u8::try_from(m), u8::try_from(s)) {
        (Ok(h), Ok(m), Ok(s)) => match Time::new(h, m, s, 0) {
            Ok(t) => Ok(Value::Time(t)),
            Err(_) => {
                ctx.branch("component-out-of-range");
                Ok(Value::Null)
            }
        },
        _ => {
            ctx.branch("component-out-of-range");
            Ok(Value::Null)
        }
    }
}

/// `DATE_FORMAT` with the common MySQL specifiers.
fn f_date_format(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let dt = some_or_null!(want_datetime(ctx, args, 0)?);
    let fmt = some_or_null!(want_text(ctx, args, 1)?);
    let mut out = String::new();
    let mut chars = fmt.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        match chars.next() {
            None => {
                ctx.branch("trailing-percent");
                break;
            }
            Some('Y') => out.push_str(&format!("{:04}", dt.date.year())),
            Some('y') => out.push_str(&format!("{:02}", dt.date.year() % 100)),
            Some('m') => out.push_str(&format!("{:02}", dt.date.month())),
            Some('c') => out.push_str(&dt.date.month().to_string()),
            Some('d') => out.push_str(&format!("{:02}", dt.date.day())),
            Some('e') => out.push_str(&dt.date.day().to_string()),
            Some('H') => out.push_str(&format!("{:02}", dt.time.hour())),
            Some('i') => out.push_str(&format!("{:02}", dt.time.minute())),
            Some('s') | Some('S') => out.push_str(&format!("{:02}", dt.time.second())),
            Some('f') => out.push_str(&format!("{:06}", dt.time.micros())),
            Some('M') => out.push_str(MONTHS[dt.date.month() as usize - 1]),
            Some('b') => out.push_str(&MONTHS[dt.date.month() as usize - 1][..3]),
            Some('W') => out.push_str(DAYS[dt.date.weekday() as usize]),
            Some('a') => out.push_str(&DAYS[dt.date.weekday() as usize][..3]),
            Some('j') => out.push_str(&format!("{:03}", dt.date.day_of_year())),
            Some('u') => out.push_str(&format!("{:02}", dt.date.iso_week())),
            Some('%') => out.push('%'),
            Some(other) => {
                ctx.branch("unknown-specifier");
                out.push(other);
            }
        }
    }
    Ok(Value::Text(out))
}

/// `STR_TO_DATE` for the `%Y`/`%m`/`%d`/`%H`/`%i`/`%s` specifiers.
fn f_str_to_date(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    let fmt = some_or_null!(want_text(ctx, args, 1)?);
    let mut year = 2000i32;
    let mut month = 1u8;
    let mut day = 1u8;
    let mut hour = 0u8;
    let mut minute = 0u8;
    let mut second = 0u8;
    let mut has_time = false;
    let mut has_date = false;
    let sb: Vec<char> = s.chars().collect();
    let mut si = 0usize;
    let mut fchars = fmt.chars().peekable();
    let read_num = |si: &mut usize, max_digits: usize| -> Option<i64> {
        let start = *si;
        let mut end = start;
        while end < sb.len() && end - start < max_digits && sb[end].is_ascii_digit() {
            end += 1;
        }
        if end == start {
            return None;
        }
        let v: i64 = sb[start..end].iter().collect::<String>().parse().ok()?;
        *si = end;
        Some(v)
    };
    while let Some(c) = fchars.next() {
        if c == '%' {
            match fchars.next() {
                Some('Y') => {
                    let v = match read_num(&mut si, 4) {
                        Some(v) => v,
                        None => {
                            ctx.branch("bad-year");
                            return Ok(Value::Null);
                        }
                    };
                    year = v as i32;
                    has_date = true;
                }
                Some('m') | Some('c') => {
                    match read_num(&mut si, 2) {
                        Some(v) => month = v as u8,
                        None => return Ok(Value::Null),
                    }
                    has_date = true;
                }
                Some('d') | Some('e') => {
                    match read_num(&mut si, 2) {
                        Some(v) => day = v as u8,
                        None => return Ok(Value::Null),
                    }
                    has_date = true;
                }
                Some('H') => {
                    match read_num(&mut si, 2) {
                        Some(v) => hour = v as u8,
                        None => return Ok(Value::Null),
                    }
                    has_time = true;
                }
                Some('i') => {
                    match read_num(&mut si, 2) {
                        Some(v) => minute = v as u8,
                        None => return Ok(Value::Null),
                    }
                    has_time = true;
                }
                Some('s') | Some('S') => {
                    match read_num(&mut si, 2) {
                        Some(v) => second = v as u8,
                        None => return Ok(Value::Null),
                    }
                    has_time = true;
                }
                _ => {
                    ctx.branch("unknown-specifier");
                    return Ok(Value::Null);
                }
            }
        } else {
            if si >= sb.len() || sb[si] != c {
                ctx.branch("literal-mismatch");
                return Ok(Value::Null);
            }
            si += 1;
        }
    }
    let date = match Date::new(year, month, day) {
        Ok(d) => d,
        Err(_) => {
            ctx.branch("invalid-date");
            return Ok(Value::Null);
        }
    };
    let time = match Time::new(hour, minute, second, 0) {
        Ok(t) => t,
        Err(_) => {
            ctx.branch("invalid-time");
            return Ok(Value::Null);
        }
    };
    if has_time || !has_date {
        Ok(Value::DateTime(DateTime::new(date, time)))
    } else {
        Ok(Value::Date(date))
    }
}

fn time_arith(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    negate: bool,
) -> Result<Value, EngineError> {
    let base = some_or_null!(want_datetime(ctx, args, 0)?);
    let t = match &args[1].value {
        Value::Time(t) => *t,
        Value::Null => return Ok(Value::Null),
        _ => {
            let s = some_or_null!(want_text(ctx, args, 1)?);
            match Time::parse(&s) {
                Ok(t) => t,
                Err(_) => {
                    ctx.branch("bad-time");
                    return Ok(Value::Null);
                }
            }
        }
    };
    let delta = t.micros_from_midnight() * if negate { -1 } else { 1 };
    match base.add_interval(&Interval { months: 0, days: 0, micros: delta }) {
        Ok(dt) => Ok(Value::DateTime(dt)),
        Err(_) => {
            ctx.branch("out-of-range");
            Ok(Value::Null)
        }
    }
}

fn f_addtime(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    time_arith(ctx, args, false)
}

fn f_subtime(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    time_arith(ctx, args, true)
}

fn f_sec_to_time(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let secs = some_or_null!(want_int(ctx, args, 0)?);
    if !(0..86_400).contains(&secs) {
        ctx.branch("out-of-range");
        return Ok(Value::Null);
    }
    Ok(Value::Time(
        Time::from_micros_from_midnight(secs * 1_000_000).expect("validated range"),
    ))
}

fn f_time_to_sec(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match &args[0].value {
        Value::Time(t) => Ok(Value::Integer(t.micros_from_midnight() / 1_000_000)),
        Value::Null => Ok(Value::Null),
        _ => {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            match Time::parse(&s) {
                Ok(t) => Ok(Value::Integer(t.micros_from_midnight() / 1_000_000)),
                Err(_) => {
                    ctx.branch("bad-time");
                    Ok(Value::Null)
                }
            }
        }
    }
}

fn f_period_add(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let p = some_or_null!(want_int(ctx, args, 0)?);
    let n = some_or_null!(want_int(ctx, args, 1)?);
    let (y, m) = (p / 100, p % 100);
    if !(1..=12).contains(&m) || y < 0 {
        ctx.branch("bad-period");
        return Ok(Value::Null);
    }
    let total = y * 12 + (m - 1) + n;
    if total < 0 {
        ctx.branch("underflow");
        return Ok(Value::Null);
    }
    Ok(Value::Integer((total / 12) * 100 + total % 12 + 1))
}

fn f_period_diff(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_int(ctx, args, 0)?);
    let b = some_or_null!(want_int(ctx, args, 1)?);
    let to_months = |p: i64| -> Option<i64> {
        let (y, m) = (p / 100, p % 100);
        if (1..=12).contains(&m) && y >= 0 {
            Some(y * 12 + m - 1)
        } else {
            None
        }
    };
    match (to_months(a), to_months(b)) {
        (Some(x), Some(y)) => Ok(Value::Integer(x - y)),
        _ => {
            ctx.branch("bad-period");
            Ok(Value::Null)
        }
    }
}

fn f_timestampdiff(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    // TIMESTAMPDIFF('unit', from, to) — unit as a string for parser
    // simplicity.
    let unit = some_or_null!(want_text(ctx, args, 0)?).to_ascii_uppercase();
    let a = some_or_null!(want_datetime(ctx, args, 1)?);
    let b = some_or_null!(want_datetime(ctx, args, 2)?);
    let us = b.micros_from_epoch() - a.micros_from_epoch();
    let months = (b.date.year() as i64 * 12 + b.date.month() as i64)
        - (a.date.year() as i64 * 12 + a.date.month() as i64);
    Ok(Value::Integer(match unit.as_str() {
        "MICROSECOND" => us,
        "SECOND" => us / 1_000_000,
        "MINUTE" => us / 60_000_000,
        "HOUR" => us / 3_600_000_000,
        "DAY" => us / 86_400_000_000,
        "WEEK" => us / (7 * 86_400_000_000),
        "MONTH" => months,
        "QUARTER" => months / 3,
        "YEAR" => months / 12,
        _ => {
            ctx.branch("unknown-unit");
            return runtime_err(format!("unknown TIMESTAMPDIFF unit {unit}"));
        }
    }))
}
