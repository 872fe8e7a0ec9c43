//! Array and map built-ins (the DuckDB / ClickHouse surface of Table 4).

use crate::error::EngineError;
use crate::eval::Evaluated;
use crate::functions::string::some_or_null;
use crate::registry::*;
use soft_types::category::FunctionCategory as C;
use soft_types::value::Value;

fn adef(name: &'static str, min: usize, max: Option<usize>, f: ScalarImpl) -> FunctionDef {
    FunctionDef {
        name,
        category: C::Array,
        min_args: min,
        max_args: max,
        implementation: FunctionImpl::Scalar(f),
    }
}

fn mdef(name: &'static str, min: usize, max: Option<usize>, f: ScalarImpl) -> FunctionDef {
    FunctionDef {
        name,
        category: C::Map,
        min_args: min,
        max_args: max,
        implementation: FunctionImpl::Scalar(f),
    }
}

/// Registers the array and map functions.
pub fn install(r: &mut FunctionRegistry) {
    r.register(adef("array_length", 1, Some(1), f_array_length));
    r.register(adef("list_value", 0, None, f_list_value));
    r.register(adef("array_concat", 2, Some(2), f_array_concat));
    r.register(adef("array_append", 2, Some(2), f_array_append));
    r.register(adef("array_prepend", 2, Some(2), f_array_prepend));
    r.register(adef("array_slice", 3, Some(3), f_array_slice));
    r.register(adef("array_contains", 2, Some(2), f_array_contains));
    r.register(adef("array_position", 2, Some(2), f_array_position));
    r.register(adef("array_distinct", 1, Some(1), f_array_distinct));
    r.register(adef("array_reverse", 1, Some(1), f_array_reverse));
    r.register(adef("array_sort", 1, Some(1), f_array_sort));
    r.register(adef("array_min", 1, Some(1), f_array_min));
    r.register(adef("array_max", 1, Some(1), f_array_max));
    r.register(adef("array_sum", 1, Some(1), f_array_sum));
    r.register(adef("element_at", 2, Some(2), f_element_at));
    r.register(mdef("map", 0, None, f_map));
    r.register(mdef("map_keys", 1, Some(1), f_map_keys));
    r.register(mdef("map_values", 1, Some(1), f_map_values));
    r.register(mdef("map_contains_key", 2, Some(2), f_map_contains_key));
    r.register(mdef("map_from_entries", 1, Some(1), f_map_from_entries));
    r.register(mdef("cardinality", 1, Some(1), f_cardinality));
}

fn want_array(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<Vec<Value>>, EngineError> {
    match &args[i].value {
        Value::Null => Ok(None),
        Value::Array(items) => Ok(Some(items.clone())),
        _ => {
            let cast = ctx.cast(&args[i], soft_types::value::DataType::Array, false)?;
            match cast.value {
                Value::Array(items) => Ok(Some(items)),
                Value::Null => Ok(None),
                _ => type_err("expected an array"),
            }
        }
    }
}

fn want_map(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    i: usize,
) -> Result<Option<Vec<(Value, Value)>>, EngineError> {
    match &args[i].value {
        Value::Null => Ok(None),
        Value::Map(entries) => Ok(Some(entries.clone())),
        _ => {
            let cast = ctx.cast(&args[i], soft_types::value::DataType::Map, false)?;
            match cast.value {
                Value::Map(entries) => Ok(Some(entries)),
                Value::Null => Ok(None),
                _ => type_err("expected a map"),
            }
        }
    }
}

fn f_array_length(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    Ok(Value::Integer(a.len() as i64))
}

fn f_list_value(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let v = Value::Array(args.iter().map(|a| a.value.clone()).collect());
    ctx.charge(&v)?;
    Ok(v)
}

fn f_array_concat(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut a = some_or_null!(want_array(ctx, args, 0)?);
    let b = some_or_null!(want_array(ctx, args, 1)?);
    a.extend(b);
    let v = Value::Array(a);
    ctx.charge(&v)?;
    Ok(v)
}

fn f_array_append(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut a = some_or_null!(want_array(ctx, args, 0)?);
    a.push(args[1].value.clone());
    Ok(Value::Array(a))
}

fn f_array_prepend(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut a = some_or_null!(want_array(ctx, args, 1)?);
    a.insert(0, args[0].value.clone());
    Ok(Value::Array(a))
}

fn f_array_slice(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let begin = some_or_null!(want_int(ctx, args, 1)?);
    let end = some_or_null!(want_int(ctx, args, 2)?);
    let n = a.len() as i64;
    // DuckDB 1-based inclusive slicing; negatives count from the back.
    let norm = |i: i64| -> i64 {
        if i < 0 {
            n + i + 1
        } else {
            i
        }
    };
    let b = norm(begin).max(1);
    let e = norm(end).min(n);
    if b > e {
        ctx.branch("empty-slice");
        return Ok(Value::Array(Vec::new()));
    }
    Ok(Value::Array(a[(b - 1) as usize..e as usize].to_vec()))
}

fn f_array_contains(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let needle = &args[1].value;
    for item in &a {
        if item
            .sql_cmp(needle)
            .map_err(|e| EngineError::Sql(crate::error::SqlError::TypeError(e.to_string())))?
            == Some(std::cmp::Ordering::Equal)
        {
            return Ok(Value::Boolean(true));
        }
    }
    Ok(Value::Boolean(false))
}

fn f_array_position(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let needle = &args[1].value;
    for (i, item) in a.iter().enumerate() {
        if item
            .sql_cmp(needle)
            .map_err(|e| EngineError::Sql(crate::error::SqlError::TypeError(e.to_string())))?
            == Some(std::cmp::Ordering::Equal)
        {
            return Ok(Value::Integer(i as i64 + 1));
        }
    }
    ctx.branch("not-found");
    Ok(Value::Null)
}

fn f_array_distinct(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for item in a {
        if seen.insert(item.group_key()) {
            out.push(item);
        }
    }
    Ok(Value::Array(out))
}

fn f_array_reverse(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut a = some_or_null!(want_array(ctx, args, 0)?);
    a.reverse();
    Ok(Value::Array(a))
}

fn f_array_sort(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut a = some_or_null!(want_array(ctx, args, 0)?);
    let mut failed = false;
    a.sort_by(|x, y| match x.sql_cmp(y) {
        Ok(Some(o)) => o,
        _ => {
            failed = true;
            std::cmp::Ordering::Equal
        }
    });
    if failed {
        ctx.branch("incomparable");
        return type_err("ARRAY_SORT(): elements are not comparable");
    }
    Ok(Value::Array(a))
}

fn array_extremum(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    greatest: bool,
) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let mut best: Option<Value> = None;
    for item in a {
        if item.is_null() {
            continue;
        }
        match &best {
            None => best = Some(item),
            Some(b) => {
                let ord = item.sql_cmp(b).map_err(|e| {
                    EngineError::Sql(crate::error::SqlError::TypeError(e.to_string()))
                })?;
                let replace = matches!(
                    (ord, greatest),
                    (Some(std::cmp::Ordering::Greater), true)
                        | (Some(std::cmp::Ordering::Less), false)
                );
                if replace {
                    best = Some(item);
                }
            }
        }
    }
    if best.is_none() {
        ctx.branch("all-null-or-empty");
    }
    Ok(best.unwrap_or(Value::Null))
}

fn f_array_min(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    array_extremum(ctx, args, false)
}

fn f_array_max(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    array_extremum(ctx, args, true)
}

fn f_array_sum(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let mut acc = 0f64;
    let mut any = false;
    for item in a {
        if let Some(f) = item.as_f64() {
            acc += f;
            any = true;
        } else if !item.is_null() {
            ctx.branch("non-numeric");
            return type_err("ARRAY_SUM(): non-numeric element");
        }
    }
    if any {
        Ok(Value::Float(acc))
    } else {
        ctx.branch("empty");
        Ok(Value::Null)
    }
}

fn f_element_at(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match &args[0].value {
        Value::Map(entries) => {
            let key = &args[1].value;
            for (k, v) in entries {
                if k.sql_cmp(key)
                    .map_err(|e| EngineError::Sql(crate::error::SqlError::TypeError(e.to_string())))?
                    == Some(std::cmp::Ordering::Equal)
                {
                    return Ok(v.clone());
                }
            }
            ctx.branch("missing-key");
            Ok(Value::Null)
        }
        _ => {
            let a = some_or_null!(want_array(ctx, args, 0)?);
            let i = some_or_null!(want_int(ctx, args, 1)?);
            // 1-based; negative counts from the back (ClickHouse).
            let n = a.len() as i64;
            let idx = if i < 0 { n + i } else { i - 1 };
            if idx < 0 || idx >= n {
                ctx.branch("out-of-range");
                return Ok(Value::Null);
            }
            Ok(a[idx as usize].clone())
        }
    }
}

fn f_map(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    if args.len() % 2 != 0 {
        ctx.branch("odd-arity");
        return runtime_err("MAP(): key/value pairs required");
    }
    let mut entries = Vec::with_capacity(args.len() / 2);
    for pair in args.chunks(2) {
        if pair[0].value.is_null() {
            ctx.branch("null-key");
            return runtime_err("MAP(): NULL key");
        }
        entries.push((pair[0].value.clone(), pair[1].value.clone()));
    }
    let v = Value::Map(entries);
    ctx.charge(&v)?;
    Ok(v)
}

fn f_map_keys(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let m = some_or_null!(want_map(ctx, args, 0)?);
    Ok(Value::Array(m.into_iter().map(|(k, _)| k).collect()))
}

fn f_map_values(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let m = some_or_null!(want_map(ctx, args, 0)?);
    Ok(Value::Array(m.into_iter().map(|(_, v)| v).collect()))
}

fn f_map_contains_key(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let m = some_or_null!(want_map(ctx, args, 0)?);
    let key = &args[1].value;
    for (k, _) in &m {
        if k.sql_cmp(key)
            .map_err(|e| EngineError::Sql(crate::error::SqlError::TypeError(e.to_string())))?
            == Some(std::cmp::Ordering::Equal)
        {
            return Ok(Value::Boolean(true));
        }
    }
    Ok(Value::Boolean(false))
}

fn f_map_from_entries(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let a = some_or_null!(want_array(ctx, args, 0)?);
    let mut entries = Vec::with_capacity(a.len());
    for item in a {
        match item {
            Value::Row(mut kv) if kv.len() == 2 => {
                let v = kv.pop().expect("len 2");
                let k = kv.pop().expect("len 2");
                entries.push((k, v));
            }
            Value::Array(mut kv) if kv.len() == 2 => {
                let v = kv.pop().expect("len 2");
                let k = kv.pop().expect("len 2");
                entries.push((k, v));
            }
            _ => {
                ctx.branch("bad-entry");
                return type_err("MAP_FROM_ENTRIES(): entries must be pairs");
            }
        }
    }
    Ok(Value::Map(entries))
}

fn f_cardinality(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match &args[0].value {
        Value::Null => Ok(Value::Null),
        Value::Array(a) => Ok(Value::Integer(a.len() as i64)),
        Value::Map(m) => Ok(Value::Integer(m.len() as i64)),
        _ => {
            ctx.branch("non-container");
            type_err("CARDINALITY(): expected array or map")
        }
    }
}
