//! JSON built-ins, including MariaDB's dynamic-column pair
//! (`COLUMN_CREATE` / `COLUMN_JSON` — the MDEV-8407 chain).

use crate::error::EngineError;
use crate::eval::Evaluated;
use crate::functions::string::some_or_null;
use crate::registry::*;
use soft_types::category::FunctionCategory as C;
use soft_types::json::{self, JsonPath, JsonValue};
use soft_types::value::Value;

fn def(name: &'static str, min: usize, max: Option<usize>, f: ScalarImpl) -> FunctionDef {
    FunctionDef {
        name,
        category: C::Json,
        min_args: min,
        max_args: max,
        implementation: FunctionImpl::Scalar(f),
    }
}

/// Registers the JSON functions.
pub fn install(r: &mut FunctionRegistry) {
    r.register(def("json_valid", 1, Some(1), f_json_valid));
    r.register(def("json_length", 1, Some(2), f_json_length));
    r.register(def("json_depth", 1, Some(1), f_json_depth));
    r.register(def("json_type", 1, Some(1), f_json_type));
    r.register(def("json_extract", 2, None, f_json_extract));
    r.register(def("json_keys", 1, Some(2), f_json_keys));
    r.register(def("json_array", 0, None, f_json_array));
    r.register(def("json_object", 0, None, f_json_object));
    r.register(def("json_quote", 1, Some(1), f_json_quote));
    r.register(def("json_unquote", 1, Some(1), f_json_unquote));
    r.register(def("json_contains", 2, Some(3), f_json_contains));
    r.register(def("json_merge", 2, None, f_json_merge));
    r.register(def("json_set", 3, None, f_json_set));
    r.register(def("json_insert", 3, None, f_json_insert));
    r.register(def("json_replace", 3, None, f_json_replace));
    r.register(def("json_remove", 2, None, f_json_remove));
    r.register(def("json_search", 3, Some(3), f_json_search));
    r.register(def("column_create", 2, None, f_column_create));
    r.register(def("column_json", 1, Some(1), f_column_json));
    r.register(def("column_get", 2, Some(2), f_column_get));
}

fn parse_path(ctx: &mut FnCtx<'_>, p: &str) -> Result<Option<JsonPath>, EngineError> {
    match JsonPath::parse(p) {
        Ok(path) => Ok(Some(path)),
        Err(_) => {
            ctx.branch("bad-path");
            Ok(None)
        }
    }
}

fn f_json_valid(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match &args[0].value {
        Value::Null => Ok(Value::Null),
        Value::Json(_) => Ok(Value::Boolean(true)),
        _ => {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            Ok(Value::Boolean(json::is_valid(&s)))
        }
    }
}

fn f_json_length(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let j = some_or_null!(want_json(ctx, args, 0)?);
    if args.len() > 1 {
        let p = some_or_null!(want_text(ctx, args, 1)?);
        let Some(path) = parse_path(ctx, &p)? else {
            return runtime_err(format!("invalid JSON path {p:?}"));
        };
        return match j.eval_path(&path) {
            // A path beyond the document (the Case 5 `$[2][1]` on a
            // 100-element outer array) correctly yields NULL.
            None => {
                ctx.branch("path-miss");
                Ok(Value::Null)
            }
            Some(v) => Ok(Value::Integer(v.length() as i64)),
        };
    }
    Ok(Value::Integer(j.length() as i64))
}

fn f_json_depth(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let j = some_or_null!(want_json(ctx, args, 0)?);
    Ok(Value::Integer(j.depth() as i64))
}

fn f_json_type(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let j = some_or_null!(want_json(ctx, args, 0)?);
    Ok(Value::Text(j.type_name().to_string()))
}

fn f_json_extract(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let j = some_or_null!(want_json(ctx, args, 0)?);
    let mut hits = Vec::new();
    for i in 1..args.len() {
        let p = some_or_null!(want_text(ctx, args, i)?);
        let Some(path) = parse_path(ctx, &p)? else {
            return runtime_err(format!("invalid JSON path {p:?}"));
        };
        if let Some(v) = j.eval_path(&path) {
            hits.push(v.clone());
        }
    }
    match hits.len() {
        0 => Ok(Value::Null),
        1 if args.len() == 2 => Ok(Value::Json(hits.pop_first())),
        _ => Ok(Value::Json(JsonValue::Array(hits))),
    }
}

trait PopFirst {
    fn pop_first(self) -> JsonValue;
}

impl PopFirst for Vec<JsonValue> {
    fn pop_first(mut self) -> JsonValue {
        self.remove(0)
    }
}

fn f_json_keys(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let j = some_or_null!(want_json(ctx, args, 0)?);
    let target = if args.len() > 1 {
        let p = some_or_null!(want_text(ctx, args, 1)?);
        let Some(path) = parse_path(ctx, &p)? else {
            return runtime_err(format!("invalid JSON path {p:?}"));
        };
        match j.eval_path(&path) {
            None => return Ok(Value::Null),
            Some(v) => v.clone(),
        }
    } else {
        j
    };
    match target {
        JsonValue::Object(fields) => Ok(Value::Json(JsonValue::Array(
            fields.into_iter().map(|(k, _)| JsonValue::String(k)).collect(),
        ))),
        _ => {
            ctx.branch("non-object");
            Ok(Value::Null)
        }
    }
}

/// Converts a SQL value to the JSON node `JSON_ARRAY`/`JSON_OBJECT` embed.
fn to_json_node(ctx: &mut FnCtx<'_>, e: &Evaluated) -> Result<JsonValue, EngineError> {
    Ok(match &e.value {
        Value::Null => JsonValue::Null,
        Value::Boolean(b) => JsonValue::Bool(*b),
        Value::Integer(i) => JsonValue::Number(i.to_string()),
        Value::Decimal(d) => JsonValue::Number(d.to_string()),
        Value::Float(f) => JsonValue::Number(format!("{f}")),
        Value::Json(j) => j.clone(),
        other => {
            let v = ctx.cast(
                &Evaluated { value: other.clone(), provenance: e.provenance.clone() },
                soft_types::value::DataType::Text,
                false,
            )?;
            match v.value {
                Value::Text(s) => JsonValue::String(s),
                _ => JsonValue::Null,
            }
        }
    })
}

fn f_json_array(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut items = Vec::with_capacity(args.len());
    for a in args {
        items.push(to_json_node(ctx, a)?);
    }
    let v = Value::Json(JsonValue::Array(items));
    ctx.charge(&v)?;
    Ok(v)
}

fn f_json_object(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    if args.len() % 2 != 0 {
        ctx.branch("odd-arity");
        return runtime_err("JSON_OBJECT(): odd number of arguments");
    }
    let mut fields = Vec::with_capacity(args.len() / 2);
    for pair in args.chunks(2) {
        let key = match &pair[0].value {
            Value::Null => {
                ctx.branch("null-key");
                return runtime_err("JSON_OBJECT(): NULL key");
            }
            v => v.render(),
        };
        fields.push((key, to_json_node(ctx, &pair[1])?));
    }
    let v = Value::Json(JsonValue::Object(fields));
    ctx.charge(&v)?;
    Ok(v)
}

fn f_json_quote(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let s = some_or_null!(want_text(ctx, args, 0)?);
    Ok(Value::Text(JsonValue::String(s).to_json_string()))
}

fn f_json_unquote(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    match &args[0].value {
        Value::Json(JsonValue::String(s)) => Ok(Value::Text(s.clone())),
        _ => {
            let s = some_or_null!(want_text(ctx, args, 0)?);
            match json::parse(&s) {
                Ok(JsonValue::String(inner)) => Ok(Value::Text(inner)),
                _ => {
                    ctx.branch("not-a-json-string");
                    Ok(Value::Text(s))
                }
            }
        }
    }
}

fn json_contains_node(hay: &JsonValue, needle: &JsonValue) -> bool {
    if hay == needle {
        return true;
    }
    match hay {
        JsonValue::Array(items) => items.iter().any(|i| json_contains_node(i, needle)),
        JsonValue::Object(fields) => fields.iter().any(|(_, v)| json_contains_node(v, needle)),
        _ => false,
    }
}

fn f_json_contains(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let hay = some_or_null!(want_json(ctx, args, 0)?);
    let needle = some_or_null!(want_json(ctx, args, 1)?);
    let target = if args.len() > 2 {
        let p = some_or_null!(want_text(ctx, args, 2)?);
        let Some(path) = parse_path(ctx, &p)? else {
            return runtime_err(format!("invalid JSON path {p:?}"));
        };
        match hay.eval_path(&path) {
            None => return Ok(Value::Null),
            Some(v) => v.clone(),
        }
    } else {
        hay
    };
    Ok(Value::Boolean(json_contains_node(&target, &needle)))
}

fn f_json_merge(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut acc = some_or_null!(want_json(ctx, args, 0)?);
    for i in 1..args.len() {
        let next = some_or_null!(want_json(ctx, args, i)?);
        acc = merge(acc, next);
    }
    let v = Value::Json(acc);
    ctx.charge(&v)?;
    Ok(v)
}

fn merge(a: JsonValue, b: JsonValue) -> JsonValue {
    match (a, b) {
        (JsonValue::Array(mut xs), JsonValue::Array(ys)) => {
            xs.extend(ys);
            JsonValue::Array(xs)
        }
        (JsonValue::Array(mut xs), y) => {
            xs.push(y);
            JsonValue::Array(xs)
        }
        (x, JsonValue::Array(mut ys)) => {
            ys.insert(0, x);
            JsonValue::Array(ys)
        }
        (JsonValue::Object(mut xf), JsonValue::Object(yf)) => {
            for (k, v) in yf {
                match xf.iter_mut().find(|(xk, _)| *xk == k) {
                    Some((_, xv)) => {
                        let old = std::mem::replace(xv, JsonValue::Null);
                        *xv = merge(old, v);
                    }
                    None => xf.push((k, v)),
                }
            }
            JsonValue::Object(xf)
        }
        (x, y) => JsonValue::Array(vec![x, y]),
    }
}

/// Shared body of JSON_SET / JSON_INSERT / JSON_REPLACE.
fn json_modify(
    ctx: &mut FnCtx<'_>,
    args: &[Evaluated],
    insert: bool,
    replace: bool,
) -> Result<Value, EngineError> {
    let mut doc = some_or_null!(want_json(ctx, args, 0)?);
    if (args.len() - 1) % 2 != 0 {
        ctx.branch("odd-arity");
        return runtime_err("path/value arguments must come in pairs");
    }
    let mut i = 1;
    while i + 1 < args.len() {
        let p = some_or_null!(want_text(ctx, args, i)?);
        let Some(path) = parse_path(ctx, &p)? else {
            return runtime_err(format!("invalid JSON path {p:?}"));
        };
        let node = to_json_node(ctx, &args[i + 1])?;
        set_path(&mut doc, &path.legs, node, insert, replace);
        i += 2;
    }
    let v = Value::Json(doc);
    ctx.charge(&v)?;
    Ok(v)
}

fn set_path(
    doc: &mut JsonValue,
    legs: &[json::PathLeg],
    node: JsonValue,
    insert: bool,
    replace: bool,
) {
    let Some(first) = legs.first() else {
        if replace {
            *doc = node;
        }
        return;
    };
    match (first, doc) {
        (json::PathLeg::Key(k), JsonValue::Object(fields)) => {
            let existing = fields.iter_mut().find(|(fk, _)| fk == k);
            match existing {
                Some((_, v)) => {
                    if legs.len() == 1 {
                        if replace {
                            *v = node;
                        }
                    } else {
                        set_path(v, &legs[1..], node, insert, replace);
                    }
                }
                None => {
                    if legs.len() == 1 && insert {
                        fields.push((k.clone(), node));
                    }
                }
            }
        }
        (json::PathLeg::Index(i), JsonValue::Array(items)) => {
            if *i < items.len() {
                if legs.len() == 1 {
                    if replace {
                        items[*i] = node;
                    }
                } else {
                    set_path(&mut items[*i], &legs[1..], node, insert, replace);
                }
            } else if legs.len() == 1 && insert {
                items.push(node);
            }
        }
        _ => {}
    }
}

fn f_json_set(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    json_modify(ctx, args, true, true)
}

fn f_json_insert(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    json_modify(ctx, args, true, false)
}

fn f_json_replace(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    json_modify(ctx, args, false, true)
}

fn f_json_remove(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let mut doc = some_or_null!(want_json(ctx, args, 0)?);
    for i in 1..args.len() {
        let p = some_or_null!(want_text(ctx, args, i)?);
        let Some(path) = parse_path(ctx, &p)? else {
            return runtime_err(format!("invalid JSON path {p:?}"));
        };
        remove_path(&mut doc, &path.legs);
    }
    Ok(Value::Json(doc))
}

fn remove_path(doc: &mut JsonValue, legs: &[json::PathLeg]) {
    let Some(first) = legs.first() else { return };
    match (first, doc) {
        (json::PathLeg::Key(k), JsonValue::Object(fields)) => {
            if legs.len() == 1 {
                fields.retain(|(fk, _)| fk != k);
            } else if let Some((_, v)) = fields.iter_mut().find(|(fk, _)| fk == k) {
                remove_path(v, &legs[1..]);
            }
        }
        (json::PathLeg::Index(i), JsonValue::Array(items)) => {
            if legs.len() == 1 {
                if *i < items.len() {
                    items.remove(*i);
                }
            } else if let Some(v) = items.get_mut(*i) {
                remove_path(v, &legs[1..]);
            }
        }
        _ => {}
    }
}

fn f_json_search(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let j = some_or_null!(want_json(ctx, args, 0)?);
    let mode = some_or_null!(want_text(ctx, args, 1)?).to_ascii_lowercase();
    let target = some_or_null!(want_text(ctx, args, 2)?);
    if mode != "one" && mode != "all" {
        ctx.branch("bad-mode");
        return runtime_err("JSON_SEARCH(): mode must be 'one' or 'all'");
    }
    let mut found = Vec::new();
    search(&j, "$", &target, &mut found);
    match (found.is_empty(), mode.as_str()) {
        (true, _) => Ok(Value::Null),
        (false, "one") => Ok(Value::Text(found.remove(0))),
        _ => Ok(Value::Json(JsonValue::Array(
            found.into_iter().map(JsonValue::String).collect(),
        ))),
    }
}

fn search(node: &JsonValue, path: &str, target: &str, out: &mut Vec<String>) {
    match node {
        JsonValue::String(s) if s == target => out.push(path.to_string()),
        JsonValue::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                search(item, &format!("{path}[{i}]"), target, out);
            }
        }
        JsonValue::Object(fields) => {
            for (k, v) in fields {
                search(v, &format!("{path}.{k}"), target, out);
            }
        }
        _ => {}
    }
}

/// MariaDB dynamic columns: `COLUMN_CREATE(name, value, ...)` produces an
/// opaque binary blob; we encode it as JSON text tagged with a magic byte so
/// `COLUMN_JSON`/`COLUMN_GET` can decode it.
const DYNCOL_MAGIC: u8 = 0x04;

fn f_column_create(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    if args.len() % 2 != 0 {
        ctx.branch("odd-arity");
        return runtime_err("COLUMN_CREATE(): name/value pairs required");
    }
    let mut fields = Vec::with_capacity(args.len() / 2);
    for pair in args.chunks(2) {
        let name = match &pair[0].value {
            Value::Null => {
                ctx.branch("null-name");
                return runtime_err("COLUMN_CREATE(): NULL column name");
            }
            v => v.render(),
        };
        // Values keep their numeric form — a 48-digit decimal stays 48
        // digits, which is what makes the MDEV-8407 chain reachable.
        fields.push((name, to_json_node(ctx, &pair[1])?));
    }
    let mut blob = vec![DYNCOL_MAGIC];
    blob.extend_from_slice(JsonValue::Object(fields).to_json_string().as_bytes());
    let v = Value::Binary(blob);
    ctx.charge(&v)?;
    Ok(v)
}

fn decode_dyncol(ctx: &mut FnCtx<'_>, b: &[u8]) -> Result<Option<JsonValue>, EngineError> {
    if b.first() != Some(&DYNCOL_MAGIC) {
        ctx.branch("not-a-dyncol");
        return Ok(None);
    }
    match std::str::from_utf8(&b[1..]).ok().and_then(|s| json::parse(s).ok()) {
        Some(j) => Ok(Some(j)),
        None => {
            ctx.branch("corrupt-dyncol");
            Ok(None)
        }
    }
}

fn f_column_json(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let b = some_or_null!(want_binary(ctx, args, 0)?);
    match decode_dyncol(ctx, &b)? {
        Some(j) => Ok(Value::Text(j.to_json_string())),
        None => runtime_err("COLUMN_JSON(): argument is not a dynamic column blob"),
    }
}

fn f_column_get(ctx: &mut FnCtx<'_>, args: &[Evaluated]) -> Result<Value, EngineError> {
    let b = some_or_null!(want_binary(ctx, args, 0)?);
    let name = some_or_null!(want_text(ctx, args, 1)?);
    match decode_dyncol(ctx, &b)? {
        Some(j) => match j.get_key(&name) {
            Some(v) => Ok(soft_types::cast::json_to_value(v)),
            None => Ok(Value::Null),
        },
        None => runtime_err("COLUMN_GET(): argument is not a dynamic column blob"),
    }
}
