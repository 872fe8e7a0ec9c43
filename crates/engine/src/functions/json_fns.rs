//! JSON built-ins, including MariaDB's dynamic-column pair
//! (`COLUMN_CREATE` / `COLUMN_JSON` — the MDEV-8407 chain).

use crate::error::EngineError;
use crate::eval::Evaluated;
use crate::functions::string::some_or_null;
use crate::registry::*;
use soft_types::category::FunctionCategory as C;
use soft_types::json::{self, JsonPath, JsonValue, Legs, PathLeg};
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

fn parse_path<'p>(ctx: &mut FnCtx<'_>, p: &'p str) -> Result<Option<JsonPath<'p>>, EngineError> {
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
        _ => {
            let v = ctx.cast(e, soft_types::value::DataType::Text, false)?;
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
    Ok(Value::Text(JsonValue::String(s.into_owned()).to_json_string()))
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
                    Ok(Value::Text(s.into_owned()))
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
        set_path(&mut doc, path.legs(), node, insert, replace);
        i += 2;
    }
    let v = Value::Json(doc);
    ctx.charge(&v)?;
    Ok(v)
}

/// Applies one JSON_SET/INSERT/REPLACE path, reading its legs only as far
/// as the document reaches.
fn set_path(doc: &mut JsonValue, mut legs: Legs<'_>, node: JsonValue, insert: bool, replace: bool) {
    let Some(first) = legs.next() else {
        if replace {
            *doc = node;
        }
        return;
    };
    let last = legs.is_empty();
    match (first, doc) {
        (PathLeg::Key(k), JsonValue::Object(fields)) => {
            let existing = fields.iter_mut().find(|(fk, _)| fk == k);
            match existing {
                Some((_, v)) => {
                    if last {
                        if replace {
                            *v = node;
                        }
                    } else {
                        set_path(v, legs, node, insert, replace);
                    }
                }
                None => {
                    if last && insert {
                        fields.push((k.to_string(), node));
                    }
                }
            }
        }
        (PathLeg::Index(i), JsonValue::Array(items)) => {
            if i < items.len() {
                if last {
                    if replace {
                        items[i] = node;
                    }
                } else {
                    set_path(&mut items[i], legs, node, insert, replace);
                }
            } else if last && insert {
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
        remove_path(&mut doc, path.legs());
    }
    Ok(Value::Json(doc))
}

/// Applies one JSON_REMOVE path, reading its legs only as far as the
/// document reaches.
fn remove_path(doc: &mut JsonValue, mut legs: Legs<'_>) {
    let Some(first) = legs.next() else { return };
    let last = legs.is_empty();
    match (first, doc) {
        (PathLeg::Key(k), JsonValue::Object(fields)) => {
            if last {
                fields.retain(|(fk, _)| fk != k);
            } else if let Some((_, v)) = fields.iter_mut().find(|(fk, _)| fk == k) {
                remove_path(v, legs);
            }
        }
        (PathLeg::Index(i), JsonValue::Array(items)) => {
            if last {
                if i < items.len() {
                    items.remove(i);
                }
            } else if let Some(v) = items.get_mut(i) {
                remove_path(v, legs);
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

#[cfg(test)]
mod tests {
    use super::*;
    use soft_rng::Rng;

    /// The JSON path code before paths were read lazily: `parse` built an
    /// owned leg per step, and the walks took leg slices.
    mod reference {
        use soft_types::json::{JsonError, JsonValue};

        #[derive(Debug, Clone, PartialEq)]
        pub enum Leg {
            Key(String),
            Index(usize),
        }

        pub fn parse(text: &str) -> Result<Vec<Leg>, JsonError> {
            let bytes = text.trim().as_bytes();
            if bytes.first() != Some(&b'$') {
                return Err(JsonError::BadPath(text.to_string()));
            }
            let mut legs = Vec::new();
            let mut i = 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'.' => {
                        i += 1;
                        let start = i;
                        while i < bytes.len() && bytes[i] != b'.' && bytes[i] != b'[' {
                            i += 1;
                        }
                        if start == i {
                            return Err(JsonError::BadPath(text.to_string()));
                        }
                        let key = std::str::from_utf8(&bytes[start..i])
                            .map_err(|_| JsonError::BadPath(text.to_string()))?;
                        legs.push(Leg::Key(key.to_string()));
                    }
                    b'[' => {
                        i += 1;
                        let start = i;
                        while i < bytes.len() && bytes[i] != b']' {
                            i += 1;
                        }
                        if i == bytes.len() {
                            return Err(JsonError::BadPath(text.to_string()));
                        }
                        let idx = std::str::from_utf8(&bytes[start..i])
                            .ok()
                            .and_then(|s| s.trim().parse::<usize>().ok())
                            .ok_or_else(|| JsonError::BadPath(text.to_string()))?;
                        legs.push(Leg::Index(idx));
                        i += 1;
                    }
                    _ => return Err(JsonError::BadPath(text.to_string())),
                }
            }
            Ok(legs)
        }

        pub fn eval_path<'a>(v: &'a JsonValue, legs: &[Leg]) -> Option<&'a JsonValue> {
            let mut cur = v;
            for leg in legs {
                cur = match leg {
                    Leg::Key(k) => cur.get_key(k)?,
                    Leg::Index(i) => cur.get_index(*i)?,
                };
            }
            Some(cur)
        }

        pub fn set_path(
            doc: &mut JsonValue,
            legs: &[Leg],
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
                (Leg::Key(k), JsonValue::Object(fields)) => {
                    match fields.iter_mut().find(|(fk, _)| fk == k) {
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
                (Leg::Index(i), JsonValue::Array(items)) => {
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

        pub fn remove_path(doc: &mut JsonValue, legs: &[Leg]) {
            let Some(first) = legs.first() else { return };
            match (first, doc) {
                (Leg::Key(k), JsonValue::Object(fields)) => {
                    if legs.len() == 1 {
                        fields.retain(|(fk, _)| fk != k);
                    } else if let Some((_, v)) = fields.iter_mut().find(|(fk, _)| fk == k) {
                        remove_path(v, &legs[1..]);
                    }
                }
                (Leg::Index(i), JsonValue::Array(items)) => {
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
    }

    const KEYS: [&str; 5] = ["a", "b", "é", "a b", "x]y"];

    fn random_doc(rng: &mut Rng, depth: usize) -> JsonValue {
        match rng.gen_range(0..if depth == 0 { 2 } else { 4 }) {
            0 => JsonValue::Number(rng.gen_range(0..100u32).to_string()),
            1 => JsonValue::String((*rng.choose(&KEYS).expect("keys")).to_string()),
            2 => JsonValue::Array(
                (0..rng.gen_range(0..4usize))
                    .map(|_| random_doc(rng, depth - 1))
                    .collect(),
            ),
            _ => JsonValue::Object(
                (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        (
                            (*rng.choose(&KEYS).expect("keys")).to_string(),
                            random_doc(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Paths that are mostly well formed, with malformed legs, spaces,
    /// signs, multi-byte keys and indices past both ends mixed in.
    fn random_path(rng: &mut Rng) -> String {
        const PIECES: [&str; 16] = [
            ".a",
            ".b",
            ".é",
            ".a b",
            "[0]",
            "[1]",
            "[3]",
            "[ 2 ]",
            "[+1]",
            "[-1]",
            "[x]",
            ".",
            "[",
            "]",
            "[99999999999999999999]",
            "$",
        ];
        let mut p = String::new();
        if rng.gen_bool(0.1) {
            p.push(' ');
        }
        if rng.gen_bool(0.95) {
            p.push('$');
        }
        let broken = rng.gen_bool(0.2);
        for _ in 0..rng.gen_range(0..6usize) {
            let piece = if broken {
                rng.choose(&PIECES)
            } else {
                rng.choose(&PIECES[..10])
            };
            p.push_str(piece.expect("pieces"));
        }
        if rng.gen_bool(0.1) {
            p.push('\t');
        }
        p
    }

    #[test]
    fn lazy_paths_match_the_reference_walks() {
        let mut rng = Rng::seed_from_u64(0x5041_5448);
        let mut valid = 0;
        for _ in 0..4000 {
            let path = random_path(&mut rng);
            let doc = random_doc(&mut rng, 3);
            let (new, old) = (JsonPath::parse(&path), reference::parse(&path));
            assert_eq!(new.as_ref().err(), old.as_ref().err(), "{path:?}");
            let (Ok(new), Ok(old)) = (new, old) else {
                continue;
            };
            valid += 1;
            let as_old = |leg: PathLeg<'_>| match leg {
                PathLeg::Key(k) => reference::Leg::Key(k.to_string()),
                PathLeg::Index(i) => reference::Leg::Index(i),
            };
            assert_eq!(new.legs().map(as_old).collect::<Vec<_>>(), old, "{path:?}");
            assert_eq!(
                doc.eval_path(&new),
                reference::eval_path(&doc, &old),
                "{path:?}"
            );
            for (insert, replace) in [(true, true), (true, false), (false, true)] {
                let node = JsonValue::Number("7".into());
                let (mut a, mut b) = (doc.clone(), doc.clone());
                set_path(&mut a, new.legs(), node.clone(), insert, replace);
                reference::set_path(&mut b, &old, node, insert, replace);
                assert_eq!(a, b, "set {path:?} on {doc:?}");
            }
            let (mut a, mut b) = (doc.clone(), doc.clone());
            remove_path(&mut a, new.legs());
            reference::remove_path(&mut b, &old);
            assert_eq!(a, b, "remove {path:?} on {doc:?}");
        }
        assert!(valid > 2000, "only {valid} valid paths");
        // Pattern 3.1's path: 100,000 legs, none of which the walk reads
        // past the first.
        let long = "$.a".repeat(100_000);
        let doc = soft_types::json::parse(r#"{"a":1}"#).expect("json");
        let old = reference::parse(&long).expect("valid");
        assert_eq!(old.len(), 100_000);
        assert_eq!(doc.eval_path(&JsonPath::parse(&long).expect("valid")), None);
    }
}
