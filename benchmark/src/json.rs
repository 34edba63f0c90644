//! Readers over the `serde_json` value tree, for the documents the
//! benchmark itself wrote or ships (`BENCHMARK.json`, result sets).

use serde_json::Value;

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

pub fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        _ => &[],
    }
}
