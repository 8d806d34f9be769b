//! Machine-readable experiment records (JSON via [`crate::json`]).
//!
//! Every experiment binary emits one [`ExperimentRecord`] per run so the
//! paper-vs-measured comparison in `EXPERIMENTS.md` can be regenerated
//! mechanically.

use std::collections::BTreeMap;

use crate::json::Json;

/// One measured data point.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Point coordinates/settings, e.g. `{"request_kb": "64"}`.
    pub params: BTreeMap<String, String>,
    /// Measured values, e.g. `{"bw_mb_s": 3.17, "hit_ratio": 0.96}`.
    pub values: BTreeMap<String, f64>,
}

/// One experiment's full record.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Experiment id from DESIGN.md (e.g. "TAB1", "FIG4").
    pub id: String,
    /// What the experiment reproduces.
    pub description: String,
    /// Global configuration (machine shape, calibration name, seed …).
    pub config: BTreeMap<String, String>,
    /// Measured points.
    pub points: Vec<DataPoint>,
}

impl ExperimentRecord {
    /// Start a record.
    pub fn new(id: &str, description: &str) -> Self {
        ExperimentRecord {
            id: id.to_owned(),
            description: description.to_owned(),
            config: BTreeMap::new(),
            points: Vec::new(),
        }
    }

    /// Add a config entry.
    pub fn config(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.config.insert(key.to_owned(), value.to_string());
        self
    }

    /// Add a data point from `(param, value)` slices.
    pub fn point(&mut self, params: &[(&str, &str)], values: &[(&str, f64)]) -> &mut Self {
        self.points.push(DataPoint {
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            values: values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        });
        self
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert("id".to_owned(), Json::Str(self.id.clone()));
        root.insert(
            "description".to_owned(),
            Json::Str(self.description.clone()),
        );
        root.insert(
            "config".to_owned(),
            Json::Obj(
                self.config
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        );
        root.insert(
            "points".to_owned(),
            Json::Arr(
                self.points
                    .iter()
                    .map(|p| {
                        let mut obj = BTreeMap::new();
                        obj.insert(
                            "params".to_owned(),
                            Json::Obj(
                                p.params
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                    .collect(),
                            ),
                        );
                        obj.insert(
                            "values".to_owned(),
                            Json::Obj(
                                p.values
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                    .collect(),
                            ),
                        );
                        Json::Obj(obj)
                    })
                    .collect(),
            ),
        );
        Json::Obj(root).pretty()
    }

    /// Parse back from JSON.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let v = Json::parse(s)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let str_map = |v: &Json, key: &str| -> Result<BTreeMap<String, String>, String> {
            v.get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("missing object field {key:?}"))?
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_owned()))
                        .ok_or_else(|| format!("{key}.{k} is not a string"))
                })
                .collect()
        };
        let points = v
            .get("points")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing array field \"points\"".to_owned())?
            .iter()
            .map(|p| {
                let values = p
                    .get("values")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| "point missing \"values\"".to_owned())?
                    .iter()
                    .map(|(k, val)| {
                        val.as_f64()
                            .map(|f| (k.clone(), f))
                            .ok_or_else(|| format!("values.{k} is not a number"))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(DataPoint {
                    params: str_map(p, "params")?,
                    values,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ExperimentRecord {
            id: str_field("id")?,
            description: str_field("description")?,
            config: str_map(&v, "config")?,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_json() {
        let mut r = ExperimentRecord::new("TAB1", "I/O-bound read bandwidth");
        r.config("compute_nodes", 8).config("seed", 42).point(
            &[("request_kb", "64")],
            &[("bw_no_prefetch", 3.1), ("bw_prefetch", 2.9)],
        );
        let back = ExperimentRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.points[0].values["bw_prefetch"], 2.9);
    }
}
