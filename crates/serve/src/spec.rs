//! Campaign request specs: strict JSON → [`CampaignConfig`].
//!
//! A `POST /campaign` body is a flat JSON object selecting a base
//! configuration and overriding individual knobs:
//!
//! ```json
//! {"base": "smoke", "tuples": 4, "riscv": 1, "seed": 2013,
//!  "commits": 8000, "warmup": 2000, "watchdog": 500000,
//!  "control": true, "cosim": true}
//! ```
//!
//! Parsing is **strict**: an unknown field or a wrong-typed value is a
//! `400`, never silently ignored. The cache key is derived from the
//! parsed configuration, so a typo that parsed leniently (`"tupels": 64`
//! dropped on the floor) would alias the request to the *default*
//! configuration's key and serve the wrong experiment's rows as a cache
//! hit. Strictness makes that failure loud instead.

use tv_core::CampaignConfig;

use crate::json::Json;

/// Parses a `POST /campaign` body into a campaign configuration.
///
/// An empty body selects the smoke base unchanged. `cosim` is accepted
/// (it must be a bool) and ignored: every campaign runs one
/// co-simulation bundle per tuple, so it names no part of the
/// experiment or its store key.
///
/// # Errors
///
/// Returns a client-facing message for malformed JSON, non-object
/// documents, unknown fields, wrong-typed values and out-of-range
/// numbers.
pub fn parse_spec(body: &[u8]) -> Result<CampaignConfig, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    if text.trim().is_empty() {
        return Ok(CampaignConfig::smoke());
    }
    let doc = Json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| "spec must be a JSON object".to_string())?;

    let mut config = match obj.get("base") {
        None => CampaignConfig::smoke(),
        Some(v) => match v.as_str() {
            Some("smoke") => CampaignConfig::smoke(),
            Some("full") => CampaignConfig::full(),
            Some(other) => return Err(format!("unknown base `{other}` (want smoke|full)")),
            None => return Err("field `base` must be a string".to_string()),
        },
    };

    for (key, value) in obj {
        match key.as_str() {
            "base" => {} // consumed above
            "tuples" => {
                config.tuples = usize_field(value, key, 4096)?;
            }
            "riscv" => {
                config.riscv_tuples = usize_field(value, key, 4096)?;
            }
            "seed" => {
                config.campaign_seed = u64_field(value, key)?;
            }
            "commits" => {
                config.commits = nonzero_field(value, key)?;
            }
            "warmup" => {
                config.warmup = u64_field(value, key)?;
            }
            "watchdog" => {
                config.watchdog_cycles = nonzero_field(value, key)?;
            }
            "control" => {
                config.include_control = bool_field(value, key)?;
            }
            "cosim" => {
                bool_field(value, key)?;
            }
            unknown => {
                return Err(format!(
                    "unknown field `{unknown}` (want base, tuples, riscv, seed, commits, \
                     warmup, watchdog, control, cosim)"
                ))
            }
        }
    }

    if config.tuples + config.riscv_tuples == 0 {
        return Err("spec selects zero tuples".to_string());
    }
    Ok(config)
}

fn u64_field(value: &Json, key: &str) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn nonzero_field(value: &Json, key: &str) -> Result<u64, String> {
    match u64_field(value, key)? {
        0 => Err(format!("field `{key}` must be positive")),
        n => Ok(n),
    }
}

fn usize_field(value: &Json, key: &str, max: usize) -> Result<usize, String> {
    let n = u64_field(value, key)?;
    if n > max as u64 {
        return Err(format!("field `{key}` exceeds the limit of {max}"));
    }
    Ok(n as usize)
}

fn bool_field(value: &Json, key: &str) -> Result<bool, String> {
    value
        .as_bool()
        .ok_or_else(|| format!("field `{key}` must be a boolean"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_body_and_explicit_smoke_are_the_same_experiment() {
        let empty = parse_spec(b"").expect("empty body");
        let smoke = parse_spec(br#"{"base": "smoke"}"#).expect("explicit smoke");
        assert_eq!(empty, smoke);
        assert_eq!(empty, CampaignConfig::smoke());
        assert_eq!(empty.store_key(), smoke.store_key());
    }

    #[test]
    fn overrides_land_on_the_right_knobs() {
        let cfg = parse_spec(
            br#"{"base": "full", "tuples": 8, "riscv": 1, "seed": 7, "commits": 5000,
                "warmup": 1000, "watchdog": 200000, "control": false, "cosim": true}"#,
        )
        .expect("valid spec");
        assert_eq!(cfg.tuples, 8);
        assert_eq!(cfg.riscv_tuples, 1);
        assert_eq!(cfg.campaign_seed, 7);
        assert_eq!(cfg.commits, 5_000);
        assert_eq!(cfg.warmup, 1_000);
        assert_eq!(cfg.watchdog_cycles, 200_000);
        assert!(!cfg.include_control);
    }

    #[test]
    fn cosim_is_accepted_as_a_no_op() {
        let plain = parse_spec(br#"{"tuples": 4}"#).expect("plain");
        for body in [&br#"{"tuples": 4, "cosim": true}"#[..], br#"{"tuples": 4, "cosim": false}"#] {
            assert_eq!(parse_spec(body).expect("cosim"), plain);
        }
        assert!(parse_spec(br#"{"cosim": 1}"#).is_err(), "still type-checked");
    }

    #[test]
    fn unknown_fields_and_bad_types_are_rejected_loudly() {
        // The typo case the strictness exists for: a lenient parser would
        // alias this to the default config's cache key.
        let err = parse_spec(br#"{"tupels": 64}"#).expect_err("typo field");
        assert!(err.contains("unknown field `tupels`"), "{err}");
        for (body, needle) in [
            (&br#"{"tuples": -1}"#[..], "non-negative"),
            (br#"{"tuples": 1.5}"#, "non-negative"),
            (br#"{"commits": 0}"#, "positive"),
            (br#"{"watchdog": 0}"#, "positive"),
            (br#"{"control": "yes"}"#, "boolean"),
            (br#"{"base": "huge"}"#, "unknown base"),
            (br#"{"base": 3}"#, "must be a string"),
            (br#"[1,2]"#, "JSON object"),
            (br#"{"tuples": 0, "riscv": 0}"#, "zero tuples"),
            (b"not json", "invalid JSON"),
        ] {
            let err = parse_spec(body).expect_err("must reject");
            assert!(err.contains(needle), "{err} (wanted `{needle}`)");
        }
    }
}
